// §5.2: the attacker ecosystem — booters, botmasters, and their clues.
//
// The paper's §5.2 is qualitative: attacks are launched through a layered
// market (booter services hired by whoever wants the damage), scanning is
// centralized on Linux hosts while spoofed triggers come from Windows
// botnets, and the victim mix (game ports, end hosts) points at gamer
// feuds and paid take-downs. This bench surfaces the same clues from the
// simulated ecosystem's ground truth and from the traffic.
#include <algorithm>
#include <cstdio>
#include <numeric>

#include "common.h"
#include "core/local_view.h"

namespace gorilla {
namespace {

int run(const bench::Options& opt) {
  bench::print_header("§5.2: the attacker ecosystem", opt);

  sim::WorldConfig wcfg;
  wcfg.scale = opt.scale;
  wcfg.seed = opt.seed;
  sim::World world(wcfg);
  const auto& named = world.registry().named();
  telemetry::FlowCollector merit("Merit", {named.merit_space});
  study::CollectorSink sinks;
  sinks.vantages = {&merit};
  sim::AttackEngineConfig acfg;
  acfg.seed = opt.seed ^ 0xa77acdULL;
  sim::AttackEngine attacks(world, acfg, sinks);
  sim::ScanTrafficConfig scfg;
  scfg.seed = opt.seed ^ 0x5ca7ULL;
  sim::ScanTraffic scans(world, scfg);

  std::uint64_t game_port_attacks = 0, end_host_victims = 0, total = 0;
  const int from = 70, to = opt.quick ? 95 : 110;
  for (int day = from; day < to; ++day) {
    for (const auto& rec : attacks.run_day(day)) {
      ++total;
      if (rec.victim_end_host) ++end_host_victims;
      switch (rec.victim_port) {
        case 3074: case 53: case 25565: case 5223: case 27015:
        case 43594: case 9987: case 7777: case 2052: case 88:
          ++game_port_attacks;
          break;
        default:
          break;
      }
    }
    scans.run_day(day, nullptr, {&merit});
  }

  // Booter market concentration.
  const auto& per_booter = attacks.attacks_per_booter();
  std::vector<std::uint64_t> shares(per_booter.begin(), per_booter.end());
  std::sort(shares.begin(), shares.end(), std::greater<>());
  const double all = static_cast<double>(
      std::accumulate(shares.begin(), shares.end(), std::uint64_t{0}));
  double top5 = 0;
  for (std::size_t i = 0; i < 5 && i < shares.size(); ++i) {
    top5 += static_cast<double>(shares[i]);
  }
  std::printf("booter market: %zu services launched %s attacks; the top 5\n"
              "services account for %.0f%% — a concentrated gray market, as\n"
              "the booter-advertisement forums of 2014 suggest [19].\n\n",
              per_booter.size(), util::si_count(all).c_str(),
              all > 0 ? 100.0 * top5 / all : 0.0);

  std::size_t priming = 0;
  for (const auto& b : attacks.booters()) {
    if (b.primes_amplifiers) ++priming;
  }
  std::printf("services running booter-grade (priming) tooling: %zu of %zu\n",
              priming, attacks.booters().size());
  std::printf("attacks on explicit game ports: %.0f%%; victims that are end\n"
              "hosts: %.0f%% — the gamer-feud motive (§4.3.2, [18,19,31])\n\n",
              total ? 100.0 * static_cast<double>(game_port_attacks) /
                          static_cast<double>(total)
                    : 0.0,
              total ? 100.0 * static_cast<double>(end_host_victims) /
                          static_cast<double>(total)
                    : 0.0);

  // The TTL clue, recovered from traffic at the Merit vantage.
  core::LocalForensics view(merit, world.registry());
  const auto ttl = view.ttl_profile();
  if (ttl.scanner_mode_ttl && ttl.attack_mode_ttl) {
    std::printf("division of labor (TTL modes at the Merit border):\n");
    std::printf("  scanning:        TTL %d -> Linux machines, centralized "
                "list-building\n",
                static_cast<int>(*ttl.scanner_mode_ttl));
    std::printf("  spoofed triggers: TTL %d -> Windows bots, distributed "
                "attack launch\n",
                static_cast<int>(*ttl.attack_mode_ttl));
    std::printf("(paper: mode TTL 54 vs 109 at CSU, §7.2)\n");
  }
  return 0;
}

}  // namespace
}  // namespace gorilla

int main(int argc, char** argv) {
  return gorilla::run(gorilla::bench::parse_options(argc, argv, 40));
}
