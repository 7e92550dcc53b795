// Ablation: how much did the community response actually matter?
//
// §6.4 asks why remediation happened so fast (CERT notifications, operator
// self-interest) but cannot establish causality from observational data.
// A simulator can ask the counterfactuals directly. Four worlds, identical
// except for the mitigation regime:
//   A. paper       — the calibrated remediation hazards (what happened)
//   B. no-notify   — hazards at 40% speed (no notification campaign;
//                     Kührer et al. credit notifications with speeding
//                     remediation)
//   C. no-response — nobody patches at all
//   D. rate-limit  — no patching, but every amplifier deploys a mode 7
//                     rate limit (Merit's interim mitigation, §7.1)
// Reported per world: amplifier pool at the last sample, total victim
// packets witnessed, and the 95th-percentile per-victim packet count late
// in the study.
#include <cstdio>

#include "common.h"

namespace gorilla {
namespace {

struct Outcome {
  std::uint64_t pool_first = 0;
  std::uint64_t pool_last = 0;
  std::uint64_t victim_packets = 0;
  std::uint64_t emitted_bytes = 0;  ///< attack bytes amplifiers sent
  double late_p95 = 0.0;
  std::uint64_t victims = 0;
};

Outcome run_world(const bench::Options& opt, double remediation_speed,
                  std::uint32_t rate_limit_per_minute) {
  sim::WorldConfig wcfg = bench::world_config(opt);
  wcfg.remediation_speed = remediation_speed;
  sim::World world(wcfg);

  if (rate_limit_per_minute > 0) {
    for (const auto ai : world.amplifier_indices()) {
      if (auto* server = world.detailed(ai)) {
        server->set_mode7_rate_limit(rate_limit_per_minute);
      }
    }
  }

  core::AmplifierCensus census(world.registry(), world.pbl());
  core::VictimAnalysis victims(world.registry(), world.pbl());
  study::AnalysisSink analyses;
  analyses.census = &census;
  analyses.victims = &victims;
  study::EventBus no_sinks;
  sim::AttackEngine attacks(world, bench::attack_config(opt), no_sinks);
  sim::ScanTraffic scans(world, bench::scan_config(opt));
  scan::Prober prober(world, net::Ipv4Address(198, 51, 100, 7));

  const int weeks = opt.quick ? 8 : 15;
  int day = 40;
  for (int week = 0; week < weeks; ++week) {
    const int sample_day = util::onp_sample_day(week);
    for (; day <= sample_day; ++day) attacks.run_day(day);
    scans.seed_monitor_tables(week);
    prober.run_monlist_sample(week, analyses);
  }

  Outcome out;
  out.pool_first = census.rows().front().ips;
  out.pool_last = census.rows().back().ips;
  out.victim_packets = victims.total_packets();
  out.emitted_bytes = attacks.totals().response_bytes;
  out.late_p95 = victims.rows().back().packets_p95;
  out.victims = victims.unique_victims();
  return out;
}

int run(const bench::Options& opt) {
  bench::print_header(
      "Ablation (§6.4): value of the community response", opt);

  struct Scenario {
    const char* name;
    double speed;
    std::uint32_t rate_limit;
  };
  const Scenario scenarios[] = {
      {"A. paper remediation", 1.0, 0},
      {"B. no notification campaign (40% speed)", 0.4, 0},
      {"C. no community response", 0.0, 0},
      {"D. no patching, mode7 rate-limited", 0.0, 60},
  };

  util::TextTable table({"scenario", "pool first", "pool last",
                         "witnessed pkts", "emitted volume",
                         "late p95/victim", "victims"});
  for (const auto& s : scenarios) {
    const auto o = run_world(opt, s.speed, s.rate_limit);
    table.add_row({s.name, std::to_string(o.pool_first),
                   std::to_string(o.pool_last),
                   util::si_count(static_cast<double>(o.victim_packets)),
                   util::bytes_str(static_cast<double>(o.emitted_bytes)),
                   util::si_count(o.late_p95),
                   std::to_string(o.victims)});
  }
  std::printf("%s\n", table.to_string().c_str());

  std::printf(
      "reading: remediation (A) removes ~90%% of the pool and most of the\n"
      "emitted attack volume; without the notification campaign (B) both\n"
      "stay substantially higher; with no response at all (C) the full pool\n"
      "keeps reflecting through April. Rate-limiting alone (D) leaves the\n"
      "pool and the *witnessed* spoofed-trigger counts untouched (monlist\n"
      "still logs every trigger) but collapses the volume amplifiers can\n"
      "emit — exactly why Merit deployed it as an interim measure (§7.1).\n"
      "The paper's observational claim that mitigation drove the decline\n"
      "(§6) is causally consistent with the model.\n");
  return 0;
}

}  // namespace
}  // namespace gorilla

int main(int argc, char** argv) {
  return gorilla::run(gorilla::bench::standalone_options(argc, argv, 80));
}
