// Attack forensics: run a small Internet through one week of the February
// 2014 attack wave, probe the amplifier pool, and reconstruct the victim
// population purely from monlist tables — the §4 "victimology" workflow
// as a downstream user would run it.
//
// Usage: ./build/examples/attack_forensics [--scale N] [--seed N]
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "core/amplifiers.h"
#include "core/victims.h"
#include "scan/prober.h"
#include "sim/attack.h"
#include "study/bus.h"
#include "util/format.h"

using namespace gorilla;

int main(int argc, char** argv) {
  sim::WorldConfig wcfg;
  wcfg.scale = 200;
  for (int i = 1; i + 1 < argc; ++i) {
    if (!std::strcmp(argv[i], "--scale")) {
      wcfg.scale = static_cast<std::uint32_t>(std::atoi(argv[i + 1]));
    }
    if (!std::strcmp(argv[i], "--seed")) {
      wcfg.seed = std::strtoull(argv[i + 1], nullptr, 10);
    }
  }
  std::printf("building a 1:%u-scale Internet...\n", wcfg.scale);
  sim::World world(wcfg);
  std::printf("  %zu NTP servers, %zu ever-vulnerable amplifiers\n\n",
              world.servers().size(), world.amplifier_indices().size());

  // One week of peak-season attacks (Feb 5 - Feb 12, days 96..103).
  sim::AttackEngineConfig acfg;
  acfg.seed = wcfg.seed ^ 0xa77acdULL;
  study::EventBus no_sinks;
  sim::AttackEngine attacks(world, acfg, no_sinks);
  for (int day = 96; day <= 103; ++day) attacks.run_day(day);
  std::printf("attack engine ground truth: %llu attacks, %llu unique "
              "victims, %s sent\n\n",
              static_cast<unsigned long long>(attacks.totals().ntp_attacks),
              static_cast<unsigned long long>(attacks.unique_victims()),
              util::bytes_str(static_cast<double>(
                  attacks.totals().response_bytes)).c_str());

  // Probe the pool (sample week 5 = 2014-02-14) and rebuild victimology
  // from the tables alone.
  core::VictimAnalysis victims(world.registry(), world.pbl());
  core::AmplifierCensus census(world.registry(), world.pbl());
  scan::Prober prober(world, net::Ipv4Address(198, 51, 100, 7));
  const int week = 5;
  census.begin_sample(week, util::onp_sample_dates()[week]);
  victims.begin_sample(week, util::onp_sample_dates()[week]);
  const auto summary = prober.run_monlist_sample(
      week, [&](const scan::AmplifierObservation& obs) {
        census.add(obs);
        victims.add(obs);
      });
  census.end_sample();
  victims.end_sample();

  std::printf("probe pass: %llu probes, %llu amplifiers answered\n",
              static_cast<unsigned long long>(summary.probes_sent),
              static_cast<unsigned long long>(summary.responders));
  const auto& row = victims.rows().front();
  std::printf("victims recovered from tables: %llu IPs across %llu ASes "
              "(%.0f%% end hosts)\n",
              static_cast<unsigned long long>(row.ips),
              static_cast<unsigned long long>(row.asns), row.end_host_pct);
  std::printf("recovered / ground truth victims: %.2f (tables see a ~44 h "
              "window, so <1 is expected)\n\n",
              static_cast<double>(row.ips) /
                  static_cast<double>(attacks.unique_victims()));

  util::TextTable ports({"rank", "port", "fraction"});
  const auto top = victims.top_ports(8);
  for (std::size_t i = 0; i < top.size(); ++i) {
    ports.add_row({std::to_string(i + 1), std::to_string(top[i].first),
                   util::fixed(top[i].second, 3)});
  }
  std::printf("attacked ports (expect 80 and 123 on top, then game ports):\n%s\n",
              ports.to_string().c_str());

  const auto top_ases = victims.top_victim_ases(5);
  std::printf("top victim ASes (the OVH analogue should lead):\n");
  for (const auto& [asn, packets] : top_ases) {
    std::printf("  AS%-5u %-20s %s packets\n", asn,
                world.registry().as_info(asn).name.c_str(),
                util::si_count(static_cast<double>(packets)).c_str());
  }
  return 0;
}
