// §4.4 cross-dataset validation: the February 10th OVH/CloudFlare attack.
//
// CloudFlare published the 1,297 ASes that hosted the amplifiers used in
// the ~400 Gbps attack; 1,291 of them also appeared in the ONP census, and
// those ASes carried 60% of ALL victim packets the study measured — the
// paper's strongest independent check that its monlist-table methodology
// sees real attacks. We rerun that check: the scripted OVH event plays the
// role of the disclosed attack; its amplifier-AS list is "published"; the
// census and victimology are rebuilt from probes alone and intersected.
#include <cstdio>
#include <set>

#include "common.h"
#include "core/remediation_analysis.h"

namespace gorilla {
namespace {

int run(const bench::Options& opt) {
  bench::print_header("§4.4 validation: the disclosed OVH attack vs the "
                      "census", opt);

  sim::World world(bench::world_config(opt));
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

  // The victim's CDN "publishes" the amplifier ASes of the disclosed event.
  const auto& events = attacks.scripted_events();
  if (events.empty()) {
    std::printf("no scripted event in this horizon (use >= 5 weeks)\n");
    return 0;
  }
  std::set<net::Asn> published_set;
  net::Ipv4Address event_victim = events.front().victim;
  for (const auto& event : events) {
    for (const auto amp : event.amplifiers) {
      if (const auto asn = world.registry().asn_of(
              world.servers()[amp].home_address)) {
        published_set.insert(*asn);
      }
    }
  }
  std::vector<net::Asn> published(published_set.begin(), published_set.end());

  const auto v = core::validate_published_as_list(published, victims);
  std::printf("disclosed event: %zu attack days against %s (the OVH "
              "analogue), %zu amplifier ASes published\n\n",
              events.size(), net::to_string(event_victim).c_str(),
              published.size());
  std::printf("published ASes also seen in our census: %zu of %zu (%.1f%%)"
              "   (paper: 1291 of 1297, 99.5%%)\n",
              v.overlapping_ases, v.published_ases,
              v.overlap_fraction * 100.0);
  std::printf("share of ALL victim packets carried by those ASes: %.0f%%"
              "   (paper: 60%%)\n\n",
              v.packet_share_of_total * 100.0);

  // And the victim-side check: the disclosed target should top the
  // victim-AS ranking (paper: OVH is #1 of 11,558; CloudFlare ranks 18th).
  const auto top = victims.top_victim_ases(3);
  const auto event_asn = world.registry().asn_of(event_victim);
  std::printf("victim-AS ranking check: disclosed target's AS is #%s\n",
              !top.empty() && event_asn && top[0].first == *event_asn
                  ? "1 (as in the paper)"
                  : "NOT 1");
  std::printf("\ncross-dataset agreement is what the paper leans on for\n"
              "confidence in the monlist methodology; it reproduces here\n"
              "because the tables really do witness the attack traffic.\n");
  return 0;
}

}  // namespace
}  // namespace gorilla

int main(int argc, char** argv) {
  return gorilla::run(gorilla::bench::standalone_options(argc, argv, 40));
}
