// Figure 9: unique darknet scanner IPs per day overlaid with Merit's
// operational NTP egress volume (UDP sport=123).
//
// Paper shape: large-scale NTP scanning switches on in mid-December 2013;
// the rise in scanning *precedes* the rise in actual NTP attack traffic by
// roughly a week — the darknet-as-early-warning finding.
#include <algorithm>
#include <cstdio>

#include "common.h"

namespace gorilla {
namespace {

int run(const bench::Options& opt) {
  bench::print_header("Figure 9: darknet scanners vs Merit NTP egress", opt);

  // Late Nov 2013 - early Feb 2014.
  bench::StudyPipeline regional(opt, {20, opt.quick ? 80 : 95},
                                /*with_darknet=*/true);
  regional.run();

  const util::SimTime start = 20 * util::kSecondsPerDay;
  const util::SimTime end =
      (opt.quick ? 80 : 95) * util::kSecondsPerDay;
  const auto egress = regional.merit->volume_series(
      start, end, util::kSecondsPerDay, telemetry::is_ntp_source);
  const auto scanners = regional.darknet->unique_scanners_per_day();

  util::TextTable table({"date", "unique scanners", "Merit NTP egress"});
  std::vector<double> scanner_series, egress_series;
  int first_scan_surge = -1, first_egress_surge = -1;
  const double scan_baseline = 3.0;
  double egress_baseline = 0.0;
  for (int day = 20; day < (opt.quick ? 80 : 95); ++day) {
    const auto it = scanners.find(day);
    const double n_scanners =
        it == scanners.end() ? 0.0 : static_cast<double>(it->second);
    const double egress_bytes =
        egress.bytes[static_cast<std::size_t>(day - 20)];
    scanner_series.push_back(n_scanners);
    egress_series.push_back(egress_bytes);
    if (day < 40) egress_baseline = std::max(egress_baseline, egress_bytes);
    if (first_scan_surge < 0 && n_scanners > scan_baseline * 4) {
      first_scan_surge = day;
    }
    // Absolute floor: a lone early reflection blip on a near-zero baseline
    // is not "the attacks arriving".
    if (first_egress_surge < 0 && day >= 40 &&
        egress_bytes > std::max(10e9, egress_baseline * 10)) {
      first_egress_surge = day;
    }
    if (day % 5 == 0) {
      table.add_row({util::to_string(util::date_from_sim_time(
                         static_cast<util::SimTime>(day) *
                         util::kSecondsPerDay)),
                     util::fixed(n_scanners, 0),
                     util::bytes_str(egress_bytes) + "/day"});
    }
  }
  std::printf("%s\n", table.to_string().c_str());
  std::printf("scanners: %s\n", util::sparkline(scanner_series).c_str());
  std::printf("egress:   %s\n\n", util::log_sparkline(egress_series).c_str());

  if (first_scan_surge >= 0 && first_egress_surge >= 0) {
    std::printf("scanning surge begins: %s\n",
                util::to_string(util::date_from_sim_time(
                                    static_cast<util::SimTime>(
                                        first_scan_surge) *
                                    util::kSecondsPerDay))
                    .c_str());
    std::printf("attack egress surge:   %s\n",
                util::to_string(util::date_from_sim_time(
                                    static_cast<util::SimTime>(
                                        first_egress_surge) *
                                    util::kSecondsPerDay))
                    .c_str());
    std::printf("lead time: %d days   (paper: scanning precedes attacks by "
                "~1 week)\n",
                first_egress_surge - first_scan_surge);
  } else {
    std::printf("surge detection incomplete at this scale; raise --scale "
                "fidelity (lower N) and rerun\n");
  }
  return 0;
}

}  // namespace
}  // namespace gorilla

int main(int argc, char** argv) {
  return gorilla::run(gorilla::bench::parse_options(argc, argv, 40));
}
