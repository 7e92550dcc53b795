// Figure 11: aggregate NTP volume at Merit over three months (Dec 2013 -
// Mar 2014), split by direction (UDP sport=123 vs dport=123).
//
// Paper shape: NTP is a negligible fraction of Merit's 15-25 Gbps on a
// normal day; attacks become visible in the third week of December with an
// almost instantaneous rise, peaks exceeding 200 MB/s, and sustained
// elevation through the window (Merit hosted ~50 abused amplifiers).
#include <algorithm>
#include <cstdio>

#include "common.h"

namespace gorilla {
namespace {

int run(const bench::Options& opt) {
  bench::print_header("Figure 11: Merit NTP traffic (3 months)", opt);

  bench::StudyPipeline regional(opt, {30, opt.quick ? 90 : 121});
  regional.run();

  const util::SimTime start = 30 * util::kSecondsPerDay;
  const util::SimTime end =
      (opt.quick ? 90 : 121) * util::kSecondsPerDay;
  const auto egress = regional.merit->volume_series(
      start, end, util::kSecondsPerDay, telemetry::is_ntp_source);
  const auto ingress = regional.merit->volume_series(
      start, end, util::kSecondsPerDay, telemetry::is_ntp_dest);

  bench::print_volume_series("UDP sport=123 (amplifier egress):", egress);
  bench::print_volume_series("UDP dport=123 (triggers + scans in):", ingress);

  // Onset detection: first day egress exceeds 20x the early baseline.
  double baseline = 1.0;
  for (std::size_t d = 0; d < 14 && d < egress.bytes.size(); ++d) {
    baseline = std::max(baseline, egress.bytes[d]);
  }
  int onset = -1;
  double peak_rate = 0.0;
  for (std::size_t d = 0; d < egress.bytes.size(); ++d) {
    peak_rate = std::max(peak_rate,
                         egress.bytes[d] / util::kSecondsPerDay);
    if (onset < 0 && egress.bytes[d] > baseline * 20) {
      onset = 30 + static_cast<int>(d);
    }
  }
  std::printf("attack onset at Merit: %s   (paper: third week of December)\n",
              onset >= 0 ? util::to_string(util::date_from_sim_time(
                                               static_cast<util::SimTime>(
                                                   onset) *
                                               util::kSecondsPerDay))
                               .c_str()
                         : "not detected");
  std::printf("peak daily-average egress: %s/s   (paper: spikes above "
              "200 MB/s on a regional ISP)\n",
              util::bytes_str(peak_rate).c_str());
  return 0;
}

}  // namespace
}  // namespace gorilla

int main(int argc, char** argv) {
  return gorilla::run(gorilla::bench::parse_options(argc, argv, 40));
}
