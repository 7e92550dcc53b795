// Figure 13: time series of NTP volume toward the top-5 victims of Merit's
// amplifiers (the stacked-area plot), late January - early February.
//
// Paper shape: several multi-day coordinated campaigns; more than 35 Merit
// amplifiers used together against single victims; a diurnal pattern in
// the traffic suggesting a manual element; the larger attacks also last
// longer.
#include <cstdio>

#include "common.h"
#include "core/local_view.h"

namespace gorilla {
namespace {

int run(const bench::Options& opt) {
  bench::print_header("Figure 13: top-5 victims of Merit amplifiers", opt);

  // Jan 20 - Feb 19.
  bench::StudyPipeline regional(opt, {80, opt.quick ? 100 : 110});
  regional.run();

  core::LocalForensics merit_view(*regional.merit,
                                  regional.world->registry());
  const auto victims = merit_view.victims();
  const std::size_t n = std::min<std::size_t>(5, victims.size());
  if (n == 0) {
    std::printf("no qualifying victims at this scale; lower --scale\n");
    return 0;
  }

  const util::SimTime start = 80 * util::kSecondsPerDay;
  const util::SimTime end =
      (opt.quick ? 100 : 110) * util::kSecondsPerDay;
  util::TextTable table({"victim", "GB", "amplifiers", "dur (h)",
                         "volume (6h buckets)"});
  for (std::size_t i = 0; i < n; ++i) {
    const auto series = merit_view.victim_volume(
        victims[i].address, start, end, 6 * util::kSecondsPerHour);
    table.add_row({"Merit-" + std::string(1, static_cast<char>('A' + i)),
                   util::fixed(static_cast<double>(victims[i].bytes) / 1e9, 1),
                   std::to_string(victims[i].amplifiers),
                   util::fixed(victims[i].duration_hours, 0),
                   util::log_sparkline(series.bytes)});
  }
  std::printf("%s\n", table.to_string().c_str());

  std::size_t coordinated = 0;
  for (std::size_t i = 0; i < n; ++i) {
    if (victims[i].amplifiers >= 4) ++coordinated;
  }
  std::printf("top victims hit by coordinated amplifier sets (>=4 "
              "amplifiers): %zu of %zu\n",
              coordinated, n);
  std::printf("   (paper: all of the top victims; up to 42 amplifiers "
              "against one target)\n");
  // Larger attacks last longer (top half of Table 6).
  if (n >= 2) {
    std::printf("largest victim also among the longest: %s\n",
                victims[0].duration_hours >=
                        victims[n - 1].duration_hours
                    ? "yes (as in the paper)"
                    : "mixed");
  }
  return 0;
}

}  // namespace
}  // namespace gorilla

int main(int argc, char** argv) {
  return gorilla::run(gorilla::bench::parse_options(argc, argv, 40));
}
