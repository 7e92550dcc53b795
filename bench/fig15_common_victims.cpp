// Figure 15: victims common to Merit and FRGP — traffic toward the shared
// targets as seen from both vantage points.
//
// Paper shape: 291 victims were attacked via amplifiers at *both* sites
// (clear evidence of coordinated amplifier use), though the common-target
// volumes are fairly low compared to each site's top victims.
#include <cstdio>

#include "common.h"
#include "core/local_view.h"

namespace gorilla {
namespace {

int run(const bench::Options& opt) {
  bench::print_header("Figure 15: common Merit/FRGP victims", opt);

  const int from = 80, to = opt.quick ? 100 : 115;
  bench::StudyPipeline regional(opt, {from, to});
  regional.run();

  core::LocalForensics merit_view(*regional.merit,
                                  regional.world->registry());
  core::LocalForensics frgp_view(*regional.frgp, regional.world->registry());

  const auto common =
      core::LocalForensics::common_victims(merit_view, frgp_view);
  std::printf("victims at Merit: %llu, at FRGP: %llu, common: %zu"
              "   (paper: 13386 / 5659 / 291 at full scale)\n\n",
              static_cast<unsigned long long>(
                  merit_view.unique_victim_count()),
              static_cast<unsigned long long>(frgp_view.unique_victim_count()),
              common.size());

  const util::SimTime start = from * util::kSecondsPerDay;
  const util::SimTime end = to * util::kSecondsPerDay;
  double merit_total = 0.0, frgp_total = 0.0;
  std::vector<double> merit_series, frgp_series;
  for (const auto& victim : common) {
    const auto ms = merit_view.victim_volume(victim, start, end,
                                             util::kSecondsPerDay);
    const auto fs = frgp_view.victim_volume(victim, start, end,
                                            util::kSecondsPerDay);
    if (merit_series.empty()) {
      merit_series.assign(ms.bytes.size(), 0.0);
      frgp_series.assign(fs.bytes.size(), 0.0);
    }
    for (std::size_t b = 0; b < ms.bytes.size(); ++b) {
      merit_series[b] += ms.bytes[b];
      merit_total += ms.bytes[b];
    }
    for (std::size_t b = 0; b < fs.bytes.size(); ++b) {
      frgp_series[b] += fs.bytes[b];
      frgp_total += fs.bytes[b];
    }
  }
  if (!common.empty()) {
    std::printf("volume to common victims, Merit vantage: %s   %s\n",
                util::bytes_str(merit_total).c_str(),
                util::log_sparkline(merit_series).c_str());
    std::printf("volume to common victims, FRGP vantage:  %s   %s\n",
                util::bytes_str(frgp_total).c_str(),
                util::log_sparkline(frgp_series).c_str());
    std::printf("\ncommon-victim volumes are modest relative to each site's "
                "top victims,\nas the paper observed; their existence shows "
                "coordinated amplifier use.\n");
  } else {
    std::printf("no common victims at this scale; lower --scale and rerun\n");
  }
  return 0;
}

}  // namespace
}  // namespace gorilla

int main(int argc, char** argv) {
  return gorilla::run(gorilla::bench::parse_options(argc, argv, 40));
}
