// Figure 12: aggregate NTP volume at CSU and FRGP (UDP sport/dport=123).
//
// Paper shape: attacks appear ~a month after Merit; volumes an order of
// magnitude below Merit's; CSU secures its nine servers on January 24 and
// its egress drops back to pre-attack levels within the day, while other
// FRGP networks keep reflecting through February. The largest ingress
// spike (Feb 10) ran 23 minutes near 3 GB/s for ~514 GB.
#include <algorithm>
#include <cstdio>

#include "common.h"
#include "core/local_view.h"

namespace gorilla {
namespace {

int run(const bench::Options& opt) {
  bench::print_header("Figure 12: CSU/FRGP NTP traffic (3 months)", opt);

  const int to_day = opt.quick ? 95 : 121;
  bench::StudyPipeline regional(opt, {30, to_day});
  regional.run();

  const util::SimTime start = 30 * util::kSecondsPerDay;
  const util::SimTime end = to_day * util::kSecondsPerDay;
  const auto csu_egress = regional.csu->volume_series(
      start, end, util::kSecondsPerDay, telemetry::is_ntp_source);
  const auto frgp_egress = regional.frgp->volume_series(
      start, end, util::kSecondsPerDay, telemetry::is_ntp_source);
  const auto frgp_ingress = regional.frgp->volume_series(
      start, end, util::kSecondsPerDay, [](const telemetry::FlowRecord& f) {
        return f.src_port == net::kNtpPort && f.dst_port != net::kNtpPort;
      });

  bench::print_volume_series("CSU egress (sport=123):", csu_egress);
  bench::print_volume_series("FRGP egress (sport=123):", frgp_egress);

  // CSU remediation check: egress after Jan 24 (day 84) vs before.
  double before = 0.0, after = 0.0;
  for (std::size_t d = 0; d < csu_egress.bytes.size(); ++d) {
    const int day = 30 + static_cast<int>(d);
    if (day >= 55 && day < 84) before = std::max(before, csu_egress.bytes[d]);
    if (day >= 86) after = std::max(after, csu_egress.bytes[d]);
  }
  std::printf("CSU peak egress before Jan 24: %s/day; after: %s/day"
              "   (paper: back to pre-attack levels once secured)\n",
              util::bytes_str(before).c_str(),
              util::bytes_str(after).c_str());

  // Largest FRGP-directed attack (ingress spike).
  core::LocalForensics frgp_view(*regional.frgp,
                                 regional.world->registry());
  const auto victims = frgp_view.victims();
  if (!victims.empty()) {
    const auto& worst = victims.front();
    std::printf("largest attack on an FRGP host: %s over %.0f min"
                "   (paper: 514 GB in 23 min at ~3 GB/s)\n",
                util::bytes_str(static_cast<double>(worst.bytes)).c_str(),
                worst.duration_hours * 60.0);
  }
  std::printf("FRGP keeps reflecting after CSU patched: %s\n",
              frgp_egress.bytes.back() > 10 * 1e6 ? "yes (as in the paper)"
                                                  : "no");
  (void)frgp_ingress;
  return 0;
}

}  // namespace
}  // namespace gorilla

int main(int argc, char** argv) {
  return gorilla::run(gorilla::bench::parse_options(argc, argv, 40));
}
