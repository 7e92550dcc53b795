// Figure 16: scanners observed at both Merit and CSU, over time.
//
// Paper shape: only 42 common scanner IPs across the two sites, and most
// of those are research projects — open, aggressive, whole-space sweeps
// get seen everywhere, while malicious scanning is spread thin in time and
// space, so two distinct sites rarely catch the same malicious scanner.
// §7.2's TTL fingerprint: scanning traffic is Linux-built (mode TTL 54),
// spoofed attack triggers are Windows-built (mode TTL 109).
#include <cstdio>

#include "common.h"
#include "core/local_view.h"

namespace gorilla {
namespace {

int run(const bench::Options& opt) {
  bench::print_header("Figure 16: common Merit/CSU scanners + TTL profile",
                      opt);

  bench::StudyPipeline regional(opt, {30, opt.quick ? 80 : 95});
  regional.run();

  core::LocalForensics merit_view(*regional.merit,
                                  regional.world->registry());
  core::LocalForensics csu_view(*regional.csu, regional.world->registry());

  const auto merit_scanners = merit_view.scanners();
  const auto csu_scanners = csu_view.scanners();
  const auto common =
      core::LocalForensics::common_scanners(merit_view, csu_view);
  std::printf("scanners at Merit: %zu, at CSU: %zu, common: %zu"
              "   (paper: 42 common IPs, mostly research)\n\n",
              merit_scanners.size(), csu_scanners.size(), common.size());

  std::printf("common scanners (research sweeps see every site):\n");
  for (std::size_t i = 0; i < common.size() && i < 12; ++i) {
    std::printf("  %s\n", net::to_string(common[i]).c_str());
  }

  const auto merit_ttl = merit_view.ttl_profile();
  std::printf("\nTTL inference at Merit (§7.2):\n");
  if (merit_ttl.scanner_mode_ttl) {
    std::printf("  scanning traffic mode TTL: %d -> Linux-built scanners"
                "   (paper: 54)\n",
                static_cast<int>(*merit_ttl.scanner_mode_ttl));
  }
  if (merit_ttl.attack_mode_ttl) {
    std::printf("  spoofed trigger mode TTL:  %d -> Windows botnet nodes"
                "   (paper: 109)\n",
                static_cast<int>(*merit_ttl.attack_mode_ttl));
  }
  std::printf("\nscanning is open and centralized; attack spoofing is "
              "botnet-distributed —\nthe division of labor the paper "
              "inferred from these TTLs.\n");
  return 0;
}

}  // namespace
}  // namespace gorilla

int main(int argc, char** argv) {
  return gorilla::run(gorilla::bench::parse_options(argc, argv, 40));
}
