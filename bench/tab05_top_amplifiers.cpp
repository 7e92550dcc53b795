// Table 5: the five worst amplifiers at Merit and at CSU — BAF (UDP
// payload ratio), unique victims contacted, and gigabytes sent.
//
// Paper shape: Merit's top amplifiers ran BAFs near 1000-1300 (primed
// tables answered with ~44 KB for 48-byte queries) and individually hit
// 1600-3000+ victims, sending up to ~5.8 TB each; CSU's nine amplifiers
// show BAFs of ~465-805 and tens-to-hundreds of victims.
#include <cstdio>

#include "common.h"
#include "core/local_view.h"

namespace gorilla {
namespace {

void print_site(const char* site, const core::LocalForensics& view,
                std::size_t n) {
  const auto amps = view.amplifiers();
  std::printf("-- top amplifiers at %s (%zu qualify) --\n", site,
              amps.size());
  util::TextTable table({"Amplifier", "BAF", "Unique victims", "GB sent"});
  for (std::size_t i = 0; i < amps.size() && i < n; ++i) {
    table.add_row({std::string(site) + "-" +
                       std::string(1, static_cast<char>('A' + i)),
                   util::fixed(amps[i].baf, 0),
                   std::to_string(amps[i].unique_victims),
                   util::fixed(static_cast<double>(amps[i].bytes_sent) / 1e9,
                               1)});
  }
  std::printf("%s\n", table.to_string().c_str());
}

int run(const bench::Options& opt) {
  bench::print_header("Table 5: top-5 amplifiers at Merit and CSU", opt);

  // Merit's forensic window: 12 days from Jan 25; CSU/FRGP: 19 days from
  // Jan 18. We run the union and analyze per-site.
  bench::StudyPipeline regional(opt, {78, opt.quick ? 92 : 98});
  regional.run();

  core::LocalForensics merit_view(*regional.merit,
                                  regional.world->registry());
  core::LocalForensics csu_view(*regional.csu, regional.world->registry());

  print_site("Merit", merit_view, 5);
  print_site("CSU", csu_view, 5);

  std::printf("paper anchors: Merit-A BAF 1297 / 1966 victims / 375 GB;\n"
              "               Merit-C 1004 / 3072 / 5808 GB;"
              " CSU-F 805 / 38 / 162 GB\n");
  std::printf("(regional amplifier *counts* are absolute — 50 Merit, 9 CSU "
              "— so these\n league tables are directly comparable across "
              "world scales)\n");
  return 0;
}

}  // namespace
}  // namespace gorilla

int main(int argc, char** argv) {
  return gorilla::run(gorilla::bench::parse_options(argc, argv, 40));
}
