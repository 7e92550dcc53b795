// Table 6: the five most-attacked victims at Merit and CSU — origin AS,
// region, BAF, number of local amplifiers used, attack duration, and GB
// received.
//
// Paper shape: Merit's top victims absorbed 1.6-5.9 TB over 114-166-hour
// multi-day campaigns from up to 42 coordinated amplifiers, spread across
// Japan, China, the USA, and Germany; CSU's top victims (France/OVH,
// Romania, Brazil, UK) each received 10-17 GB via all nine CSU amplifiers.
#include <cstdio>

#include "common.h"
#include "core/local_view.h"

namespace gorilla {
namespace {

void print_site(const char* site, const core::LocalForensics& view,
                std::size_t n) {
  const auto victims = view.victims();
  std::printf("-- top victims of %s amplifiers (%llu victims total) --\n",
              site, static_cast<unsigned long long>(
                        view.unique_victim_count()));
  util::TextTable table({"Victim", "ASN", "Region", "BAF", "Amplifiers",
                         "Dur. Hours", "GB"});
  for (std::size_t i = 0; i < victims.size() && i < n; ++i) {
    const auto& v = victims[i];
    table.add_row({std::string(site) + "-" +
                       std::string(1, static_cast<char>('A' + i)),
                   v.asn ? "AS" + std::to_string(*v.asn) : "-",
                   v.region.empty() ? "-" : v.region,
                   util::fixed(v.baf, 0), std::to_string(v.amplifiers),
                   util::fixed(v.duration_hours, 0),
                   util::fixed(static_cast<double>(v.bytes) / 1e9, 1)});
  }
  std::printf("%s\n", table.to_string().c_str());
}

int run(const bench::Options& opt) {
  bench::print_header("Table 6: top-5 victims at Merit and CSU", opt);

  bench::StudyPipeline regional(opt, {78, opt.quick ? 92 : 98});
  regional.run();

  core::LocalForensics merit_view(*regional.merit,
                                  regional.world->registry());
  core::LocalForensics csu_view(*regional.csu, regional.world->registry());

  print_site("Merit", merit_view, 5);
  print_site("CSU", csu_view, 5);

  std::printf("paper anchors: Merit-A AS4713 Japan, BAF 105, 42 amplifiers, "
              "114 h, 5887 GB;\n"
              "               CSU-F AS16276 France (OVH), BAF 730, 9 "
              "amplifiers, 31 h, 17 GB\n");
  std::printf("note the coordinated-reflection signature: CSU victims are "
              "hit by the\nwhole nine-amplifier set at once (§7.1).\n");
  return 0;
}

}  // namespace
}  // namespace gorilla

int main(int argc, char** argv) {
  return gorilla::run(gorilla::bench::parse_options(argc, argv, 40));
}
