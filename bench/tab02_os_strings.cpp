// Table 2: operating-system strings reported to the `version` command,
// for three pools — mega amplifiers, all monlist amplifiers, all NTP —
// plus the §3.3 stratum-16 and compile-year census.
//
// Paper shape: the overall pool is cisco-led (48%) with unix (31%) and
// linux (19%); monlist amplifiers are linux-led (80%); megas are linux
// (44%) and junos (36%). 19% of servers report stratum 16; 59% of build
// dates predate 2012, 13% predate 2004.
#include <cstdio>

#include "common.h"

namespace gorilla {
namespace {

int run(const bench::Options& opt) {
  bench::print_header("Table 2: system strings by pool", opt);

  sim::World world(bench::world_config(opt));
  scan::Prober prober(world, net::Ipv4Address(198, 51, 100, 7));

  core::VersionCensus all, amplifiers, mega;
  const auto date = util::onp_version_sample_dates()[0];
  all.begin_sample(0, date);
  amplifiers.begin_sample(0, date);
  mega.begin_sample(0, date);
  const auto summary = prober.run_version_sample(
      0, [&](const scan::VersionObservation& obs) {
        all.add(obs);
        const auto& traits = world.servers()[obs.server_index];
        if (traits.ever_amplifier) amplifiers.add(obs);
        if (traits.mega) mega.add(obs);
      });
  all.end_sample(summary.responders_total);
  amplifiers.end_sample(0);
  mega.end_sample(0);

  auto rows = [&](const core::VersionCensus& census, std::size_t n) {
    auto ranking = census.os_ranking();
    if (ranking.size() > n) ranking.resize(n);
    return ranking;
  };
  const auto mega_rank = rows(mega, 8);
  const auto amp_rank = rows(amplifiers, 8);
  const auto all_rank = rows(all, 8);

  util::TextTable table({"rank", "Mega OS", "%", "Amplifier OS", "%",
                         "All-NTP OS", "%"});
  for (std::size_t i = 0; i < 8; ++i) {
    auto cell = [&](const auto& ranking, bool name) -> std::string {
      if (i >= ranking.size()) return "-";
      return name ? ranking[i].first : util::fixed(ranking[i].second, 2);
    };
    table.add_row({std::to_string(i + 1), cell(mega_rank, true),
                   cell(mega_rank, false), cell(amp_rank, true),
                   cell(amp_rank, false), cell(all_rank, true),
                   cell(all_rank, false)});
  }
  std::printf("%s\n", table.to_string().c_str());
  std::printf("paper leaders: mega = linux 44 / junos 36;"
              " amplifiers = linux 80 / bsd 11; all = cisco 48 / unix 31\n\n");

  std::printf("stratum 16 (unsynchronized): %.1f%% of responders"
              "   (paper: 19%%)\n",
              all.stratum16_fraction() * 100.0);
  std::printf("compile years: %.0f%% before 2004, %.0f%% before 2010, "
              "%.0f%% before 2012\n",
              all.compiled_before_fraction(2004) * 100.0,
              all.compiled_before_fraction(2010) * 100.0,
              all.compiled_before_fraction(2012) * 100.0);
  std::printf("   (paper: 13%% / 23%% / 59%%)\n");
  return 0;
}

}  // namespace
}  // namespace gorilla

int main(int argc, char** argv) {
  return gorilla::run(gorilla::bench::standalone_options(argc, argv, 40));
}
