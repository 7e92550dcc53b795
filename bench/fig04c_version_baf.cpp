// Figure 4c: boxplots of the on-wire BAF of `version` (mode 6) responders
// per weekly sample, 2014-02-21 .. 2014-04-18.
//
// Paper shape: a much larger pool (~4M vs ~110K) with a *tight* BAF
// distribution — quartiles ~3.5 / 4.6 / 6.9 in every sample — plus rare
// giant outliers (max up to 263M, the same loop fault as §3.4), and only
// a ~19% pool decline over the nine weeks.
#include <cstdio>

#include "common.h"

namespace gorilla {
namespace {

int run(const bench::Options& opt) {
  bench::print_header("Figure 4c: version (mode 6) BAF per sample", opt);

  sim::World world(bench::world_config(opt));
  scan::Prober prober(world, net::Ipv4Address(198, 51, 100, 7));
  core::VersionCensus census;

  const int vweeks = opt.quick ? 4 : 9;
  for (int vweek = 0; vweek < vweeks; ++vweek) {
    census.begin_sample(
        vweek,
        util::onp_version_sample_dates()[static_cast<std::size_t>(vweek)]);
    const auto summary = prober.run_version_sample(
        vweek,
        [&](const scan::VersionObservation& obs) { census.add(obs); });
    census.end_sample(summary.responders_total);
  }

  util::TextTable table(
      {"sample", "pool", "min", "q1", "median", "q3", "max"});
  for (const auto& row : census.rows()) {
    table.add_row({util::to_short_string(row.date),
                   util::si_count(static_cast<double>(row.responders_total)),
                   util::compact(row.baf.min), util::compact(row.baf.q1),
                   util::compact(row.baf.median), util::compact(row.baf.q3),
                   util::compact(row.baf.max)});
  }
  std::printf("%s\n", table.to_string().c_str());

  const auto& rows = census.rows();
  std::printf("quartiles mid-study: %.1f / %.1f / %.1f"
              "   (paper: ~3.5 / 4.6 / 6.9, stable across samples)\n",
              rows[rows.size() / 2].baf.q1, rows[rows.size() / 2].baf.median,
              rows[rows.size() / 2].baf.q3);
  const double survival =
      static_cast<double>(rows.back().responders_total) /
      static_cast<double>(rows.front().responders_total);
  std::printf("pool change first->last: %+.0f%%   (paper: -19%%)\n",
              (survival - 1.0) * 100.0);
  std::printf("pool size vs monlist:  version pool is the far larger threat\n"
              "surface left standing once monlist is remediated (§3.3).\n");
  return 0;
}

}  // namespace
}  // namespace gorilla

int main(int argc, char** argv) {
  return gorilla::run(gorilla::bench::standalone_options(argc, argv, 40));
}
