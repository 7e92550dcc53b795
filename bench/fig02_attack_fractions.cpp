// Figure 2: fraction of monthly global DDoS attacks that are NTP-based,
// per size bin (<2, 2-20, >20 Gbps) and overall.
//
// Paper shape: November 2013 is essentially NTP-free (0.07% of attacks);
// by February the *majority* of Medium (.70) and Large (.63) attacks are
// NTP; April declines below February levels as mitigation bites. Small
// attacks never exceed ~.13; the all-attacks line peaks around .22.
#include <cstdio>

#include "common.h"

namespace gorilla {
namespace {

int run(const bench::Options& opt) {
  bench::print_header(
      "Figure 2: monthly fraction of DDoS attacks that are NTP-based", opt);

  sim::World world(bench::world_config(opt));

  telemetry::AttackLabelStore labels;
  study::CollectorSink sinks;
  sinks.labels = &labels;
  sim::AttackEngine attacks(world, bench::attack_config(opt), sinks);
  const int horizon = opt.quick ? 120 : 181;
  for (int day = 0; day < horizon; ++day) attacks.run_day(day);

  util::TextTable table({"month", "attacks", "small", "medium", "large",
                         "all"});
  const auto rollup = labels.monthly_rollup();
  for (const auto& row : rollup) {
    char month[16];
    std::snprintf(month, sizeof month, "%04d-%02d", row.year, row.month);
    table.add_row(
        {month, util::si_count(static_cast<double>(row.total)),
         util::fixed(row.ntp_fraction(telemetry::SizeClass::kSmall), 2),
         util::fixed(row.ntp_fraction(telemetry::SizeClass::kMedium), 2),
         util::fixed(row.ntp_fraction(telemetry::SizeClass::kLarge), 2),
         util::fixed(row.ntp_fraction_all(), 2)});
  }
  std::printf("%s\n", table.to_string().c_str());

  std::printf("paper anchors: 2013-11 all=.00; 2014-02 medium=.70 large=.63;\n"
              "               2014-04 medium=.44 large=.41 all=.18\n\n");
  // Headline checks.
  const auto* feb = &rollup.front();
  const auto* apr = &rollup.front();
  for (const auto& row : rollup) {
    if (row.year == 2014 && row.month == 2) feb = &row;
    if (row.year == 2014 && row.month == 4) apr = &row;
  }
  std::printf("February medium+large NTP majority: %s\n",
              feb->ntp_fraction(telemetry::SizeClass::kMedium) > 0.5 &&
                      feb->ntp_fraction(telemetry::SizeClass::kLarge) > 0.5
                  ? "yes (as in the paper)"
                  : "NO");
  std::printf("April decline vs February: %s\n",
              apr->ntp_fraction_all() < feb->ntp_fraction_all()
                  ? "yes (as in the paper)"
                  : "NO");
  return 0;
}

}  // namespace
}  // namespace gorilla

int main(int argc, char** argv) {
  return gorilla::run(gorilla::bench::standalone_options(argc, argv, 40));
}
