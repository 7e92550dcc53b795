// Figure 1: fraction of global Internet traffic that is NTP and DNS,
// 2013-11-01 .. 2014-05-01.
//
// Paper shape: NTP starts at ~0.001% of daily bits, climbs nearly three
// orders of magnitude to ~1% at the February 11 peak (passing DNS, which
// hovers near 0.15%), then falls back to ~0.1% by May.
#include <cstdio>

#include "common.h"

namespace gorilla {
namespace {

int run(const bench::Options& opt) {
  bench::print_header(
      "Figure 1: NTP and DNS fraction of global Internet traffic", opt);

  sim::World world(bench::world_config(opt));

  const int horizon = opt.quick ? 120 : 181;
  telemetry::GlobalTrafficCollector global(
      horizon, 71.5e12 / static_cast<double>(opt.scale));
  telemetry::AttackLabelStore labels;
  study::CollectorSink sinks;
  sinks.global = &global;
  sinks.labels = &labels;
  sim::AttackEngine attacks(world, bench::attack_config(opt), sinks);

  // Benign baselines: NTP time-sync chatter is a sliver; DNS hovers near
  // 0.15% of traffic; both get a small deterministic weekly wobble.
  util::Rng wobble(opt.seed ^ 0xf16001ULL);
  for (int day = 0; day < horizon; ++day) {
    const double total_day_bytes =
        global.baseline_bps() / 8.0 * util::kSecondsPerDay;
    global.add_bytes(day, telemetry::ProtocolClass::kNtp,
                     total_day_bytes * 1.0e-5 *
                         wobble.uniform_real(0.8, 1.2));
    global.add_bytes(day, telemetry::ProtocolClass::kDns,
                     total_day_bytes * 1.5e-3 *
                         wobble.uniform_real(0.9, 1.1));
    attacks.run_day(day);
  }

  util::TextTable table({"date", "NTP frac", "DNS frac"});
  util::CsvDocument csv({"date", "ntp_fraction", "dns_fraction"});
  std::vector<double> ntp_series, dns_series;
  double peak = 0.0;
  int peak_day = 0;
  for (int day = 0; day < horizon; ++day) {
    const double ntp =
        global.fraction_of_internet(day, telemetry::ProtocolClass::kNtp);
    const double dns =
        global.fraction_of_internet(day, telemetry::ProtocolClass::kDns);
    ntp_series.push_back(ntp);
    dns_series.push_back(dns);
    if (ntp > peak) {
      peak = ntp;
      peak_day = day;
    }
    const auto date = util::to_string(util::date_from_sim_time(
        static_cast<util::SimTime>(day) * util::kSecondsPerDay));
    csv.add_row({date, util::fixed(ntp, 8), util::fixed(dns, 8)});
    if (day % 7 == 0) {
      table.add_row({date, util::fixed(ntp * 100.0, 5) + "%",
                     util::fixed(dns * 100.0, 5) + "%"});
    }
  }
  bench::maybe_write_csv(opt, "fig01_global_traffic.csv", csv);
  std::printf("%s\n", table.to_string().c_str());
  std::printf("NTP fraction (log scale): %s\n",
              util::log_sparkline(ntp_series).c_str());
  std::printf("DNS fraction (log scale): %s\n\n",
              util::log_sparkline(dns_series).c_str());

  const double start = ntp_series.front();
  const double final_frac = ntp_series.back();
  std::printf("NTP at start:   %.5f%% of Internet traffic\n", start * 100);
  std::printf("NTP at peak:    %.3f%% on %s  (paper: ~1%% on 2014-02-11)\n",
              peak * 100,
              util::to_string(util::date_from_sim_time(
                                  static_cast<util::SimTime>(peak_day) *
                                  util::kSecondsPerDay))
                  .c_str());
  std::printf("NTP at end:     %.4f%%  (paper: ~0.1%%)\n", final_frac * 100);
  std::printf("rise:           %.0fx   (paper: ~3 orders of magnitude)\n",
              peak / start);
  std::printf("NTP passes DNS: %s\n",
              peak > dns_series[static_cast<std::size_t>(peak_day)]
                  ? "yes (as in the paper)"
                  : "NO");
  return 0;
}

}  // namespace
}  // namespace gorilla

int main(int argc, char** argv) {
  return gorilla::run(gorilla::bench::standalone_options(argc, argv, 40));
}
