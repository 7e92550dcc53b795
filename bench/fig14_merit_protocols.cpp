// Figure 14: all traffic at Merit by protocol (ntp, dns, http, https,
// other) across the attack window — NTP's steep rise against a stable mix —
// plus the §7.1 95th-percentile transit-billing impact.
//
// Paper shape: NTP jumps from negligible to a visible band; the attacks
// added over 2% extra transit traffic at Merit, which is billable under
// the 95th-percentile model Merit uses with its upstream.
#include <cstdio>

#include "common.h"
#include "telemetry/billing.h"

namespace gorilla {
namespace {

int run(const bench::Options& opt) {
  bench::print_header("Figure 14: Merit traffic by protocol + billing", opt);

  const int from = 80, to = opt.quick ? 96 : 106;
  bench::StudyPipeline regional(opt, {from, to});
  regional.run();

  const util::SimTime start = from * util::kSecondsPerDay;
  const util::SimTime end = to * util::kSecondsPerDay;

  // NTP from the measured flows; the web/dns/other mix is Merit's normal
  // load, modeled as a stable daily pattern around 20 Gbps aggregate.
  const auto ntp = regional.merit->volume_series(
      start, end, util::kSecondsPerDay,
      [](const telemetry::FlowRecord& f) {
        return f.src_port == net::kNtpPort || f.dst_port == net::kNtpPort;
      });
  util::Rng mix_rng(opt.seed ^ 0x1417ULL);
  util::TextTable table({"date", "ntp", "dns", "http", "https", "other"});
  const double day_bytes_20g = 20e9 / 8.0 * util::kSecondsPerDay;
  std::vector<double> ntp_series;
  for (std::size_t d = 0; d < ntp.bytes.size(); ++d) {
    const double wob = mix_rng.uniform_real(0.9, 1.1);
    ntp_series.push_back(ntp.bytes[d]);
    table.add_row(
        {util::to_string(util::date_from_sim_time(
             start + static_cast<util::SimTime>(d) * util::kSecondsPerDay)),
         util::bytes_str(ntp.bytes[d]),
         util::bytes_str(day_bytes_20g * 0.004 * wob),
         util::bytes_str(day_bytes_20g * 0.30 * wob),
         util::bytes_str(day_bytes_20g * 0.25 * wob),
         util::bytes_str(day_bytes_20g * 0.44 * wob)});
  }
  std::printf("%s\n", table.to_string().c_str());
  std::printf("ntp (log scale): %s\n\n",
              util::log_sparkline(ntp_series).c_str());

  // Billing: 5-minute buckets; base = stable 20 Gbps with diurnal wiggle,
  // overlay = the measured NTP attack traffic.
  const util::SimTime bucket = 300;
  auto base = regional.merit->volume_series(
      start, end, bucket, [](const telemetry::FlowRecord&) { return false; });
  util::Rng diurnal(opt.seed ^ 0xb111ULL);
  for (std::size_t b = 0; b < base.bytes.size(); ++b) {
    const double hour =
        static_cast<double>((b * bucket / 3600) % 24);
    const double shape = 0.8 + 0.3 * std::sin((hour - 15.0) / 24.0 * 6.283);
    base.bytes[b] = 20e9 / 8.0 * bucket * shape *
                    diurnal.uniform_real(0.97, 1.03);
  }
  const auto overlay = regional.merit->volume_series(
      start, end, bucket, [](const telemetry::FlowRecord& f) {
        return f.src_port == net::kNtpPort || f.dst_port == net::kNtpPort;
      });
  const double increase = telemetry::billing_increase(base, overlay);
  const auto billed = telemetry::percentile_billing(base);
  std::printf("95th-percentile billed rate (base): %sbps\n",
              util::si_count(billed.billed_bps).c_str());
  std::printf("billing increase from NTP attack overlay: %.1f%%"
              "   (paper: >2%% additional traffic at Merit)\n",
              increase * 100.0);
  return 0;
}

}  // namespace
}  // namespace gorilla

int main(int argc, char** argv) {
  return gorilla::run(gorilla::bench::parse_options(argc, argv, 40));
}
