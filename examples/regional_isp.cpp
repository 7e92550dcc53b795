// Regional ISP incident response: the §7 workflow from an operator's seat.
//
// You run a regional ISP (the Merit analogue). NTP reflection attacks are
// abusing amplifiers inside your network. This example:
//   1. collects border flow records through the attack window,
//   2. identifies the abused local amplifiers and their victims
//      (footnote-3 thresholds),
//   3. fingerprints scanners vs attack bots by TTL,
//   4. estimates the 95th-percentile transit-billing impact, and
//   5. "files trouble tickets": remediates the amplifiers and shows the
//      egress collapse.
//
// Usage: ./build/examples/regional_isp [--scale N]
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "core/local_view.h"
#include "sim/attack.h"
#include "sim/scanner.h"
#include "study/collector_sink.h"
#include "telemetry/billing.h"
#include "util/format.h"

using namespace gorilla;

int main(int argc, char** argv) {
  sim::WorldConfig wcfg;
  wcfg.scale = 200;
  for (int i = 1; i + 1 < argc; ++i) {
    if (!std::strcmp(argv[i], "--scale")) {
      wcfg.scale = static_cast<std::uint32_t>(std::atoi(argv[i + 1]));
    }
  }
  sim::World world(wcfg);
  const auto& named = world.registry().named();
  telemetry::FlowCollector border("Merit", {named.merit_space});

  study::CollectorSink sinks;
  sinks.vantages = {&border};
  sim::AttackEngine attacks(world, sim::AttackEngineConfig{}, sinks);
  sim::ScanTraffic scans(world, sim::ScanTrafficConfig{});

  // 1. Live through Jan 20 - Feb 10.
  for (int day = 80; day < 101; ++day) {
    attacks.run_day(day);
    scans.run_day(day, nullptr, {&border});
  }

  // 2. Forensics.
  core::LocalForensics view(border, world.registry());
  const auto amps = view.amplifiers();
  std::printf("abused amplifiers inside our network: %zu "
              "(the paper found 50 at Merit)\n",
              amps.size());
  util::TextTable table({"amplifier", "BAF", "victims", "GB sent"});
  for (std::size_t i = 0; i < amps.size() && i < 5; ++i) {
    table.add_row({net::to_string(amps[i].address),
                   util::fixed(amps[i].baf, 0),
                   std::to_string(amps[i].unique_victims),
                   util::fixed(static_cast<double>(amps[i].bytes_sent) / 1e9,
                               1)});
  }
  std::printf("%s\n", table.to_string().c_str());
  std::printf("victims attacked via our amplifiers: %llu\n\n",
              static_cast<unsigned long long>(view.unique_victim_count()));

  // 3. Who is knocking? TTL fingerprints.
  const auto ttl = view.ttl_profile();
  if (ttl.scanner_mode_ttl && ttl.attack_mode_ttl) {
    std::printf("TTL fingerprints: scanners mode %d (Linux), spoofed "
                "triggers mode %d (Windows bots)\n\n",
                static_cast<int>(*ttl.scanner_mode_ttl),
                static_cast<int>(*ttl.attack_mode_ttl));
  }

  // 4. Billing impact (95th percentile transit model, §7.1).
  const util::SimTime start = 80 * util::kSecondsPerDay;
  const util::SimTime end = 101 * util::kSecondsPerDay;
  auto base = border.volume_series(start, end, 300,
                                   [](const telemetry::FlowRecord&) {
                                     return false;
                                   });
  util::Rng diurnal(7);
  for (std::size_t b = 0; b < base.bytes.size(); ++b) {
    const double hour = static_cast<double>((b * 300 / 3600) % 24);
    base.bytes[b] = 20e9 / 8.0 * 300 *
                    (0.8 + 0.3 * std::sin((hour - 15.0) / 24.0 * 6.283)) *
                    diurnal.uniform_real(0.97, 1.03);
  }
  const auto ntp_overlay = border.volume_series(
      start, end, 300, [](const telemetry::FlowRecord& f) {
        return f.src_port == net::kNtpPort || f.dst_port == net::kNtpPort;
      });
  std::printf("95th-percentile billing increase from the attack overlay: "
              "%.2f%% (paper: >2%% at Merit)\n\n",
              telemetry::billing_increase(base, ntp_overlay) * 100.0);

  // 5. Remediate: disable monlist on every abused amplifier, then watch a
  // comparison week.
  for (const auto ai : world.merit_amplifiers()) {
    if (auto* server = world.detailed(ai)) server->set_monlist_enabled(false);
  }
  for (const auto& t : world.servers()) (void)t;  // (traits untouched: the
  // attack engine consults fix weeks, so emulate the ticket by advancing
  // past Merit's fix window.)
  telemetry::FlowCollector after("Merit-after", {named.merit_space});
  study::CollectorSink after_sinks;
  after_sinks.vantages = {&after};
  sim::AttackEngine late_attacks(world, sim::AttackEngineConfig{},
                                 after_sinks);
  for (int day = 145; day < 152; ++day) late_attacks.run_day(day);
  const double before_egress = static_cast<double>(
      border.total_bytes(telemetry::is_ntp_source));
  const double after_egress = static_cast<double>(
      after.total_bytes(telemetry::is_ntp_source));
  std::printf("NTP egress, 3 attack weeks before tickets: %s\n",
              util::bytes_str(before_egress).c_str());
  std::printf("NTP egress, 1 week after remediation:      %s\n",
              util::bytes_str(after_egress).c_str());
  std::printf("remediation collapse: %s\n",
              after_egress < before_egress / 10
                  ? "yes — patching works (§6)"
                  : "partial (stragglers remain, as at FRGP)");
  return 0;
}
