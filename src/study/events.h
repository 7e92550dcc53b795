// The typed event-stream interface of the study engine.
//
// Producers (sim::AttackEngine, sim::ScanTraffic, scan::Prober) emit typed
// events into an EventSink instead of calling telemetry collectors and
// core analyses directly. Consumers subscribe behind a study::EventBus:
// CollectorSink routes events back into the telemetry collectors,
// AnalysisSink streams probe observations into the §3/§4 analyses, and
// study::Recorder serializes the whole stream so one simulated study can be
// replayed into any number of analyses ("simulate once / analyze many").
//
// Everything here is header-only so `sim` can emit events without linking
// against the higher layers; only the Recorder/Replayer live in the
// gorilla_study library.
#pragma once

#include <cstdint>

#include "net/ipv4.h"
// Published downward interface (DESIGN.md §3f): event payloads carry the
// telemetry vocabulary (FlowRecord, ProtocolClass, LabeledAttack) by value.
#include "telemetry/flow.h"     // NOLINT(layer-break)
#include "telemetry/traffic.h"  // NOLINT(layer-break)
#include "util/time.h"

namespace gorilla::scan {
struct AmplifierObservation;
struct MonlistSampleSummary;
}  // namespace gorilla::scan

namespace gorilla::study {

/// on_flow() vantage argument: broadcast to every vantage collector.
/// Targeted flows carry the index of one vantage in the harness's vantage
/// list — the scanner constructs each vantage's slice of a sweep separately
/// and the hint keeps that targeting exact through recording and replay.
inline constexpr int kAllVantages = -1;

/// Receiver of the typed study event stream. Default implementations drop
/// everything, so sinks override only what they consume.
///
/// The wants_*() capabilities exist for stream fidelity, not just speed:
/// producers consult them exactly where the pre-bus engine consulted
/// "is this collector wired?", so a run with an absent collector burns the
/// same RNG draws through the bus as it did before the bus existed.
class EventSink {
 public:
  virtual ~EventSink() = default;

  /// True when some subscriber consumes flow records.
  [[nodiscard]] virtual bool wants_flows() const { return false; }
  /// True when some subscriber consumes labeled-attack events.
  [[nodiscard]] virtual bool wants_labels() const { return false; }

  // --- traffic-generation producers (sim) -------------------------------
  virtual void on_global_bytes(int /*day*/, telemetry::ProtocolClass /*p*/,
                               double /*bytes*/) {}
  virtual void on_attack_label(const telemetry::LabeledAttack& /*label*/) {}
  virtual void on_flow(const telemetry::FlowRecord& /*flow*/,
                       int /*vantage*/) {}
  virtual void on_darknet_scan(net::Ipv4Address /*scanner*/, int /*day*/,
                               std::uint64_t /*packets*/, bool /*benign*/) {}

  // --- weekly probe-sample producers (scan) ------------------------------
  virtual void on_sample_begin(int /*week*/, const util::Date& /*date*/) {}
  virtual void on_probe_observation(
      int /*week*/, const scan::AmplifierObservation& /*obs*/) {}
  virtual void on_monlist_summary(
      const scan::MonlistSampleSummary& /*summary*/) {}
  virtual void on_sample_end(int /*week*/) {}
};

}  // namespace gorilla::study
