// DetectorSink: an AMON-style streaming anomaly detector as a replay
// backend (ROADMAP "Multi-backend replay").
//
// The sink consumes the typed event stream — live from the EventBus or
// replayed from a recorded artifact — and maintains only fixed-size state:
// a preallocated bucket vector over its observation window plus the truth
// labels (one small record per labeled attack). Flow events are folded into
// buckets as they arrive and discarded, so memory is O(window / bucket),
// independent of stream length. finish() runs the incremental
// telemetry::StreamingDetector over the buckets and scores the episodes
// against the recorded ground truth.
//
// Determinism contract: buckets fill through telemetry::spread_flow, the
// routine FlowCollector::volume_series bins with, in event-stream order. Because the artifact preserves the total event order (see
// recorder.h), a replayed stream drives the identical sequence of
// floating-point additions as the live bus — render() output is
// byte-identical between the two (tested).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "study/events.h"
// Published downward interface (DESIGN.md §3f): the sink's outputs are the
// telemetry detector vocabulary (DetectedAttack, DetectionQuality).
#include "telemetry/detector.h"  // NOLINT(layer-break)

namespace gorilla::study {

struct DetectorSinkConfig {
  /// Observation window [window_start, window_end) in sim time.
  util::SimTime window_start = 0;
  util::SimTime window_end = 0;
  util::SimTime bucket_seconds = 300;
  /// Which labeled-attack vectors count as ground truth.
  telemetry::AttackVector truth_vector = telemetry::AttackVector::kNtp;
  telemetry::DetectorConfig detector;
};

class DetectorSink final : public EventSink {
 public:
  explicit DetectorSink(const DetectorSinkConfig& config);

  [[nodiscard]] bool wants_flows() const override { return true; }
  [[nodiscard]] bool wants_labels() const override { return true; }

  void on_flow(const telemetry::FlowRecord& flow, int vantage) override;
  void on_attack_label(const telemetry::LabeledAttack& label) override;

  /// Runs the streaming detector over the accumulated buckets and scores
  /// the result against the collected truth. Idempotent; call after the
  /// stream ends (replay return / bus teardown).
  void finish();

  [[nodiscard]] const std::vector<telemetry::DetectedAttack>& attacks()
      const noexcept {
    return attacks_;
  }
  [[nodiscard]] const telemetry::DetectionQuality& quality() const noexcept {
    return quality_;
  }
  [[nodiscard]] std::uint64_t flows_seen() const noexcept {
    return flows_seen_;
  }
  [[nodiscard]] std::uint64_t flows_binned() const noexcept {
    return flows_binned_;
  }

  /// Deterministic text report (17-significant-digit doubles): the byte
  /// string the live-vs-replay equivalence tests and the check.sh stage
  /// diff. finish() must have run.
  [[nodiscard]] std::string render() const;

 private:
  DetectorSinkConfig config_;
  std::vector<double> buckets_;  ///< fixed size: window / bucket_seconds
  std::vector<telemetry::TruthInterval> truth_;
  std::vector<telemetry::DetectedAttack> attacks_;
  telemetry::DetectionQuality quality_;
  std::uint64_t flows_seen_ = 0;
  std::uint64_t flows_binned_ = 0;
  bool finished_ = false;
};

}  // namespace gorilla::study
