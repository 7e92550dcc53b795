#include "study/detector_sink.h"

#include <cstdio>

#include "net/packet.h"
#include "util/mem_stats.h"

namespace gorilla::study {

namespace {

/// Shortest round-trippable decimal for a double — render() must be a pure
/// function of the bit pattern, so no locale- or precision-lossy paths.
std::string exact(double v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

}  // namespace

DetectorSink::DetectorSink(const DetectorSinkConfig& config)
    : config_(config) {
  const util::SimTime span = config_.window_end - config_.window_start;
  if (span > 0 && config_.bucket_seconds > 0) {
    buckets_.assign(
        static_cast<std::size_t>((span + config_.bucket_seconds - 1) /
                                 config_.bucket_seconds),
        0.0);
  }
  static auto& gauge = util::MemStats::instance().counter("study.detector");
  gauge.observe(buckets_.size() * sizeof(double));
}

void DetectorSink::on_flow(const telemetry::FlowRecord& f, int /*vantage*/) {
  ++flows_seen_;
  if (buckets_.empty()) return;
  // NTP traffic only — the sink detects the paper's NTP attack episodes.
  if (f.protocol != 17 ||
      (f.src_port != net::kNtpPort && f.dst_port != net::kNtpPort)) {
    return;
  }
  if (telemetry::spread_flow(f, config_.window_start, config_.window_end,
                             config_.bucket_seconds, buckets_)) {
    ++flows_binned_;
  }
}

void DetectorSink::on_attack_label(const telemetry::LabeledAttack& label) {
  if (label.vector != config_.truth_vector) return;
  if (label.start < config_.window_start || label.start >= config_.window_end) {
    return;
  }
  // Labels carry only the onset; truth is a point interval, which the
  // overlap scorer treats as "a detection covering the onset counts".
  truth_.push_back({label.start, label.start});
}

void DetectorSink::finish() {
  if (finished_) return;
  finished_ = true;
  telemetry::StreamingDetector detector(
      config_.window_start, config_.bucket_seconds, config_.detector);
  for (const double bucket_bytes : buckets_) detector.push(bucket_bytes);
  detector.finish();
  attacks_ = detector.take_attacks();
  quality_ = telemetry::score_detections(attacks_, truth_);
}

std::string DetectorSink::render() const {
  std::string out;
  out += "detector window=[" + std::to_string(config_.window_start) + "," +
         std::to_string(config_.window_end) + ") bucket_seconds=" +
         std::to_string(config_.bucket_seconds) + " buckets=" +
         std::to_string(buckets_.size()) + " flows_seen=" +
         std::to_string(flows_seen_) + " flows_binned=" +
         std::to_string(flows_binned_) + "\n";
  for (const auto& a : attacks_) {
    out += "attack start=" + std::to_string(a.start) + " end=" +
           std::to_string(a.end) + " peak_bps=" + exact(a.peak_bps) +
           " volume_bytes=" + exact(a.volume_bytes) + "\n";
  }
  out += "quality truth=" + std::to_string(quality_.truth_count) +
         " detected=" + std::to_string(quality_.detected_count) +
         " matched_truth=" + std::to_string(quality_.matched_truth) +
         " matched_detected=" + std::to_string(quality_.matched_detected) +
         " recall=" + exact(quality_.recall()) + " precision=" +
         exact(quality_.precision()) + "\n";
  return out;
}

}  // namespace gorilla::study
