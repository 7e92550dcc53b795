// Recorder/Replayer: serialize one study's event stream to a compact
// columnar artifact and play it back — "simulate once / analyze many".
//
// The artifact preserves the TOTAL order of events across types (an RLE
// tag tape), not just per-type streams: the global traffic collector
// accumulates doubles, and floating-point addition is order-sensitive, so
// replay must hand every consumer the exact sequence the generators
// emitted. Event payloads live in per-type columns (varint/zigzag packed),
// with the monitor-table bulk — millions of entries per study — split into
// true per-field columns. Replaying a recording into the same sinks is
// bit-for-bit identical to re-simulating (tested), at a fraction of the
// cost.
#pragma once

#include <cstdint>
#include <string>

#include "study/events.h"
#include "util/columnar.h"

namespace gorilla::study {

/// Identity of a recorded study: which harness shape produced it and under
/// which knobs. Replay refuses a mismatched header rather than silently
/// replaying someone else's world.
struct StudyHeader {
  std::uint32_t version = 1;
  /// The bench::StudyPipeline shape: 0 = study (weekly samples), 1 =
  /// regional (one attack-day window, no prober).
  std::uint8_t kind = 0;
  std::uint32_t scale = 0;
  std::uint64_t seed = 0;
  bool quick = false;
  bool with_vantages = false;
  bool with_darknet = false;
  /// Harness shape parameters: horizon_weeks for a study recording;
  /// from_day / to_day for a regional recording.
  std::int32_t param_a = 0;
  std::int32_t param_b = 0;

  friend bool operator==(const StudyHeader&, const StudyHeader&) = default;
};

/// An EventSink that captures the full stream. Subscribe it to the bus
/// alongside the live consumers, run the study, then save().
///
/// Columns are transformed before varint — delta-encoded addresses and
/// monotone timestamps, frame-of-reference week ids — and the archive
/// block-compresses them at save time (GORCOLv3).
class Recorder final : public EventSink {
 public:
  explicit Recorder(const StudyHeader& header) : header_(header) {}

  // The recorder consumes everything: with it on the bus, producers build
  // flow/label events even when no live collector wants them. Those events
  // never draw RNG, so recording does not perturb the simulation stream.
  [[nodiscard]] bool wants_flows() const override { return true; }
  [[nodiscard]] bool wants_labels() const override { return true; }

  void on_global_bytes(int day, telemetry::ProtocolClass p,
                       double bytes) override;
  void on_attack_label(const telemetry::LabeledAttack& label) override;
  void on_flow(const telemetry::FlowRecord& flow, int vantage) override;
  void on_darknet_scan(net::Ipv4Address scanner, int day,
                       std::uint64_t packets, bool benign) override;
  void on_sample_begin(int week, const util::Date& date) override;
  void on_probe_observation(int week,
                            const scan::AmplifierObservation& obs) override;
  void on_monlist_summary(const scan::MonlistSampleSummary& summary) override;
  void on_sample_end(int week) override;

  /// Finalizes the stream into an archive (the recorder is spent after).
  [[nodiscard]] util::ColumnArchive to_archive();

  /// to_archive() + atomic write to `path`; false on I/O failure.
  [[nodiscard]] bool save(const std::string& path);

 private:
  void tag(std::uint8_t t);
  void flush_run();
  /// Total encoded bytes across every column (the recorder's footprint).
  [[nodiscard]] std::size_t column_bytes() const noexcept;
  /// Column transforms: delta against the previous value of the same
  /// column, and frame-of-reference week ids (first week on the tape is
  /// the base; later ones store the difference).
  void put_delta(util::ColumnWriter& col, std::int64_t& prev, std::int64_t v);
  void put_week(util::ColumnWriter& col, int week);

  StudyHeader header_;
  util::ColumnWriter tape_, global_, label_, flow_, dark_, begin_, obs_,
      sum_, end_;
  // Monitor-table entry columns (one per MonitorEntry field).
  util::ColumnWriter tbl_addr_, tbl_local_, tbl_avg_, tbl_seen_, tbl_restr_,
      tbl_count_, tbl_port_, tbl_mode_, tbl_ver_;
  std::uint8_t run_tag_ = 0;
  std::uint64_t run_len_ = 0;
  // Encoder-side transform state, mirrored by the replay decoder.
  std::int64_t prev_global_day_ = 0, prev_label_start_ = 0,
               prev_flow_first_ = 0, prev_dark_day_ = 0, prev_obs_index_ = 0,
               prev_obs_addr_ = 0, prev_obs_time_ = 0, prev_tbl_addr_ = 0,
               prev_tbl_local_ = 0, prev_tbl_seen_ = 0;
  std::int64_t week_base_ = 0;
  bool week_base_set_ = false;
};

/// What Replayer::load_prefix() saw: `clean` means the artifact loaded,
/// exactly as load() would have.
struct ReplayReport {
  bool clean = false;
};

/// Loads a recorded study and dispatches it into a sink. Loading is
/// strict: a damaged, truncated, incomplete or pre-v3 artifact is refused
/// whole (describe_load_failure says why) and must be regenerated.
class Replayer {
 public:
  /// False on a missing file, a foreign or pre-v3 container, any checksum
  /// failure or truncation, a malformed study header or a missing section.
  [[nodiscard]] bool load(const std::string& path);
  [[nodiscard]] bool load_archive(util::ColumnArchive archive);

  /// load() that also fills `report`. Kept only for perfbench/driver.cpp,
  /// whose reload check calls it.
  [[nodiscard]] bool load_prefix(const std::string& path, ReplayReport& report);

  /// One-line diagnosis of why load() refused `path`: missing file, foreign
  /// or pre-v3 container magic, the section and byte offset of a checksum
  /// failure or truncation, an unsupported StudyHeader version, or a
  /// missing section. For CLI error messages — never asserts, best-effort
  /// re-read.
  [[nodiscard]] static std::string describe_load_failure(
      const std::string& path);

  [[nodiscard]] const StudyHeader& header() const noexcept { return header_; }

  /// Opt-in parallel per-section decompress: with jobs > 1, the next
  /// successful load inflates every compressed section across `jobs`
  /// worker threads instead of streaming block-by-block during replay.
  /// Purely a speed/memory trade — replay output is byte-identical for
  /// any value. Call before load().
  void set_decode_jobs(int jobs) noexcept {
    decode_jobs_ = jobs < 1 ? 1 : jobs;
  }

  /// Dispatches the stream into `sink` in recorded order, in one pass:
  /// all of it, or when `max_weeks` >= 0 only the events up to the
  /// `max_weeks`-th on_sample_end. False when the stream turns out
  /// internally inconsistent (the sink may have received a prefix of it
  /// by then).
  [[nodiscard]] bool replay(EventSink& sink, int max_weeks = -1) const;

 private:
  void apply_decode_policy();

  StudyHeader header_;
  util::ColumnArchive archive_;
  int decode_jobs_ = 1;
};

}  // namespace gorilla::study
