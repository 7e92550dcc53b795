// Recorder/Replayer: serialize one study's event stream to a compact
// columnar artifact and play it back — "simulate once / analyze many".
//
// The artifact preserves the TOTAL order of events across types (an RLE
// tag tape), not just per-type streams: the global traffic collector
// accumulates doubles, and floating-point addition is order-sensitive, so
// replay must hand every consumer the exact sequence the generators
// emitted. Event payloads live in per-type columns (varint/zigzag packed),
// with the monitor-table bulk — millions of entries per study — split into
// true per-field columns. The layout is written down once, in the
// per-event coders of recorder.cpp, which both directions run. Replaying a
// recording into the same sinks is bit-for-bit identical to re-simulating
// (tested), at a fraction of the cost.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <future>
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

namespace detail {

/// Columns in a GORCOLv3 study artifact (recorder.cpp lists them).
inline constexpr std::size_t kStreamColumns = 18;

/// State the column transforms carry from one event to the next: the
/// previous value of every delta-coded cell, and the frame of reference
/// for week ids (the first week on the tape is the base; later ones store
/// the difference). The Recorder advances one copy as it encodes and the
/// Replayer another as it decodes, in tape order, through the same coders.
struct StreamTransforms {
  std::int64_t global_day = 0, label_start = 0, flow_first = 0, dark_day = 0,
               obs_index = 0, obs_addr = 0, obs_time = 0, tbl_addr = 0,
               tbl_local = 0, tbl_seen = 0;
  std::int64_t week_base = 0;
  bool week_base_set = false;
};

}  // namespace detail

/// An EventSink that captures the full stream. Subscribe it to the bus
/// alongside the live consumers, run the study, then save().
///
/// Each event's cells and their transforms (delta-coded addresses and
/// monotone timestamps, frame-of-reference week ids) are defined once, in
/// per-event coders that the Replayer decodes with too. Each column is a
/// sealing ColumnWriter: every 64 KiB block goes to the recorder's codec
/// worker as it fills, and comes back as the frames a save-time
/// compression of the whole column would write (GORCOLv3). The recorder
/// holds those frames plus one raw tail per column; to_archive() joins the
/// worker and compresses the tails.
class Recorder final : public EventSink {
 public:
  explicit Recorder(const StudyHeader& header);

  // The recorder consumes everything: with it on the bus, producers build
  // flow/label events even when no live collector wants them. Flow events
  // draw no RNG, but label events do: AttackEngine draws each attack's
  // vendor-visibility chance, and the background label stream, only when
  // wants_labels() is true. Recording leaves the simulation stream alone
  // only because every bench::StudyPipeline shape already subscribes a
  // label store; on a bus without one, adding a Recorder changes the run.
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

  StudyHeader header_;
  /// Every column, in section order.
  std::array<util::ColumnWriter, detail::kStreamColumns> columns_;
  detail::StreamTransforms transforms_;
  std::uint8_t run_tag_ = 0;
  std::uint64_t run_len_ = 0;
  /// The codec worker: compresses the columns' blocks, and counts each
  /// week's footprint behind them. Not the --jobs pool. Its jobs own what
  /// they use; it is joined before the columns go.
  util::ThreadPool codec_{1};
  /// The latest week's footprint count, posted to codec_.
  std::future<void> observed_;
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

  /// Dispatches the stream into `sink` in recorded order, in one pass:
  /// all of it, or when `max_weeks` >= 0 only the events up to the
  /// `max_weeks`-th on_sample_end. Every column streams block by block
  /// from the loaded archive's stored bytes, each decoded one block ahead
  /// on a codec worker that the call owns; none is inflated whole. To
  /// feed several sinks, replay once into an EventBus of them. False when
  /// the stream turns out internally inconsistent (the sink may have
  /// received a prefix of it by then).
  [[nodiscard]] bool replay(EventSink& sink, int max_weeks = -1) const;

 private:
  StudyHeader header_;
  util::ColumnArchive archive_;
};

}  // namespace gorilla::study
