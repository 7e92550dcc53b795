// Shared harness support for the per-figure/table bench binaries.
//
// Every bench binary regenerates one of the paper's tables or figures from
// a fresh simulated study. Common knobs: --scale N (population divisor,
// default 40 for full-pipeline benches), --seed N. Output is deterministic
// for a given (scale, seed) — and invariant under --jobs N and under
// --record/--replay round-trips; all engine diagnostics (phase wall times,
// record/replay notes) go to stderr so stdout stays byte-comparable.
#pragma once

#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "core/amplifiers.h"
#include "core/victims.h"
#include "scan/prober.h"
#include "sim/attack.h"
#include "sim/scanner.h"
#include "sim/sharded_executor.h"
#include "sim/world.h"
#include "study/analysis_sink.h"
#include "study/bus.h"
#include "study/collector_sink.h"
#include "study/recorder.h"
#include "telemetry/darknet.h"
#include "telemetry/flow.h"
#include "telemetry/traffic.h"
#include "util/csv.h"
#include "util/format.h"
#include "util/thread_pool.h"

namespace gorilla::bench {

struct Options {
  std::uint32_t scale = 40;
  std::uint64_t seed = util::Rng::kDefaultSeed;
  bool quick = false;  ///< --quick halves the horizon for smoke runs
  std::string csv_dir;  ///< --csv DIR: also drop machine-readable series
  /// --jobs N: worker threads for the sharded study engine (1 = the
  /// sequential engine; must be >= 1). Output is bit-identical for every
  /// value.
  int jobs = 1;
  std::string record;  ///< --record PATH: save the study's event stream
  std::string replay;  ///< --replay PATH: skip simulation, replay a stream
  /// --mem-report: at exit, print the util::MemStats registry (per-
  /// subsystem live/peak bytes + process peak RSS) to stderr. Stderr so
  /// stdout stays byte-comparable across flag combinations.
  bool mem_report = false;
};

/// Writes a CSV artifact into opt.csv_dir when set (no-op otherwise);
/// returns true when a file was written.
bool maybe_write_csv(const Options& opt, const std::string& name,
                     const util::CsvDocument& doc);

/// Parses the shared bench flags. An unknown argument, a missing value or
/// a malformed number is refused with one stderr line and exit 2.
[[nodiscard]] Options parse_options(int argc, char** argv,
                                    std::uint32_t default_scale = 40);

/// parse_options for the benches that drive their own world instead of a
/// StudyPipeline: they have no event stream to record or replay, so
/// --record and --replay are refused with one line and exit 2 rather than
/// silently ignored.
[[nodiscard]] Options standalone_options(int argc, char** argv,
                                         std::uint32_t default_scale);

/// parse_options for the harness benches whose output depends on more
/// than their recording holds: post-run monlist probes of `pipeline.world`,
/// which dump monitor tables a replay never fills, or impairment settings
/// the header does not carry. --replay is refused with one line and exit 2,
/// and so is --record when `refuse_record` (several pipelines would write
/// one path).
[[nodiscard]] Options live_only_options(int argc, char** argv,
                                        std::uint32_t default_scale,
                                        bool refuse_record = false);

/// The engine configs `opt` names: the world takes its scale and seed, and
/// the attack and scan engines take the seed with a fixed salt each, so one
/// (scale, seed) is one simulated study in every bench.
[[nodiscard]] sim::WorldConfig world_config(const Options& opt);
[[nodiscard]] sim::AttackEngineConfig attack_config(const Options& opt);
[[nodiscard]] sim::ScanTrafficConfig scan_config(const Options& opt);

/// Prints the standard provenance header every bench emits.
void print_header(const std::string& figure, const Options& opt);

/// Attack days [from, to); day 0 = 2013-11-01.
struct DayWindow {
  int from = 0;
  int to = 0;
};

/// The one harness every §3-§7 bench runs: a world that lives through the
/// study's attack timeline, seen through the collectors its shape asks for.
/// The shape is the study::StudyHeader it records under --record and checks
/// under --replay:
///  - a *study* shape (kind 0) runs attack and scan days up to each weekly
///    ONP sample day, then seeds the monitor tables and probes, for 8
///    (--quick) or 15 weeks, with the census and victim analyses attached;
///  - a *regional* shape (kind 1) runs one attack and scan day window
///    [from, to) with the Merit/FRGP/CSU vantages and no prober.
///
/// All producers emit through a study::EventBus; run() subscribes the
/// collector and analysis sinks (plus a Recorder under --record). Under
/// --replay the simulation is skipped entirely and the recorded stream is
/// replayed into the same sinks — byte-identical output, since the artifact
/// preserves the event stream's total order. Under --jobs N attack days run
/// as parallel day shards and the monitor seeding and probe loops on the
/// sharded executor, also byte-identically.
struct StudyPipeline {
  /// Study shape, optionally with the regional vantages and the darknet.
  explicit StudyPipeline(const Options& opt, bool with_vantages = false,
                         bool with_darknet = false);
  /// Regional shape over `window` (Figures 11-15 plot roughly [30, 121)),
  /// optionally with the darknet.
  StudyPipeline(const Options& opt, DayWindow window,
                bool with_darknet = false);
  /// The harness a recording's header describes, run live with `jobs`
  /// workers (gorilla_replay --live). `shape` must name a harness shape
  /// (shape_name() is not null).
  StudyPipeline(const study::StudyHeader& shape, int jobs);
  ~StudyPipeline();

  /// Network-impairment settings threaded through the whole study (attack
  /// trigger delivery, scan traffic, prober, darknet capture). Defaults to
  /// the pristine network — every figure reproduces the seed bit-for-bit.
  /// Set fields BEFORE calling run().
  sim::ImpairmentConfig impairment;

  std::unique_ptr<sim::World> world;
  std::unique_ptr<core::AmplifierCensus> census;
  std::unique_ptr<core::VictimAnalysis> victims;
  std::unique_ptr<telemetry::GlobalTrafficCollector> global;
  std::unique_ptr<telemetry::AttackLabelStore> labels;
  std::unique_ptr<telemetry::FlowCollector> merit;  ///< with vantages only
  std::unique_ptr<telemetry::FlowCollector> frgp;
  std::unique_ptr<telemetry::FlowCollector> csu;
  std::unique_ptr<telemetry::DarknetTelescope> darknet;  ///< with darknet only
  std::vector<scan::MonlistSampleSummary> summaries;

  /// Optional extra per-observation hook (e.g. named-subset counting).
  std::function<void(int week, const scan::AmplifierObservation&)>
      extra_visitor;

  /// Extra sinks subscribed to the bus for the duration of run() — the hook
  /// replay backends (study::DetectorSink, study::PcapExportSink, ...) use
  /// to ride a LIVE run and prove live-vs-replay byte identity. Sinks must
  /// outlive run(); set before calling run().
  std::vector<study::EventSink*> extra_sinks;

  /// Runs the shape's days (and weekly probes) — or replays a recorded
  /// stream when the options carry --replay. An exception escaping either
  /// (a failed shard) prints "[engine] study aborted: WHAT" and exits 2.
  void run();

  /// The header this harness records and accepts on replay.
  [[nodiscard]] const study::StudyHeader& shape() const noexcept {
    return shape_;
  }

  /// The executor run() shards on under --jobs N (N > 1); null otherwise.
  /// Post-run probers take it through Prober::set_executor.
  [[nodiscard]] sim::ShardedExecutor* executor() const noexcept {
    return executor_.get();
  }

 private:
  StudyPipeline(const study::StudyHeader& shape, const Options& opt);
  void simulate(study::EventBus& bus,
                const std::vector<telemetry::FlowCollector*>& vantages);
  void replay(study::EventBus& bus);

  study::StudyHeader shape_;
  Options opt_;
  std::unique_ptr<util::ThreadPool> pool_;
  std::unique_ptr<sim::ShardedExecutor> executor_;
  std::chrono::steady_clock::time_point run_done_{};
  bool ran_ = false;
};

// Reading a recorded study::StudyHeader. These and StudyPipeline are the
// only code that interprets its kind and shape parameters.

/// "study" or "regional"; null when no harness records `shape` (an
/// unknown kind, or parameters no bench produces).
[[nodiscard]] const char* shape_name(const study::StudyHeader& shape);

/// Weekly samples a recording of `shape` holds; 0 for a regional window,
/// which has no week markers.
[[nodiscard]] int sample_weeks(const study::StudyHeader& shape);

/// Attack days a recording of `shape` covers: a regional window as
/// recorded; for a study, every day up to its last sample — or up to
/// sample `weeks` - 1 when 0 <= weeks < sample_weeks(shape).
[[nodiscard]] DayWindow attack_days(const study::StudyHeader& shape,
                                    int weeks = -1);

/// Renders a per-day byte-volume series as date rows + log sparkline.
void print_volume_series(const std::string& label,
                         const telemetry::VolumeSeries& series,
                         int row_stride_days = 7);

}  // namespace gorilla::bench
