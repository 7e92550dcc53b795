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

/// Parses --scale/--seed/--quick; exits with usage on unknown flags
/// (ignores google-benchmark style flags so mixed invocation works).
[[nodiscard]] Options parse_options(int argc, char** argv,
                                    std::uint32_t default_scale = 40);

/// Prints the standard provenance header every bench emits.
void print_header(const std::string& figure, const Options& opt);

/// The full measurement pipeline most §3/§4/§6 benches share: a world that
/// lives through the study — attacks, scanning, fifteen weekly ONP monlist
/// probes — with the census and victim analyses attached.
///
/// All producers emit through a study::EventBus; run() subscribes the
/// collector and analysis sinks (plus a Recorder under --record). Under
/// --replay the simulation is skipped entirely and the recorded stream is
/// replayed into the same sinks — byte-identical output, since the artifact
/// preserves the event stream's total order. Under --jobs N the monitor
/// seeding and probe loops run on the sharded executor, also
/// byte-identically.
struct StudyPipeline {
  explicit StudyPipeline(const Options& opt, bool with_vantages = false,
                         bool with_darknet = false);
  ~StudyPipeline();

  /// Network-impairment settings threaded through the whole study (attack
  /// trigger delivery, scan traffic, prober, darknet capture). Defaults to
  /// the pristine network — every figure reproduces the seed bit-for-bit.
  /// Set fields BEFORE calling run().
  sim::ImpairmentConfig impairment;
  /// Prober retry/timeout/backoff policy (only consulted when the
  /// impairment layer is enabled).
  scan::ProbePolicy probe_policy;

  sim::WorldConfig world_config;
  std::unique_ptr<sim::World> world;
  std::unique_ptr<core::AmplifierCensus> census;
  std::unique_ptr<core::VictimAnalysis> victims;
  std::unique_ptr<telemetry::GlobalTrafficCollector> global;
  std::unique_ptr<telemetry::AttackLabelStore> labels;
  std::unique_ptr<telemetry::FlowCollector> merit;
  std::unique_ptr<telemetry::FlowCollector> frgp;
  std::unique_ptr<telemetry::FlowCollector> csu;
  std::unique_ptr<telemetry::DarknetTelescope> darknet;
  std::vector<scan::MonlistSampleSummary> summaries;

  /// Optional extra per-observation hook (e.g. named-subset counting).
  std::function<void(int week, const scan::AmplifierObservation&)>
      extra_visitor;

  /// Extra sinks subscribed to the bus for the duration of run() — the hook
  /// replay backends (study::DetectorSink, study::PcapExportSink, ...) use
  /// to ride a LIVE run and prove live-vs-replay byte identity. Sinks must
  /// outlive run(); set before calling run().
  std::vector<study::EventSink*> extra_sinks;

  /// Runs attacks+scans day-by-day and probes weekly (15 samples) — or
  /// replays a recorded stream when the options carry --replay.
  void run();

 private:
  void run_simulated(study::EventBus& bus,
                     const std::vector<telemetry::FlowCollector*>& vantages);
  void run_replayed(study::EventBus& bus);
  [[nodiscard]] study::StudyHeader make_header() const;

  Options opt_;
  bool with_vantages_;
  bool with_darknet_;
  std::unique_ptr<util::ThreadPool> pool_;
  std::unique_ptr<sim::ShardedExecutor> executor_;
  std::chrono::steady_clock::time_point run_done_{};
  bool ran_ = false;
};

/// Lighter harness for the §7 regional benches: attacks and scanning with
/// the Merit/FRGP/CSU vantage collectors (and optionally the darknet), no
/// prober. Days default to Dec 1 - Mar 1 (the window Figures 11-15 plot).
/// Under --jobs N the whole window runs as parallel day shards,
/// byte-identically to --jobs 1.
struct RegionalRun {
  explicit RegionalRun(const Options& opt, bool with_darknet = false);
  ~RegionalRun();

  /// Runs [from_day, to_day); day 0 = 2013-11-01, Figure 11's window is
  /// roughly [30, 121). Honors --record/--replay like StudyPipeline (the
  /// recorded day window must match on replay).
  void run(int from_day = 30, int to_day = 121);

  std::unique_ptr<sim::World> world;
  std::unique_ptr<telemetry::FlowCollector> merit;
  std::unique_ptr<telemetry::FlowCollector> frgp;
  std::unique_ptr<telemetry::FlowCollector> csu;
  std::unique_ptr<telemetry::DarknetTelescope> darknet;
  std::unique_ptr<telemetry::GlobalTrafficCollector> global;
  std::unique_ptr<telemetry::AttackLabelStore> labels;

 private:
  Options opt_;
  bool with_darknet_;
  std::unique_ptr<util::ThreadPool> pool_;
  std::unique_ptr<sim::ShardedExecutor> executor_;
  std::chrono::steady_clock::time_point run_done_{};
  bool ran_ = false;
};

/// Renders a per-day byte-volume series as date rows + log sparkline.
void print_volume_series(const std::string& label,
                         const telemetry::VolumeSeries& series,
                         int row_stride_days = 7);

}  // namespace gorilla::bench
