// Benchmark driver for the NTP-DDoS study engine.
//
// One process runs one iteration of one workload for one seed: the
// workload's set-up, timed phase and result tables. It checks every output
// and prints one JSON line with the iteration's numbers. run.py builds this
// binary, repeats the iteration in fresh processes for the measured time and
// reports the medians.
//
// Modes:
//   study-record     the 15-week ONP campaign at scale 40 (run_days ->
//                    seed_monitor_tables -> run_monlist_sample, the
//                    StudyPipeline order), the 9 weekly version passes, and
//                    the GORCOLv3 recording of the event stream
//   regional-window  the regional harness (Merit/FRGP/CSU plus darknet)
//                    over the 181-day horizon at scale 20
//   replay-fanout    load the study-record artifact and replay it into
//                    census and victims, collectors and the detector sink
//   prepare          record the artifact replay-fanout loads, with the
//                    digests of the live run's outputs (not timed)
//   fidelity         check that this driver records the same bytes as
//                    bench::StudyPipeline for the same scale and seed
//
// Layers are timed from outside, around the public calls the bench
// harness makes; with --trace 1 the iteration is traced and its spans are
// written to --trace-out.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <filesystem>
#include <fstream>
#include <functional>
#include <iterator>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common.h"
#include "core/remediation_analysis.h"
#include "study/detector_sink.h"
#include "trace.h"
#include "util/mem_stats.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {
namespace {

using namespace gorilla;

constexpr int kJobs = 4;
constexpr std::uint32_t kStudyScale = 40;
constexpr std::uint32_t kRegionalScale = 20;
constexpr std::uint32_t kFidelityScale = 400;
constexpr int kStudyWeeks = 15;
constexpr int kVersionWeeks = 9;
constexpr int kHorizonDays = 181;
constexpr net::Ipv4Address kProbeSource(198, 51, 100, 7);

using Metrics = std::map<std::string, double>;

// ---------------------------------------------------------------------------
// Small helpers

std::string exact(double v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string fnv1a_hex(const std::string& text) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const unsigned char c : text) {
    h ^= c;
    h *= 0x100000001b3ULL;
  }
  char buf[20];
  std::snprintf(buf, sizeof(buf), "%016llx", static_cast<unsigned long long>(h));
  return buf;
}

double mb(std::uint64_t bytes) { return static_cast<double>(bytes) / (1024.0 * 1024.0); }

double mem_peak_mb(const std::string& subsystem) {
  for (const auto& row : util::MemStats::instance().rows()) {
    if (row.subsystem == subsystem) return mb(row.peak_bytes);
  }
  return 0.0;
}

std::uint64_t file_size(const std::string& path) {
  std::error_code ec;
  const auto n = std::filesystem::file_size(path, ec);
  return ec ? 0 : static_cast<std::uint64_t>(n);
}

bool same_bytes(const std::string& a, const std::string& b) {
  std::ifstream fa(a, std::ios::binary), fb(b, std::ios::binary);
  if (!fa || !fb) return false;
  const std::string da((std::istreambuf_iterator<char>(fa)), {});
  const std::string db((std::istreambuf_iterator<char>(fb)), {});
  return !da.empty() && da == db;
}

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string json_object(const Metrics& m) {
  std::string out = "{";
  for (const auto& [k, v] : m) {
    if (out.size() > 1) out += ", ";
    out += json_string(k) + ": " + (std::isfinite(v) ? exact(v) : std::string("null"));
  }
  return out + "}";
}

// ---------------------------------------------------------------------------
// Operations: one top-level layer call each. An operation fails on an
// exception, an I/O failure or a failed output check.

struct Ops {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> errors;

  /// Runs `op`; false (and one failure) when it throws or returns false.
  bool run(const std::string& what, const std::function<bool()>& op) {
    ++attempted;
    try {
      if (op()) return true;
      note(what + ": failed");
    } catch (const std::exception& e) {
      note(what + ": " + e.what());
    }
    ++failed;
    return false;
  }

  /// A failed output check on an operation already counted as attempted.
  void fail_check(const std::string& what) {
    note("check " + what + ": failed");
    if (failed < attempted) ++failed;
  }

  void note(const std::string& text) {
    if (errors.size() < 20) errors.push_back(text);
  }
};

// ---------------------------------------------------------------------------
// The bus as the harness builds it, with timing wrappers when traced.

class Bus {
 public:
  explicit Bus(Trace& trace) : trace_(trace) { bus_.subscribe(&counter); }

  void subscribe(const std::string& name, study::EventSink& sink) {
    if (trace_.enabled()) {
      timed_.push_back({name, std::make_unique<TimedSink>(sink, trace_)});
      bus_.subscribe(timed_.back().sink.get());
    } else {
      bus_.subscribe(&sink);
    }
  }

  [[nodiscard]] study::EventSink& entry() { return bus_; }

  /// Per-subscriber sink time and calls as study.sink.<name>_{s,calls}.
  void report(Metrics& m) const {
    for (const auto& t : timed_) {
      m["study.sink." + t.name + "_s"] = t.sink->seconds;
      m["study.sink." + t.name + "_calls"] = static_cast<double>(t.sink->calls);
    }
  }

  EventCounter counter;

 private:
  struct Named {
    std::string name;
    std::unique_ptr<TimedSink> sink;
  };
  Trace& trace_;
  study::EventBus bus_;
  std::vector<Named> timed_;
};

// ---------------------------------------------------------------------------
// Shared study state: the StudyPipeline constructor, step for step.

study::StudyHeader study_header(std::uint32_t scale, std::uint64_t seed) {
  study::StudyHeader header;
  header.kind = 0;
  header.scale = scale;
  header.seed = seed;
  header.param_a = kStudyWeeks;
  return header;
}

study::DetectorSinkConfig detector_config() {
  // gorilla_replay's window for a full study recording: every attack day up
  // to the last sample week (weeks probe at day 70 + 7 * week).
  study::DetectorSinkConfig cfg;
  cfg.window_start = 0;
  cfg.window_end =
      static_cast<util::SimTime>(70 + (kStudyWeeks - 1) * 7 + 1) * util::kSecondsPerDay;
  cfg.bucket_seconds = 300;
  cfg.detector.floor_bps = 5e6;
  return cfg;
}

struct StudyState {
  std::unique_ptr<sim::World> world;
  std::unique_ptr<core::AmplifierCensus> census;
  std::unique_ptr<core::VictimAnalysis> victims;
  std::unique_ptr<telemetry::GlobalTrafficCollector> global;
  std::unique_ptr<telemetry::AttackLabelStore> labels;
  std::vector<scan::MonlistSampleSummary> summaries;
  std::unique_ptr<util::ThreadPool> pool;
  std::unique_ptr<sim::ShardedExecutor> executor;
};

std::unique_ptr<sim::World> build_world(std::uint32_t scale, std::uint64_t seed,
                                        Trace& trace) {
  const auto span = trace.span("sim.world.build");
  sim::WorldConfig cfg;
  cfg.scale = scale;
  cfg.seed = seed;
  return std::make_unique<sim::World>(cfg);
}

StudyState build_study(std::uint32_t scale, std::uint64_t seed, bool with_pool,
                       Trace& trace) {
  StudyState s;
  s.world = build_world(scale, seed, trace);
  s.census = std::make_unique<core::AmplifierCensus>(s.world->registry(), s.world->pbl());
  s.victims = std::make_unique<core::VictimAnalysis>(s.world->registry(), s.world->pbl());
  s.global = std::make_unique<telemetry::GlobalTrafficCollector>(
      kHorizonDays, 71.5e12 / static_cast<double>(scale));
  s.labels = std::make_unique<telemetry::AttackLabelStore>();
  if (with_pool) {
    s.pool = std::make_unique<util::ThreadPool>(kJobs);
    s.executor = std::make_unique<sim::ShardedExecutor>(s.pool.get());
  }
  return s;
}

/// StudyPipeline's subscribers, bound to a study: the collectors (global
/// traffic, attack labels) and the analyses (census, victims, summaries).
struct StudySinks {
  explicit StudySinks(StudyState& s) {
    collectors.global = s.global.get();
    collectors.labels = s.labels.get();
    analyses.census = s.census.get();
    analyses.victims = s.victims.get();
    analyses.summaries = &s.summaries;
  }
  study::CollectorSink collectors;
  study::AnalysisSink analyses;
};

struct ProbeTotals {
  std::uint64_t probes_sent = 0;
  std::uint64_t responders = 0;
  std::uint64_t ntp_attacks = 0;
  std::uint64_t response_packets = 0;
};

/// The StudyPipeline::run_simulated sequence: 15 sample weeks of attack and
/// scan days, monitor seeding and the monlist pass, then the save. Returns
/// false once an operation fails (the rest of the study is skipped).
bool run_study_weeks(StudyState& s, std::uint64_t seed, Bus& bus,
                     study::Recorder& recorder, const std::string& artifact,
                     Ops& ops, Trace& trace, ProbeTotals& totals) {
  sim::AttackEngineConfig attack_cfg;
  attack_cfg.seed = seed ^ 0xa77acdULL;
  sim::AttackEngine attacks(*s.world, attack_cfg, bus.entry());
  sim::ScanTrafficConfig scan_cfg;
  scan_cfg.seed = seed ^ 0x5ca7ULL;
  sim::ScanTraffic scans(*s.world, scan_cfg);
  scan::Prober prober(*s.world, kProbeSource, ntp::Implementation::kXntpd);
  prober.set_executor(s.executor.get());
  const std::vector<telemetry::FlowCollector*> no_vantages;

  int day = 0;
  for (int week = 0; week < kStudyWeeks; ++week) {
    const int sample_day = 70 + week * 7;
    const bool ok =
        ops.run("run_days", [&] {
          const auto span = trace.span("sim.attack.run_days");
          attacks.run_days(day, sample_day + 1, s.executor.get(), nullptr, nullptr,
                           &no_vantages);
          return true;
        }) &&
        ops.run("seed_monitor_tables", [&] {
          const auto span = trace.span("sim.scanner.seed");
          scans.seed_monitor_tables(week, s.executor.get());
          return true;
        }) &&
        ops.run("monlist", [&] {
          const auto span = trace.span("scan.prober.monlist");
          const auto summary = prober.run_monlist_sample(week, bus.entry());
          totals.probes_sent += summary.probes_sent;
          totals.responders += summary.responders;
          return summary.responders > 0;
        });
    if (!ok) return false;
    day = sample_day + 1;
  }
  totals.ntp_attacks = attacks.totals().ntp_attacks;
  totals.response_packets = attacks.totals().response_packets;
  return ops.run("save", [&] {
    const auto span = trace.span("study.recorder.save");
    return recorder.save(artifact);
  });
}

/// Figure 4a's version pass: nine weekly mode-6 passes, per-IP bytes.
bool run_version_passes(sim::World& world, Ops& ops, Trace& trace,
                        std::vector<double>& version_curve,
                        std::uint64_t& responders) {
  scan::Prober vprober(world, kProbeSource);
  std::map<std::uint32_t, std::pair<std::uint64_t, std::uint32_t>> vbytes;
  for (int vweek = 0; vweek < kVersionWeeks; ++vweek) {
    const bool ok = ops.run("version", [&] {
      const auto span = trace.span("scan.prober.version");
      const auto summary =
          vprober.run_version_sample(vweek, [&](const scan::VersionObservation& o) {
            auto& e = vbytes[o.address.value()];
            e.first += o.response_wire_bytes;
            ++e.second;
          });
      responders += summary.responders_total;
      return summary.responders_detailed > 0;
    });
    if (!ok) return false;
  }
  version_curve.reserve(vbytes.size());
  for (const auto& [_, e] : vbytes) {
    version_curve.push_back(static_cast<double>(e.first) / e.second);
  }
  return true;
}

/// The census/victim result tables the §3/§4/§6 benches print; returns the
/// rendered text (its size proves the tables were built).
std::string study_tables(const StudyState& s, std::vector<double> version_curve) {
  std::sort(version_curve.begin(), version_curve.end(), std::greater<>());
  const auto monlist_curve = s.census->bytes_rank_curve();
  util::TextTable curve({"rank", "monlist avg bytes", "version avg bytes"});
  for (std::size_t rank = 1; rank <= std::max(monlist_curve.size(), version_curve.size());
       rank *= 4) {
    auto cell = [&](const std::vector<double>& c) {
      return rank <= c.size() ? util::si_count(c[rank - 1]) : std::string("-");
    };
    curve.add_row({std::to_string(rank), cell(monlist_curve), cell(version_curve)});
  }
  util::TextTable census({"date", "ips", "/24s", "blocks", "ASes", "end hosts", "megas"});
  for (const auto& row : s.census->rows()) {
    census.add_row({util::to_string(row.date), std::to_string(row.ips),
                    std::to_string(row.slash24s), std::to_string(row.routed_blocks),
                    std::to_string(row.asns), util::fixed(row.end_host_pct, 1),
                    std::to_string(row.mega_count)});
  }
  util::TextTable victims({"date", "victims", "blocks", "ASes", "pkts median", "pkts p95"});
  for (const auto& row : s.victims->rows()) {
    victims.add_row({util::to_string(row.date), std::to_string(row.ips),
                     std::to_string(row.routed_blocks), std::to_string(row.asns),
                     util::si_count(row.packets_median), util::si_count(row.packets_p95)});
  }
  util::TextTable mega({"rank", "amplifier", "largest single reply"});
  const auto roster = s.census->mega_roster();
  for (std::size_t i = 0; i < roster.size() && i < 8; ++i) {
    mega.add_row({std::to_string(i + 1), net::to_string(roster[i].first),
                  util::bytes_str(static_cast<double>(roster[i].second))});
  }
  std::string out = curve.to_string() + census.to_string() + victims.to_string() +
                    mega.to_string();
  const auto levels = core::level_reduction(*s.census);
  out += "levels " + util::fixed(levels.ips_pct, 1) + " " +
         util::fixed(levels.slash24_pct, 1) + " " + util::fixed(levels.blocks_pct, 1) +
         " " + util::fixed(levels.asns_pct, 1) + "\n";
  for (const auto& row : core::continent_reduction(*s.census)) {
    out += std::string(net::to_string(row.continent)) + " " +
           util::fixed(row.remediated_pct, 1) + "\n";
  }
  for (const auto& row : core::remediation_effect(*s.census, *s.victims)) {
    out += std::to_string(row.week) + " " + util::fixed(row.amplifiers_per_victim, 2) +
           " " + util::si_count(row.packets_per_amplifier) + "\n";
  }
  return out;
}

// Digests of the outputs the record/replay identity contract covers. Each is
// a hash of an exact text rendering, so a legitimate re-pin of the outputs
// moves live and replayed digests together.

std::string census_text(const StudyState& s) {
  std::ostringstream out;
  for (const auto& r : s.census->rows()) {
    out << r.week << ' ' << util::to_string(r.date) << ' ' << r.ips << ' ' << r.slash24s
        << ' ' << r.routed_blocks << ' ' << r.asns << ' ' << r.end_hosts << ' '
        << exact(r.end_host_pct) << ' ' << exact(r.ips_per_block) << ' '
        << exact(r.baf.min) << ' ' << exact(r.baf.q1) << ' ' << exact(r.baf.median)
        << ' ' << exact(r.baf.q3) << ' ' << exact(r.baf.max) << ' ' << r.baf.count
        << ' ' << exact(r.bytes_median) << ' ' << exact(r.bytes_p95) << ' '
        << exact(r.bytes_max) << ' ' << r.mega_count << ' ' << r.partial_tables;
    for (const auto n : r.by_continent) out << ' ' << n;
    out << '\n';
  }
  out << s.census->unique_ips() << ' ' << exact(s.census->first_sample_fraction()) << ' '
      << exact(s.census->seen_once_fraction()) << '\n';
  for (const auto& m : s.summaries) {
    out << m.week << ' ' << m.probes_sent << ' ' << m.responders << ' '
        << m.error_replies << '\n';
  }
  return out.str();
}

std::string victims_text(const StudyState& s) {
  std::ostringstream out;
  for (const auto& r : s.victims->rows()) {
    out << r.week << ' ' << r.ips << ' ' << r.routed_blocks << ' ' << r.asns << ' '
        << r.end_hosts << ' ' << exact(r.end_host_pct) << ' ' << exact(r.ips_per_block)
        << ' ' << exact(r.packets_mean) << ' ' << exact(r.packets_median) << ' '
        << exact(r.packets_p95) << ' ' << exact(r.amplifiers_per_victim) << ' '
        << exact(r.median_window_seconds) << ' ' << exact(r.scanner_mode6_share) << ' '
        << exact(r.victim_mode6_share) << '\n';
  }
  out << s.victims->unique_victims() << ' ' << s.victims->total_packets() << '\n';
  return out.str();
}

std::string collectors_text(const StudyState& s) {
  std::ostringstream out;
  for (int day = 0; day < kHorizonDays; ++day) {
    for (int p = 0; p < telemetry::kProtocolClassCount; ++p) {
      out << exact(s.global->bytes(day, static_cast<telemetry::ProtocolClass>(p))) << ' ';
    }
    out << '\n';
  }
  for (const auto& a : s.labels->attacks()) {
    out << a.start << ' ' << static_cast<int>(a.vector) << ' ' << exact(a.peak_bps) << '\n';
  }
  return out.str();
}

std::map<std::string, std::string> digests(const StudyState& s,
                                           const study::DetectorSink& detector) {
  return {{"census", fnv1a_hex(census_text(s))},
          {"victims", fnv1a_hex(victims_text(s))},
          {"collectors", fnv1a_hex(collectors_text(s))},
          {"detector", fnv1a_hex(detector.render())}};
}

// ---------------------------------------------------------------------------
// Workloads. Each iteration times set-up, the timed phase and the result
// tables, then checks the outputs outside the timed wall.

struct Args {
  std::string mode;
  std::uint64_t seed = util::Rng::kDefaultSeed;
  bool trace = false;
  std::string artifact;
  std::string digests;
  std::string trace_out;
  bool setup_only = false;  ///< stop after the set-up phase
};

struct Workload {
  std::uint32_t scale = 0;
  Ops ops;
  EventCounter events;  ///< bus event counts of the last iteration
  /// Runs one iteration; returns its end-to-end and per-layer numbers.
  std::function<Metrics(Trace&)> iterate;
};

/// Per-layer numbers every traced iteration reports (zero where a layer
/// does not run in the workload; the workload fills in its own counts).
void layer_metrics(const Trace& trace, Metrics& m) {
  for (const char* count :
       {"sim.world.servers", "sim.world.amplifiers", "sim.attack.ntp_attacks",
        "sim.attack.response_packets", "scan.prober.probes_sent", "scan.prober.responders",
        "scan.prober.responder_ratio", "scan.prober.entries_returned",
        "scan.prober.version_responders", "study.recorder.artifact_bytes"}) {
    m[count] = 0.0;
  }
  m["sim.world.build_s"] = trace.total("sim.world.build", false);
  m["sim.attack.run_days_s"] = trace.total("sim.attack.run_days", false);
  m["sim.attack.self_s"] = trace.total("sim.attack.run_days", true);
  m["sim.scanner.seed_s"] = trace.total("sim.scanner.seed", false);
  m["scan.prober.monlist_s"] = trace.total("scan.prober.monlist", false);
  m["scan.prober.monlist_self_s"] = trace.total("scan.prober.monlist", true);
  m["scan.prober.version_s"] = trace.total("scan.prober.version", false);
  m["study.recorder.save_s"] = trace.total("study.recorder.save", false);
  m["study.replayer.load_s"] = trace.total("study.replayer.load", false);
  m["study.replayer.replay_s"] = trace.total("study.replayer.replay", false);
  m["study.replayer.decode_self_s"] = trace.total("study.replayer.replay", true);
  m["telemetry.detector.finish_s"] = trace.total("telemetry.detector.finish", false);
  m["core.report_s"] = trace.total("core.report", false);
  m["run.uncovered_s"] = trace.total("run", true);
  for (const char* sink : {"analyses", "collectors", "recorder", "detector"}) {
    m[std::string("study.sink.") + sink + "_s"] = 0.0;
  }
}

void bus_metrics(const EventCounter& c, Metrics& m) {
  m["study.bus.events"] = static_cast<double>(c.events);
  m["study.bus.flows"] = static_cast<double>(c.flows);
  m["study.bus.labels"] = static_cast<double>(c.labels);
  m["study.bus.observations"] = static_cast<double>(c.observations);
}

void phase_metrics(Clock::time_point t0, Clock::time_point t1, Clock::time_point t2,
                   Clock::time_point t3, Metrics& m) {
  m["setup_s"] = seconds_between(t0, t1);
  m["run_s"] = seconds_between(t1, t2);
  m["wall_s"] = seconds_between(t0, t3);
}

Metrics study_record_iteration(const Args& a, Workload& w, Trace& trace) {
  Metrics m;
  const auto iteration = trace.span("iteration");
  const auto t0 = Clock::now();
  StudyState s;
  {
    const auto span = trace.span("setup");
    s = build_study(kStudyScale, a.seed, true, trace);
  }
  const auto t1 = Clock::now();
  if (a.setup_only) return {{"setup_s", seconds_between(t0, t1)}};
  Bus bus(trace);
  ProbeTotals totals;
  std::vector<double> version_curve;
  std::uint64_t version_responders = 0;
  bool ok = false;
  {
    const auto span = trace.span("run");
    StudySinks sinks(s);
    study::Recorder recorder(study_header(kStudyScale, a.seed));
    bus.subscribe("collectors", sinks.collectors);
    bus.subscribe("analyses", sinks.analyses);
    bus.subscribe("recorder", recorder);
    ok = run_study_weeks(s, a.seed, bus, recorder, a.artifact, w.ops, trace, totals) &&
         run_version_passes(*s.world, w.ops, trace, version_curve, version_responders);
  }
  const auto t2 = Clock::now();
  std::string tables;
  if (ok) {
    const auto span = trace.span("core.report");
    tables = study_tables(s, version_curve);
  }
  const auto t3 = Clock::now();
  phase_metrics(t0, t1, t2, t3, m);

  if (ok) {
    // Output checks: 15 non-empty census rows, tables built, and an artifact
    // that reloads with a clean report under the expected header.
    const auto& rows = s.census->rows();
    const bool census_ok =
        static_cast<int>(rows.size()) == kStudyWeeks &&
        std::all_of(rows.begin(), rows.end(), [](const auto& r) { return r.ips > 0; });
    if (!census_ok) w.ops.fail_check("census rows");
    if (tables.empty()) w.ops.fail_check("result tables");
    w.ops.run("reload", [&] {
      study::Replayer replayer;
      study::ReplayReport report;
      return replayer.load_prefix(a.artifact, report) && report.clean &&
             replayer.header() == study_header(kStudyScale, a.seed);
    });
  }
  w.events = bus.counter;
  m["artifact_mb"] = mb(file_size(a.artifact));
  if (trace.enabled()) {
    layer_metrics(trace, m);
    bus.report(m);
    bus_metrics(bus.counter, m);
    m["sim.world.servers"] = static_cast<double>(s.world->servers().size());
    m["sim.world.amplifiers"] = static_cast<double>(s.world->amplifier_indices().size());
    m["sim.attack.ntp_attacks"] = static_cast<double>(totals.ntp_attacks);
    m["sim.attack.response_packets"] = static_cast<double>(totals.response_packets);
    m["scan.prober.probes_sent"] = static_cast<double>(totals.probes_sent);
    m["scan.prober.responders"] = static_cast<double>(totals.responders);
    m["scan.prober.responder_ratio"] =
        totals.probes_sent > 0 ? static_cast<double>(totals.responders) /
                                     static_cast<double>(totals.probes_sent)
                               : 0.0;
    m["scan.prober.entries_returned"] = static_cast<double>(bus.counter.entries);
    m["scan.prober.version_responders"] = static_cast<double>(version_responders);
    m["study.recorder.artifact_bytes"] = static_cast<double>(file_size(a.artifact));
  }
  return m;
}

struct RegionalState {
  std::unique_ptr<sim::World> world;
  std::unique_ptr<telemetry::FlowCollector> merit, frgp, csu;
  std::unique_ptr<telemetry::DarknetTelescope> darknet;
  std::unique_ptr<telemetry::GlobalTrafficCollector> global;
  std::unique_ptr<telemetry::AttackLabelStore> labels;
  std::unique_ptr<util::ThreadPool> pool;
  std::unique_ptr<sim::ShardedExecutor> executor;
};

/// The §7 result tables: per-vantage NTP volume series (Figures 11-12),
/// darknet volume and scanners (Figures 8-9), monthly attack labels (Figure 2)
/// and the global protocol shares (Figure 1).
std::string regional_tables(const RegionalState& s) {
  const util::SimTime end = static_cast<util::SimTime>(kHorizonDays) * util::kSecondsPerDay;
  util::TextTable volume({"vantage", "egress peak", "ingress peak", "flows"});
  for (const auto* v : {s.merit.get(), s.frgp.get(), s.csu.get()}) {
    const auto egress = v->volume_series(0, end, util::kSecondsPerDay, telemetry::is_ntp_source);
    const auto ingress = v->volume_series(0, end, util::kSecondsPerDay, telemetry::is_ntp_dest);
    const auto peak = [](const telemetry::VolumeSeries& series) {
      return series.bytes.empty() ? 0.0
                                  : *std::max_element(series.bytes.begin(), series.bytes.end());
    };
    volume.add_row({v->name(), util::bytes_str(peak(egress)), util::bytes_str(peak(ingress)),
                    std::to_string(v->flows().size())});
  }
  util::TextTable dark({"month", "benign/24", "other/24"});
  for (const auto& row : s.darknet->monthly_volumes()) {
    dark.add_row({std::to_string(row.year) + "-" + std::to_string(row.month),
                  util::si_count(row.benign_packets_per_24),
                  util::si_count(row.other_packets_per_24)});
  }
  util::TextTable labels({"month", "attacks", "ntp share"});
  for (const auto& row : s.labels->monthly_rollup()) {
    labels.add_row({std::to_string(row.year) + "-" + std::to_string(row.month),
                    std::to_string(row.total), util::fixed(row.ntp_fraction_all() * 100, 1)});
  }
  std::string out = volume.to_string() + dark.to_string() + labels.to_string();
  for (const auto& [day, n] : s.darknet->unique_scanners_per_day()) {
    out += std::to_string(day) + " " + std::to_string(n) + "\n";
  }
  for (int day = 0; day < kHorizonDays; day += 7) {
    out += util::fixed(s.global->fraction_of_internet(day, telemetry::ProtocolClass::kNtp) * 100,
                       3) +
           "\n";
  }
  return out;
}

Metrics regional_iteration(const Args& a, Workload& w, Trace& trace) {
  Metrics m;
  const auto iteration = trace.span("iteration");
  const auto t0 = Clock::now();
  RegionalState s;
  {
    // RegionalRun's constructor, step for step.
    const auto span = trace.span("setup");
    s.world = build_world(kRegionalScale, a.seed, trace);
    const auto& named = s.world->registry().named();
    s.merit = std::make_unique<telemetry::FlowCollector>(
        "Merit", std::vector<net::Prefix>{named.merit_space});
    s.frgp = std::make_unique<telemetry::FlowCollector>(
        "FRGP", std::vector<net::Prefix>{named.frgp_space});
    s.csu = std::make_unique<telemetry::FlowCollector>(
        "CSU", std::vector<net::Prefix>{named.csu_space});
    s.global = std::make_unique<telemetry::GlobalTrafficCollector>(
        kHorizonDays, 71.5e12 / static_cast<double>(kRegionalScale));
    s.labels = std::make_unique<telemetry::AttackLabelStore>();
    telemetry::DarknetConfig dcfg;
    dcfg.telescope = named.darknet;
    s.darknet = std::make_unique<telemetry::DarknetTelescope>(dcfg);
    s.pool = std::make_unique<util::ThreadPool>(kJobs);
    s.executor = std::make_unique<sim::ShardedExecutor>(s.pool.get());
  }
  const auto t1 = Clock::now();
  if (a.setup_only) return {{"setup_s", seconds_between(t0, t1)}};
  Bus bus(trace);
  sim::AttackEngine::Totals totals;
  bool ok = false;
  {
    const auto span = trace.span("run");
    study::CollectorSink collectors;
    collectors.global = s.global.get();
    collectors.labels = s.labels.get();
    collectors.darknet = s.darknet.get();
    const std::vector<telemetry::FlowCollector*> vantages = {s.merit.get(), s.frgp.get(),
                                                             s.csu.get()};
    collectors.vantages = vantages;
    bus.subscribe("collectors", collectors);
    sim::AttackEngineConfig attack_cfg;
    attack_cfg.seed = a.seed ^ 0xa77acdULL;
    sim::AttackEngine attacks(*s.world, attack_cfg, bus.entry());
    sim::ScanTrafficConfig scan_cfg;
    scan_cfg.seed = a.seed ^ 0x5ca7ULL;
    sim::ScanTraffic scans(*s.world, scan_cfg);
    ok = w.ops.run("run_days", [&] {
      const auto days = trace.span("sim.attack.run_days");
      attacks.run_days(0, kHorizonDays, s.executor.get(), &scans, s.darknet.get(), &vantages);
      return true;
    });
    totals = attacks.totals();
  }
  const auto t2 = Clock::now();
  std::string tables;
  if (ok) {
    const auto span = trace.span("core.report");
    tables = regional_tables(s);
  }
  const auto t3 = Clock::now();
  phase_metrics(t0, t1, t2, t3, m);

  if (ok) {
    // Every vantage sees flows and the telescope sees scanners.
    for (const auto* v : {s.merit.get(), s.frgp.get(), s.csu.get()}) {
      if (v->flows().empty()) w.ops.fail_check(v->name() + " flows");
    }
    if (s.darknet->scanners().empty()) w.ops.fail_check("darknet scanners");
    if (tables.empty()) w.ops.fail_check("result tables");
  }
  w.events = bus.counter;
  m["artifact_mb"] = 0.0;
  if (trace.enabled()) {
    layer_metrics(trace, m);
    bus.report(m);
    bus_metrics(bus.counter, m);
    m["sim.world.servers"] = static_cast<double>(s.world->servers().size());
    m["sim.world.amplifiers"] = static_cast<double>(s.world->amplifier_indices().size());
    m["sim.attack.ntp_attacks"] = static_cast<double>(totals.ntp_attacks);
    m["sim.attack.response_packets"] = static_cast<double>(totals.response_packets);
  }
  return m;
}

std::map<std::string, std::string> read_digests(const std::string& path) {
  std::map<std::string, std::string> out;
  std::ifstream in(path);
  std::string name, value;
  while (in >> name >> value) out[name] = value;
  return out;
}

Metrics replay_iteration(const Args& a, Workload& w, Trace& trace) {
  Metrics m;
  const auto iteration = trace.span("iteration");
  const auto t0 = Clock::now();
  StudyState s;
  std::unique_ptr<study::DetectorSink> detector;
  {
    // Replay needs the world only for the census/victim registry and PBL.
    const auto span = trace.span("setup");
    s = build_study(kStudyScale, a.seed, false, trace);
    detector = std::make_unique<study::DetectorSink>(detector_config());
  }
  const auto t1 = Clock::now();
  if (a.setup_only) return {{"setup_s", seconds_between(t0, t1)}};
  Bus bus(trace);
  bool ok = false;
  {
    const auto span = trace.span("run");
    StudySinks sinks(s);
    bus.subscribe("collectors", sinks.collectors);
    bus.subscribe("analyses", sinks.analyses);
    bus.subscribe("detector", *detector);
    study::Replayer replayer;  // decode jobs 1, the gorilla_replay default
    ok = w.ops.run("load", [&] {
           const auto load = trace.span("study.replayer.load");
           return replayer.load(a.artifact) &&
                  replayer.header() == study_header(kStudyScale, a.seed);
         }) &&
         w.ops.run("replay", [&] {
           const auto replay = trace.span("study.replayer.replay");
           return replayer.replay(bus.entry());
         });
    if (ok) {
      const auto finish = trace.span("telemetry.detector.finish");
      detector->finish();
    }
  }
  const auto t2 = Clock::now();
  std::string tables;
  if (ok) {
    const auto span = trace.span("core.report");
    tables = study_tables(s, {}) + detector->render();
  }
  const auto t3 = Clock::now();
  phase_metrics(t0, t1, t2, t3, m);

  if (ok) {
    // Record/replay identity: every digest equals the live run's.
    const auto live = read_digests(a.digests);
    for (const auto& [name, value] : digests(s, *detector)) {
      const auto it = live.find(name);
      if (it == live.end() || it->second != value) w.ops.fail_check(name + " digest");
    }
    if (tables.empty()) w.ops.fail_check("result tables");
  }
  w.events = bus.counter;
  m["artifact_mb"] = mb(file_size(a.artifact));
  if (trace.enabled()) {
    layer_metrics(trace, m);
    bus.report(m);
    bus_metrics(bus.counter, m);
    m["sim.world.servers"] = static_cast<double>(s.world->servers().size());
    m["sim.world.amplifiers"] = static_cast<double>(s.world->amplifier_indices().size());
    m["study.recorder.artifact_bytes"] = static_cast<double>(file_size(a.artifact));
  }
  return m;
}

/// Prints the process's one-line JSON result: the operation counts, the
/// first errors, then `fields` (already JSON, each led by a comma).
void print_result(const std::string& mode, const Ops& ops, const std::string& fields) {
  std::string errors = "[";
  for (const auto& e : ops.errors) errors += (errors.size() > 1 ? ", " : "") + json_string(e);
  errors += "]";
  std::printf("{\"mode\": %s, \"attempted\": %llu, \"failed\": %llu, \"errors\": %s%s}\n",
              json_string(mode).c_str(), static_cast<unsigned long long>(ops.attempted),
              static_cast<unsigned long long>(ops.failed), errors.c_str(), fields.c_str());
}

// ---------------------------------------------------------------------------
// Untimed helpers run in their own processes.

/// Records the artifact replay-fanout loads, with the digests of the live
/// run's census, victims, collectors and detector outputs.
int prepare(const Args& a) {
  Trace trace(Clock::now());
  Ops ops;
  StudyState s = build_study(kStudyScale, a.seed, true, trace);
  study::DetectorSink detector(detector_config());
  Bus bus(trace);
  StudySinks sinks(s);
  study::Recorder recorder(study_header(kStudyScale, a.seed));
  // StudyPipeline's order: collectors, analyses, extra sinks, recorder.
  bus.subscribe("collectors", sinks.collectors);
  bus.subscribe("analyses", sinks.analyses);
  bus.subscribe("detector", detector);
  bus.subscribe("recorder", recorder);
  ProbeTotals totals;
  if (run_study_weeks(s, a.seed, bus, recorder, a.artifact, ops, trace, totals)) {
    detector.finish();
    ops.run("digests", [&] {
      std::ofstream out(a.digests, std::ios::trunc);
      for (const auto& [name, value] : digests(s, detector)) out << name << ' ' << value << '\n';
      out.flush();
      return out.good();
    });
  }
  print_result(a.mode, ops, "");
  return 0;
}

/// The driver's study-record sequence must record exactly the bytes
/// bench::StudyPipeline records for the same scale and seed, traced or not.
int fidelity(const Args& a, const std::string& dir) {
  Ops ops;
  const std::string reference = dir + "/fidelity-pipeline.gorcol";
  ops.run("pipeline", [&] {
    bench::Options opt;
    opt.scale = kFidelityScale;
    opt.seed = a.seed;
    opt.jobs = kJobs;
    opt.record = reference;
    bench::StudyPipeline pipeline(opt);
    pipeline.run();
    return file_size(reference) > 0;
  });
  for (const bool traced : {false, true}) {
    const std::string path =
        dir + (traced ? "/fidelity-traced.gorcol" : "/fidelity-driver.gorcol");
    Trace trace(Clock::now());
    trace.set_enabled(traced);
    StudyState s = build_study(kFidelityScale, a.seed, true, trace);
    Bus bus(trace);
    StudySinks sinks(s);
    study::Recorder recorder(study_header(kFidelityScale, a.seed));
    bus.subscribe("collectors", sinks.collectors);
    bus.subscribe("analyses", sinks.analyses);
    bus.subscribe("recorder", recorder);
    ProbeTotals totals;
    if (run_study_weeks(s, a.seed, bus, recorder, path, ops, trace, totals) &&
        !same_bytes(reference, path)) {
      ops.fail_check(traced ? "traced artifact identity" : "artifact identity");
    }
  }
  print_result(a.mode, ops, "");
  return 0;
}

// ---------------------------------------------------------------------------

/// Runs one iteration and prints its numbers. Each iteration is a process
/// of its own, as each bench binary run is: every set-up starts from a fresh
/// heap, and peak RSS and the memory registry describe this iteration only.
int measure(const Args& a, Workload& w) {
  Trace trace(Clock::now());
  trace.set_enabled(a.trace);
  Metrics out = w.iterate(trace);
  out["peak_rss_mb"] = mb(util::MemStats::peak_rss_bytes());
  if (a.trace) {
    out["mem.ntp.monitor_peak_mb"] = mem_peak_mb("ntp.monitor");
    out["mem.study.recorder_peak_mb"] = mem_peak_mb("study.recorder");
    out["mem.study.detector_peak_mb"] = mem_peak_mb("study.detector");
  }

  const Metrics provenance = {
      {"host_cores", static_cast<double>(std::thread::hardware_concurrency())},
      {"jobs", static_cast<double>(kJobs)},
      {"scale", static_cast<double>(w.scale)},
      {"events", static_cast<double>(w.events.events)},
      {"flows", static_cast<double>(w.events.flows)},
      {"labels", static_cast<double>(w.events.labels)},
      {"observations", static_cast<double>(w.events.observations)},
  };

  if (a.trace && !a.trace_out.empty()) {
    w.ops.run("write trace", [&] {
      std::FILE* f = std::fopen(a.trace_out.c_str(), "w");
      if (f == nullptr) return false;
      trace.write_json(f);
      return std::fclose(f) == 0;
    });
  }
  print_result(a.mode, w.ops,
               ", \"build_type\": " + json_string(PERFBENCH_BUILD_TYPE) +
                   ", \"provenance\": " + json_object(provenance) +
                   ", \"metrics\": " + json_object(out));
  return 0;
}

[[noreturn]] void usage() {
  std::fprintf(stderr,
               "usage: perfbench_driver MODE --seed N [--trace 0|1]\n"
               "         [--artifact PATH] [--digests PATH] [--trace-out PATH]\n"
               "         [--work DIR] [--setup-only 0|1]\n"
               "MODE: study-record | regional-window | replay-fanout | prepare | "
               "fidelity\n");
  std::exit(2);
}

}  // namespace

void Trace::write_json(std::FILE* out) const {
  // Self time per layer (span name) across the whole run, then every span.
  std::map<std::string, std::pair<double, double>> layers;
  for (const auto& s : spans_) {
    auto& l = layers[s.name];
    l.first += s.duration();
    l.second += s.self();
  }
  std::fprintf(out, "{\"layers\": {");
  bool first = true;
  for (const auto& [name, l] : layers) {
    std::fprintf(out, "%s\n  %s: {\"total_s\": %s, \"self_s\": %s}", first ? "" : ",",
                 json_string(name).c_str(), exact(l.first).c_str(), exact(l.second).c_str());
    first = false;
  }
  std::fprintf(out, "},\n\"spans\": [");
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const auto& s = spans_[i];
    std::fprintf(out,
                 "%s\n  {\"id\": %zu, \"name\": %s, \"start\": %s, \"end\": %s, "
                 "\"parent\": %d, \"self_s\": %s}",
                 i == 0 ? "" : ",", i, json_string(s.name).c_str(), exact(s.start).c_str(),
                 exact(s.end).c_str(), s.parent, exact(s.self()).c_str());
  }
  std::fprintf(out, "]}\n");
}

}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  if (argc < 2) usage();
  Args a;
  a.mode = argv[1];
  std::string work = ".";
  for (int i = 2; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) usage();
    const char* value = argv[++i];
    if (arg == "--seed") {
      a.seed = std::strtoull(value, nullptr, 10);
    } else if (arg == "--trace") {
      a.trace = std::strcmp(value, "0") != 0;
    } else if (arg == "--artifact") {
      a.artifact = value;
    } else if (arg == "--digests") {
      a.digests = value;
    } else if (arg == "--trace-out") {
      a.trace_out = value;
    } else if (arg == "--setup-only") {
      a.setup_only = std::strcmp(value, "0") != 0;
    } else if (arg == "--work") {
      work = value;
    } else {
      usage();
    }
  }
  if (a.artifact.empty()) a.artifact = work + "/" + a.mode + ".gorcol";
  if (a.digests.empty()) a.digests = work + "/digests.txt";

  if (a.mode == "prepare") return prepare(a);
  if (a.mode == "fidelity") return fidelity(a, work);
  Workload w;
  if (a.mode == "study-record") {
    w.scale = kStudyScale;
    w.iterate = [&](Trace& t) { return study_record_iteration(a, w, t); };
  } else if (a.mode == "regional-window") {
    w.scale = kRegionalScale;
    w.iterate = [&](Trace& t) { return regional_iteration(a, w, t); };
  } else if (a.mode == "replay-fanout") {
    w.scale = kStudyScale;
    w.iterate = [&](Trace& t) { return replay_iteration(a, w, t); };
  } else {
    usage();
  }
  return measure(a, w);
}
