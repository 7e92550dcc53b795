#include "common.h"

#include <algorithm>
#include <charconv>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>

#include "util/fault.h"
#include "util/mem_stats.h"
#include "util/time.h"

namespace gorilla::bench {

namespace {

// Engine diagnostics go to stderr on purpose: stdout is the reproducible
// figure/table artifact and must stay byte-comparable across --jobs values
// and record/replay round-trips. (bench/ sits outside the gorilla_lint
// tree, so steady_clock here needs no wall-clock lint pragma.)
using EngineClock = std::chrono::steady_clock;

double seconds_between(EngineClock::time_point from,
                       EngineClock::time_point to) {
  return std::chrono::duration<double>(to - from).count();
}

void print_phase(const char* phase, double seconds) {
  std::fprintf(stderr, "[engine] phase %-12s %8.3fs\n", phase, seconds);
}

/// Refuses a flag this bench cannot honour: one stderr line naming the
/// bench, then the bad-run exit code.
[[noreturn]] void refuse_flag(const char* argv0, const char* why) {
  const char* slash = std::strrchr(argv0, '/');
  std::fprintf(stderr, "%s: %s\n", slash != nullptr ? slash + 1 : argv0,
               why);
  std::exit(2);
}

/// Strict positive-integer flag parse: rejects non-numeric text, trailing
/// junk, zero, and negatives with a clear message instead of silently
/// clamping (a mistyped `--jobs -4` or `--scale 0x10` should not quietly
/// run something else).
long parse_positive(const char* text, const char* flag, long max_value) {
  char* end = nullptr;
  const long v = std::strtol(text, &end, 10);
  if (end == text || *end != '\0' || v <= 0 || v > max_value) {
    std::fprintf(stderr,
                 "invalid value for %s: '%s' (expected an integer in "
                 "[1, %ld])\n",
                 flag, text, max_value);
    std::exit(2);
  }
  return v;
}

/// Strict seed parse: a decimal u64 and nothing else (no sign, no spaces,
/// no overflow), so `--seed notanumber` cannot quietly run seed 0.
std::uint64_t parse_seed(const char* text) {
  const char* end = text + std::strlen(text);
  std::uint64_t v = 0;
  const auto [stop, error] = std::from_chars(text, end, v);
  if (text == end || error != std::errc() || stop != end) {
    std::fprintf(stderr,
                 "invalid value for --seed: '%s' (expected a decimal integer "
                 "in [0, 18446744073709551615])\n",
                 text);
    std::exit(2);
  }
  return v;
}

constexpr std::uint8_t kStudyKind = 0;
constexpr std::uint8_t kRegionalKind = 1;
constexpr int kHorizonDays = 181;  // 2013-11-01 .. 2014-05-01

study::StudyHeader study_shape(const Options& opt, bool with_vantages,
                               bool with_darknet) {
  study::StudyHeader shape;
  shape.kind = kStudyKind;
  shape.scale = opt.scale;
  shape.seed = opt.seed;
  shape.quick = opt.quick;
  shape.with_vantages = with_vantages;
  shape.with_darknet = with_darknet;
  shape.param_a = opt.quick ? 8 : 15;  // horizon weeks
  return shape;
}

study::StudyHeader regional_shape(const Options& opt, DayWindow window,
                                  bool with_darknet) {
  study::StudyHeader shape;
  shape.kind = kRegionalKind;
  shape.scale = opt.scale;
  shape.seed = opt.seed;
  shape.with_vantages = true;
  shape.with_darknet = with_darknet;
  shape.param_a = window.from;
  shape.param_b = window.to;
  return shape;
}

/// The options a live rerun of a recording runs with: its own world knobs,
/// no --record or --replay.
Options live_options(const study::StudyHeader& shape, int jobs) {
  Options opt;
  opt.scale = shape.scale;
  opt.seed = shape.seed;
  opt.quick = shape.quick;
  opt.jobs = jobs;
  return opt;
}

}  // namespace

Options parse_options(int argc, char** argv, std::uint32_t default_scale) {
  Options opt;
  opt.scale = default_scale;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&](const char* name) -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "missing value for %s\n", name);
        std::exit(2);
      }
      return argv[++i];
    };
    if (arg == "--scale") {
      opt.scale = static_cast<std::uint32_t>(
          parse_positive(value("--scale"), "--scale", 1l << 30));
    } else if (arg == "--seed") {
      opt.seed = parse_seed(value("--seed"));
    } else if (arg == "--quick") {
      opt.quick = true;
    } else if (arg == "--csv") {
      opt.csv_dir = value("--csv");
    } else if (arg == "--jobs") {
      opt.jobs = static_cast<int>(parse_positive(value("--jobs"), "--jobs",
                                                 1l << 16));
    } else if (arg == "--record") {
      opt.record = value("--record");
    } else if (arg == "--replay") {
      opt.replay = value("--replay");
    } else if (arg == "--mem-report") {
      opt.mem_report = true;
      // atexit so every bench reports after its last deallocation-free
      // moment, with no per-bench plumbing; stderr keeps stdout stable.
      std::atexit(
          [] { util::MemStats::instance().report(stderr); });
    } else if (arg == "--faults") {
      const char* spec = value("--faults");
      const auto plan = util::FaultPlan::parse(spec);
      if (!plan) {
        std::fprintf(stderr, "invalid --faults spec: '%s'\n", spec);
        std::exit(2);
      }
      util::FaultPlan::install(*plan);
    } else if (arg == "--help" || arg == "-h") {
      std::printf(
          "usage: %s [--scale N] [--seed N] [--quick] [--jobs N]\n"
          "          [--record PATH] [--replay PATH] [--csv DIR]\n"
          "          [--faults SPEC] [--mem-report]\n",
          argv[0]);
      std::exit(0);
    } else {
      refuse_flag(argv[0], ("unknown argument '" + arg +
                            "' (--help lists the flags)").c_str());
    }
  }
  return opt;
}

Options standalone_options(int argc, char** argv,
                           std::uint32_t default_scale) {
  Options opt = parse_options(argc, argv, default_scale);
  if (!opt.record.empty() || !opt.replay.empty()) {
    refuse_flag(argv[0],
                "--record/--replay need the study harness, which this bench "
                "does not run");
  }
  return opt;
}

Options live_only_options(int argc, char** argv,
                          std::uint32_t default_scale, bool refuse_record) {
  Options opt = parse_options(argc, argv, default_scale);
  if (!opt.replay.empty()) {
    refuse_flag(argv[0],
                "--replay is refused: this bench reads state its recording "
                "does not hold, so it runs live only");
  }
  if (refuse_record && !opt.record.empty()) {
    refuse_flag(argv[0],
                "--record is refused: this bench runs several studies, which "
                "would overwrite one recording");
  }
  return opt;
}

sim::WorldConfig world_config(const Options& opt) {
  sim::WorldConfig cfg;
  cfg.scale = opt.scale;
  cfg.seed = opt.seed;
  return cfg;
}

sim::AttackEngineConfig attack_config(const Options& opt) {
  sim::AttackEngineConfig cfg;
  cfg.seed = opt.seed ^ 0xa77acdULL;
  return cfg;
}

sim::ScanTrafficConfig scan_config(const Options& opt) {
  sim::ScanTrafficConfig cfg;
  cfg.seed = opt.seed ^ 0x5ca7ULL;
  return cfg;
}

bool maybe_write_csv(const Options& opt, const std::string& name,
                     const util::CsvDocument& doc) {
  if (opt.csv_dir.empty()) return false;
  const std::string path = opt.csv_dir + "/" + name;
  const bool ok = doc.write_file(path);
  std::printf("%s csv artifact: %s\n", ok ? "wrote" : "FAILED to write",
              path.c_str());
  return ok;
}

void print_header(const std::string& figure, const Options& opt) {
  std::printf("%s", util::banner(figure).c_str());
  std::printf(
      "world scale 1:%u (populations divided by %u; counts below are\n"
      "simulated-world counts — multiply by %u for paper-scale numbers),\n"
      "seed %llu\n\n",
      opt.scale, opt.scale, opt.scale,
      static_cast<unsigned long long>(opt.seed));
}

const char* shape_name(const study::StudyHeader& shape) {
  const Options opt = live_options(shape, 1);
  if (shape == study_shape(opt, shape.with_vantages, shape.with_darknet)) {
    return "study";
  }
  const DayWindow window{shape.param_a, shape.param_b};
  if (shape == regional_shape(opt, window, shape.with_darknet) &&
      0 <= window.from && window.from <= window.to &&
      window.to <= kHorizonDays) {
    return "regional";
  }
  return nullptr;
}

int sample_weeks(const study::StudyHeader& shape) {
  return shape.kind == kStudyKind ? shape.param_a : 0;
}

DayWindow attack_days(const study::StudyHeader& shape, int weeks) {
  if (shape.kind == kRegionalKind) return {shape.param_a, shape.param_b};
  const int horizon = sample_weeks(shape);
  const int used = weeks >= 0 ? std::min(weeks, horizon) : horizon;
  return {0, used > 0 ? util::onp_sample_day(used - 1) + 1 : 0};
}

StudyPipeline::StudyPipeline(const Options& opt, bool with_vantages,
                             bool with_darknet)
    : StudyPipeline(study_shape(opt, with_vantages, with_darknet), opt) {}

StudyPipeline::StudyPipeline(const Options& opt, DayWindow window,
                             bool with_darknet)
    : StudyPipeline(regional_shape(opt, window, with_darknet), opt) {}

StudyPipeline::StudyPipeline(const study::StudyHeader& shape, int jobs)
    : StudyPipeline(shape, live_options(shape, jobs)) {}

StudyPipeline::StudyPipeline(const study::StudyHeader& shape,
                             const Options& opt)
    : shape_(shape), opt_(opt) {
  const auto t0 = EngineClock::now();
  world = std::make_unique<sim::World>(world_config(opt));
  census = std::make_unique<core::AmplifierCensus>(world->registry(),
                                                   world->pbl());
  victims = std::make_unique<core::VictimAnalysis>(world->registry(),
                                                   world->pbl());
  // Global collector covers the full horizon; the measured universe is
  // the paper's 71.5 Tbps average divided by the world scale.
  global = std::make_unique<telemetry::GlobalTrafficCollector>(
      kHorizonDays, 71.5e12 / static_cast<double>(opt.scale));
  labels = std::make_unique<telemetry::AttackLabelStore>();
  const auto& named = world->registry().named();
  if (shape.with_vantages) {
    merit = std::make_unique<telemetry::FlowCollector>(
        "Merit", std::vector<net::Prefix>{named.merit_space});
    frgp = std::make_unique<telemetry::FlowCollector>(
        "FRGP", std::vector<net::Prefix>{named.frgp_space});
    csu = std::make_unique<telemetry::FlowCollector>(
        "CSU", std::vector<net::Prefix>{named.csu_space});
  }
  if (shape.with_darknet) {
    telemetry::DarknetConfig cfg;
    cfg.telescope = named.darknet;
    darknet = std::make_unique<telemetry::DarknetTelescope>(cfg);
  }
  if (opt.jobs > 1) {
    pool_ = std::make_unique<util::ThreadPool>(opt.jobs);
    executor_ = std::make_unique<sim::ShardedExecutor>(pool_.get());
  }
  print_phase("build-world", seconds_between(t0, EngineClock::now()));
}

StudyPipeline::~StudyPipeline() {
  // Everything between run() returning and the pipeline dying is the
  // bench's own analysis/printing — the third provenance phase.
  if (ran_) print_phase("analyze", seconds_between(run_done_,
                                                   EngineClock::now()));
}

void StudyPipeline::run() {
  const auto t0 = EngineClock::now();
  study::CollectorSink collectors;
  collectors.global = global.get();
  collectors.labels = labels.get();
  collectors.darknet = darknet.get();
  std::vector<telemetry::FlowCollector*> vantages;
  if (merit) {
    vantages = {merit.get(), frgp.get(), csu.get()};
    collectors.vantages = vantages;
  }
  study::AnalysisSink analyses;
  analyses.census = census.get();
  analyses.victims = victims.get();
  analyses.summaries = &summaries;
  analyses.extra = extra_visitor;

  study::EventBus bus;
  bus.subscribe(&collectors);
  bus.subscribe(&analyses);
  for (study::EventSink* sink : extra_sinks) {
    if (sink != nullptr) bus.subscribe(sink);
  }

  if (darknet && impairment.any()) {
    darknet->set_capture_loss(impairment.request_loss, impairment.seed);
  }

  try {
    if (!opt_.replay.empty()) {
      replay(bus);
    } else {
      simulate(bus, vantages);
    }
  } catch (const std::exception& ex) {
    // A shard runs once (DESIGN §3e): whatever escapes the engine ends the
    // study with one line and the bad-run exit code, never a terminate().
    std::fprintf(stderr, "[engine] study aborted: %s\n", ex.what());
    std::exit(2);
  }
  run_done_ = EngineClock::now();
  ran_ = true;
  print_phase(opt_.replay.empty() ? "run-study" : "replay-study",
              seconds_between(t0, run_done_));
}

void StudyPipeline::simulate(
    study::EventBus& bus,
    const std::vector<telemetry::FlowCollector*>& vantages) {
  study::Recorder recorder(shape_);
  const bool recording = !opt_.record.empty();
  if (recording) bus.subscribe(&recorder);

  sim::AttackEngineConfig attack_cfg = attack_config(opt_);
  attack_cfg.impairment = impairment;
  sim::AttackEngine attacks(*world, attack_cfg, bus);
  sim::ScanTrafficConfig scan_cfg = scan_config(opt_);
  scan_cfg.impairment = impairment;
  sim::ScanTraffic scans(*world, scan_cfg);
  scan::Prober prober(*world, net::Ipv4Address(198, 51, 100, 7),
                      ntp::Implementation::kXntpd, impairment);
  prober.set_executor(executor_.get());

  // Attack + scan days fan out as day shards on the executor (buffered
  // events merged in day order — bit-identical for any --jobs value): a
  // study runs the days up to each sample, then seeds and probes; a
  // regional window has no samples and is one fan-out.
  sim::ScanTraffic* day_scans =
      (darknet || !vantages.empty()) ? &scans : nullptr;
  const DayWindow days = attack_days(shape_);
  int day = days.from;
  for (int week = 0; week < sample_weeks(shape_); ++week) {
    const int sample_day = util::onp_sample_day(week);
    attacks.run_days(day, sample_day + 1, executor_.get(), day_scans,
                     darknet.get(), &vantages);
    day = sample_day + 1;
    scans.seed_monitor_tables(week, executor_.get());
    (void)prober.run_monlist_sample(week, bus);  // AnalysisSink keeps summary
  }
  attacks.run_days(day, days.to, executor_.get(), day_scans, darknet.get(),
                   &vantages);

  if (recording) {
    const bool ok = recorder.save(opt_.record);
    std::fprintf(stderr, "[engine] %s study recording: %s\n",
                 ok ? "wrote" : "FAILED to write", opt_.record.c_str());
    if (!ok) std::exit(2);
  }
}

void StudyPipeline::replay(study::EventBus& bus) {
  study::Replayer replayer;
  if (!replayer.load(opt_.replay)) {
    std::fprintf(stderr, "failed to load study recording: %s\n",
                 study::Replayer::describe_load_failure(opt_.replay).c_str());
    std::exit(2);
  }
  if (!(replayer.header() == shape_)) {
    std::fprintf(stderr,
                 "study recording %s was made by a different harness shape "
                 "(kind/scale/seed/horizon/window mismatch); refusing to "
                 "replay\n",
                 opt_.replay.c_str());
    std::exit(2);
  }
  if (!replayer.replay(bus)) {
    std::fprintf(stderr, "study recording %s is truncated or corrupt\n",
                 opt_.replay.c_str());
    std::exit(2);
  }
}

void print_volume_series(const std::string& label,
                         const telemetry::VolumeSeries& series,
                         int row_stride_days) {
  std::printf("%s\n", label.c_str());
  std::printf("  shape: %s\n",
              util::log_sparkline(series.bytes).c_str());
  util::TextTable table({"date", "avg rate", "bytes"});
  const auto buckets_per_day =
      std::max<std::size_t>(1, static_cast<std::size_t>(
                                   util::kSecondsPerDay /
                                   std::max<util::SimTime>(1,
                                                           series.bucket_seconds)));
  const std::size_t stride =
      buckets_per_day * static_cast<std::size_t>(std::max(1, row_stride_days));
  for (std::size_t b = 0; b < series.bytes.size(); b += stride) {
    // Aggregate one day's buckets for the row.
    double day_bytes = 0.0;
    for (std::size_t k = b; k < std::min(b + buckets_per_day,
                                         series.bytes.size());
         ++k) {
      day_bytes += series.bytes[k];
    }
    const util::SimTime t =
        series.start + static_cast<util::SimTime>(b) * series.bucket_seconds;
    const double bps = day_bytes * 8.0 / static_cast<double>(
                                             util::kSecondsPerDay);
    table.add_row({util::to_string(util::date_from_sim_time(t)),
                   util::si_count(bps) + "bps", util::bytes_str(day_bytes)});
  }
  std::printf("%s\n", table.to_string().c_str());
}

}  // namespace gorilla::bench
