// gorilla_replay — multi-backend replay driver (ROADMAP "Multi-backend
// replay", DESIGN.md §3h).
//
// Loads a recorded GORCOLv3 study artifact (strictly: a damaged or
// outdated one is refused with a diagnosis, to be regenerated) and fans
// the typed event stream out to any combination of replay backends:
//
//   detector  study::DetectorSink   — streaming anomaly detection + quality
//                                     vs recorded truth → OUT/detector.txt
//   pcap      study::PcapExportSink — mode-7 exchanges for attack windows
//                                     → OUT/attacks.pcap
//   csv       study::CsvExportSink  — streaming CSV projections
//                                     → OUT/{global,labels,summaries}.csv
//
// The artifact is decoded once: one ordered pass streams it into a
// study::EventBus with every selected sink subscribed (--weeks N caps the
// pass). Per-sink output is a pure function of the artifact, so it is
// identical to a LIVE run of the same study with the sink riding the bus
// (--live rebuilds the harness the artifact's header describes, study or
// regional, and proves exactly that; the gorilla_replay.outputs ctest and
// scripts/check.sh diff the two). --jobs K sets the --live run's worker
// count, with the same bytes for every K. Diagnostics go to stderr; stdout
// stays empty.
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "common.h"
#include "study/bus.h"
#include "study/csv_export_sink.h"
#include "study/detector_sink.h"
#include "study/pcap_export_sink.h"
#include "study/recorder.h"
#include "util/mem_stats.h"
#include "util/time.h"

namespace {

using gorilla::util::SimTime;

void usage(std::FILE* out, const char* argv0) {
  std::fprintf(
      out,
      "usage: %s --artifact PATH [--sinks detector,pcap,csv] [--weeks N]\n"
      "       [--jobs K] [--out DIR] [--live] [--mem-report]\n"
      "\n"
      "  --artifact PATH  recorded study (GORCOLv3)\n"
      "  --sinks LIST     comma-separated backends (default: detector)\n"
      "  --weeks N        replay at most N complete weeks (N >= 0; study\n"
      "                   recordings only: a regional window has no weeks)\n"
      "  --jobs K         worker threads for the --live run (K >= 1;\n"
      "                   output is identical for every K)\n"
      "  --out DIR        output directory (default: .)\n"
      "  --live           re-simulate the study or regional harness the\n"
      "                   artifact's header describes, with the sinks riding\n"
      "                   the live bus (equivalence check)\n"
      "  --mem-report     print the MemStats registry to stderr at exit\n",
      argv0);
}

[[noreturn]] void die(const std::string& message) {
  std::fprintf(stderr, "gorilla_replay: %s\n", message.c_str());
  std::exit(2);
}

/// Strict integer read (whole string, bounds checked); exits 2 on junk.
long int_arg(const char* text, const char* flag, long min_value,
             long max_value) {
  char* end = nullptr;
  const long v = std::strtol(text, &end, 10);
  if (end == text || *end != '\0' || v < min_value || v > max_value) {
    die(std::string("invalid value for ") + flag + ": '" + text +
        "' (expected an integer in [" + std::to_string(min_value) + ", " +
        std::to_string(max_value) + "])");
  }
  return v;
}

struct Args {
  std::string artifact;
  std::vector<std::string> sinks = {"detector"};
  int weeks = -1;  ///< -1 = every recorded week
  int jobs = 1;
  std::string out_dir = ".";
  bool live = false;
};

Args read_args(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&](const char* name) -> const char* {
      if (i + 1 >= argc) die(std::string("missing value for ") + name);
      return argv[++i];
    };
    if (arg == "--artifact") {
      args.artifact = value("--artifact");
    } else if (arg == "--sinks") {
      args.sinks.clear();
      std::string list = value("--sinks");
      std::size_t from = 0;
      while (from <= list.size()) {
        const std::size_t comma = list.find(',', from);
        const std::string name =
            list.substr(from, comma == std::string::npos ? std::string::npos
                                                         : comma - from);
        if (!name.empty()) args.sinks.push_back(name);
        if (comma == std::string::npos) break;
        from = comma + 1;
      }
      if (args.sinks.empty()) {
        die("--sinks needs at least one of: csv, detector, pcap");
      }
      for (const auto& name : args.sinks) {
        if (name != "detector" && name != "pcap" && name != "csv") {
          die("unknown sink '" + name + "' (valid: csv, detector, pcap)");
        }
      }
    } else if (arg == "--weeks") {
      args.weeks =
          static_cast<int>(int_arg(value("--weeks"), "--weeks", 0, 1 << 16));
    } else if (arg == "--jobs") {
      args.jobs =
          static_cast<int>(int_arg(value("--jobs"), "--jobs", 1, 1 << 10));
    } else if (arg == "--out") {
      args.out_dir = value("--out");
    } else if (arg == "--live") {
      args.live = true;
    } else if (arg == "--mem-report") {
      std::atexit([] {
        gorilla::util::MemStats::instance().report(stderr);
      });
    } else if (arg == "--help" || arg == "-h") {
      usage(stdout, argv[0]);
      std::exit(0);
    } else {
      usage(stderr, argv[0]);
      die("unknown argument '" + arg + "'");
    }
  }
  if (args.artifact.empty()) {
    usage(stderr, argv[0]);
    die("--artifact PATH is required");
  }
  return args;
}

/// One replay backend: the sink, its output streams, and the finalization
/// that flushes results to disk. finish() returns false on any I/O failure
/// — which the driver turns into a nonzero exit (the pcap/CSV sinks carry
/// sticky ok() exactly so failures cannot be dropped at exit).
struct Backend {
  virtual ~Backend() = default;
  [[nodiscard]] virtual const char* name() const = 0;
  [[nodiscard]] virtual gorilla::study::EventSink& sink() = 0;
  [[nodiscard]] virtual bool finish() = 0;
};

struct DetectorBackend final : Backend {
  DetectorBackend(const gorilla::study::DetectorSinkConfig& cfg,
                  std::string path)
      : impl(cfg), out_path(std::move(path)) {}

  [[nodiscard]] const char* name() const override { return "detector"; }
  [[nodiscard]] gorilla::study::EventSink& sink() override { return impl; }
  [[nodiscard]] bool finish() override {
    impl.finish();
    // Plain text report, not a durable artifact: byte-diffed by tests and
    // check.sh, failure surfaces through the exit code below.
    std::ofstream out(out_path,  // NOLINT(raw-ofstream)
                      std::ios::binary | std::ios::trunc);
    out << impl.render();
    out.flush();
    std::fprintf(stderr,
                 "[replay] detector: %zu episode(s), recall=%.3f "
                 "precision=%.3f -> %s\n",
                 impl.attacks().size(), impl.quality().recall(),
                 impl.quality().precision(), out_path.c_str());
    return out.good();
  }

  gorilla::study::DetectorSink impl;
  std::string out_path;
};

struct PcapBackend final : Backend {
  PcapBackend(const gorilla::study::PcapExportSinkConfig& cfg,
              const std::string& path)
      : out(path, std::ios::binary | std::ios::trunc),
        impl(out, cfg),
        out_path(path) {}

  [[nodiscard]] const char* name() const override { return "pcap"; }
  [[nodiscard]] gorilla::study::EventSink& sink() override { return impl; }
  [[nodiscard]] bool finish() override {
    out.flush();
    std::fprintf(stderr,
                 "[replay] pcap: %llu window(s), %llu exchange(s), %llu "
                 "packet(s) -> %s\n",
                 static_cast<unsigned long long>(impl.windows_selected()),
                 static_cast<unsigned long long>(impl.exchanges_written()),
                 static_cast<unsigned long long>(impl.packets_written()),
                 out_path.c_str());
    return impl.ok() && out.good();
  }

  // Streaming capture, not an atomic artifact: the pcap grows record by
  // record and sink ok() + exit code carry failure.
  std::ofstream out;  // NOLINT(raw-ofstream)
  gorilla::study::PcapExportSink impl;
  std::string out_path;
};

struct CsvBackend final : Backend {
  explicit CsvBackend(const std::string& dir)
      : global(dir + "/global.csv", std::ios::trunc),
        labels(dir + "/labels.csv", std::ios::trunc),
        summaries(dir + "/summaries.csv", std::ios::trunc),
        impl(&global, &labels, &summaries),
        out_dir(dir) {}

  [[nodiscard]] const char* name() const override { return "csv"; }
  [[nodiscard]] gorilla::study::EventSink& sink() override { return impl; }
  [[nodiscard]] bool finish() override {
    global.flush();
    labels.flush();
    summaries.flush();
    std::fprintf(stderr, "[replay] csv: %llu row(s) -> %s/{global,labels,"
                         "summaries}.csv\n",
                 static_cast<unsigned long long>(impl.rows_written()),
                 out_dir.c_str());
    return impl.ok();
  }

  // Streaming projections; row-by-row writes, failure carried by ok().
  std::ofstream global, labels, summaries;  // NOLINT(raw-ofstream)
  gorilla::study::CsvExportSink impl;
  std::string out_dir;
};

}  // namespace

int main(int argc, char** argv) {
  using namespace gorilla;
  const Args args = read_args(argc, argv);

  study::Replayer replayer;
  if (!replayer.load(args.artifact)) {
    die(study::Replayer::describe_load_failure(args.artifact));
  }
  const study::StudyHeader header = replayer.header();
  const char* shape = bench::shape_name(header);
  if (shape == nullptr) {
    die("'" + args.artifact + "': unknown recording shape (kind " +
        std::to_string(header.kind) + ")");
  }
  const int horizon = bench::sample_weeks(header);
  if (args.weeks >= 0 && horizon == 0) {
    die("--weeks applies to study recordings only; '" + args.artifact +
        "' is a " + shape + " recording with no week markers");
  }
  if (args.live && args.weeks >= 0) {
    die("--live always runs the full recorded horizon; drop --weeks");
  }

  std::fprintf(stderr,
               "[replay] loaded %s: kind=%s scale=%u seed=%llu weeks=%d\n",
               args.artifact.c_str(), shape, header.scale,
               static_cast<unsigned long long>(header.seed), horizon);

  // The detector window is a pure function of the header (and the week
  // cap), so a live run and a replay of the same artifact configure the
  // identical sink.
  const bench::DayWindow days = bench::attack_days(header, args.weeks);
  study::DetectorSinkConfig det_cfg;
  det_cfg.window_start = static_cast<SimTime>(days.from) * util::kSecondsPerDay;
  det_cfg.window_end = static_cast<SimTime>(days.to) * util::kSecondsPerDay;
  det_cfg.bucket_seconds = 300;
  det_cfg.detector.floor_bps = 5e6;

  study::PcapExportSinkConfig pcap_cfg;  // auto windows from NTP labels

  std::error_code ec;
  std::filesystem::create_directories(args.out_dir, ec);
  if (ec) die("cannot create --out directory '" + args.out_dir + "'");

  std::vector<std::unique_ptr<Backend>> backends;
  for (const auto& name : args.sinks) {
    if (name == "detector") {
      backends.push_back(std::make_unique<DetectorBackend>(
          det_cfg, args.out_dir + "/detector.txt"));
    } else if (name == "pcap") {
      backends.push_back(std::make_unique<PcapBackend>(
          pcap_cfg, args.out_dir + "/attacks.pcap"));
    } else {
      backends.push_back(std::make_unique<CsvBackend>(args.out_dir));
    }
  }

  // Tool timing, not simulation state (the [replay] sink lines on stderr).
  using Clock = std::chrono::steady_clock;  // NOLINT(wall-clock)
  const auto seconds_since = [](Clock::time_point t0) {
    return std::chrono::duration<double>(Clock::now() - t0).count();
  };
  bool stream_ok = true;
  double elapsed = 0.0;
  if (args.live) {
    // Rebuild the exact harness the artifact's header describes and run it
    // live with every backend riding the bus.
    bench::StudyPipeline pipeline(header, args.jobs);
    for (auto& backend : backends) {
      pipeline.extra_sinks.push_back(&backend->sink());
    }
    const auto t0 = Clock::now();
    pipeline.run();
    elapsed = seconds_since(t0);
  } else {
    // Decode once, fan out: one ordered pass into a bus of every backend.
    study::EventBus bus;
    for (auto& backend : backends) bus.subscribe(&backend->sink());
    const auto t0 = Clock::now();
    stream_ok = replayer.replay(bus, args.weeks);
    elapsed = seconds_since(t0);
  }

  bool io_ok = true;
  for (auto& backend : backends) {
    const bool ok = backend->finish();
    std::fprintf(stderr, "[replay] sink %-8s %8.3fs %s\n", backend->name(),
                 elapsed, ok ? "ok" : "FAILED");
    io_ok = io_ok && ok;
  }
  if (!stream_ok) {
    std::fprintf(stderr,
                 "gorilla_replay: '%s' is internally inconsistent (a column "
                 "ended early or holds an unknown event tag); regenerate it "
                 "with --record\n",
                 args.artifact.c_str());
    return 1;
  }
  if (!io_ok) {
    std::fprintf(stderr, "gorilla_replay: one or more sinks failed to write "
                         "their output\n");
    return 1;
  }
  return 0;
}
