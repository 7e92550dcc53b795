// gorilla-lint v2 — the analysis driver.
//
// analyze() is the deterministic pipeline over in-memory documents:
// parallel lex+summary, global container-name pooling, parallel rules,
// then the serial graph and stale-waiver passes, and sorted findings. The
// result is byte-identical for any --jobs value because every mutation is
// per-file and the merge walks files in input order.
//
// run_cli() wraps that in the tree walk and the --self-test harness.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <functional>
#include <optional>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "tools/lint/internal.h"
#include "util/thread_pool.h"

namespace gorilla::lint {

namespace {

constexpr long kMaxJobs = 1 << 10;

/// All rules, for self-test coverage accounting.
const std::vector<std::string>& all_rules() {
  static const std::vector<std::string> kRules = {
      "raw-decode",   "wall-clock",     "unordered-iter", "float-eq",
      "parse-optional", "worker-capture", "raw-ofstream",   "shard-mutation",
      "shared-rng",   "layer-break",    "layer-cycle",    "stale-waiver",
      "heavy-node-container", "codec-escape", "rng-arg-order",
  };
  return kRules;
}

// --- parallel execution ----------------------------------------------------

/// Runs fn(0..n-1) on a pool of up to `jobs` threads (inline for one) and
/// joins on ThreadPool::parallel_for. Every fn(i) touches only file i, so
/// the result does not depend on `jobs`.
void parallel_each(std::size_t n, int jobs,
                   const std::function<void(std::size_t)>& fn) {
  util::ThreadPool pool(std::min(jobs, static_cast<int>(n)));
  pool.parallel_for(n, fn);
}

// --- output ----------------------------------------------------------------

void print_findings(const AnalysisResult& result) {
  for (const Finding& f : result.findings) {
    std::printf("%s:%zu: [%s] %s\n", f.path.c_str(), f.line, f.rule.c_str(),
                f.message.c_str());
    if (!f.snippet.empty()) std::printf("    %s\n", f.snippet.c_str());
  }
}

// --- tree walk -------------------------------------------------------------

bool lintable(const std::filesystem::path& p) {
  const std::string ext = p.extension().string();
  return ext == ".h" || ext == ".hpp" || ext == ".cpp" || ext == ".cc" ||
         ext == ".cxx";
}

std::optional<std::string> read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return std::nullopt;
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

/// Collects lintable files under each root (files are taken verbatim),
/// sorted for deterministic ordering.
std::vector<std::string> collect_paths(const std::vector<std::string>& roots) {
  std::vector<std::string> out;
  for (const std::string& root : roots) {
    std::error_code ec;
    if (std::filesystem::is_directory(root, ec)) {
      for (auto it = std::filesystem::recursive_directory_iterator(root, ec);
           !ec && it != std::filesystem::recursive_directory_iterator();
           it.increment(ec)) {
        if (it->is_regular_file(ec) && lintable(it->path())) {
          out.push_back(it->path().generic_string());
        }
      }
    } else if (std::filesystem::is_regular_file(root, ec)) {
      out.push_back(root);
    }
  }
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

// --- self-test -------------------------------------------------------------

/// Each tests/tools/bad_<rule>.cpp must trip exactly its rule; fixtures
/// carrying LINT-EXPECT[rule] markers instead pin the exact (line, rule)
/// set. Coverage of every registered rule is enforced at the end.
int self_test(const std::string& dir) {
  std::vector<std::string> fixtures;
  std::error_code ec;
  for (auto it = std::filesystem::directory_iterator(dir, ec);
       !ec && it != std::filesystem::directory_iterator(); it.increment(ec)) {
    const std::string name = it->path().filename().string();
    if (it->is_regular_file(ec) && name.rfind("bad_", 0) == 0 &&
        it->path().extension() == ".cpp") {
      fixtures.push_back(it->path().generic_string());
    }
  }
  std::sort(fixtures.begin(), fixtures.end());
  if (fixtures.empty()) {
    std::fprintf(stderr, "self-test: no bad_*.cpp fixtures under %s\n",
                 dir.c_str());
    return 1;
  }
  int failures = 0;
  std::set<std::string> covered;
  for (const std::string& path : fixtures) {
    const std::optional<std::string> content = read_file(path);
    if (!content) {
      std::fprintf(stderr, "self-test: cannot read %s\n", path.c_str());
      ++failures;
      continue;
    }
    // Directives come from a private lex: analyze() does not export them.
    SourceFile probe;
    probe.path = path;
    probe.raw = *content;
    build_summary(probe);
    const auto& expects = probe.summary.directives.expects;

    AnalysisResult result =
        analyze({SourceDoc{path, *content}}, Options{});
    std::set<std::pair<std::size_t, std::string>> actual;
    for (const Finding& f : result.findings) {
      actual.insert({f.line, f.rule});
      covered.insert(f.rule);
    }
    bool ok = true;
    std::string detail;
    if (!expects.empty()) {
      const std::set<std::pair<std::size_t, std::string>> expected(
          expects.begin(), expects.end());
      ok = actual == expected;
      if (!ok) {
        detail = "LINT-EXPECT mismatch; got:";
        for (const auto& [line, rule] : actual) {
          detail += " " + std::to_string(line) + ":" + rule;
        }
        if (actual.empty()) detail += " (nothing)";
      }
      for (const auto& [line, rule] : expected) {
        (void)line;
        covered.insert(rule);
      }
    } else {
      const std::string stem =
          std::filesystem::path(path).stem().string().substr(4);
      std::string rule = stem;
      std::replace(rule.begin(), rule.end(), '_', '-');
      if (actual.empty()) {
        ok = false;
        detail = "expected a " + rule + " finding, got none";
      }
      for (const auto& [line, got] : actual) {
        if (got != rule) {
          ok = false;
          detail += (detail.empty() ? "" : "; ") + std::string("stray ") +
                    got + " finding at line " + std::to_string(line);
        }
      }
      covered.insert(rule);
    }
    std::printf("self-test %-28s %s\n",
                std::filesystem::path(path).filename().string().c_str(),
                ok ? "OK" : "FAIL");
    if (!ok) {
      std::printf("  %s\n", detail.c_str());
      ++failures;
    }
  }
  for (const std::string& rule : all_rules()) {
    if (covered.count(rule) != 0) continue;
    std::printf("self-test coverage              FAIL\n  no fixture "
                "exercises rule '%s'\n",
                rule.c_str());
    ++failures;
  }
  std::printf("self-test: %zu fixtures, %d failure%s\n", fixtures.size(),
              failures, failures == 1 ? "" : "s");
  return failures == 0 ? 0 : 1;
}

int usage() {
  std::fprintf(
      stderr,
      "usage: gorilla_lint [options] <path>...\n"
      "       gorilla_lint --self-test <fixture-dir>\n"
      "options:\n"
      "  --jobs N              worker threads, 1..1024 (default: hardware)\n");
  return 2;
}

/// Strict --jobs read (whole string, bounds checked), as gorilla_replay
/// does: a malformed value is refused rather than run as one job.
std::optional<int> parse_jobs(const std::string& text) {
  char* end = nullptr;
  const long v = std::strtol(text.c_str(), &end, 10);
  if (end == text.c_str() || *end != '\0' || v < 1 || v > kMaxJobs) {
    return std::nullopt;
  }
  return static_cast<int>(v);
}

}  // namespace

AnalysisResult analyze(std::vector<SourceDoc> docs, const Options& options) {
  AnalysisResult result;
  std::vector<SourceFile> files(docs.size());
  for (std::size_t i = 0; i < docs.size(); ++i) {
    files[i].path = docs[i].path;
    files[i].raw = std::move(docs[i].content);
  }
  result.file_count = files.size();

  // Phase 1 (parallel): lex + per-file summary.
  parallel_each(files.size(), options.jobs,
                [&files](std::size_t i) { build_summary(files[i]); });

  // The global container-name pool: members are declared in headers and
  // iterated in .cpp files, so phase 2 needs every file's names.
  std::set<std::string> unordered_names;
  for (const SourceFile& f : files) {
    unordered_names.insert(f.summary.unordered_names.begin(),
                           f.summary.unordered_names.end());
  }

  // Phase 2 (parallel): every single-file rule.
  parallel_each(files.size(), options.jobs,
                [&files, &unordered_names](std::size_t i) {
                  run_file_rules(files[i], unordered_names);
                });

  // Serial passes, then a canonical ordering regardless of jobs.
  std::vector<Finding> findings;
  for (const SourceFile& f : files) {
    findings.insert(findings.end(), f.results.findings.begin(),
                    f.results.findings.end());
  }
  run_graph_pass(files, findings);
  run_stale_waiver_pass(files, findings);
  std::sort(findings.begin(), findings.end(),
            [](const Finding& a, const Finding& b) {
              return std::tie(a.path, a.line, a.rule, a.message) <
                     std::tie(b.path, b.line, b.rule, b.message);
            });
  result.findings = std::move(findings);
  return result;
}

int run_cli(const std::vector<std::string>& args) {
  Options options;
  options.jobs = util::ThreadPool::default_threads();
  std::vector<std::string> roots;
  std::string self_test_dir;
  for (std::size_t i = 0; i < args.size(); ++i) {
    const std::string& a = args[i];
    const auto need_value = [&]() -> const std::string* {
      return i + 1 < args.size() ? &args[++i] : nullptr;
    };
    if (a == "--self-test") {
      const std::string* v = need_value();
      if (v == nullptr) return usage();
      self_test_dir = *v;
    } else if (a == "--jobs") {
      const std::string* v = need_value();
      if (v == nullptr) return usage();
      const std::optional<int> jobs = parse_jobs(*v);
      if (!jobs) {
        std::fprintf(stderr,
                     "gorilla-lint: invalid value for --jobs: '%s' (expected "
                     "an integer in [1, %ld])\n",
                     v->c_str(), kMaxJobs);
        return 2;
      }
      options.jobs = *jobs;
    } else if (!a.empty() && a[0] == '-') {
      return usage();
    } else {
      roots.push_back(a);
    }
  }
  if (!self_test_dir.empty()) return self_test(self_test_dir);
  if (roots.empty()) return usage();

  const std::vector<std::string> paths = collect_paths(roots);
  std::vector<SourceDoc> docs;
  docs.reserve(paths.size());
  for (const std::string& path : paths) {
    std::optional<std::string> content = read_file(path);
    if (!content) {
      std::fprintf(stderr, "gorilla-lint: cannot read %s\n", path.c_str());
      return 2;
    }
    docs.push_back(SourceDoc{path, std::move(*content)});
  }

  // Tool timing, not simulation state — reported so check.sh and bench.sh
  // can track lint wall time.
  using Clock = std::chrono::steady_clock;  // NOLINT(wall-clock)
  const Clock::time_point t0 = Clock::now();
  AnalysisResult result = analyze(std::move(docs), options);
  const double ms =
      std::chrono::duration<double, std::milli>(Clock::now() - t0).count();

  print_findings(result);
  std::fprintf(stderr,
               "gorilla-lint: %zu finding%s in %zu files, %.1f ms (jobs=%d)\n",
               result.findings.size(),
               result.findings.size() == 1 ? "" : "s", result.file_count, ms,
               options.jobs);
  return result.findings.empty() ? 0 : 1;
}

}  // namespace gorilla::lint
