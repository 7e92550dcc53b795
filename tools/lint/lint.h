// gorilla-lint v2 — public interface of the analysis library.
//
// The analyzer is a multi-pass pipeline over a set of source documents:
//
//   1. per-file, context-free (parallel on util::ThreadPool): lex, scrub,
//      collect waivers/directives/includes/unordered-container names, and
//      run every single-file rule.
//   2. cross-file: unordered-iter (needs the global container-name set),
//      the include-graph pass (layer-DAG ranks, file- and directory-level
//      cycle rejection), and stale-waiver (a NOLINT that suppressed
//      nothing is itself a finding).
//   3. reporting: deterministic ordering, one text line per finding plus
//      its source line.
//
// The library is filesystem-free at its core (analyze() takes in-memory
// documents) so the rules are unit-testable; run_cli() adds the directory
// walking and the `--self-test` harness.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

namespace gorilla::lint {

struct Finding {
  std::string path;
  std::size_t line = 0;
  std::string rule;
  std::string message;
  std::string snippet;  ///< trimmed raw source line
};

struct SourceDoc {
  std::string path;     ///< display + layer-detection path (as given)
  std::string content;
};

struct Options {
  int jobs = 1;                 ///< worker threads; <=1 runs inline
};

struct AnalysisResult {
  std::vector<Finding> findings;        ///< post-waiver
  std::size_t file_count = 0;
};

/// Analyzes in-memory documents. Deterministic for any `jobs` value.
[[nodiscard]] AnalysisResult analyze(std::vector<SourceDoc> docs,
                                     const Options& options);

/// Full command-line driver (tree walk, self-test).
/// Returns the process exit code: 0 clean, 1 findings/self-test failure,
/// 2 usage error.
int run_cli(const std::vector<std::string>& args);

}  // namespace gorilla::lint
