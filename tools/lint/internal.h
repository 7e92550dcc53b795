// Shared internals of the gorilla-lint analysis passes (not installed API).
#pragma once

#include <map>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "tools/lint/lexer.h"
#include "tools/lint/lint.h"

namespace gorilla::lint {

/// Self-test / fixture directives read from comments:
///   LINT-LAYER: <name>     assigns a layer to a file outside src/<layer>/
///   LINT-EXPECT[<rule>]    exact-match expectation used by --self-test
///   LINT-COMPACT           marks a struct/class as a compact (flat-storage)
///                          type; heavy-node-container rejects node-based
///                          std containers among its members
struct FileDirectives {
  std::string layer;
  std::vector<std::pair<std::size_t, std::string>> expects;  // (line, rule)
  std::vector<std::size_t> compact_marks;  ///< lines with a compact-type mark
};

/// Context-free per-file facts.
struct FileSummary {
  std::vector<std::string> unordered_names;  ///< declared unordered_{map,set}s
  std::vector<IncludeDirective> includes;
  std::map<std::size_t, std::set<std::string>> waivers;  ///< line -> rules
  FileDirectives directives;
};

/// Per-file rule output.
struct FileResults {
  std::vector<Finding> findings;  ///< post-waiver single-file findings
  std::set<std::pair<std::size_t, std::string>> used_waivers;
};

/// One document moving through the pipeline.
struct SourceFile {
  std::string path;
  std::string raw;
  bool lexed = false;
  LexedSource lex;
  std::string scrubbed;
  FileSummary summary;
  FileResults results;
  /// Waivers consumed by the cross-file passes (layer-break, layer-cycle);
  /// merged with results.used_waivers for stale-waiver.
  std::set<std::pair<std::size_t, std::string>> graph_used_waivers;
};

/// Lexes the file (once) and builds FileSummary from it (waivers,
/// directives, includes, unordered-container names).
void build_summary(SourceFile& f);

/// Runs every single-file rule plus unordered-iter against the global
/// container-name set; fills f.results.
void run_file_rules(SourceFile& f, const std::set<std::string>& unordered_names);

/// The include-graph pass: per-include layer-DAG rank checks and
/// file-level and directory-level cycle rejection. Appends findings
/// (already waiver-filtered; usage recorded in graph_used_waivers).
void run_graph_pass(std::vector<SourceFile>& files,
                    std::vector<Finding>& findings);

/// stale-waiver: every (line, rule) waiver no pass consumed.
void run_stale_waiver_pass(std::vector<SourceFile>& files,
                           std::vector<Finding>& findings);

/// Layer rank per the DESIGN §3f DAG:
///   util(0) -> net,ntp,dns(1) -> core,scan,sim(2) -> study(3)
///   -> telemetry(4) -> bench,tools,tests,examples(5).
/// Returns -1 for unknown names.
int layer_rank(const std::string& layer);

/// Layer of a file: LINT-LAYER directive if present, else the last path
/// component that names a known layer. Empty if none.
std::string file_layer(const SourceFile& f);

/// Layer of an include target: its first path component when that names a
/// known layer (quoted includes in this tree are rooted at src/).
std::string include_layer(const std::string& target);

/// Human-readable DAG, used in finding messages and docs.
inline constexpr const char* kLayerDag =
    "util -> {net,ntp,dns} -> {core,scan,sim} -> study -> telemetry -> "
    "bench/tools";

}  // namespace gorilla::lint
