// gorilla-lint v2 — the include-graph pass.
//
// Three checks over the project include graph:
//
//   layer-break  an #include whose target sits in a higher-ranked layer
//                than the including file (the DESIGN §3f DAG). Same-rank
//                includes are allowed — net/ntp/dns are siblings, as are
//                core/scan/sim.
//   layer-cycle  a cycle among project files, or among layer directories,
//                in the graph of rank-legal edges. Rank-violating edges are
//                excluded: they are already layer-break findings (waived or
//                not), and counting them twice would make a justified
//                downward-interface waiver unsatisfiable.
#include <algorithm>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "tools/lint/internal.h"

namespace gorilla::lint {

namespace {

/// Known layer directories and their DAG ranks.
const std::vector<std::pair<std::string, int>>& layer_table() {
  static const std::vector<std::pair<std::string, int>> kTable = {
      {"util", 0},  {"net", 1},       {"ntp", 1},   {"dns", 1},
      {"core", 2},  {"scan", 2},      {"sim", 2},   {"study", 3},
      {"telemetry", 4}, {"bench", 5}, {"tools", 5}, {"tests", 5},
      {"examples", 5},
  };
  return kTable;
}

/// Splits a path on '/'.
std::vector<std::string> components(const std::string& path) {
  std::vector<std::string> out;
  std::string cur;
  for (const char c : path) {
    if (c == '/') {
      if (!cur.empty()) out.push_back(cur);
      cur.clear();
    } else {
      cur.push_back(c);
    }
  }
  if (!cur.empty()) out.push_back(cur);
  return out;
}

/// Resolves an include target to an index into `files`, or npos. Quoted
/// includes in this tree are rooted at src/ (e.g. "study/events.h"), so a
/// file whose path ends with "/<target>" — or equals it — is the match.
std::size_t resolve_include(const std::vector<SourceFile>& files,
                            const std::string& target) {
  for (std::size_t i = 0; i < files.size(); ++i) {
    const std::string& p = files[i].path;
    if (p == target) return i;
    if (p.size() > target.size() + 1 &&
        p.compare(p.size() - target.size(), target.size(), target) == 0 &&
        p[p.size() - target.size() - 1] == '/') {
      return i;
    }
  }
  return static_cast<std::size_t>(-1);
}

/// Tarjan-free cycle finder: DFS with colors; returns one representative
/// cycle path (node names) if the graph has any, else empty.
std::vector<std::string> find_cycle(
    const std::map<std::string, std::set<std::string>>& adj) {
  std::map<std::string, int> color;  // 0 white, 1 gray, 2 black
  std::vector<std::string> stack;
  std::vector<std::string> cycle;
  // One shared empty edge set: a leaf's begin() and end() must come from
  // the same container for the exhaustion check below to be valid.
  static const std::set<std::string> kNoEdges;
  const auto edges_of =
      [&adj](const std::string& n) -> const std::set<std::string>& {
    const auto it = adj.find(n);
    return it != adj.end() ? it->second : kNoEdges;
  };

  struct Frame {
    std::string node;
    std::set<std::string>::const_iterator next;
  };
  for (const auto& [start, _] : adj) {
    if (color[start] != 0) continue;
    std::vector<Frame> frames;
    const auto push = [&](const std::string& n) {
      color[n] = 1;
      stack.push_back(n);
      frames.push_back(Frame{n, edges_of(n).begin()});
    };
    push(start);
    while (!frames.empty() && cycle.empty()) {
      Frame& fr = frames.back();
      const auto& edges = edges_of(fr.node);
      if (fr.next == edges.end()) {
        color[fr.node] = 2;
        stack.pop_back();
        frames.pop_back();
        continue;
      }
      const std::string succ = *fr.next++;
      if (color[succ] == 1) {
        // Found: slice the gray stack from succ to the top.
        const auto at = std::find(stack.begin(), stack.end(), succ);
        cycle.assign(at, stack.end());
        cycle.push_back(succ);
      } else if (color[succ] == 0) {
        push(succ);
      }
    }
    if (!cycle.empty()) break;
  }
  return cycle;
}

std::string join(const std::vector<std::string>& parts,
                 const std::string& sep) {
  std::string out;
  for (const auto& p : parts) {
    if (!out.empty()) out += sep;
    out += p;
  }
  return out;
}

}  // namespace

int layer_rank(const std::string& layer) {
  for (const auto& [name, rank] : layer_table()) {
    if (name == layer) return rank;
  }
  return -1;
}

std::string file_layer(const SourceFile& f) {
  if (!f.summary.directives.layer.empty()) return f.summary.directives.layer;
  const std::vector<std::string> parts = components(f.path);
  // Last directory component naming a known layer wins, so both
  // "src/sim/attack.cpp" and "/abs/path/repo/src/sim/attack.cpp" map to
  // sim (and "tools/lint/lexer.cpp" to lint's parent, tools).
  for (std::size_t i = parts.size(); i-- > 1;) {
    if (layer_rank(parts[i - 1]) >= 0) return parts[i - 1];
  }
  return {};
}

std::string include_layer(const std::string& target) {
  const std::vector<std::string> parts = components(target);
  if (!parts.empty() && layer_rank(parts[0]) >= 0) return parts[0];
  return {};
}

void run_graph_pass(std::vector<SourceFile>& files,
                    std::vector<Finding>& findings) {
  struct Edge {
    std::size_t from_file;
    std::size_t line;
    std::string target;      ///< include text
    std::string from_layer;
    std::string to_layer;
    bool violation = false;  ///< upward under the DAG
  };
  std::vector<Edge> edges;

  for (std::size_t fi = 0; fi < files.size(); ++fi) {
    SourceFile& f = files[fi];
    const std::string from = file_layer(f);
    const int from_rank = layer_rank(from);
    for (const IncludeDirective& inc : f.summary.includes) {
      if (inc.angled) continue;  // system/stdlib headers are out of scope
      const std::string to = include_layer(inc.target);
      if (to.empty()) continue;  // not a project-layer include
      Edge e{fi, inc.line, inc.target, from, to, false};
      const int to_rank = layer_rank(to);
      if (from_rank >= 0 && to_rank > from_rank) {
        e.violation = true;
        const auto key = std::make_pair(inc.line, std::string("layer-break"));
        const auto wit = f.summary.waivers.find(inc.line);
        if (wit != f.summary.waivers.end() &&
            wit->second.count("layer-break") != 0) {
          f.graph_used_waivers.insert(key);
        } else {
          findings.push_back(Finding{
              f.path, inc.line, "layer-break",
              "include of '" + inc.target + "' reaches up from layer '" +
                  from + "' to '" + to + "'; the DAG is " + kLayerDag,
              std::string(f.lex.line_text(inc.line))});
        }
      }
      edges.push_back(std::move(e));
    }
  }

  // Cycle graphs over rank-legal edges only (violations are layer-break
  // findings already; see the header comment).
  std::map<std::string, std::set<std::string>> file_adj;
  std::map<std::string, std::set<std::string>> dir_adj;
  for (const Edge& e : edges) {
    if (e.violation) continue;
    const std::size_t ti = resolve_include(files, e.target);
    if (ti == static_cast<std::size_t>(-1)) continue;
    // A self-include lands as a self-edge, which the DFS reports as a
    // 1-cycle via the gray->gray back edge.
    file_adj[files[e.from_file].path].insert(files[ti].path);
    if (!e.from_layer.empty() && !e.to_layer.empty() &&
        e.from_layer != e.to_layer) {
      dir_adj[e.from_layer].insert(e.to_layer);
    }
  }
  // A self-include needs the self-edge to surface as a cycle; the general
  // DFS treats gray->gray as a back edge, which covers it too.
  const std::vector<std::string> file_cycle = find_cycle(file_adj);
  if (!file_cycle.empty()) {
    // Attribute the finding to the first file on the cycle, at the include
    // that participates.
    const std::string& culprit = file_cycle.front();
    for (std::size_t fi = 0; fi < files.size(); ++fi) {
      if (files[fi].path != culprit) continue;
      SourceFile& f = files[fi];
      std::size_t line = 1;
      for (const IncludeDirective& inc : f.summary.includes) {
        const std::size_t ti = resolve_include(files, inc.target);
        if (ti != static_cast<std::size_t>(-1) &&
            files[ti].path == file_cycle[1 % file_cycle.size()]) {
          line = inc.line;
          break;
        }
      }
      const auto wit = f.summary.waivers.find(line);
      if (wit != f.summary.waivers.end() &&
          wit->second.count("layer-cycle") != 0) {
        f.graph_used_waivers.insert({line, "layer-cycle"});
      } else {
        findings.push_back(Finding{
            f.path, line, "layer-cycle",
            "include cycle among project files: " + join(file_cycle, " -> "),
            std::string(f.lex.line_text(line))});
      }
      break;
    }
  }
  const std::vector<std::string> dir_cycle = find_cycle(dir_adj);
  if (!dir_cycle.empty() && file_cycle.empty()) {
    // Directory-level cycle with no single-file witness: report on the
    // first edge of the cycle we can find.
    for (const Edge& e : edges) {
      if (e.violation || e.from_layer != dir_cycle.front() ||
          e.to_layer != dir_cycle[1 % dir_cycle.size()]) {
        continue;
      }
      SourceFile& f = files[e.from_file];
      const auto wit = f.summary.waivers.find(e.line);
      if (wit != f.summary.waivers.end() &&
          wit->second.count("layer-cycle") != 0) {
        f.graph_used_waivers.insert({e.line, "layer-cycle"});
      } else {
        findings.push_back(Finding{
            f.path, e.line, "layer-cycle",
            "include cycle among layer directories: " +
                join(dir_cycle, " -> "),
            std::string(f.lex.line_text(e.line))});
      }
      break;
    }
  }
}

void run_stale_waiver_pass(std::vector<SourceFile>& files,
                           std::vector<Finding>& findings) {
  for (SourceFile& f : files) {
    for (const auto& [line, rules] : f.summary.waivers) {
      for (const std::string& rule : rules) {
        const std::pair<std::size_t, std::string> key{line, rule};
        if (f.results.used_waivers.count(key) != 0) continue;
        if (f.graph_used_waivers.count(key) != 0) continue;
        if (rule == "stale-waiver") continue;  // cannot waive the meta-rule
        findings.push_back(Finding{
            f.path, line, "stale-waiver",
            "NOLINT(" + rule +
                ") suppresses nothing; the code it excused is gone — delete "
                "the waiver or restore its justification",
            std::string(f.lex.line_text(line))});
      }
    }
  }
}

}  // namespace gorilla::lint
