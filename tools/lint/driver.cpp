// gorilla-lint v2 — the analysis driver.
//
// analyze() is the deterministic pipeline over in-memory documents:
// parallel lex+summary, global container-name pooling, parallel rules
// (both phases cacheable by content hash), then the serial graph and
// stale-waiver passes, and sorted findings. The result is byte-identical
// for any --jobs value because every mutation is per-file and the merge
// walks files in input order.
//
// run_cli() wraps that in the tree walk, the content-hash cache file, the
// artifact writers, and the --self-test harness.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <functional>
#include <map>
#include <optional>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "tools/lint/internal.h"
#include "util/thread_pool.h"

namespace gorilla::lint {

namespace {

constexpr const char* kToolVersion = "gorilla-lint v2.0";
constexpr const char* kCacheMagic = "gorilla-lint-cache 2";

/// All rules, for self-test coverage accounting and cache context hashing.
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

// --- cache -----------------------------------------------------------------

struct CacheEntry {
  std::uint64_t content_hash = 0;
  FileSummary summary;
  bool has_results = false;
  std::uint64_t context_hash = 0;
  FileResults results;
};

using CacheMap = std::map<std::string, CacheEntry>;

std::string hex(std::uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(v));
  return buf;
}

std::vector<std::string> split(const std::string& s, char sep) {
  std::vector<std::string> out;
  std::string cur;
  for (const char c : s) {
    if (c == sep) {
      out.push_back(cur);
      cur.clear();
    } else {
      cur.push_back(c);
    }
  }
  out.push_back(cur);
  return out;
}

CacheMap load_cache(const std::string& path) {
  CacheMap out;
  std::ifstream in(path);
  if (!in) return out;
  std::string line;
  if (!std::getline(in, line) || line != kCacheMagic) return out;
  CacheEntry* cur = nullptr;
  std::string cur_path;
  const auto to_u64 = [](const std::string& s) {
    return std::strtoull(s.c_str(), nullptr, 16);
  };
  const auto to_line = [](const std::string& s) {
    return static_cast<std::size_t>(std::strtoull(s.c_str(), nullptr, 10));
  };
  while (std::getline(in, line)) {
    if (line.size() < 2 || line[1] != ' ') continue;
    const char tag = line[0];
    const std::string rest = line.substr(2);
    if (tag == 'F') {
      const std::size_t sp = rest.find(' ');
      if (sp == std::string::npos) {
        cur = nullptr;
        continue;
      }
      cur_path = rest.substr(sp + 1);
      cur = &out[cur_path];
      cur->content_hash = to_u64(rest.substr(0, sp));
      continue;
    }
    if (cur == nullptr) continue;
    switch (tag) {
      case 'N':
        cur->summary.unordered_names.push_back(rest);
        break;
      case 'I': {
        const std::vector<std::string> p = split(rest, ' ');
        if (p.size() < 3) break;
        std::string target = p[2];
        for (std::size_t i = 3; i < p.size(); ++i) target += " " + p[i];
        cur->summary.includes.push_back(
            IncludeDirective{to_line(p[0]), target, p[1] == "1"});
        break;
      }
      case 'W': {
        const std::vector<std::string> p = split(rest, ' ');
        if (p.size() == 2) cur->summary.waivers[to_line(p[0])].insert(p[1]);
        break;
      }
      case 'L':
        cur->summary.directives.layer = rest;
        break;
      case 'E': {
        const std::vector<std::string> p = split(rest, ' ');
        if (p.size() == 2) {
          cur->summary.directives.expects.push_back({to_line(p[0]), p[1]});
        }
        break;
      }
      case 'R':
        cur->has_results = true;
        cur->context_hash = to_u64(rest);
        break;
      case 'X': {
        const std::vector<std::string> p = split(rest, '\x1f');
        if (p.size() == 4) {
          cur->results.findings.push_back(
              Finding{cur_path, to_line(p[0]), p[1], p[2], p[3]});
        }
        break;
      }
      case 'U': {
        const std::vector<std::string> p = split(rest, ' ');
        if (p.size() == 2) {
          cur->results.used_waivers.insert({to_line(p[0]), p[1]});
        }
        break;
      }
      default:
        break;
    }
  }
  return out;
}

void save_cache(const std::string& path, const std::vector<SourceFile>& files,
                std::uint64_t context_hash) {
  // Regenerable tool state, not a study artifact — the crash-safe
  // ColumnArchive path would be overkill here.
  std::ofstream out(path, std::ios::trunc);  // NOLINT(raw-ofstream)
  if (!out) return;
  out << kCacheMagic << "\n";
  for (const SourceFile& f : files) {
    out << "F " << hex(f.content_hash) << " " << f.path << "\n";
    for (const auto& n : f.summary.unordered_names) out << "N " << n << "\n";
    for (const auto& inc : f.summary.includes) {
      out << "I " << inc.line << " " << (inc.angled ? 1 : 0) << " "
          << inc.target << "\n";
    }
    for (const auto& [line, rules] : f.summary.waivers) {
      for (const auto& r : rules) out << "W " << line << " " << r << "\n";
    }
    if (!f.summary.directives.layer.empty()) {
      out << "L " << f.summary.directives.layer << "\n";
    }
    for (const auto& [line, rule] : f.summary.directives.expects) {
      out << "E " << line << " " << rule << "\n";
    }
    out << "R " << hex(context_hash) << "\n";
    for (const Finding& fd : f.results.findings) {
      out << "X " << fd.line << '\x1f' << fd.rule << '\x1f' << fd.message
          << '\x1f' << fd.snippet << "\n";
    }
    for (const auto& [line, rule] : f.results.used_waivers) {
      out << "U " << line << " " << rule << "\n";
    }
  }
}

// --- output ----------------------------------------------------------------

std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size() + 8);
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      case '\r': out += "\\r"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out.push_back(c);
        }
    }
  }
  return out;
}

void print_findings(const AnalysisResult& result, bool json) {
  if (json) {
    std::ostringstream out;
    out << "{\n  \"tool\": \"" << kToolVersion << "\",\n  \"files\": "
        << result.file_count << ",\n  \"cache_hits\": " << result.cache_hits
        << ",\n  \"findings\": [";
    for (std::size_t i = 0; i < result.findings.size(); ++i) {
      const Finding& f = result.findings[i];
      out << (i == 0 ? "" : ",") << "\n    {\"path\": \""
          << json_escape(f.path) << "\", \"line\": " << f.line
          << ", \"rule\": \"" << json_escape(f.rule) << "\", \"message\": \""
          << json_escape(f.message) << "\", \"snippet\": \""
          << json_escape(f.snippet) << "\"}";
    }
    out << (result.findings.empty() ? "]" : "\n  ]") << "\n}\n";
    std::fputs(out.str().c_str(), stdout);
    return;
  }
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
      "  --jobs N              worker threads (default: hardware)\n"
      "  --format text|json    findings output format\n"
      "  --dot FILE            write the include-graph DOT artifact\n"
      "  --cache FILE          per-file content-hash result cache\n");
  return 2;
}

}  // namespace

AnalysisResult analyze(std::vector<SourceDoc> docs, const Options& options) {
  AnalysisResult result;
  std::vector<SourceFile> files(docs.size());
  for (std::size_t i = 0; i < docs.size(); ++i) {
    files[i].path = docs[i].path;
    files[i].raw = std::move(docs[i].content);
    files[i].content_hash = fnv1a(files[i].raw);
  }
  result.file_count = files.size();

  CacheMap cache;
  if (!options.cache_path.empty()) cache = load_cache(options.cache_path);

  // Phase 1 (parallel): lex + per-file summary. The lex always runs — the
  // serial passes need line text for snippets — but summary extraction is
  // skipped on a content-hash hit.
  parallel_each(files.size(), options.jobs, [&files, &cache](std::size_t i) {
    SourceFile& f = files[i];
    ensure_lexed(f);
    const auto it = cache.find(f.path);
    if (it != cache.end() && it->second.content_hash == f.content_hash) {
      f.summary = it->second.summary;
      f.summary_from_cache = true;
    } else {
      build_summary(f);
    }
  });

  // The global container-name pool (members are declared in headers and
  // iterated in .cpp files) doubles as the rules' context hash: when any
  // file adds or removes a name, every cached result is invalidated.
  std::set<std::string> unordered_names;
  for (const SourceFile& f : files) {
    unordered_names.insert(f.summary.unordered_names.begin(),
                           f.summary.unordered_names.end());
  }
  std::string context_blob = std::string(kToolVersion) + "\n";
  for (const std::string& n : unordered_names) context_blob += n + "\n";
  const std::uint64_t context_hash = fnv1a(context_blob);

  // Phase 2 (parallel): every single-file rule, cacheable on
  // (content, context).
  parallel_each(files.size(), options.jobs,
                [&files, &cache, &unordered_names,
                 context_hash](std::size_t i) {
    SourceFile& f = files[i];
    const auto it = cache.find(f.path);
    if (it != cache.end() && it->second.content_hash == f.content_hash &&
        it->second.has_results && it->second.context_hash == context_hash) {
      f.results = it->second.results;
      f.results_from_cache = true;
    } else {
      run_file_rules(f, unordered_names);
    }
  });
  for (const SourceFile& f : files) {
    result.cache_hits += f.results_from_cache ? 1 : 0;
  }

  // Serial passes, then a canonical ordering regardless of jobs.
  std::vector<Finding> findings;
  for (const SourceFile& f : files) {
    findings.insert(findings.end(), f.results.findings.begin(),
                    f.results.findings.end());
  }
  result.dot = run_graph_pass(files, findings);
  run_stale_waiver_pass(files, findings);
  std::sort(findings.begin(), findings.end(),
            [](const Finding& a, const Finding& b) {
              return std::tie(a.path, a.line, a.rule, a.message) <
                     std::tie(b.path, b.line, b.rule, b.message);
            });

  if (!options.cache_path.empty()) {
    save_cache(options.cache_path, files, context_hash);
  }
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
      options.jobs = std::max(1, std::atoi(v->c_str()));
    } else if (a == "--format") {
      const std::string* v = need_value();
      if (v == nullptr || (*v != "text" && *v != "json")) return usage();
      options.json = *v == "json";
    } else if (a == "--dot") {
      const std::string* v = need_value();
      if (v == nullptr) return usage();
      options.dot_path = *v;
    } else if (a == "--cache") {
      const std::string* v = need_value();
      if (v == nullptr) return usage();
      options.cache_path = *v;
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

  if (!options.dot_path.empty()) {
    // Regenerable artifact; see the cache writer note.
    std::ofstream out(options.dot_path,  // NOLINT(raw-ofstream)
                      std::ios::trunc);
    out << result.dot;
  }

  print_findings(result, options.json);
  std::fprintf(stderr,
               "gorilla-lint: %zu finding%s in %zu files, %.1f ms "
               "(jobs=%d, cache hits %zu)\n",
               result.findings.size(),
               result.findings.size() == 1 ? "" : "s", result.file_count, ms,
               options.jobs, result.cache_hits);
  return result.findings.empty() ? 0 : 1;
}

}  // namespace gorilla::lint
