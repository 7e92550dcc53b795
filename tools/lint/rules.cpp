// gorilla-lint v2 — single-file rules.
//
// Every rule here sees one file at a time: the lexer-accurate scrubbed
// text (comments and literals blanked, numbers and code intact) for the
// pattern rules, and the token stream where token identity matters
// (float-eq). Cross-file passes (layer graph, stale-waiver) live in
// graph.cpp; unordered-iter is per-file but consumes the global
// container-name set the driver collects.
#include <algorithm>
#include <cctype>
#include <regex>
#include <set>
#include <string>
#include <string_view>
#include <vector>

#include "tools/lint/internal.h"

namespace gorilla::lint {

namespace {

bool path_contains(const std::string& path, const std::string& needle) {
  return path.find(needle) != std::string::npos;
}

std::string trimmed(std::string_view s) {
  std::size_t b = 0;
  std::size_t e = s.size();
  while (b < e && std::isspace(static_cast<unsigned char>(s[b]))) ++b;
  while (e > b && std::isspace(static_cast<unsigned char>(s[e - 1]))) --e;
  return std::string(s.substr(b, e - b));
}

/// Waiver-aware finding collector for one file.
class Sink {
 public:
  explicit Sink(SourceFile& f) : f_(f) {}

  /// Records a finding at `line` unless a `NOLINT(<rule>)` waiver covers
  /// it (in which case the waiver is marked used).
  void add(std::size_t line, const std::string& rule,
           const std::string& message) {
    if (consume_waiver(line, rule)) return;
    f_.results.findings.push_back(Finding{
        f_.path, line, rule, message, trimmed(f_.lex.line_text(line))});
  }

  /// True (and marks usage) when a waiver for `rule` sits on `line`.
  bool consume_waiver(std::size_t line, const std::string& rule) {
    const auto it = f_.summary.waivers.find(line);
    if (it == f_.summary.waivers.end() || it->second.count(rule) == 0) {
      return false;
    }
    f_.results.used_waivers.insert({line, rule});
    return true;
  }

 private:
  SourceFile& f_;
};

void add_regex_findings(SourceFile& f, Sink& sink, const std::regex& re,
                        const std::string& rule, const std::string& message) {
  const std::string& s = f.scrubbed;
  for (auto it = std::sregex_iterator(s.begin(), s.end(), re);
       it != std::sregex_iterator(); ++it) {
    sink.add(f.lex.line_of(static_cast<std::size_t>(it->position())), rule,
             message + ": '" + it->str() + "'");
  }
}

// --- rule: raw-decode ------------------------------------------------------

void rule_raw_decode(SourceFile& f, Sink& sink) {
  if (path_contains(f.path, "util/bytes.h") ||
      path_contains(f.path, "util/bytes.cpp")) {
    return;  // the one sanctioned home of byte<->integer conversion
  }
  static const std::regex memcpy_re(R"(\bmem(cpy|move)\s*\()");
  static const std::regex reinterpret_re(R"(\breinterpret_cast\b)");
  static const std::regex shift_re(R"(\]\s*(<<|>>)\s*[0-9])");
  add_regex_findings(f, sink, memcpy_re, "raw-decode",
                     "raw byte copy; use util::ByteReader/ByteWriter");
  add_regex_findings(f, sink, reinterpret_re, "raw-decode",
                     "reinterpret_cast; byte<->char bridging lives in "
                     "util/bytes.cpp (read_exact/write_all)");
  add_regex_findings(f, sink, shift_re, "raw-decode",
                     "shift-combine on a subscript; use util::load_* or "
                     "util::ByteReader");
}

// --- rule: codec-escape ----------------------------------------------------

/// Raw pointer-walk decode loops — a byte-pointer cursor plus `*p++`
/// dereference-advance — reimplement what the sanctioned codec layer
/// (util/bytes, util/columnar, util/block_codec) already does with bounds
/// checks, sticky failure, and CRC framing. Everyone else goes through
/// ColumnReader / ByteReader / the block codec.
void rule_codec_escape(SourceFile& f, Sink& sink) {
  if (path_contains(f.path, "util/bytes.h") ||
      path_contains(f.path, "util/bytes.cpp") ||
      path_contains(f.path, "util/columnar.h") ||
      path_contains(f.path, "util/columnar.cpp") ||
      path_contains(f.path, "util/block_codec.h") ||
      path_contains(f.path, "util/block_codec.cpp")) {
    return;  // the codec layer itself
  }
  static const std::regex walk_re(R"(\*\s*[A-Za-z_][A-Za-z0-9_]*\s*\+\+)");
  static const std::regex cursor_re(
      R"(\b(?:std::)?uint8_t\s*(?:const\s*)?\*\s*(?:const\s*)?[A-Za-z_][A-Za-z0-9_]*\s*=)");
  add_regex_findings(f, sink, walk_re, "codec-escape",
                     "dereference-advance pointer walk; decode through "
                     "util::ColumnReader/ByteReader or util/block_codec");
  add_regex_findings(f, sink, cursor_re, "codec-escape",
                     "byte-pointer decode cursor; spans + util::ByteReader "
                     "replace raw cursor arithmetic");
}

// --- rule: wall-clock ------------------------------------------------------

void rule_wall_clock(SourceFile& f, Sink& sink) {
  static const std::regex clock_re(
      R"(\b(system_clock|steady_clock|high_resolution_clock|random_device|gettimeofday|localtime|gmtime)\b)");
  static const std::regex rand_re(R"(\b(std::)?s?rand\s*\()");
  static const std::regex time_re(R"(\btime\s*\(\s*(NULL|nullptr|0)\s*\))");
  add_regex_findings(f, sink, clock_re, "wall-clock",
                     "wall-clock / ambient randomness; simulations take "
                     "SimTime and seeded Rng");
  add_regex_findings(f, sink, rand_re, "wall-clock",
                     "C PRNG; use the seeded util Rng");
  add_regex_findings(f, sink, time_re, "wall-clock",
                     "wall-clock read; simulations take SimTime");
}

// --- rule: float-eq (token-accurate) ---------------------------------------

/// ==/!= against a floating-point literal. Runs on the token stream, so
/// suffixed (1.0F), exponent-only (1e9), negated (-0.5), and
/// digit-separated (2'000.5) literals are all caught, while hex integers
/// like 0x1e stay integers.
void rule_float_eq(SourceFile& f, Sink& sink) {
  const auto& toks = f.lex.tokens;
  std::vector<std::size_t> code;  // indices of non-comment tokens
  code.reserve(toks.size());
  for (std::size_t i = 0; i < toks.size(); ++i) {
    if (toks[i].kind != TokenKind::kComment) code.push_back(i);
  }
  const auto is_punct = [&](std::size_t ci, char c) {
    const Token& t = toks[code[ci]];
    return t.kind == TokenKind::kPunct && f.lex.text[t.offset] == c;
  };
  // ==/!= arrive as two adjacent single-char punct tokens.
  const auto is_eq_op = [&](std::size_t ci) {
    if (ci + 1 >= code.size()) return false;
    if (!(is_punct(ci, '=') || is_punct(ci, '!')) || !is_punct(ci + 1, '='))
      return false;
    return toks[code[ci + 1]].offset == toks[code[ci]].offset + 1;
  };
  const auto is_float = [&](std::size_t ci) {
    const Token& t = toks[code[ci]];
    return t.kind == TokenKind::kNumber && is_float_literal(f.lex.view(t));
  };
  const char* const msg =
      "exact floating-point equality; compare against an epsilon or "
      "restructure";
  for (std::size_t ci = 0; ci + 1 < code.size(); ++ci) {
    if (!is_eq_op(ci)) continue;
    const std::size_t op_line = f.lex.line_of(toks[code[ci]].offset);
    // literal == / literal !=  (left side)
    if (ci > 0 && is_float(ci - 1)) {
      sink.add(op_line, "float-eq",
               std::string(msg) + ": '" +
                   std::string(f.lex.view(toks[code[ci - 1]])) + " =='");
      continue;
    }
    // == literal, == -literal, != +literal  (right side)
    std::size_t rhs = ci + 2;
    if (rhs < code.size() && (is_punct(rhs, '-') || is_punct(rhs, '+'))) ++rhs;
    if (rhs < code.size() && is_float(rhs)) {
      sink.add(op_line, "float-eq",
               std::string(msg) + ": '== " +
                   std::string(f.lex.view(toks[code[rhs]])) + "'");
    }
  }
}

// --- rule: parse-optional --------------------------------------------------

void rule_parse_optional(SourceFile& f, Sink& sink) {
  const std::string& s = f.scrubbed;
  static const std::regex name_re(R"(\bparse_[A-Za-z0-9_]+\s*\()");
  for (auto it = std::sregex_iterator(s.begin(), s.end(), name_re);
       it != std::sregex_iterator(); ++it) {
    const std::size_t at = static_cast<std::size_t>(it->position());
    // Statement prefix: everything back to the previous ; { } or #.
    std::size_t start = at;
    while (start > 0 && s[start - 1] != ';' && s[start - 1] != '{' &&
           s[start - 1] != '}' && s[start - 1] != '#') {
      --start;
    }
    std::string prefix = s.substr(start, at - start);
    while (!prefix.empty() &&
           std::isspace(static_cast<unsigned char>(prefix.back()))) {
      prefix.pop_back();
    }
    if (prefix.find("optional") != std::string::npos) continue;  // compliant
    // A call site, not a declaration: operator or keyword before the name.
    if (prefix.empty()) continue;
    const char last = prefix.back();
    if (std::string("=(,!<>|&+-*/?:").find(last) != std::string::npos) continue;
    if (prefix.find("return") != std::string::npos ||
        prefix.find("throw") != std::string::npos ||
        prefix.find("co_return") != std::string::npos) {
      continue;
    }
    sink.add(f.lex.line_of(at), "parse-optional",
             "parse_* must signal failure via std::optional (truncated or "
             "malformed input is not a value)");
  }
}

// --- rule: unordered-iter --------------------------------------------------

void rule_unordered_iter(SourceFile& f, Sink& sink,
                         const std::set<std::string>& names) {
  if (path_contains(f.path, "util/")) return;  // util::sorted_* lives here
  const std::string& s = f.scrubbed;
  static const std::regex for_re(R"(\bfor\s*\()");
  for (auto it = std::sregex_iterator(s.begin(), s.end(), for_re);
       it != std::sregex_iterator(); ++it) {
    // Find the ':' of a range-for at parenthesis depth 1 (ignoring '::').
    std::size_t i = static_cast<std::size_t>(it->position() + it->length());
    int depth = 1;
    std::size_t colon = std::string::npos;
    std::size_t close = std::string::npos;
    for (; i < s.size() && depth > 0; ++i) {
      const char c = s[i];
      if (c == '(') ++depth;
      if (c == ')' && --depth == 0) close = i;
      if (c == ';') break;  // classic for loop, not a range-for
      if (c == ':' && depth == 1) {
        if ((i > 0 && s[i - 1] == ':') ||
            (i + 1 < s.size() && s[i + 1] == ':')) {
          continue;  // '::' qualifier
        }
        if (colon == std::string::npos) colon = i;
      }
    }
    if (colon == std::string::npos || close == std::string::npos) continue;
    const std::string range = s.substr(colon + 1, close - colon - 1);
    if (range.find("sorted_keys") != std::string::npos ||
        range.find("sorted_items") != std::string::npos ||
        range.find("sorted_values") != std::string::npos) {
      continue;  // sanctioned deterministic wrappers (util/det.h)
    }
    for (const auto& name : names) {
      static const std::string word_chars =
          "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789_";
      std::size_t at = range.find(name);
      bool whole_word = false;
      while (at != std::string::npos && !whole_word) {
        const bool left_ok =
            at == 0 || word_chars.find(range[at - 1]) == std::string::npos;
        const std::size_t end = at + name.size();
        const bool right_ok = end >= range.size() ||
                              word_chars.find(range[end]) == std::string::npos;
        whole_word = left_ok && right_ok;
        at = range.find(name, at + 1);
      }
      if (!whole_word) continue;
      const std::size_t for_line =
          f.lex.line_of(static_cast<std::size_t>(it->position()));
      const std::size_t range_line = f.lex.line_of(colon + 1);
      if (sink.consume_waiver(for_line, "unordered-iter") ||
          sink.consume_waiver(range_line, "unordered-iter")) {
        break;
      }
      sink.add(for_line, "unordered-iter",
               "range-for over unordered container '" + name +
                   "'; iterate util::sorted_keys/sorted_items or prove the "
                   "fold order-independent and carry an unordered-iter "
                   "waiver");
      break;  // one finding per loop
    }
  }
}

// --- rule: raw-ofstream ----------------------------------------------------

void rule_raw_ofstream(SourceFile& f, Sink& sink) {
  if (path_contains(f.path, "util/columnar.cpp") ||
      path_contains(f.path, "util/bytes.cpp")) {
    return;  // the sanctioned artifact-write path
  }
  static const std::regex ofstream_re(R"(\b(basic_)?ofstream\b)");
  add_regex_findings(f, sink, ofstream_re, "raw-ofstream",
                     "raw std::ofstream; durable writes go through "
                     "util::ColumnArchive::save_file / util::write_all "
                     "(atomic rename + fsync + fault-injection seam), or "
                     "carry a justified raw-ofstream waiver");
}

// --- worker-lambda rules ---------------------------------------------------
//
// worker-capture, shard-mutation, and shared-rng all inspect the first
// lambda handed to ShardedExecutor::run_ordered, ShardedExecutor::Lanes::post
// or ThreadPool::submit/parallel_for — the one that runs on pool threads.
// The sanctioned merge path is run_ordered's consume callback, which runs
// on the calling thread and is not inspected.

struct WorkerLambda {
  std::size_t intro = 0;        ///< offset of '['
  std::vector<std::string> ref_captures;  ///< names captured by reference
  bool blanket_ref = false;     ///< [&] or [&, ...]
  std::size_t body_begin = 0;   ///< offset just past '{' (0 = none found)
  std::size_t body_end = 0;     ///< offset of matching '}'
};

/// Finds the worker lambda of the call whose name ends at `after_name`.
/// Walks to the first lambda-introducer '[' (one preceded, spaces aside,
/// by '(' ',' '{' or '='; a subscript follows an identifier or a closing
/// bracket instead, and is skipped, as in a lane key `keys[i]`). Stops at
/// the first ';' — past the end of the statement, and before any body
/// lambda in a declaration of run_ordered/parallel_for themselves.
bool find_worker_lambda(const std::string& s, std::size_t after_name,
                        WorkerLambda& out) {
  for (std::size_t i = after_name; i < s.size() && s[i] != ';'; ++i) {
    if (s[i] != '[') continue;
    std::size_t j = i;
    while (j > 0 && std::isspace(static_cast<unsigned char>(s[j - 1]))) --j;
    const char prev = j > 0 ? s[j - 1] : '\0';
    if (prev != '(' && prev != ',' && prev != '{' && prev != '=') continue;
    const std::size_t close = s.find(']', i);
    if (close == std::string::npos) return false;
    out.intro = i;
    // Split the capture list on top-level commas.
    std::string item;
    int depth = 0;
    const auto flush = [&out, &item] {
      std::string t;
      for (const char c : item) {
        if (!std::isspace(static_cast<unsigned char>(c))) t.push_back(c);
      }
      item.clear();
      if (t.empty()) return;
      if (t == "&") {
        out.blanket_ref = true;
        return;
      }
      if (t[0] != '&') return;  // by value, this, =, *this
      std::string name;
      for (std::size_t k = 1; k < t.size(); ++k) {
        if (std::isalnum(static_cast<unsigned char>(t[k])) || t[k] == '_') {
          name.push_back(t[k]);
        } else {
          break;  // init-capture `&x = expr`: the new name is x
        }
      }
      if (!name.empty()) out.ref_captures.push_back(name);
    };
    for (std::size_t k = i + 1; k < close; ++k) {
      const char c = s[k];
      if (c == '(' || c == '{' || c == '<') ++depth;
      if (c == ')' || c == '}' || c == '>') --depth;
      if (c == ',' && depth == 0) {
        flush();
      } else {
        item.push_back(c);
      }
    }
    flush();
    // Locate the body: first '{' after ']' before a ';' (skips the
    // parameter list and specifiers), then its matching '}'.
    std::size_t b = close + 1;
    int pdepth = 0;
    for (; b < s.size(); ++b) {
      if (s[b] == '(') ++pdepth;
      if (s[b] == ')') --pdepth;
      if (s[b] == ';' && pdepth == 0) return true;  // no body (declaration?)
      if (s[b] == '{' && pdepth == 0) break;
    }
    if (b >= s.size()) return true;
    int bdepth = 1;
    std::size_t e = b + 1;
    for (; e < s.size() && bdepth > 0; ++e) {
      if (s[e] == '{') ++bdepth;
      if (s[e] == '}') --bdepth;
    }
    out.body_begin = b + 1;
    out.body_end = e > b ? e - 1 : b + 1;
    return true;
  }
  return false;
}

/// Names declared in this file with one of the given (unqualified) type
/// names — token scan for `Type [&] name`, which covers `study::EventBuffer
/// buf;`, `util::Rng& rng`, and parameter lists.
std::set<std::string> names_with_declared_type(
    const SourceFile& f, const std::set<std::string>& type_names) {
  std::set<std::string> out;
  const auto& toks = f.lex.tokens;
  std::vector<std::size_t> code;
  for (std::size_t i = 0; i < toks.size(); ++i) {
    if (toks[i].kind != TokenKind::kComment) code.push_back(i);
  }
  for (std::size_t ci = 0; ci + 1 < code.size(); ++ci) {
    const Token& t = toks[code[ci]];
    if (t.kind != TokenKind::kIdentifier) continue;
    if (type_names.count(std::string(f.lex.view(t))) == 0) continue;
    std::size_t nj = ci + 1;
    const Token* amp = &toks[code[nj]];
    if (amp->kind == TokenKind::kPunct &&
        (f.lex.text[amp->offset] == '&' || f.lex.text[amp->offset] == '*')) {
      ++nj;
    }
    if (nj >= code.size()) continue;
    const Token& name = toks[code[nj]];
    if (name.kind == TokenKind::kIdentifier) {
      out.insert(std::string(f.lex.view(name)));
    }
  }
  return out;
}

const std::regex& worker_call_re() {
  static const std::regex re(
      R"(\b(run_ordered|parallel_for|post|submit)\b)");
  return re;
}

void rule_worker_capture(SourceFile& f, Sink& sink) {
  const std::string& s = f.scrubbed;
  for (auto it = std::sregex_iterator(s.begin(), s.end(), worker_call_re());
       it != std::sregex_iterator(); ++it) {
    WorkerLambda wl;
    if (!find_worker_lambda(
            s, static_cast<std::size_t>(it->position() + it->length()), wl)) {
      continue;
    }
    if (!wl.blanket_ref) continue;
    sink.add(f.lex.line_of(wl.intro), "worker-capture",
             "blanket [&] capture on a worker lambda; spell out every "
             "capture so shard-disjoint mutation (DESIGN.md §3d rule 2) is "
             "checkable at the call site");
  }
}

/// shard-mutation: a write through a by-reference capture inside a worker
/// lambda, where the captured variable is not one of the sanctioned
/// shard-result types. Workers must buffer their output (EventBuffer,
/// DayShardResult) and hand it to the calling thread; any other shared
/// write is a determinism race waiting for a second job.
void rule_shard_mutation(SourceFile& f, Sink& sink) {
  static const std::set<std::string> kSanctioned = {"EventBuffer",
                                                    "DayShardResult"};
  const std::set<std::string> sanctioned_names =
      names_with_declared_type(f, kSanctioned);
  static const char* const kMutators =
      "push_back|pop_back|emplace_back|emplace|insert|erase|clear|resize|"
      "reserve|assign|append|merge|swap|observe|store|reset";
  const std::string& s = f.scrubbed;
  for (auto it = std::sregex_iterator(s.begin(), s.end(), worker_call_re());
       it != std::sregex_iterator(); ++it) {
    WorkerLambda wl;
    if (!find_worker_lambda(
            s, static_cast<std::size_t>(it->position() + it->length()), wl) ||
        wl.body_begin == 0) {
      continue;
    }
    const std::string body =
        s.substr(wl.body_begin, wl.body_end - wl.body_begin);
    for (const auto& name : wl.ref_captures) {
      if (sanctioned_names.count(name) != 0) continue;
      // Writes through the captured name: assignment (plain or compound),
      // mutating member calls, subscript assignment, increment/decrement.
      const std::regex write_re(
          "(\\b" + name +
          R"(\s*(\[[^\]]*\]\s*)?([+\-*/%|&^]?=[^=]|<<=|>>=))" + "|\\b" + name +
          R"(\s*\.\s*()" + kMutators + R"()\s*\()" + "|(\\+\\+|--)\\s*\\b" +
          name + "\\b|\\b" + name + R"(\s*(\+\+|--)))");
      for (auto wit = std::sregex_iterator(body.begin(), body.end(), write_re);
           wit != std::sregex_iterator(); ++wit) {
        sink.add(
            f.lex.line_of(wl.body_begin +
                          static_cast<std::size_t>(wit->position())),
            "shard-mutation",
            "worker lambda writes through by-reference capture '" + name +
                "'; shard output must be buffered in EventBuffer/"
                "DayShardResult and merged on the calling thread "
                "(DESIGN.md §3d rule 2)");
      }
    }
  }
}

/// shared-rng: a worker lambda calling anything but substream() on a
/// by-reference-captured util::Rng. A shared stream drawn from worker
/// threads makes the draw order depend on scheduling; per-shard substreams
/// (Rng::substream(seed, tag)) are the sanctioned derivation.
void rule_shared_rng(SourceFile& f, Sink& sink) {
  static const std::set<std::string> kRngTypes = {"Rng"};
  const std::set<std::string> rng_names =
      names_with_declared_type(f, kRngTypes);
  if (rng_names.empty()) return;
  const std::string& s = f.scrubbed;
  for (auto it = std::sregex_iterator(s.begin(), s.end(), worker_call_re());
       it != std::sregex_iterator(); ++it) {
    WorkerLambda wl;
    if (!find_worker_lambda(
            s, static_cast<std::size_t>(it->position() + it->length()), wl) ||
        wl.body_begin == 0) {
      continue;
    }
    const std::string body =
        s.substr(wl.body_begin, wl.body_end - wl.body_begin);
    for (const auto& name : wl.ref_captures) {
      if (rng_names.count(name) == 0) continue;
      const std::regex call_re("\\b" + name +
                               R"(\s*\.\s*([A-Za-z_][A-Za-z0-9_]*)\s*\()");
      for (auto cit = std::sregex_iterator(body.begin(), body.end(), call_re);
           cit != std::sregex_iterator(); ++cit) {
        if ((*cit)[1].str() == "substream") continue;
        sink.add(
            f.lex.line_of(wl.body_begin +
                          static_cast<std::size_t>(cit->position())),
            "shared-rng",
            "worker lambda draws from shared Rng '" + name + "' (." +
                (*cit)[1].str() +
                "); derive a per-shard stream with Rng::substream(seed, tag) "
                "instead (DESIGN.md §3d rule 1)");
      }
    }
  }
}

// --- rule: rng-arg-order --------------------------------------------------

/// A call with two or more arguments that draw from an RNG. C++ leaves the
/// order in which a call's arguments are evaluated unspecified, so the
/// order of such draws — and every seeded byte after them — rests on the
/// compiler. Draw into named locals, one statement each, then call.
///
/// An argument draws when it makes a member call on an identifier spelling
/// `rng` (rng, detail_rng, rng_) or passes one, as a whole argument, into a
/// nested call (sample_stratum(rng)). A lambda argument runs later, not at
/// the call, and never counts.
void rule_rng_arg_order(SourceFile& f, Sink& sink) {
  const auto& toks = f.lex.tokens;
  std::vector<std::size_t> code;  // indices of non-comment tokens
  code.reserve(toks.size());
  for (std::size_t i = 0; i < toks.size(); ++i) {
    if (toks[i].kind != TokenKind::kComment) code.push_back(i);
  }
  const auto punct = [&](std::size_t ci) {
    const Token& t = toks[code[ci]];
    return t.kind == TokenKind::kPunct ? f.lex.text[t.offset] : '\0';
  };
  const auto ident = [&](std::size_t ci) {
    const Token& t = toks[code[ci]];
    return t.kind == TokenKind::kIdentifier ? f.lex.view(t)
                                            : std::string_view{};
  };
  const auto is_rng = [&](std::size_t ci) {
    return ident(ci).find("rng") != std::string_view::npos;
  };
  // Matching closer of every (, [ and {.
  constexpr std::size_t kNone = static_cast<std::size_t>(-1);
  std::vector<std::size_t> closer(code.size(), kNone);
  std::vector<std::size_t> open;
  for (std::size_t ci = 0; ci < code.size(); ++ci) {
    const char c = punct(ci);
    if (c == '(' || c == '[' || c == '{') {
      open.push_back(ci);
    } else if ((c == ')' || c == ']' || c == '}') && !open.empty()) {
      const char o = punct(open.back());
      if ((o == '(' && c == ')') || (o == '[' && c == ']') ||
          (o == '{' && c == '}')) {
        closer[open.back()] = ci;
        open.pop_back();
      }
    }
  }
  static const std::set<std::string_view> kNotCalls = {
      "if",       "while",    "for",       "switch",        "return",
      "sizeof",   "alignof",  "alignas",   "decltype",      "catch",
      "noexcept", "requires", "constexpr", "static_assert",
  };
  // Tokens [b, e) of one argument: does evaluating it draw?
  const auto draws = [&](std::size_t b, std::size_t e) {
    if (b >= e || punct(b) == '[') return false;  // empty, or a lambda
    for (std::size_t j = b; j < e; ++j) {
      if (!is_rng(j)) continue;
      const bool member_call =
          (j + 3 < e && punct(j + 1) == '.' && !ident(j + 2).empty() &&
           punct(j + 3) == '(') ||
          (j + 4 < e && punct(j + 1) == '-' && punct(j + 2) == '>' &&
           !ident(j + 3).empty() && punct(j + 4) == '(');
      const bool passed = j > b && j + 1 < e &&
                          (punct(j - 1) == '(' || punct(j - 1) == ',') &&
                          (punct(j + 1) == ',' || punct(j + 1) == ')');
      if (member_call || passed) return true;
    }
    return false;
  };
  for (std::size_t ci = 1; ci < code.size(); ++ci) {
    if (punct(ci) != '(' || closer[ci] == kNone) continue;
    const std::string_view callee = ident(ci - 1);
    const bool call = callee.empty() ? punct(ci - 1) == '>'
                                     : kNotCalls.count(callee) == 0;
    if (!call) continue;
    const std::size_t end = closer[ci];
    int drawing = 0;
    std::size_t arg = ci + 1;
    for (std::size_t k = ci + 1; k <= end; ++k) {
      if (k < end && closer[k] != kNone) {
        k = closer[k];  // skip a nested group whole
        continue;
      }
      if (k == end || punct(k) == ',') {
        if (draws(arg, k)) ++drawing;
        arg = k + 1;
      }
    }
    if (drawing < 2) continue;
    sink.add(f.lex.line_of(toks[code[ci - 1]].offset), "rng-arg-order",
             std::to_string(drawing) +
                 " arguments draw from an Rng in one call; their order is "
                 "unspecified, so draw each into a local first (DESIGN.md "
                 "§3c)");
  }
}

// --- rule: heavy-node-container --------------------------------------------

/// Node-based std containers inside a struct/class marked `// LINT-COMPACT`.
/// The mark documents a flat-storage contract (DESIGN.md §3g): the type is
/// instantiated at population scale, so per-element heap nodes — maps,
/// sets, lists — would silently undo the memory spine. Members must be
/// flat (arrays, vectors, open-addressing indices, intrusive links).
void rule_heavy_node_container(SourceFile& f, Sink& sink) {
  if (f.summary.directives.compact_marks.empty()) return;
  static const std::regex node_container_re(
      R"(\b(multimap|multiset|unordered_map|unordered_set|unordered_multimap|unordered_multiset|forward_list|map|set|list)\s*<)");
  const std::string& s = f.scrubbed;
  for (const std::size_t mark_line : f.summary.directives.compact_marks) {
    if (mark_line == 0 || mark_line > f.lex.line_starts.size()) continue;
    // The mark sits on (or just above) the `struct X {` line: take the
    // first '{' at or after the marked line and lint its balanced body.
    const std::size_t from = f.lex.line_starts[mark_line - 1];
    const std::size_t open = s.find('{', from);
    if (open == std::string::npos) continue;
    int depth = 1;
    std::size_t close = open + 1;
    for (; close < s.size() && depth > 0; ++close) {
      if (s[close] == '{') ++depth;
      if (s[close] == '}') --depth;
    }
    const std::string body = s.substr(open + 1, close - open - 1);
    for (auto it =
             std::sregex_iterator(body.begin(), body.end(), node_container_re);
         it != std::sregex_iterator(); ++it) {
      sink.add(f.lex.line_of(open + 1 + static_cast<std::size_t>(
                                            it->position())),
               "heavy-node-container",
               "node-based std::" + (*it)[1].str() +
                   " inside a LINT-COMPACT type; compact types hold flat "
                   "storage (slabs, vectors, open addressing, intrusive "
                   "links — DESIGN.md §3g)");
    }
  }
}

// --- summary collection ----------------------------------------------------

/// Names of variables declared with an unordered container type; members
/// are declared in headers and iterated in .cpp files, so the driver pools
/// these across every scanned file.
std::vector<std::string> collect_unordered_names(const SourceFile& f) {
  std::set<std::string> names;
  const std::string& s = f.scrubbed;
  for (std::size_t pos = 0;;) {
    const std::size_t hit =
        std::min(s.find("unordered_map", pos), s.find("unordered_set", pos));
    if (hit == std::string::npos) break;
    std::size_t i = hit + std::string("unordered_map").size();
    pos = i;
    while (i < s.size() && std::isspace(static_cast<unsigned char>(s[i]))) ++i;
    if (i >= s.size() || s[i] != '<') continue;
    int depth = 0;
    for (; i < s.size(); ++i) {  // walk the balanced template argument list
      if (s[i] == '<') ++depth;
      if (s[i] == '>' && --depth == 0) {
        ++i;
        break;
      }
    }
    while (i < s.size() &&
           (std::isspace(static_cast<unsigned char>(s[i])) || s[i] == '&')) {
      ++i;
    }
    std::string name;
    while (i < s.size() &&
           (std::isalnum(static_cast<unsigned char>(s[i])) || s[i] == '_')) {
      name.push_back(s[i++]);
    }
    while (i < s.size() && std::isspace(static_cast<unsigned char>(s[i]))) ++i;
    // A declaration introduces the name and then initializes, terminates,
    // or (for a parameter) closes the list.
    if (!name.empty() && i < s.size() &&
        (s[i] == ';' || s[i] == '=' || s[i] == '{' || s[i] == '(' ||
         s[i] == ',' || s[i] == ')')) {
      names.insert(name);
    }
  }
  return {names.begin(), names.end()};
}

/// Populates `f.lex`/`f.scrubbed` once; the summary and the rules share it.
void ensure_lexed(SourceFile& f) {
  if (f.lexed) return;
  f.lex = lex(f.raw);
  f.scrubbed = scrub(f.lex);
  f.lexed = true;
}

}  // namespace

void build_summary(SourceFile& f) {
  ensure_lexed(f);
  f.summary = FileSummary{};
  // Waivers and directives live in comments only — a NOLINT inside a
  // string literal is data, not a waiver (v1 collected those too).
  static const std::regex nolint_re(R"(NOLINT\(([a-z][a-z0-9-]*)\))");
  static const std::regex layer_re(R"(LINT-LAYER:\s*([a-z][a-z0-9_]*))");
  static const std::regex expect_re(R"(LINT-EXPECT\[([a-z][a-z0-9-]*)\])");
  // End-anchored: the mark is a trailing `// LINT-COMPACT` comment, so a
  // prose mention mid-sentence (e.g. in this tool's own docs) is not a mark.
  static const std::regex compact_re(R"(LINT-COMPACT\s*(\*/)?\s*$)");
  for (const Token& t : f.lex.tokens) {
    if (t.kind != TokenKind::kComment) continue;
    const std::string text(f.lex.view(t));
    const auto line_at = [&](std::size_t pos) {
      return f.lex.line_of(t.offset + pos);
    };
    for (auto it = std::sregex_iterator(text.begin(), text.end(), nolint_re);
         it != std::sregex_iterator(); ++it) {
      f.summary.waivers[line_at(static_cast<std::size_t>(it->position()))]
          .insert((*it)[1].str());
    }
    std::smatch m;
    if (std::regex_search(text, m, layer_re)) {
      f.summary.directives.layer = m[1].str();
    }
    for (auto it = std::sregex_iterator(text.begin(), text.end(), expect_re);
         it != std::sregex_iterator(); ++it) {
      f.summary.directives.expects.push_back(
          {line_at(static_cast<std::size_t>(it->position())),
           (*it)[1].str()});
    }
    for (auto it = std::sregex_iterator(text.begin(), text.end(), compact_re);
         it != std::sregex_iterator(); ++it) {
      f.summary.directives.compact_marks.push_back(
          line_at(static_cast<std::size_t>(it->position())));
    }
  }
  f.summary.includes = find_includes(f.lex, f.scrubbed);
  f.summary.unordered_names = collect_unordered_names(f);
}

void run_file_rules(SourceFile& f,
                    const std::set<std::string>& unordered_names) {
  ensure_lexed(f);
  f.results = FileResults{};
  Sink sink(f);
  rule_raw_decode(f, sink);
  rule_codec_escape(f, sink);
  rule_wall_clock(f, sink);
  rule_unordered_iter(f, sink, unordered_names);
  rule_float_eq(f, sink);
  rule_parse_optional(f, sink);
  rule_worker_capture(f, sink);
  rule_raw_ofstream(f, sink);
  rule_shard_mutation(f, sink);
  rule_shared_rng(f, sink);
  rule_rng_arg_order(f, sink);
  rule_heavy_node_container(f, sink);
}

}  // namespace gorilla::lint
