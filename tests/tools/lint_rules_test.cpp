// Unit tests for the gorilla-lint v2 rule passes, driven through the
// filesystem-free analyze() entry point on in-memory documents.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "tools/lint/lint.h"

namespace gorilla::lint {
namespace {

std::vector<Finding> run(const std::string& path, const std::string& code) {
  return analyze({SourceDoc{path, code}}, Options{}).findings;
}

std::size_t count_rule(const std::vector<Finding>& findings,
                       const std::string& rule) {
  return static_cast<std::size_t>(
      std::count_if(findings.begin(), findings.end(),
                    [&rule](const Finding& f) { return f.rule == rule; }));
}

TEST(FloatEq, CatchesSuffixedNegatedAndSeparatedLiterals) {
  const std::vector<Finding> fs = run("src/sim/x.cpp",
                                      "bool a(double v) { return v != 1.0f; }\n"
                                      "bool b(double v) { return v == -0.5; }\n"
                                      "bool c(double v) { return v == 1e9; }\n"
                                      "bool d(double v) { return 2'000.5 == v; }\n"
                                      "bool e(float v) { return 1.0F == v; }\n");
  EXPECT_EQ(count_rule(fs, "float-eq"), 5u);
}

TEST(FloatEq, IntegerAndHexComparisonsAreClean) {
  const std::vector<Finding> fs = run("src/sim/x.cpp",
                                      "bool a(int v) { return v == 42; }\n"
                                      "bool b(int v) { return v == 0x1e; }\n"
                                      "bool c(long v) { return v == 1'000'000; }\n");
  EXPECT_EQ(count_rule(fs, "float-eq"), 0u);
}

TEST(FloatEq, RawStringBodyDoesNotLeak) {
  const std::vector<Finding> fs = run(
      "src/sim/x.cpp",
      "const char* doc() { return R\"x(value == 1.0 and memcpy(a,b,n))x\"; }\n");
  EXPECT_TRUE(fs.empty());
}

TEST(Waivers, NolintSuppressesAndIsNotStale) {
  const std::vector<Finding> fs = run(
      "src/sim/x.cpp",
      "bool a(double v) { return v == 1.0; }  // NOLINT(float-eq): seed\n");
  EXPECT_TRUE(fs.empty());
}

TEST(Waivers, UnusedWaiverIsAStaleFinding) {
  const std::vector<Finding> fs =
      run("src/sim/x.cpp", "bool a(int v) { return v > 0; }  // NOLINT(float-eq)\n");
  ASSERT_EQ(fs.size(), 1u);
  EXPECT_EQ(fs[0].rule, "stale-waiver");
  EXPECT_EQ(fs[0].line, 1u);
}

TEST(Waivers, NolintInsideStringIsData) {
  // v1 read waivers off the raw line, so a string mentioning NOLINT could
  // suppress a real finding; v2 only honours comments.
  const std::vector<Finding> fs = run(
      "src/sim/x.cpp",
      "bool a(double v) { return v == 1.0 && msg(\"NOLINT(float-eq)\"); }\n");
  EXPECT_EQ(count_rule(fs, "float-eq"), 1u);
}

constexpr const char* kWorkerPrelude =
    "struct Executor {\n"
    "  template <typename Fn>\n"
    "  void parallel_for(unsigned long n, unsigned long chunk, Fn fn);\n"
    "};\n"
    "struct EventBuffer { void clear(); };\n";

TEST(ShardMutation, FlagsWriteThroughRefCapture) {
  const std::string code =
      std::string(kWorkerPrelude) +
      "void fold(Executor& e, long* out) {\n"
      "  long total = 0;\n"
      "  e.parallel_for(8, 2, [&total](unsigned long b, unsigned long n) {\n"
      "    total += (long)(b + n);\n"
      "  });\n"
      "  *out = total;\n"
      "}\n";
  const std::vector<Finding> fs = run("src/sim/x.cpp", code);
  EXPECT_EQ(count_rule(fs, "shard-mutation"), 1u);
}

TEST(ShardMutation, SanctionedBufferAndReadsAreClean) {
  const std::string code =
      std::string(kWorkerPrelude) +
      "void fold(Executor& e, const long* xs) {\n"
      "  EventBuffer events;\n"
      "  e.parallel_for(8, 2, [&events, &xs](unsigned long b, unsigned long n) {\n"
      "    if (xs[b] > (long)n) events.clear();\n"
      "  });\n"
      "}\n";
  const std::vector<Finding> fs = run("src/sim/x.cpp", code);
  EXPECT_EQ(count_rule(fs, "shard-mutation"), 0u);
}

TEST(SharedRng, FlagsDirectDrawAllowsSubstream) {
  const std::string code =
      "struct Rng {\n"
      "  Rng substream(unsigned long tag);\n"
      "  double uniform_double();\n"
      "};\n"
      "struct Executor {\n"
      "  template <typename Fn> void run_ordered(unsigned long n, Fn fn);\n"
      "};\n"
      "void spin(Executor& e, Rng& rng) {\n"
      "  e.run_ordered(4, [&rng](unsigned long day) {\n"
      "    Rng local = rng.substream(day);\n"
      "    (void)local.uniform_double();\n"
      "    (void)rng.uniform_double();\n"
      "  });\n"
      "}\n";
  const std::vector<Finding> fs = run("src/sim/x.cpp", code);
  ASSERT_EQ(count_rule(fs, "shared-rng"), 1u);
  for (const Finding& f : fs) {
    if (f.rule == "shared-rng") {
      EXPECT_EQ(f.line, 12u);
    }
  }
}

TEST(RngArgOrder, FlagsTwoDrawingArgumentsOnce) {
  const std::string code =
      "struct Rng { double u(); };\n"
      "double f(double, double);\n"
      "int g(Rng&);\n"
      "double a(Rng& rng) { return f(rng.u(), rng.u()); }\n"
      "double b(Rng* rng_) { return f(rng_->u(),\n"
      "                               g(*rng_) + g(rng_[0]) + rng_->u()); }\n"
      "double c(Rng& detail_rng) {\n"
      "  return f(g(detail_rng), f(detail_rng.u(), 1.0));\n"
      "}\n";
  const std::vector<Finding> fs = run("src/sim/x.cpp", code);
  ASSERT_EQ(count_rule(fs, "rng-arg-order"), 3u);
  std::vector<std::size_t> lines;
  for (const Finding& f : fs) {
    if (f.rule == "rng-arg-order") lines.push_back(f.line);
  }
  EXPECT_EQ(lines, (std::vector<std::size_t>{4, 5, 8}));
}

TEST(RngArgOrder, SequencedDrawsPassThroughAndLambdasAreClean) {
  const std::string code =
      "struct Rng { double u(); };\n"
      "double f(double, double);\n"
      "double h(double, Rng&);\n"
      "template <typename Fn> double later(double, Fn);\n"
      "double a(Rng& rng) {\n"
      "  const double x = rng.u();\n"
      "  const double y = rng.u();\n"
      "  if (rng.u() > 0.5 && f(x, y) > 0) return h(rng.u(), rng);\n"
      "  return later(rng.u(), [&rng] { return rng.u(); }) + f(x, rng.u());\n"
      "}\n"
      "double strings(double v) { return f(v, v); }\n";
  const std::vector<Finding> fs = run("src/sim/x.cpp", code);
  EXPECT_EQ(count_rule(fs, "rng-arg-order"), 0u);
}

TEST(WorkerCapture, BlanketCaptureFlagged) {
  const std::string code =
      std::string(kWorkerPrelude) +
      "void fold(Executor& e) {\n"
      "  e.parallel_for(8, 2, [&](unsigned long, unsigned long) {});\n"
      "}\n";
  const std::vector<Finding> fs = run("src/sim/x.cpp", code);
  EXPECT_EQ(count_rule(fs, "worker-capture"), 1u);
}

TEST(WorkerCapture, LanePostBehindSubscriptedKeyFlagged) {
  const std::string code =
      "struct Lanes {\n"
      "  template <typename Fn>\n"
      "  void post(unsigned long key, Fn fn);\n"
      "};\n"
      "void fold(Lanes& lanes, const unsigned long* keys, long* out) {\n"
      "  lanes.post(keys[1], [&] { *out += 1; });\n"
      "  lanes.post(keys[2], [out] { *out += 1; });\n"
      "  lanes.post(3, [&out](unsigned long) { out = nullptr; });\n"
      "}\n";
  const std::vector<Finding> fs = run("src/sim/x.cpp", code);
  ASSERT_EQ(count_rule(fs, "worker-capture"), 1u);
  ASSERT_EQ(count_rule(fs, "shard-mutation"), 1u);
  for (const Finding& f : fs) {
    EXPECT_EQ(f.line, f.rule == "worker-capture" ? 6u : 8u);
  }
}

TEST(UnorderedIter, NameDeclaredInHeaderCaughtInCpp) {
  const std::vector<Finding> fs = analyze(
      {SourceDoc{"src/core/reg.h",
                 "#include <unordered_map>\n"
                 "struct Reg { std::unordered_map<int, int> by_ip; };\n"},
       SourceDoc{"src/core/reg.cpp",
                 "#include \"core/reg.h\"\n"
                 "int sum(const Reg& r) {\n"
                 "  int total = 0;\n"
                 "  for (const auto& [k, v] : r.by_ip) total += v;\n"
                 "  return total;\n"
                 "}\n"}},
      Options{}).findings;
  EXPECT_EQ(count_rule(fs, "unordered-iter"), 1u);
}

TEST(CodecEscape, FlagsPointerWalkAndByteCursorOutsideCodecLayer) {
  const std::vector<Finding> fs =
      run("src/study/x.cpp",
          "int sum(const std::uint8_t* p, int n) {\n"
          "  const std::uint8_t* cur = p;\n"
          "  int s = 0;\n"
          "  for (int i = 0; i < n; ++i) s += *cur++;\n"
          "  return s;\n"
          "}\n");
  EXPECT_EQ(count_rule(fs, "codec-escape"), 2u);
}

TEST(CodecEscape, CodecLayerItselfIsExempt) {
  const std::string code =
      "static const std::uint8_t* cur = nullptr;\n"
      "int next() { return *cur++; }\n";
  EXPECT_EQ(count_rule(run("src/util/block_codec.cpp", code), "codec-escape"),
            0u);
  EXPECT_EQ(count_rule(run("src/util/columnar.cpp", code), "codec-escape"),
            0u);
  EXPECT_EQ(count_rule(run("src/study/x.cpp", code), "codec-escape"), 2u);
}

TEST(CodecEscape, PointerParamsAndMultiplicationAreClean) {
  const std::vector<Finding> fs =
      run("src/study/x.cpp",
          "void feed(const std::uint8_t* buf, std::size_t n);\n"
          "int scale(int a, int b) { return a * b; }\n"
          "int bump(int* counts, int i) { return counts[i] + 1; }\n");
  EXPECT_EQ(count_rule(fs, "codec-escape"), 0u);
}

TEST(Analyze, DeterministicAcrossJobCounts) {
  std::vector<SourceDoc> docs;
  for (int i = 0; i < 24; ++i) {
    docs.push_back(SourceDoc{
        "src/sim/f" + std::to_string(i) + ".cpp",
        "bool f(double v) { return v == " + std::to_string(i) + ".5; }\n"});
  }
  Options serial;
  serial.jobs = 1;
  Options parallel_opts;
  parallel_opts.jobs = 8;
  const AnalysisResult a = analyze(docs, serial);
  const AnalysisResult b = analyze(docs, parallel_opts);
  ASSERT_EQ(a.findings.size(), b.findings.size());
  for (std::size_t i = 0; i < a.findings.size(); ++i) {
    EXPECT_EQ(a.findings[i].path, b.findings[i].path);
    EXPECT_EQ(a.findings[i].line, b.findings[i].line);
    EXPECT_EQ(a.findings[i].rule, b.findings[i].rule);
    EXPECT_EQ(a.findings[i].message, b.findings[i].message);
  }
}

TEST(HeavyNodeContainer, FlagsNodeContainersOnlyInsideCompactTypes) {
  const std::vector<Finding> fs = run(
      "src/ntp/x.h",
      "struct Compact {  // LINT-COMPACT\n"
      "  std::map<int, int> counts;\n"
      "  std::unordered_set<int> seen;\n"
      "  std::vector<int> flat;\n"
      "};\n"
      "struct Unmarked {\n"
      "  std::map<int, int> fine_here;\n"
      "};\n");
  EXPECT_EQ(count_rule(fs, "heavy-node-container"), 2u);
}

TEST(HeavyNodeContainer, IgnoresLookalikeNamesAndComments) {
  const std::vector<Finding> fs = run(
      "src/ntp/x.h",
      "struct Compact {  // LINT-COMPACT\n"
      "  MonitorDelta delta;          // 'list'-free user type\n"
      "  std::vector<int> monlist;    // identifier containing 'list'\n"
      "  Bitset<64> set_bits;         // identifier containing 'set'\n"
      "  // a std::map<int,int> in a comment is not a member\n"
      "};\n");
  EXPECT_EQ(count_rule(fs, "heavy-node-container"), 0u);
}

TEST(HeavyNodeContainer, WaiverSuppressesAndIsConsumed) {
  const std::vector<Finding> fs = run(
      "src/ntp/x.h",
      "struct Compact {  // LINT-COMPACT\n"
      "  std::map<int, int> cold;  // NOLINT(heavy-node-container) -- cold\n"
      "};\n");
  EXPECT_EQ(count_rule(fs, "heavy-node-container"), 0u);
  EXPECT_EQ(count_rule(fs, "stale-waiver"), 0u);
}

}  // namespace
}  // namespace gorilla::lint
