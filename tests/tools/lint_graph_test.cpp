// Unit tests for the gorilla-lint include-graph pass: layer-DAG rank
// checks, waivers, LINT-LAYER directives, and cycle rejection.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "tools/lint/lint.h"

namespace gorilla::lint {
namespace {

AnalysisResult run(std::vector<SourceDoc> docs) {
  return analyze(std::move(docs), Options{});
}

TEST(LayerBreak, UpwardIncludeFlagged) {
  const AnalysisResult r = run(
      {SourceDoc{"src/util/clock.h", "#include \"study/driver.h\"\n"},
       SourceDoc{"src/study/driver.h", "struct Driver {};\n"}});
  ASSERT_EQ(r.findings.size(), 1u);
  EXPECT_EQ(r.findings[0].rule, "layer-break");
  EXPECT_EQ(r.findings[0].path, "src/util/clock.h");
  EXPECT_EQ(r.findings[0].line, 1u);
  EXPECT_NE(r.findings[0].message.find("'util' to 'study'"),
            std::string::npos);
}

TEST(LayerBreak, DownwardAndSameRankAreLegal) {
  const AnalysisResult r = run(
      {SourceDoc{"src/study/driver.h", "#include \"sim/engine.h\"\n"},
       SourceDoc{"src/sim/engine.h", "#include \"scan/prober.h\"\n"},
       SourceDoc{"src/scan/prober.h", "#include \"util/clock.h\"\n"},
       SourceDoc{"src/util/clock.h", "struct Clock {};\n"}});
  EXPECT_TRUE(r.findings.empty());
}

TEST(LayerBreak, WaivedUpwardIncludeIsQuietAndNotStale) {
  const AnalysisResult r = run(
      {SourceDoc{"src/sim/attack.h",
                 "#include \"study/events.h\"  // NOLINT(layer-break): bus\n"},
       SourceDoc{"src/study/events.h", "struct Event {};\n"}});
  EXPECT_TRUE(r.findings.empty());
}

TEST(LayerBreak, LintLayerDirectiveOverridesPath) {
  // A fixture outside src/ can pin its layer explicitly.
  const AnalysisResult r = run(
      {SourceDoc{"tests/tools/bad_layer_break.cpp",
                 "// LINT-LAYER: sim\n#include \"study/events.h\"\n"}});
  ASSERT_EQ(r.findings.size(), 1u);
  EXPECT_EQ(r.findings[0].rule, "layer-break");
  EXPECT_NE(r.findings[0].message.find("'sim' to 'study'"),
            std::string::npos);
}

TEST(LayerCycle, SameRankCycleFlagged) {
  const AnalysisResult r = run(
      {SourceDoc{"src/sim/alpha.h", "#include \"scan/beta.h\"\n"},
       SourceDoc{"src/scan/beta.h", "#include \"sim/alpha.h\"\n"}});
  ASSERT_EQ(r.findings.size(), 1u);
  EXPECT_EQ(r.findings[0].rule, "layer-cycle");
  EXPECT_NE(r.findings[0].message.find("cycle"), std::string::npos);
}

TEST(LayerCycle, SelfIncludeIsACycle) {
  const AnalysisResult r = run(
      {SourceDoc{"src/sim/alpha.h", "#include \"sim/alpha.h\"\n"}});
  ASSERT_EQ(r.findings.size(), 1u);
  EXPECT_EQ(r.findings[0].rule, "layer-cycle");
}

TEST(LayerCycle, RankViolatingEdgesAreExcludedFromCycleGraph) {
  // sim -> study is upward (waived here); study -> sim is legal downward.
  // Counting the waived upward edge in the cycle graph would make the
  // justified published-interface waiver unsatisfiable, so only the legal
  // edge participates and no cycle is reported.
  const AnalysisResult r = run(
      {SourceDoc{"src/sim/attack.h",
                 "#include \"study/events.h\"  // NOLINT(layer-break): bus\n"},
       SourceDoc{"src/study/events.h", "#include \"sim/attack.h\"\n"}});
  EXPECT_TRUE(r.findings.empty());
}

}  // namespace
}  // namespace gorilla::lint
