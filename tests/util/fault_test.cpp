// FaultPlan contract: the directive grammar parses all-or-nothing, the
// sink hook turns planned global offsets into exact short-write /
// corruption actions through util::write_all, and the shard hook throws
// on exactly the planned attempt ordinal — the same plan replays the
// same failure every run.
#include "util/fault.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <sstream>
#include <string>
#include <vector>

#include "util/bytes.h"

namespace gorilla::util {
namespace {

/// Installs a plan for one test and guarantees the process-global slot is
/// cleared afterwards, whatever the test body does.
struct ScopedPlan {
  explicit ScopedPlan(const FaultPlan& plan) { FaultPlan::install(plan); }
  ScopedPlan(const ScopedPlan&) = delete;
  ScopedPlan& operator=(const ScopedPlan&) = delete;
  ~ScopedPlan() { FaultPlan::clear(); }
};

TEST(FaultPlanTest, EmptySpecParsesToEmptyPlan) {
  const auto plan = FaultPlan::parse("");
  ASSERT_TRUE(plan.has_value());
  EXPECT_FALSE(plan->short_write_at.has_value());
  EXPECT_FALSE(plan->corrupt_at.has_value());
  EXPECT_FALSE(plan->shard_throw_at.has_value());
}

TEST(FaultPlanTest, ParsesEveryDirective) {
  const auto plan = FaultPlan::parse("short-write@100;corrupt@7;shard-throw@3");
  ASSERT_TRUE(plan.has_value());
  EXPECT_EQ(plan->short_write_at, 100u);
  EXPECT_EQ(plan->corrupt_at, 7u);
  EXPECT_EQ(plan->shard_throw_at, 3u);
}

TEST(FaultPlanTest, ShardThrowCountDefaultsToOne) {
  // shard-throw is one-shot: the parsed plan throws on ordinal 12 only.
  const auto plan = FaultPlan::parse("shard-throw@12");
  ASSERT_TRUE(plan.has_value());
  EXPECT_EQ(plan->shard_throw_at, 12u);
  const ScopedPlan guard(*plan);
  int throws = 0;
  for (int ordinal = 0; ordinal < 32; ++ordinal) {
    try {
      FaultPlan::on_shard_attempt();
    } catch (const FaultInjected&) {
      ++throws;
    }
  }
  EXPECT_EQ(throws, 1);
}

TEST(FaultPlanTest, SeededCorruptOffsetIsDeterministicAndInRange) {
  const auto a = FaultPlan::parse("corrupt@rand:9001:256");
  const auto b = FaultPlan::parse("corrupt@rand:9001:256");
  ASSERT_TRUE(a.has_value());
  ASSERT_TRUE(b.has_value());
  ASSERT_TRUE(a->corrupt_at.has_value());
  EXPECT_EQ(a->corrupt_at, b->corrupt_at);
  EXPECT_LT(*a->corrupt_at, 256u);
  // A different seed should (for these seeds) pick a different point.
  const auto c = FaultPlan::parse("corrupt@rand:9002:256");
  ASSERT_TRUE(c.has_value());
  EXPECT_NE(a->corrupt_at, c->corrupt_at);
}

TEST(FaultPlanTest, MalformedSpecsRejectedWhole) {
  EXPECT_FALSE(FaultPlan::parse("bogus@1").has_value());
  EXPECT_FALSE(FaultPlan::parse("short-write").has_value());
  EXPECT_FALSE(FaultPlan::parse("short-write@").has_value());
  EXPECT_FALSE(FaultPlan::parse("short-write@12junk").has_value());
  EXPECT_FALSE(FaultPlan::parse("corrupt@rand:5").has_value());
  EXPECT_FALSE(FaultPlan::parse("corrupt@rand:5:0").has_value());
  // shard-throw takes one ordinal: shards run once, so no repeat count.
  EXPECT_FALSE(FaultPlan::parse("shard-throw@3x4").has_value());
  EXPECT_FALSE(FaultPlan::parse("shard-throw@2x0").has_value());
  // One bad directive poisons the whole spec — never a partial plan.
  EXPECT_FALSE(FaultPlan::parse("short-write@1;nope").has_value());
}

TEST(FaultPlanTest, ShortWriteCutsTheSinkAtThePlannedOffset) {
  FaultPlan plan;
  plan.short_write_at = 10;
  const ScopedPlan guard(plan);

  std::ostringstream out;
  const std::vector<std::uint8_t> six(6, 0x41);
  const std::vector<std::uint8_t> eight(8, 0x42);
  EXPECT_TRUE(write_all(out, six));  // bytes [0, 6): before the fault point
  EXPECT_FALSE(write_all(out, eight));  // the cut lands mid-chunk
  EXPECT_FALSE(static_cast<bool>(out));
  // Exactly 10 bytes reached the sink — a torn write, not a clean stop.
  EXPECT_EQ(out.str().size(), 10u);
}

TEST(FaultPlanTest, CorruptFlipsExactlyOnePlannedByte) {
  FaultPlan plan;
  plan.corrupt_at = 3;
  const ScopedPlan guard(plan);

  std::ostringstream out;
  const std::vector<std::uint8_t> zeros(8, 0x00);
  EXPECT_TRUE(write_all(out, zeros));  // corruption is silent: write "succeeds"
  const std::string written = out.str();
  ASSERT_EQ(written.size(), 8u);
  for (std::size_t i = 0; i < written.size(); ++i) {
    EXPECT_EQ(static_cast<std::uint8_t>(written[i]), i == 3 ? 0x5a : 0x00)
        << "byte " << i;
  }
}

TEST(FaultPlanTest, ShardThrowFiresOnPlannedOrdinalsOnly) {
  FaultPlan plan;
  plan.shard_throw_at = 2;
  const ScopedPlan guard(plan);

  for (std::uint64_t ordinal = 0; ordinal < 6; ++ordinal) {
    if (ordinal == 2) {
      EXPECT_THROW(FaultPlan::on_shard_attempt(), FaultInjected)
          << "ordinal " << ordinal;
    } else {
      EXPECT_NO_THROW(FaultPlan::on_shard_attempt()) << "ordinal " << ordinal;
    }
  }
}

TEST(FaultPlanTest, ResetCountersRewindsBothHooks) {
  FaultPlan plan;
  plan.short_write_at = 4;
  plan.shard_throw_at = 0;
  const ScopedPlan guard(plan);

  std::ostringstream first;
  const std::vector<std::uint8_t> chunk(8, 0xcc);
  EXPECT_FALSE(write_all(first, chunk));
  EXPECT_THROW(FaultPlan::on_shard_attempt(), FaultInjected);
  EXPECT_NO_THROW(FaultPlan::on_shard_attempt());  // ordinal 1: not planned

  FaultPlan::reset_counters();
  std::ostringstream second;
  EXPECT_FALSE(write_all(second, chunk));  // offset rewound: fires again
  EXPECT_EQ(second.str().size(), 4u);
  EXPECT_THROW(FaultPlan::on_shard_attempt(), FaultInjected);  // ordinal 0 again
}

TEST(FaultPlanTest, ClearedPlanMeansNoInterference) {
  FaultPlan plan;
  plan.short_write_at = 0;
  plan.shard_throw_at = 0;
  FaultPlan::install(plan);
  FaultPlan::clear();
  EXPECT_EQ(FaultPlan::active(), nullptr);

  std::ostringstream out;
  const std::vector<std::uint8_t> chunk(16, 0x7e);
  EXPECT_TRUE(write_all(out, chunk));
  EXPECT_EQ(out.str().size(), 16u);
  EXPECT_NO_THROW(FaultPlan::on_shard_attempt());
}

}  // namespace
}  // namespace gorilla::util
