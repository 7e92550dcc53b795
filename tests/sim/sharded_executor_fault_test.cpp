// Shards run once: a one-shot injected `shard-throw` aborts run_ordered
// with util::FaultInjected, no shard is ever run twice, and the consumed
// output is a clean prefix of the canonical merge — inline and on a
// 4-thread pool.
//
// Suites are named ShardedExecutorFault* so the TSan preset's test filter
// (^ShardedExecutor...) picks them up.
#include "sim/sharded_executor.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cstddef>
#include <vector>

#include "util/fault.h"
#include "util/thread_pool.h"

namespace gorilla::sim {
namespace {

struct ScopedPlan {
  explicit ScopedPlan(const util::FaultPlan& plan) {
    util::FaultPlan::install(plan);
  }
  ScopedPlan(const ScopedPlan&) = delete;
  ScopedPlan& operator=(const ScopedPlan&) = delete;
  ~ScopedPlan() { util::FaultPlan::clear(); }
};

/// Throws on the third shard attempt (ordinal 2) of whatever runs next.
util::FaultPlan third_attempt_throws() {
  util::FaultPlan plan;
  plan.shard_throw_at = 2;
  return plan;
}

/// Sums [begin, end) — the pure produce() the run_ordered case merges.
std::size_t range_sum(std::size_t begin, std::size_t end) {
  std::size_t sum = 0;
  for (std::size_t i = begin; i < end; ++i) sum += i;
  return sum;
}

/// 10 indices in shards of 2: five shards.
constexpr std::size_t kN = 10;
constexpr std::size_t kChunk = 2;
constexpr std::size_t kShards = kN / kChunk;

TEST(ShardedExecutorFaultTest, InjectedShardThrowAbortsRunOrdered) {
  util::ThreadPool pool(4);
  for (util::ThreadPool* p : {static_cast<util::ThreadPool*>(nullptr), &pool}) {
    const ScopedPlan guard(third_attempt_throws());
    ShardedExecutor exec(p);
    std::vector<std::atomic<int>> runs(kShards);
    std::vector<std::size_t> sums;
    EXPECT_THROW(exec.run_ordered(
                     kN, kChunk,
                     [&runs](std::size_t b, std::size_t e) {
                       runs[b / kChunk].fetch_add(1);
                       return range_sum(b, e);
                     },
                     [&sums](std::size_t s) { sums.push_back(s); }),
                 util::FaultInjected);
    int ran = 0;
    for (const auto& r : runs) {
      EXPECT_LE(r.load(), 1);  // never retried
      ran += r.load();
    }
    // The attempt the fault consumed never reached produce().
    EXPECT_LE(ran, static_cast<int>(kShards) - 1);
    ASSERT_LT(sums.size(), kShards);
    for (std::size_t s = 0; s < sums.size(); ++s) {
      EXPECT_EQ(sums[s], range_sum(s * kChunk, (s + 1) * kChunk));
    }
    if (p == nullptr) {
      // Inline, attempts are shard ordinals: shards 0 and 1 ran and merged.
      EXPECT_EQ(ran, 2);
      EXPECT_EQ(sums.size(), 2u);
    }
  }
}

}  // namespace
}  // namespace gorilla::sim
