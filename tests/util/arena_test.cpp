#include "util/arena.h"

#include <algorithm>
#include <atomic>
#include <barrier>
#include <cstdint>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "util/mem_stats.h"

namespace gorilla::util {
namespace {

TEST(ArenaTest, AllocationsAreAlignedAndDisjoint) {
  Arena arena(nullptr, 1024);
  auto* a = static_cast<std::uint8_t*>(arena.allocate(100, 8));
  auto* b = static_cast<std::uint8_t*>(arena.allocate(100, 8));
  ASSERT_NE(a, nullptr);
  ASSERT_NE(b, nullptr);
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(a) % 8, 0u);
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(b) % 8, 0u);
  // Disjoint: writing one range never disturbs the other.
  for (int i = 0; i < 100; ++i) a[i] = 0xaa;
  for (int i = 0; i < 100; ++i) b[i] = 0x55;
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a[i], 0xaa);
}

TEST(ArenaTest, RefillsOnBlockExhaustionAndHonorsOversize) {
  Arena arena(nullptr, 256);
  EXPECT_EQ(arena.block_count(), 0u);
  (void)arena.allocate(200, 8);
  EXPECT_EQ(arena.block_count(), 1u);
  (void)arena.allocate(200, 8);  // does not fit the remainder
  EXPECT_EQ(arena.block_count(), 2u);
  // An oversize request gets its own dedicated block.
  (void)arena.allocate(10000, 8);
  EXPECT_EQ(arena.block_count(), 3u);
  EXPECT_GE(arena.allocated_bytes(), 256u + 256u + 10000u);
}

TEST(ArenaTest, AllocateArrayValueInitializes) {
  Arena arena;
  const std::uint64_t* xs = arena.allocate_array<std::uint64_t>(512);
  for (int i = 0; i < 512; ++i) EXPECT_EQ(xs[i], 0u);
}

TEST(ArenaTest, ChargesAndReleasesStatsCounter) {
  MemStats::Counter counter;
  {
    Arena arena(&counter, 4096);
    (void)arena.allocate(100, 8);
    EXPECT_EQ(counter.live(), arena.allocated_bytes());
    EXPECT_GE(counter.peak(), counter.live());
  }
  EXPECT_EQ(counter.live(), 0u);  // destruction returns every block
  EXPECT_GE(counter.peak(), 4096u);
}

TEST(ArenaTest, RecycledBlockIsReusedExactSize) {
  Arena arena(nullptr, 4096);
  void* a = arena.allocate(96, 8);
  (void)arena.allocate(96, 8);  // keeps `a` off the bump frontier
  const std::size_t before = arena.allocated_bytes();
  arena.recycle(a, 96);
  void* b = arena.allocate(96, 8);
  EXPECT_EQ(b, a);  // served from the free list, not the bump pointer
  EXPECT_EQ(arena.allocated_bytes(), before);
}

TEST(ArenaTest, BestFitSplitsLargerFreeBlock) {
  Arena arena(nullptr, 4096);
  void* big = arena.allocate(256, 8);
  (void)arena.allocate(16, 8);
  arena.recycle(big, 256);
  // No exact 64-class block exists: the 256 splits, front first.
  void* head = arena.allocate(64, 8);
  EXPECT_EQ(head, big);
  // The 192-byte remainder went back on a free list and serves the next
  // fits-inside request.
  void* tail = arena.allocate(192, 8);
  EXPECT_EQ(tail, static_cast<std::byte*>(big) + 64);
}

TEST(ArenaTest, RecycledStorageIsReinitializedByAllocateArray) {
  Arena arena;
  std::uint64_t* xs = arena.allocate_array<std::uint64_t>(32);
  for (int i = 0; i < 32; ++i) xs[i] = 0xdeadbeefu;
  arena.recycle_array(xs, 32);
  const std::uint64_t* ys = arena.allocate_array<std::uint64_t>(32);
  for (int i = 0; i < 32; ++i) EXPECT_EQ(ys[i], 0u);
}

TEST(ArenaTest, RequestCounterTracksOutstandingBytes) {
  MemStats::Counter blocks;
  MemStats::Counter requests;
  {
    Arena arena(&blocks, 4096, &requests);
    void* a = arena.allocate(100, 8);  // canonical 112
    EXPECT_EQ(requests.live(), 112u);
    arena.recycle(a, 100);
    EXPECT_EQ(requests.live(), 0u);
    (void)arena.allocate(32, 8);
    EXPECT_EQ(requests.live(), 32u);
    EXPECT_EQ(blocks.live(), 4096u);  // block counter is coarser
  }
  // Destruction returns blocks and zeroes any outstanding requests.
  EXPECT_EQ(blocks.live(), 0u);
  EXPECT_EQ(requests.live(), 0u);
}

TEST(ArenaTest, ConcurrentAllocationsDoNotOverlap) {
  Arena arena(nullptr, 1 << 16);
  constexpr int kThreads = 4;
  constexpr int kPerThread = 200;
  std::vector<std::uint32_t*> ptrs(kThreads * kPerThread);
  std::vector<std::thread> workers;
  workers.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&, t] {
      for (int i = 0; i < kPerThread; ++i) {
        std::uint32_t* p = arena.allocate_array<std::uint32_t>(16);
        p[0] = static_cast<std::uint32_t>(t * kPerThread + i);
        ptrs[static_cast<std::size_t>(t * kPerThread + i)] = p;
      }
    });
  }
  for (auto& w : workers) w.join();
  // Every slot still holds its writer's tag => no two allocations aliased.
  for (std::size_t i = 0; i < ptrs.size(); ++i) {
    ASSERT_NE(ptrs[i], nullptr);
    EXPECT_EQ(ptrs[i][0], static_cast<std::uint32_t>(i));
  }
}

TEST(ArenaTest, ThreadOrdinalsAreDistinctAndStable) {
  const std::size_t mine = Arena::thread_ordinal();
  EXPECT_EQ(Arena::thread_ordinal(), mine);
  std::size_t other = mine;
  std::thread([&other] { other = Arena::thread_ordinal(); }).join();
  EXPECT_NE(other, mine);
}

TEST(ArenaTest, StorageRecycledOnAnotherThreadServesThatThread) {
  Arena arena(nullptr, 4096);
  void* a = arena.allocate(96, 8);
  (void)arena.allocate(96, 8);  // keeps `a` off the bump frontier
  void* reused = nullptr;
  std::thread([&] {
    arena.recycle(a, 96);
    reused = arena.allocate(96, 8);
  }).join();
  EXPECT_EQ(reused, a);  // the recycling thread's stripe holds it now
}

TEST(ArenaTest, SpentStripeAdoptsOtherStripesFreeStorage) {
  Arena arena(nullptr, 256);
  void* a = arena.allocate(96, 8);
  (void)arena.allocate(96, 8);  // 192 of 256 bytes carved
  std::thread([&] { arena.recycle(a, 96); }).join();
  // The bump block cannot fit another 96 bytes: instead of a new block,
  // the storage the other thread recycled is adopted and reused.
  EXPECT_EQ(arena.allocate(96, 8), a);
  EXPECT_EQ(arena.block_count(), 1u);
}

TEST(ArenaTest, CrossThreadRecycleKeepsAccountingExact) {
  // Four threads allocate a round of mixed-size arrays, then each recycles
  // the round its neighbour allocated, so storage constantly migrates
  // between stripes. Every round, all live allocations must be disjoint;
  // at the end the request counter must be back at exactly zero and the
  // block accounting must agree three ways.
  constexpr int kThreads = 4;
  constexpr int kRounds = 25;
  constexpr int kPerRound = 64;
  constexpr std::size_t kBlock = 4096;
  constexpr std::size_t kCounts[] = {4, 8, 16, 24};  // 16..96 bytes
  struct Live {
    std::uint32_t* ptr;
    std::size_t count;
    std::uint32_t tag;
  };
  MemStats::Counter blocks;
  MemStats::Counter requests;
  {
    Arena arena(&blocks, kBlock, &requests);
    std::vector<std::vector<Live>> mailbox(kThreads);
    std::atomic<int> overlaps{0};
    std::atomic<int> clobbered{0};
    // Runs once per round, after every thread allocated and before any
    // recycles: checks all live ranges pairwise via a sort.
    auto check_disjoint = [&]() noexcept {
      std::vector<std::pair<std::uintptr_t, std::uintptr_t>> ranges;
      for (const auto& box : mailbox) {
        for (const auto& l : box) {
          const auto begin = reinterpret_cast<std::uintptr_t>(l.ptr);
          ranges.emplace_back(begin, begin + l.count * sizeof(std::uint32_t));
        }
      }
      std::sort(ranges.begin(), ranges.end());
      for (std::size_t i = 1; i < ranges.size(); ++i) {
        if (ranges[i].first < ranges[i - 1].second) ++overlaps;
      }
    };
    std::barrier allocated(kThreads, check_disjoint);
    std::barrier recycled(kThreads);
    std::vector<std::thread> workers;
    workers.reserve(kThreads);
    for (int t = 0; t < kThreads; ++t) {
      workers.emplace_back([&, t] {
        for (int round = 0; round < kRounds; ++round) {
          auto& mine = mailbox[static_cast<std::size_t>(t)];
          mine.clear();
          for (int i = 0; i < kPerRound; ++i) {
            const std::size_t count = kCounts[(t + round + i) % 4];
            const auto tag =
                static_cast<std::uint32_t>((t * kRounds + round) * kPerRound + i);
            std::uint32_t* p = arena.allocate_array<std::uint32_t>(count);
            for (std::size_t k = 0; k < count; ++k) p[k] = tag;
            mine.push_back(Live{p, count, tag});
          }
          allocated.arrive_and_wait();
          // Recycle the neighbour's round on this (a different) thread.
          for (const auto& l :
               mailbox[static_cast<std::size_t>((t + 1) % kThreads)]) {
            for (std::size_t k = 0; k < l.count; ++k) {
              if (l.ptr[k] != l.tag) ++clobbered;
            }
            arena.recycle_array(l.ptr, l.count);
          }
          recycled.arrive_and_wait();
        }
      });
    }
    for (auto& w : workers) w.join();
    EXPECT_EQ(overlaps.load(), 0);
    EXPECT_EQ(clobbered.load(), 0);
    EXPECT_EQ(requests.live(), 0u);
    EXPECT_GT(requests.peak(), 0u);
    EXPECT_EQ(arena.allocated_bytes(), arena.block_count() * kBlock);
    EXPECT_EQ(blocks.live(), arena.allocated_bytes());
  }
  EXPECT_EQ(blocks.live(), 0u);
  EXPECT_EQ(requests.live(), 0u);
}

}  // namespace
}  // namespace gorilla::util
