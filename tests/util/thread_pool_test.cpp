#include "util/thread_pool.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <memory>
#include <mutex>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

namespace gorilla::util {
namespace {

TEST(ThreadPoolTest, ClampsThreadCountToAtLeastOne) {
  EXPECT_EQ(ThreadPool(0).size(), 1);
  EXPECT_EQ(ThreadPool(-5).size(), 1);
  EXPECT_EQ(ThreadPool(1).size(), 1);
  EXPECT_EQ(ThreadPool(4).size(), 4);
}

TEST(ThreadPoolTest, DefaultThreadsIsPositive) {
  EXPECT_GE(ThreadPool::default_threads(), 1);
}

TEST(ThreadPoolTest, RunsEveryJobExactlyOnce) {
  std::atomic<int> counter{0};
  {
    ThreadPool pool(4);
    for (int i = 0; i < 1000; ++i) {
      pool.submit([&counter] { counter.fetch_add(1); });
    }
    // The destructor drains the queue: all 1000 jobs must have run by the
    // time the pool is gone, with no explicit wait in sight.
  }
  EXPECT_EQ(counter.load(), 1000);
}

TEST(ThreadPoolTest, JobsRunOffTheSubmittingThread) {
  std::mutex mu;
  std::set<std::thread::id> seen;
  {
    ThreadPool pool(2);
    for (int i = 0; i < 64; ++i) {
      pool.submit([&mu, &seen] {
        const std::lock_guard<std::mutex> lock(mu);
        seen.insert(std::this_thread::get_id());
      });
    }
  }
  EXPECT_FALSE(seen.empty());
  EXPECT_EQ(seen.count(std::this_thread::get_id()), 0u);
  EXPECT_LE(seen.size(), 2u);
}

TEST(ThreadPoolTest, SubmitFromMultipleProducers) {
  std::atomic<int> counter{0};
  {
    ThreadPool pool(3);
    std::thread a([&pool, &counter] {
      for (int i = 0; i < 200; ++i) {
        pool.submit([&counter] { counter.fetch_add(1); });
      }
    });
    std::thread b([&pool, &counter] {
      for (int i = 0; i < 200; ++i) {
        pool.submit([&counter] { counter.fetch_add(1); });
      }
    });
    a.join();
    b.join();
  }
  EXPECT_EQ(counter.load(), 400);
}

TEST(ThreadPoolTest, JobsMayOutliveTheirCaptures) {
  // Move-only state owned by the job itself must survive until the worker
  // runs it (possibly after the submitting scope has exited).
  std::atomic<int> sum{0};
  {
    ThreadPool pool(2);
    for (int i = 1; i <= 10; ++i) {
      auto payload = std::make_shared<int>(i);
      pool.submit([&sum, payload] { sum.fetch_add(*payload); });
    }
  }
  EXPECT_EQ(sum.load(), 55);
}

TEST(ThreadPoolTest, PostReturnsEachJobsResultOrException) {
  // Each future carries its own job's result, a move-only one included,
  // or the exception the job threw.
  ThreadPool pool(1);
  auto first = pool.post([] { return std::make_unique<int>(41); });
  auto second = pool.post([v = std::vector<int>{1, 2, 3}] { return v.size(); });
  EXPECT_EQ(*first.get(), 41);
  EXPECT_EQ(second.get(), 3u);
  auto thrown =
      pool.post([]() -> int { throw std::runtime_error("job failed"); });
  EXPECT_THROW((void)thrown.get(), std::runtime_error);
}

TEST(ThreadPoolTest, ParallelForRunsEveryIndexExactlyOnce) {
  for (const int threads : {1, 2, 7}) {
    ThreadPool pool(threads);
    std::vector<std::atomic<int>> hits(1000);
    pool.parallel_for(hits.size(), [&hits](std::size_t i) {
      hits[i].fetch_add(1);
    });
    for (std::size_t i = 0; i < hits.size(); ++i) {
      ASSERT_EQ(hits[i].load(), 1) << "index " << i << ", " << threads
                                   << " thread(s)";
    }
  }
}

TEST(ThreadPoolTest, ParallelForOverNothingRunsNothing) {
  for (const int threads : {1, 3}) {
    ThreadPool pool(threads);
    std::atomic<int> calls{0};
    pool.parallel_for(0, [&calls](std::size_t) { calls.fetch_add(1); });
    EXPECT_EQ(calls.load(), 0);
  }
}

TEST(ThreadPoolTest, ParallelForRethrowsTheLowestFailingIndex) {
  for (const int threads : {1, 2, 7}) {
    ThreadPool pool(threads);
    try {
      pool.parallel_for(64, [](std::size_t i) {
        if (i == 9 || i == 30 || i == 61) {
          throw std::runtime_error("index " + std::to_string(i));
        }
      });
      FAIL() << "parallel_for swallowed the failures";
    } catch (const std::runtime_error& ex) {
      EXPECT_STREQ(ex.what(), "index 9") << threads << " thread(s)";
    }
  }
}

TEST(ThreadPoolTest, ParallelForDrainsStartedJobsBeforeRethrow) {
  // Index 0 throws at once while the others are still sleeping. The join
  // must not rethrow (and unwind the frame the jobs reference) until every
  // started job has finished.
  ThreadPool pool(4);
  std::atomic<int> started{0};
  std::atomic<int> finished{0};
  EXPECT_THROW(pool.parallel_for(
                   8,
                   [&started, &finished](std::size_t i) {
                     started.fetch_add(1);
                     if (i == 0) throw std::runtime_error("first");
                     std::this_thread::sleep_for(std::chrono::milliseconds(20));
                     finished.fetch_add(1);
                   }),
               std::runtime_error);
  EXPECT_GE(started.load(), 1);
  EXPECT_EQ(finished.load(), started.load() - 1);
}

TEST(ThreadPoolTest, ParallelForRunsNormallyAfterAThrowingJoin) {
  ThreadPool pool(3);
  EXPECT_THROW(pool.parallel_for(
                   16,
                   [](std::size_t i) {
                     if (i == 4) throw std::runtime_error("once");
                   }),
               std::runtime_error);
  std::vector<std::atomic<int>> hits(16);
  pool.parallel_for(hits.size(), [&hits](std::size_t i) {
    hits[i].fetch_add(1);
  });
  for (std::size_t i = 0; i < hits.size(); ++i) EXPECT_EQ(hits[i].load(), 1);
}

}  // namespace
}  // namespace gorilla::util
