// ShardedExecutor unit contract (fixed shard boundaries, ordered merge,
// inline fallback, keyed apply lanes) plus the determinism-merge acceptance
// test: both shapes of the study harness, sinks and monitor tables alike,
// are bit-identical for K ∈ {1, 2, 7} worker threads, across two runs at
// the same K, and (regional sinks) across record/replay.
#include "sim/sharded_executor.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <bit>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <mutex>
#include <numeric>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common.h"
#include "telemetry/flow.h"
#include "util/thread_pool.h"
#include "util/time.h"

namespace gorilla::sim {
namespace {

TEST(ShardedExecutorTest, NullPoolMeansOneJob) {
  ShardedExecutor inline_exec(nullptr);
  EXPECT_EQ(inline_exec.jobs(), 1);
  util::ThreadPool pool(3);
  ShardedExecutor exec(&pool);
  EXPECT_EQ(exec.jobs(), 3);
}

TEST(ShardedExecutorTest, ShardBoundariesDependOnlyOnSizeAndChunk) {
  // Record the (begin, end) ranges produce() sees; they must tile [0, n)
  // in fixed chunks regardless of worker count.
  const auto ranges_for = [](ShardedExecutor& exec) {
    std::vector<std::pair<std::size_t, std::size_t>> ranges;
    std::mutex mu;
    exec.run_ordered(
        10, 3,
        [&mu, &ranges](std::size_t b, std::size_t e) {
          const std::lock_guard<std::mutex> lock(mu);
          ranges.emplace_back(b, e);
          return b;
        },
        [](std::size_t) {});
    return ranges;
  };

  ShardedExecutor inline_exec(nullptr);
  auto inline_ranges = ranges_for(inline_exec);
  const std::vector<std::pair<std::size_t, std::size_t>> want = {
      {0, 3}, {3, 6}, {6, 9}, {9, 10}};
  EXPECT_EQ(inline_ranges, want);

  util::ThreadPool pool(4);
  ShardedExecutor exec(&pool);
  auto pooled = ranges_for(exec);
  std::sort(pooled.begin(), pooled.end());  // workers race; set must match
  EXPECT_EQ(pooled, want);
}

TEST(ShardedExecutorTest, ConsumeSeesAscendingShardOrder) {
  util::ThreadPool pool(4);
  ShardedExecutor exec(&pool);
  std::vector<std::size_t> consumed;
  exec.run_ordered(
      1000, 7, [](std::size_t b, std::size_t e) { return std::make_pair(b, e); },
      [&consumed](std::pair<std::size_t, std::size_t> r) {
        consumed.push_back(r.first);
        consumed.push_back(r.second);
      });
  // Consumed boundaries must be the canonical ascending tiling.
  ASSERT_FALSE(consumed.empty());
  EXPECT_EQ(consumed.front(), 0u);
  EXPECT_EQ(consumed.back(), 1000u);
  for (std::size_t i = 2; i + 1 < consumed.size(); i += 2) {
    EXPECT_EQ(consumed[i], consumed[i - 1]);  // contiguous
    EXPECT_LT(consumed[i], consumed[i + 1]);  // ascending
  }
}

TEST(ShardedExecutorTest, ProduceRunsOnWorkersConsumeOnCaller) {
  util::ThreadPool pool(4);
  ShardedExecutor exec(&pool);
  std::mutex mu;
  std::set<std::thread::id> producer_threads;
  std::set<std::thread::id> consumer_threads;
  exec.run_ordered(
      64, 4,
      [&mu, &producer_threads](std::size_t b, std::size_t) {
        const std::lock_guard<std::mutex> lock(mu);
        producer_threads.insert(std::this_thread::get_id());
        return b;
      },
      [&mu, &consumer_threads](std::size_t) {
        const std::lock_guard<std::mutex> lock(mu);
        consumer_threads.insert(std::this_thread::get_id());
      });
  EXPECT_EQ(producer_threads.count(std::this_thread::get_id()), 0u);
  EXPECT_EQ(consumer_threads.size(), 1u);
  EXPECT_EQ(consumer_threads.count(std::this_thread::get_id()), 1u);
}

TEST(ShardedExecutorTest, ZeroChunkSizeMeansSingletonShards) {
  ShardedExecutor exec(nullptr);
  int produced = 0;
  exec.run_ordered(
      5, 0, [&produced](std::size_t b, std::size_t e) {
        ++produced;
        EXPECT_EQ(e, b + 1);
        return 0;
      },
      [](int) {});
  EXPECT_EQ(produced, 5);
}

TEST(ShardedExecutorTest, EmptyRangeProducesNothing) {
  util::ThreadPool pool(2);
  ShardedExecutor exec(&pool);
  int calls = 0;
  exec.run_ordered(
      0, 16, [&calls](std::size_t, std::size_t) { return ++calls; },
      [&calls](int) { ++calls; });
  EXPECT_EQ(calls, 0);
}

TEST(ShardedExecutorTest, ProduceExceptionRethrowsOnCaller) {
  util::ThreadPool pool(3);
  ShardedExecutor exec(&pool);
  EXPECT_THROW(
      exec.run_ordered(
          100, 10,
          [](std::size_t b, std::size_t) -> int {
            if (b == 50) throw std::runtime_error("shard 5 failed");
            return 0;
          },
          [](int) {}),
      std::runtime_error);
}

TEST(ShardedExecutorTest, ExceptionDrainsInFlightShardsBeforeRethrow) {
  // Regression: run_ordered must wait for every in-flight produce before
  // rethrowing. If it rethrew immediately, still-running workers would keep
  // touching this frame's counters (and, at real call sites, the produce
  // lambda's captures) after the caller's stack unwound — a use-after-scope
  // the TSan/ASan presets in scripts/check.sh would flag here.
  util::ThreadPool pool(4);
  ShardedExecutor exec(&pool);
  std::atomic<int> started{0};
  std::atomic<int> finished{0};
  EXPECT_THROW(
      exec.run_ordered(
          64, 1,
          [&started, &finished](std::size_t b, std::size_t) -> int {
            started.fetch_add(1);
            if (b == 0) {
              finished.fetch_add(1);
              throw std::runtime_error("shard 0 failed");
            }
            std::this_thread::sleep_for(std::chrono::milliseconds(2));
            finished.fetch_add(1);
            return 0;
          },
          [](int) {}),
      std::runtime_error);
  // By the time the exception reached us, every shard that started had
  // finished — nothing still runs against a dead stack frame.
  EXPECT_EQ(started.load(), finished.load());
  EXPECT_GE(started.load(), 1);
}

TEST(ShardedExecutorTest, ConsumeExceptionDrainsInFlightShardsBeforeRethrow) {
  // A throwing consume aborts the run the same way: every shard still in
  // flight finishes before the exception leaves run_ordered.
  util::ThreadPool pool(4);
  ShardedExecutor exec(&pool);
  std::atomic<int> started{0};
  std::atomic<int> finished{0};
  EXPECT_THROW(
      exec.run_ordered(
          64, 1,
          [&started, &finished](std::size_t, std::size_t) -> int {
            started.fetch_add(1);
            std::this_thread::sleep_for(std::chrono::milliseconds(2));
            finished.fetch_add(1);
            return 0;
          },
          [](int) { throw std::runtime_error("consume failed"); }),
      std::runtime_error);
  EXPECT_EQ(started.load(), finished.load());
  EXPECT_GE(started.load(), 1);
}

TEST(ShardedExecutorTest, InFlightResultsStayWithinTheWindow) {
  // Producers far faster than the consume: finished results pile up ahead
  // of the ordered merge, but never more than window() of them, the one
  // being consumed included, and the consume order stays ascending.
  util::ThreadPool pool(4);
  ShardedExecutor exec(&pool);
  ASSERT_EQ(exec.window(), 6u);
  std::mutex mu;
  std::size_t finished = 0;   // produce calls returned
  std::size_t consumed = 0;   // consume calls returned
  std::size_t most_held = 0;  // largest finished - consumed seen
  std::vector<std::size_t> order;
  exec.run_ordered(
      48, 1,
      [&mu, &finished, &consumed, &most_held](std::size_t b, std::size_t) {
        const std::lock_guard lock(mu);
        ++finished;
        most_held = std::max(most_held, finished - consumed);
        return b;
      },
      [&mu, &consumed, &order](std::size_t b) {
        order.push_back(b);
        std::this_thread::sleep_for(std::chrono::milliseconds(3));
        const std::lock_guard lock(mu);
        ++consumed;
      });
  EXPECT_LE(most_held, exec.window());
  EXPECT_GE(most_held, 2u);  // the producers did run ahead
  std::vector<std::size_t> ascending(48);
  std::iota(ascending.begin(), ascending.end(), std::size_t{0});
  EXPECT_EQ(order, ascending);
}

// --- Keyed apply lanes (contract rule 4). ---

/// Waits up to five seconds for `flag`; false on timeout, so a broken
/// lane fails the test instead of hanging it.
bool wait_for(const std::atomic<bool>& flag) {
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (!flag.load()) {
    if (std::chrono::steady_clock::now() > deadline) return false;
    std::this_thread::yield();
  }
  return true;
}

TEST(ShardedExecutorLanesTest, EachLaneKeepsPostOrder) {
  util::ThreadPool pool(4);
  ShardedExecutor exec(&pool);
  // Keys 0..36 spread over every lane; each key's log is written only by
  // its own lane's jobs, which run one at a time.
  constexpr std::size_t kKeys = 37;
  std::vector<std::vector<int>> logs(kKeys);
  {
    ShardedExecutor::Lanes lanes(exec);
    for (int i = 0; i < 2000; ++i) {
      const auto key = static_cast<std::size_t>(i) % kKeys;
      lanes.post(key, [&log = logs[key], i] { log.push_back(i); });
    }
    lanes.join();
  }
  for (std::size_t key = 0; key < kKeys; ++key) {
    ASSERT_FALSE(logs[key].empty());
    EXPECT_TRUE(std::is_sorted(logs[key].begin(), logs[key].end()));
    EXPECT_EQ(logs[key].front(), static_cast<int>(key));
  }
}

TEST(ShardedExecutorLanesTest, TwoLanesRunConcurrently) {
  util::ThreadPool pool(2);
  ShardedExecutor exec(&pool);
  std::atomic<bool> a_started{false};
  std::atomic<bool> b_started{false};
  std::atomic<bool> a_saw_b{false};
  std::atomic<bool> b_saw_a{false};
  ShardedExecutor::Lanes lanes(exec);
  // Each job waits for the other to start: they only both see each other
  // when the two lanes overlap in time.
  lanes.post(0, [&a_started, &b_started, &a_saw_b] {
    a_started.store(true);
    a_saw_b.store(wait_for(b_started));
  });
  lanes.post(1, [&a_started, &b_started, &b_saw_a] {
    b_started.store(true);
    b_saw_a.store(wait_for(a_started));
  });
  lanes.join();
  EXPECT_TRUE(a_saw_b.load());
  EXPECT_TRUE(b_saw_a.load());
}

TEST(ShardedExecutorLanesTest, JoinRethrowsAfterStartedJobsFinish) {
  util::ThreadPool pool(4);
  ShardedExecutor exec(&pool);
  std::atomic<bool> slow_started{false};
  std::atomic<bool> slow_finished{false};
  std::atomic<bool> after_failure_ran{false};
  ShardedExecutor::Lanes lanes(exec);
  lanes.post(1, [&slow_started, &slow_finished] {
    slow_started.store(true);
    std::this_thread::sleep_for(std::chrono::milliseconds(30));
    slow_finished.store(true);
  });
  lanes.post(0, [&slow_started] {
    (void)wait_for(slow_started);
    throw std::runtime_error("lane 0 failed");
  });
  // Queued behind the failure on the same lane: never started.
  lanes.post(ShardedExecutor::kLanes, [&after_failure_ran] {
    after_failure_ran.store(true);
  });
  EXPECT_THROW(lanes.join(), std::runtime_error);
  EXPECT_TRUE(slow_started.load());
  EXPECT_TRUE(slow_finished.load());
  EXPECT_FALSE(after_failure_ran.load());
  lanes.join();  // the failure was reported once
}

TEST(ShardedExecutorLanesTest, DestructorWaitsForStartedJobs) {
  util::ThreadPool pool(2);
  ShardedExecutor exec(&pool);
  std::atomic<bool> started{false};
  std::atomic<bool> finished{false};
  {
    ShardedExecutor::Lanes lanes(exec);
    lanes.post(3, [&started, &finished] {
      started.store(true);
      std::this_thread::sleep_for(std::chrono::milliseconds(30));
      finished.store(true);
    });
    ASSERT_TRUE(wait_for(started));
    // Leaves scope without join(), as an exception path does.
  }
  EXPECT_TRUE(finished.load());
}

TEST(ShardedExecutorLanesTest, NullOrOneThreadPoolRunsEachJobInline) {
  util::ThreadPool one(1);
  ShardedExecutor null_exec(nullptr);
  ShardedExecutor one_exec(&one);
  for (ShardedExecutor* exec : {&null_exec, &one_exec}) {
    ShardedExecutor::Lanes lanes(*exec);
    std::vector<int> order;
    std::thread::id ran_on;
    lanes.post(5, [&order, &ran_on] {
      order.push_back(5);
      ran_on = std::this_thread::get_id();
    });
    // Ran at once, on this thread, before any join.
    EXPECT_EQ(order, std::vector<int>{5});
    EXPECT_EQ(ran_on, std::this_thread::get_id());
    lanes.post(2, [&order] { order.push_back(2); });
    EXPECT_EQ(order, (std::vector<int>{5, 2}));
    EXPECT_THROW(lanes.post(0, [] { throw std::runtime_error("inline"); }),
                 std::runtime_error);
    lanes.join();
  }
}

// --- Full-pipeline determinism: the acceptance test for the engine. ---

/// FNV-1a over every observable the pipeline's sinks accumulate. Two runs
/// with identical streams hash identically; any reordering, dropped event,
/// or float-accumulation divergence changes it.
struct Fingerprint {
  std::uint64_t hash = 1469598103934665603ULL;
  std::uint64_t items = 0;

  void mix(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      hash ^= (v >> (8 * i)) & 0xff;
      hash *= 1099511628211ULL;
    }
    ++items;
  }
  void mix_double(double d) { mix(std::bit_cast<std::uint64_t>(d)); }

  friend bool operator==(const Fingerprint&, const Fingerprint&) = default;
};

void mix_flows(Fingerprint& fp, const telemetry::FlowCollector& vantage) {
  fp.mix(vantage.flows().size());
  for (const auto& f : vantage.flows()) {
    fp.mix(f.src.value());
    fp.mix(f.dst.value());
    fp.mix(f.src_port);
    fp.mix(f.dst_port);
    fp.mix(f.protocol);
    fp.mix(f.ttl);
    fp.mix(f.packets);
    fp.mix(f.bytes);
    fp.mix(f.payload_bytes);
    fp.mix(static_cast<std::uint64_t>(f.first));
    fp.mix(static_cast<std::uint64_t>(f.last));
  }
}

/// Every detailed server's monitor table, dumped at the end of the horizon.
/// Nothing else in a regional window reads the tables, so this is what pins
/// each table's write order across job counts.
void mix_tables(Fingerprint& fp, const sim::World& world) {
  constexpr util::SimTime kDumpAt = 181 * util::kSecondsPerDay;
  for (std::uint32_t i = 0; i < world.servers().size(); ++i) {
    const ntp::NtpServer* server = world.detailed(i);
    if (server == nullptr) continue;
    const auto entries = server->monitor().dump(kDumpAt, net::Ipv4Address{});
    fp.mix(i);
    fp.mix(entries.size());
    for (const auto& e : entries) {
      fp.mix(e.address.value());
      fp.mix(e.avg_interval);
      fp.mix(e.last_seen);
      fp.mix(e.count);
      fp.mix(e.port);
      fp.mix(e.mode);
      fp.mix(e.version);
    }
  }
}

Fingerprint run_pipeline(int jobs) {
  bench::Options opt;
  opt.scale = 400;
  opt.quick = true;
  opt.jobs = jobs;
  bench::StudyPipeline pipeline(opt, /*with_vantages=*/true,
                                /*with_darknet=*/true);
  pipeline.run();

  Fingerprint fp;
  fp.mix(pipeline.summaries.size());
  for (const auto& s : pipeline.summaries) {
    fp.mix(static_cast<std::uint64_t>(s.week));
    fp.mix(static_cast<std::uint64_t>(util::days_from_civil(s.date)));
    fp.mix(s.probes_sent);
    fp.mix(s.responders);
    fp.mix(s.error_replies);
    fp.mix(s.probes_lost);
    fp.mix(s.retries);
    fp.mix(s.truncated_tables);
    fp.mix(s.rate_limited);
  }
  for (int day = 0; day < pipeline.global->horizon_days(); ++day) {
    for (int p = 0; p < 5; ++p) {
      fp.mix_double(pipeline.global->bytes(
          day, static_cast<telemetry::ProtocolClass>(p)));
    }
  }
  fp.mix(pipeline.labels->attacks().size());
  for (const auto& a : pipeline.labels->attacks()) {
    fp.mix(static_cast<std::uint64_t>(a.start));
    fp.mix(static_cast<std::uint64_t>(a.vector));
    fp.mix_double(a.peak_bps);
  }
  mix_flows(fp, *pipeline.merit);
  mix_flows(fp, *pipeline.frgp);
  mix_flows(fp, *pipeline.csu);
  fp.mix(pipeline.darknet->total_packets());
  for (const auto& [day, scanners] : pipeline.darknet->unique_scanners_per_day()) {
    fp.mix(static_cast<std::uint64_t>(day));
    fp.mix(scanners);
  }
  mix_tables(fp, *pipeline.world);
  return fp;
}

TEST(ShardedPipelineTest, ByteIdenticalAcrossShardCounts) {
  const Fingerprint k1 = run_pipeline(1);
  EXPECT_GT(k1.items, 0u);
  const Fingerprint k2 = run_pipeline(2);
  const Fingerprint k7 = run_pipeline(7);
  EXPECT_EQ(k1, k2);
  EXPECT_EQ(k1, k7);
}

TEST(ShardedPipelineTest, RepeatedRunsAtSameShardCountAgree) {
  EXPECT_EQ(run_pipeline(7), run_pipeline(7));
}

// --- Attack-day shards: the §3d pin for AttackEngine::run_days. ---

/// What one attack-window run leaves behind: the sinks' observables, and
/// the monitor tables (untouched under replay, which simulates nothing).
struct WindowRun {
  Fingerprint sinks;
  Fingerprint tables;
};

/// Runs the peak-fortnight attack window (attacks + scans, darknet and all
/// three vantages) through the regional harness shape on a K-job executor
/// and fingerprints every downstream observable. The regional shape has no
/// prober, so any divergence here is the day-shard path itself. `record`
/// and `replay` are the harness's --record/--replay paths.
WindowRun run_attack_window(int jobs, const std::string& record = "",
                            const std::string& replay = "") {
  bench::Options opt;
  opt.scale = 400;
  opt.jobs = jobs;
  opt.record = record;
  opt.replay = replay;
  bench::StudyPipeline run(opt, {95, 109}, /*with_darknet=*/true);
  run.run();

  Fingerprint fp;
  for (int day = 0; day < run.global->horizon_days(); ++day) {
    for (int p = 0; p < 5; ++p) {
      fp.mix_double(
          run.global->bytes(day, static_cast<telemetry::ProtocolClass>(p)));
    }
  }
  fp.mix(run.labels->attacks().size());
  for (const auto& a : run.labels->attacks()) {
    fp.mix(static_cast<std::uint64_t>(a.start));
    fp.mix(static_cast<std::uint64_t>(a.vector));
    fp.mix_double(a.peak_bps);
  }
  mix_flows(fp, *run.merit);
  mix_flows(fp, *run.frgp);
  mix_flows(fp, *run.csu);
  fp.mix(run.darknet->total_packets());
  for (const auto& [day, scanners] : run.darknet->unique_scanners_per_day()) {
    fp.mix(static_cast<std::uint64_t>(day));
    fp.mix(scanners);
  }
  Fingerprint tables;
  mix_tables(tables, *run.world);
  return {fp, tables};
}

TEST(ShardedPipelineTest, AttackDayShardsByteIdenticalAcrossJobCounts) {
  // The K=1 run records its window; the regional (kind 1) artifact replays
  // to the live sink fingerprint at decode jobs 1 and 3. The live runs'
  // monitor tables match too.
  const std::string path = testing::TempDir() + "attack_window.gorcol";
  const WindowRun k1 = run_attack_window(1, path);
  EXPECT_GT(k1.sinks.items, 0u);
  EXPECT_GT(k1.tables.items, 0u);
  for (const int jobs : {2, 7}) {
    const WindowRun run = run_attack_window(jobs);
    EXPECT_EQ(k1.sinks, run.sinks) << "jobs " << jobs;
    EXPECT_EQ(k1.tables, run.tables) << "jobs " << jobs;
  }
  EXPECT_EQ(k1.sinks, run_attack_window(1, "", path).sinks);
  EXPECT_EQ(k1.sinks, run_attack_window(3, "", path).sinks);
  std::remove(path.c_str());
}

TEST(ShardedPipelineTest, AttackDayShardsStableAcrossRepeatRuns) {
  const WindowRun a = run_attack_window(7);
  const WindowRun b = run_attack_window(7);
  EXPECT_EQ(a.sinks, b.sinks);
  EXPECT_EQ(a.tables, b.tables);
}

}  // namespace
}  // namespace gorilla::sim
