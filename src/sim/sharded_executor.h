// Deterministic sharded execution for the study engine.
//
// The executor partitions an index range into FIXED-SIZE shards (chunks)
// and walks them on a worker pool. The determinism-merge contract
// (DESIGN.md §3d) is what makes the parallel engine bit-for-bit identical
// to the sequential one for any worker count:
//
//   1. the shard boundaries depend only on (n, chunk_size) — never on the
//      number of workers — so every K produces the same shard set;
//   2. produce() must be a pure function of its [begin, end) range: it may
//      read shared immutable state (the World's trait tables, hash-based
//      weekly draws) and mutate only state owned by servers inside the
//      range (their monitor tables);
//   3. results are consumed on the CALLING thread in ascending shard order
//      — the canonical sorted reduction. Order-sensitive reductions
//      (visitor streams, float accumulation) therefore see exactly the
//      sequential order.
//
//   4. keyed writes may leave the calling thread through apply Lanes: every
//      write to a key's state is posted to that key's lane in sequential
//      order, and the lanes join before anything reads that state.
//
// With jobs() <= 1 everything runs inline on the calling thread, which IS
// the sequential engine — K=1 reproduces the seed by construction, and the
// shard-invariance tests pin K>1 to that same byte stream.
//
// gorilla_lint's `worker-capture` rule rejects `[&]` capture on the worker
// lambda handed to run_ordered() or Lanes::post(): captures must be spelled
// out so a reviewer can check rule 2 at the call site.
#pragma once

#include <array>
#include <condition_variable>
#include <cstddef>
#include <deque>
#include <exception>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <type_traits>
#include <utility>
#include <vector>

#include "util/fault.h"
#include "util/thread_pool.h"

namespace gorilla::sim {

class ShardedExecutor {
 public:
  /// A null pool (or a 1-thread pool) selects the inline sequential path.
  explicit ShardedExecutor(util::ThreadPool* pool) noexcept : pool_(pool) {}

  [[nodiscard]] int jobs() const noexcept {
    return pool_ == nullptr ? 1 : pool_->size();
  }

  /// Shards run_ordered() keeps in flight on a multi-job pool, the one
  /// being consumed included: one per worker plus two, so the workers stay
  /// busy while the calling thread consumes, and at most this many results
  /// are held at once, finished or not, when consume() is the slower side.
  [[nodiscard]] std::size_t window() const noexcept {
    return static_cast<std::size_t>(jobs()) + 2;
  }

  /// Ordered map/reduce over [0, n): produce(begin, end) runs on workers,
  /// consume(result) runs on the calling thread in ascending shard order,
  /// with at most window() shards in flight. Each shard runs exactly once.
  /// A throwing shard or consume aborts the run: the first failure in
  /// shard order re-throws here, and only after every in-flight task has
  /// finished (they reference `produce` and its captures, which must
  /// outlive them).
  template <typename Produce, typename Consume>
  void run_ordered(std::size_t n, std::size_t chunk_size, Produce produce,
                   Consume consume) {
    using Result = std::invoke_result_t<Produce&, std::size_t, std::size_t>;
    const std::size_t chunk = chunk_size == 0 ? 1 : chunk_size;
    if (jobs() <= 1) {
      for (std::size_t b = 0; b < n; b += chunk) {
        const std::size_t e = std::min(n, b + chunk);
        consume(run_shard(produce, b, e));
      }
      return;
    }
    const std::size_t limit = window();
    std::deque<std::future<Result>> inflight;
    std::size_t next = 0;
    const auto submit_one = [&] {
      const std::size_t b = next;
      const std::size_t e = std::min(n, b + chunk);
      next = e;
      auto task = std::make_shared<std::packaged_task<Result()>>(
          [&produce, b, e] { return run_shard(produce, b, e); });
      inflight.push_back(task->get_future());
      pool_->submit([task] { (*task)(); });
    };
    while (next < n && inflight.size() < limit) submit_one();
    while (!inflight.empty()) {
      std::future<Result> front = std::move(inflight.front());
      inflight.pop_front();
      std::exception_ptr error;
      try {
        consume(front.get());
      } catch (...) {
        error = std::current_exception();
      }
      if (error != nullptr) {
        // Drain every in-flight task before unwinding: workers still hold
        // references to `produce` and its captures, which live on this
        // stack frame — rethrowing with tasks in flight is a use-after-
        // scope on the worker threads. The earliest failure wins (shard
        // order); later failures die with their futures.
        for (auto& pending : inflight) pending.wait();
        inflight.clear();
        std::rethrow_exception(error);
      }
      // Refill only once the result is consumed, so that no more than
      // window() results exist at any time.
      if (next < n) submit_one();
    }
  }

  /// Lanes per Lanes object: a constant, so which writes share a lane never
  /// depends on the worker count.
  static constexpr std::size_t kLanes = 16;

  /// Keyed apply lanes (contract rule 4). post(key, job) queues `job` on
  /// lane key % kLanes; each lane runs its jobs one at a time in post
  /// order on the executor's pool, and different lanes run concurrently.
  /// Writes to state owned by one key, posted in sequential order, thus
  /// land in sequential order. With a null or 1-thread pool post() runs the
  /// job inline at once (the sequential engine). A throwing job stops its
  /// lane and the jobs not yet started; join() waits for every started job
  /// and then rethrows the first failure. The destructor waits too (an
  /// exception path), so jobs may reference the posting frame.
  class Lanes {
   public:
    explicit Lanes(const ShardedExecutor& executor) noexcept
        : pool_(executor.jobs() <= 1 ? nullptr : executor.pool_) {}
    ~Lanes() { wait_idle(); }

    Lanes(const Lanes&) = delete;
    Lanes& operator=(const Lanes&) = delete;

    void post(std::size_t key, std::function<void()> job);
    /// Blocks until every posted job has run; rethrows the first failure.
    void join();

   private:
    struct Lane {
      std::deque<std::function<void()>> queue;
      bool running = false;  ///< a drain job is submitted or running
    };

    void drain(std::size_t lane);
    void wait_idle();

    util::ThreadPool* pool_;  ///< null = inline
    std::mutex mu_;
    std::condition_variable idle_;
    std::array<Lane, kLanes> lanes_;
    std::size_t running_ = 0;  ///< lanes with a drain job in flight
    std::exception_ptr error_;
  };

 private:
  /// Runs one shard. The fault hook fires first, so an injected
  /// `shard-throw` is indistinguishable from a produce() failure — exactly
  /// what the harness is for.
  template <typename Produce>
  static std::invoke_result_t<Produce&, std::size_t, std::size_t> run_shard(
      Produce& produce, std::size_t begin, std::size_t end) {
    util::FaultPlan::on_shard_attempt();
    return produce(begin, end);
  }

  util::ThreadPool* pool_;
};

}  // namespace gorilla::sim
