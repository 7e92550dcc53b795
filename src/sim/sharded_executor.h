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
// With jobs() <= 1 everything runs inline on the calling thread, which IS
// the sequential engine — K=1 reproduces the seed by construction, and the
// shard-invariance tests pin K>1 to that same byte stream.
//
// gorilla_lint's `worker-capture` rule rejects `[&]` capture on the worker
// lambda handed to run_ordered()/parallel_for(): captures must be spelled
// out so a reviewer can check rule 2 at the call site.
#pragma once

#include <cstddef>
#include <deque>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "util/fault.h"
#include "util/thread_pool.h"

namespace gorilla::sim {

/// One shard that exhausted its retry budget: which index range, how many
/// attempts were burned, and the final error text. Collected in the
/// executor's quarantine list so a long run's operator (or a future
/// distributed scheduler) can see exactly which (seed, range) cell is
/// poison instead of just "the run died".
struct ShardFailure {
  std::size_t index = 0;  ///< shard ordinal within its run_ordered call
  std::size_t begin = 0;
  std::size_t end = 0;
  int attempts = 0;
  std::string error;
};

class ShardedExecutor {
 public:
  /// A null pool (or a 1-thread pool) selects the inline sequential path.
  explicit ShardedExecutor(util::ThreadPool* pool) noexcept : pool_(pool) {}

  [[nodiscard]] int jobs() const noexcept {
    return pool_ == nullptr ? 1 : pool_->size();
  }

  /// Per-shard retry budget (default 3 attempts). Because produce() is pure
  /// in its range (contract rule 2), re-running a failed shard is invisible
  /// in the output: a transient failure heals with bit-identical results
  /// for any worker count. Values < 1 clamp to 1 (no retry).
  void set_max_attempts(int n) noexcept { max_attempts_ = n < 1 ? 1 : n; }
  [[nodiscard]] int max_attempts() const noexcept { return max_attempts_; }

  /// Shards that exhausted every attempt since the last clear_quarantine().
  /// Such a shard still aborts its run (skipping it would change the output
  /// stream); the list exists so the failure is attributable and a re-run
  /// can be steered around or re-provisioned.
  [[nodiscard]] std::vector<ShardFailure> quarantined() const;
  void clear_quarantine();

  /// Ordered map/reduce over [0, n): produce(begin, end) runs on workers,
  /// consume(result) runs on the calling thread in ascending shard order.
  /// Each shard gets up to max_attempts() tries (transient failures retry
  /// the same pure range and stay invisible); a shard that exhausts them is
  /// quarantined and its LAST exception re-throws here, in shard order, and
  /// only after every in-flight task has finished (they reference `produce`
  /// and its captures, which must outlive them).
  template <typename Produce, typename Consume>
  void run_ordered(std::size_t n, std::size_t chunk_size, Produce produce,
                   Consume consume) {
    using Result = std::invoke_result_t<Produce&, std::size_t, std::size_t>;
    const std::size_t chunk = chunk_size == 0 ? 1 : chunk_size;
    if (jobs() <= 1) {
      for (std::size_t b = 0; b < n; b += chunk) {
        const std::size_t e = std::min(n, b + chunk);
        consume(run_shard_with_retry(produce, b / chunk, b, e));
      }
      return;
    }
    // Bounded in-flight window: keeps every worker busy while capping the
    // buffered results the ordered merge may have to hold.
    const auto window = static_cast<std::size_t>(jobs()) * 3;
    std::deque<std::future<Result>> inflight;
    std::size_t next = 0;
    const auto submit_one = [&] {
      const std::size_t b = next;
      const std::size_t e = std::min(n, b + chunk);
      const std::size_t index = b / chunk;
      next = e;
      auto task = std::make_shared<std::packaged_task<Result()>>(
          [this, &produce, index, b, e] {
            return run_shard_with_retry(produce, index, b, e);
          });
      inflight.push_back(task->get_future());
      pool_->submit([task] { (*task)(); });
    };
    while (next < n && inflight.size() < window) submit_one();
    while (!inflight.empty()) {
      std::optional<Result> result;
      std::exception_ptr error;
      try {
        result.emplace(inflight.front().get());
      } catch (...) {
        error = std::current_exception();
      }
      inflight.pop_front();
      if (error != nullptr) {
        // Drain every in-flight task before unwinding: workers still hold
        // references to `produce` and its captures, which live on this
        // stack frame — rethrowing with tasks in flight is a use-after-
        // scope on the worker threads. The earliest shard's exception wins
        // (shard order); later failures die with their futures.
        for (auto& pending : inflight) pending.wait();
        inflight.clear();
        std::rethrow_exception(error);
      }
      if (next < n) submit_one();  // refill before the (serial) consume
      consume(std::move(*result));
    }
  }

  /// Unordered parallel apply over [0, n): fn(begin, end) per shard, no
  /// result. The caller guarantees shards mutate disjoint state (contract
  /// rule 2); use run_ordered() when anything order-sensitive is reduced.
  /// Blocks until every shard ran; the first exception re-throws here.
  void parallel_for(std::size_t n, std::size_t chunk_size,
                    const std::function<void(std::size_t, std::size_t)>& fn);

 private:
  /// Runs one shard with the bounded retry policy. The fault hook fires
  /// before every attempt, so an injected `shard-throw` is indistinguishable
  /// from a produce() failure — exactly what the harness is for.
  template <typename Produce>
  std::invoke_result_t<Produce&, std::size_t, std::size_t> run_shard_with_retry(
      Produce& produce, std::size_t index, std::size_t begin, std::size_t end) {
    const int cap = max_attempts_;
    for (int attempt = 1;; ++attempt) {
      try {
        util::FaultPlan::on_shard_attempt();
        return produce(begin, end);
      } catch (const std::exception& ex) {
        if (attempt >= cap) {
          note_quarantine({index, begin, end, attempt, ex.what()});
          throw;
        }
      } catch (...) {
        if (attempt >= cap) {
          note_quarantine({index, begin, end, attempt, "unknown exception"});
          throw;
        }
      }
    }
  }

  void note_quarantine(ShardFailure failure);

  util::ThreadPool* pool_;
  int max_attempts_ = 3;
  mutable std::mutex quarantine_mutex_;
  std::vector<ShardFailure> quarantined_;
};

}  // namespace gorilla::sim
