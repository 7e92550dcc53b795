// A fixed-size worker pool for the sharded study engine.
//
// The pool is deliberately dumb: it runs opaque jobs in submission order on
// N OS threads and knows nothing about determinism. All ordering guarantees
// live one layer up in sim::ShardedExecutor, which slices work into
// fixed-size chunks and merges results on the calling thread in canonical
// chunk order — the pool only supplies the concurrency.
//
// parallel_for() is the blocking "submit N jobs and wait" join; its one
// caller is gorilla_lint's two per-file phases.
// Each index runs at most once and no job is ever retried. post() is the
// one-job form with a result: the GORCOLv3 codec worker, a one-thread pool,
// compresses and decodes blocks through it (util/columnar.h).
#pragma once

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <thread>
#include <type_traits>
#include <utility>
#include <vector>

namespace gorilla::util {

class ThreadPool {
 public:
  /// Spawns `threads` workers (clamped to >= 1).
  explicit ThreadPool(int threads);

  /// Drains nothing: outstanding jobs run to completion, then workers exit.
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Enqueues a job; runs on some worker after all earlier jobs started.
  void submit(std::function<void()> job);

  /// submit() for a job with a result, returned through the future. The
  /// future does not wait when it is destroyed: a caller that lends the
  /// job anything must wait for it before the loan ends.
  template <class Fn>
  [[nodiscard]] std::future<std::invoke_result_t<Fn&>> post(Fn job) {
    using Result = std::invoke_result_t<Fn&>;
    auto task = std::make_shared<std::packaged_task<Result()>>(std::move(job));
    std::future<Result> result = task->get_future();
    submit([task] { (*task)(); });
    return result;
  }

  /// Runs fn(i) for every i in [0, n) and blocks until all of them have
  /// finished; inline on the calling thread when size() <= 1. When jobs
  /// throw, indices above the lowest failure seen so far are skipped, every
  /// started job still finishes (jobs reference `fn` and its captures), and
  /// then the lowest failing index's exception is rethrown. Must not be
  /// called from one of this pool's own workers.
  void parallel_for(std::size_t n, const std::function<void(std::size_t)>& fn);

  [[nodiscard]] int size() const noexcept {
    return static_cast<int>(workers_.size());
  }

  /// Hardware concurrency with a sane floor (hardware_concurrency() may
  /// legally return 0).
  [[nodiscard]] static int default_threads() noexcept {
    const unsigned hw = std::thread::hardware_concurrency();
    return hw == 0 ? 1 : static_cast<int>(hw);
  }

 private:
  void worker_loop();

  std::vector<std::thread> workers_;
  std::deque<std::function<void()>> queue_;
  std::mutex mu_;
  std::condition_variable cv_;
  bool stop_ = false;
};

}  // namespace gorilla::util
