#include "util/thread_pool.h"

#include <algorithm>
#include <exception>
#include <utility>

namespace gorilla::util {

ThreadPool::ThreadPool(int threads) {
  const int n = std::max(1, threads);
  workers_.reserve(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    const std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  cv_.notify_all();
  for (auto& w : workers_) w.join();
}

void ThreadPool::submit(std::function<void()> job) {
  {
    const std::lock_guard<std::mutex> lock(mu_);
    queue_.push_back(std::move(job));
  }
  cv_.notify_one();
}

void ThreadPool::parallel_for(std::size_t n,
                              const std::function<void(std::size_t)>& fn) {
  if (size() <= 1) {
    for (std::size_t i = 0; i < n; ++i) fn(i);
    return;
  }
  // Join state on this frame; the wait below outlives every job.
  struct Join {
    std::mutex mu;
    std::condition_variable done;
    std::size_t pending = 0;
    std::size_t failed = 0;  ///< lowest failing index so far (n = none)
    std::exception_ptr error;
  } join;
  join.pending = n;
  join.failed = n;
  for (std::size_t i = 0; i < n; ++i) {
    submit([&fn, &join, i] {
      bool skip = false;
      {
        const std::lock_guard<std::mutex> lock(join.mu);
        skip = i > join.failed;
      }
      std::exception_ptr error;
      if (!skip) {
        try {
          fn(i);
        } catch (...) {
          error = std::current_exception();
        }
      }
      const std::lock_guard<std::mutex> lock(join.mu);
      if (error != nullptr && i < join.failed) {
        join.failed = i;
        join.error = error;
      }
      // The join's own completion count, held under mu — not job output.
      if (--join.pending == 0) join.done.notify_one();  // NOLINT(shard-mutation)
    });
  }
  std::unique_lock<std::mutex> lock(join.mu);
  join.done.wait(lock, [&join] { return join.pending == 0; });
  if (join.error != nullptr) std::rethrow_exception(join.error);
}

void ThreadPool::worker_loop() {
  for (;;) {
    std::function<void()> job;
    {
      std::unique_lock<std::mutex> lock(mu_);
      cv_.wait(lock, [this] { return stop_ || !queue_.empty(); });
      if (queue_.empty()) return;  // stop_ set and nothing left to run
      job = std::move(queue_.front());
      queue_.pop_front();
    }
    job();
  }
}

}  // namespace gorilla::util
