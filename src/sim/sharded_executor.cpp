#include "sim/sharded_executor.h"

#include <utility>

namespace gorilla::sim {

void ShardedExecutor::Lanes::post(std::size_t key, std::function<void()> job) {
  if (pool_ == nullptr) {
    job();
    return;
  }
  const std::size_t lane = key % kLanes;
  {
    const std::lock_guard<std::mutex> lock(mu_);
    lanes_[lane].queue.push_back(std::move(job));
    if (lanes_[lane].running) return;  // its drain job will reach this one
    lanes_[lane].running = true;
    ++running_;
  }
  pool_->submit([this, lane] { drain(lane); });
}

void ShardedExecutor::Lanes::drain(std::size_t lane) {
  for (;;) {
    std::function<void()> job;
    {
      const std::lock_guard<std::mutex> lock(mu_);
      auto& queue = lanes_[lane].queue;
      if (queue.empty() || error_ != nullptr) {
        queue.clear();  // after a failure, jobs not yet started never run
        lanes_[lane].running = false;
        if (--running_ == 0) idle_.notify_all();
        return;
      }
      job = std::move(queue.front());
      queue.pop_front();
    }
    try {
      job();
    } catch (...) {
      const std::lock_guard<std::mutex> lock(mu_);
      if (error_ == nullptr) error_ = std::current_exception();
    }
  }
}

void ShardedExecutor::Lanes::wait_idle() {
  std::unique_lock<std::mutex> lock(mu_);
  idle_.wait(lock, [this] { return running_ == 0; });
}

void ShardedExecutor::Lanes::join() {
  wait_idle();
  std::exception_ptr error;
  {
    const std::lock_guard<std::mutex> lock(mu_);
    std::swap(error, error_);
  }
  if (error != nullptr) std::rethrow_exception(error);
}

}  // namespace gorilla::sim
