#include "sim/sharded_executor.h"

#include <algorithm>

namespace gorilla::sim {

void ShardedExecutor::parallel_for(
    std::size_t n, std::size_t chunk_size,
    const std::function<void(std::size_t, std::size_t)>& fn) {
  const std::size_t chunk = chunk_size == 0 ? 1 : chunk_size;
  const std::size_t shards = (n + chunk - 1) / chunk;
  const auto shard = [&fn, n, chunk](std::size_t s) {
    const std::size_t b = s * chunk;
    run_shard(fn, b, std::min(n, b + chunk));
  };
  if (pool_ == nullptr) {
    for (std::size_t s = 0; s < shards; ++s) shard(s);
    return;
  }
  pool_->parallel_for(shards, shard);
}

}  // namespace gorilla::sim
