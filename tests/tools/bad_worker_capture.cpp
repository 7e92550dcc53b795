// gorilla_lint self-test fixture: must trip exactly [worker-capture], on
// the three marked lines.
//
// The worker lambdas handed to parallel_for, submit and a lane post use
// blanket [&] captures, so the racy folds over `total` are invisible at
// the call sites — the rule demands every capture be spelled out
// (DESIGN.md §3d rule 2). The lane post's subscripted key must not hide
// the lambda behind it.
#include <cstddef>
#include <vector>

namespace fixture {

struct Executor {
  template <typename Fn>
  void parallel_for(std::size_t n, std::size_t chunk, Fn fn) {
    for (std::size_t b = 0; b < n; b += chunk) {
      const std::size_t e = b + chunk < n ? b + chunk : n;
      fn(b, e);
    }
  }
};

struct Pool {
  template <typename Fn>
  void submit(Fn fn) {
    fn();
  }
};

struct Lanes {
  template <typename Fn>
  void post(std::size_t /*key*/, Fn fn) {
    fn();
  }
};

inline long sum_in_parallel(Executor& executor, const std::vector<long>& xs) {
  long total = 0;
  executor.parallel_for(xs.size(), 64, [&](std::size_t begin, std::size_t end) {  // LINT-EXPECT[worker-capture]
    for (std::size_t i = begin; i < end; ++i) total += xs[i];
  });
  return total;
}

inline long sum_via_pool(Pool& pool, const std::vector<long>& xs) {
  long total = 0;
  pool.submit([&] {  // LINT-EXPECT[worker-capture]
    for (const long x : xs) total += x;
  });
  return total;
}

inline long sum_via_lanes(Lanes& lanes, const std::vector<std::size_t>& keys,
                          const std::vector<long>& xs) {
  long total = 0;
  lanes.post(keys[0], [&] {  // LINT-EXPECT[worker-capture]
    for (const long x : xs) total += x;
  });
  return total;
}

}  // namespace fixture
