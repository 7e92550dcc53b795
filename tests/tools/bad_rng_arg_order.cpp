// gorilla_lint self-test fixture: must trip exactly [rng-arg-order], on the
// marked lines.
// Not compiled into any target — scanned by `gorilla_lint --self-test`.
//
// C++ leaves the evaluation order of a call's arguments unspecified, so two
// arguments that draw from one stream make the stream order (and every
// seeded byte after it) the compiler's choice. A draw is a member call on
// an rng-named identifier, or passing one whole into a nested call. The
// sequenced draws, the single-draw calls, the plain pass-through and the
// deferred lambda below must NOT be reported.
#include <cstdint>

namespace fixture {

struct Rng {
  std::uint64_t next() { return 7; }
  double uniform01() { return 0.5; }
};

inline int sample_stratum(Rng& rng) { return static_cast<int>(rng.next()); }
inline int sample_year(Rng& rng) { return static_cast<int>(rng.next()); }
inline double mix(double a, double b) { return a + b; }
inline int pick(int year, int stratum, Rng& rng) {
  return year + stratum + static_cast<int>(rng.next());
}
template <typename Fn>
inline double later(double a, Fn fn) {
  return a + fn();
}

struct Server {
  Rng* rng_;
  double jitter() { return mix(rng_->uniform01(), rng_->uniform01()); }  // LINT-EXPECT[rng-arg-order]
};

inline double unsequenced(Rng& rng, Rng& detail_rng) {
  const double a = mix(rng.uniform01(), 1.0);
  const int b = pick(sample_year(detail_rng),  // LINT-EXPECT[rng-arg-order]
                     sample_stratum(detail_rng), detail_rng);
  return a + b + mix(static_cast<double>(rng.next()), rng.uniform01());  // LINT-EXPECT[rng-arg-order]
}

inline double sequenced(Rng& rng) {
  const int stratum = sample_stratum(rng);
  const int year = sample_year(rng);
  const double u = rng.uniform01();
  return pick(year, stratum, rng) + mix(u, rng.uniform01()) +
         later(rng.uniform01(), [&rng] { return rng.uniform01(); });
}

}  // namespace fixture
