// Deterministic random-number generation for the simulation.
//
// Everything in the reproduction is seeded: the same seed must produce the
// same world, the same scans, and byte-identical bench output. We therefore
// avoid std::mt19937 + libstdc++ distributions (whose results are not
// specified across versions) and implement xoshiro256** plus the handful of
// distributions the population models need.
#pragma once

#include <array>
#include <cmath>
#include <cstdint>
#include <span>
#include <vector>

namespace gorilla::util {

/// The splitmix64 increment (2^64 / golden ratio, rounded to odd).
inline constexpr std::uint64_t kSplitmixGamma = 0x9e3779b97f4a7c15ULL;

/// One splitmix64 step from state `x`: advance by kSplitmixGamma, then
/// finalize. A stateless 64-bit hash, used both to seed
/// Rng and for the pure per-(seed, id, day) draws in sim and telemetry.
/// Inline: World::stable_uniform calls it once per probe target.
[[nodiscard]] constexpr std::uint64_t mix64(std::uint64_t x) noexcept {
  x += kSplitmixGamma;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

/// xoshiro256** 1.0 (Blackman & Vigna), seeded via splitmix64.
class Rng {
 public:
  explicit Rng(std::uint64_t seed = kDefaultSeed) noexcept { reseed(seed); }

  /// Default seed shared by tests and benches ("800 lb" in hex-ish homage).
  static constexpr std::uint64_t kDefaultSeed = 0x800'1b;

  /// State word i is mix64(seed + i * kSplitmixGamma): the splitmix64
  /// sequence from `seed`.
  void reseed(std::uint64_t seed) noexcept {
    for (std::uint64_t i = 0; i < state_.size(); ++i) {
      state_[i] = mix64(seed + i * kSplitmixGamma);
    }
  }

  [[nodiscard]] std::uint64_t next() noexcept {
    const std::uint64_t result = rotl(state_[1] * 5, 7) * 9;
    // xoshiro256** state mixing, not wire-format decoding.
    const std::uint64_t t = state_[1] << 17;  // NOLINT(raw-decode)
    state_[2] ^= state_[0];
    state_[3] ^= state_[1];
    state_[1] ^= state_[2];
    state_[0] ^= state_[3];
    state_[2] ^= t;
    state_[3] = rotl(state_[3], 45);
    return result;
  }

  /// Uniform in [0, n). Debiased via rejection; n must be > 0.
  [[nodiscard]] std::uint64_t uniform(std::uint64_t n) noexcept {
    const std::uint64_t threshold = -n % n;
    for (;;) {
      const std::uint64_t r = next();
      if (r >= threshold) return r % n;
    }
  }

  /// Uniform integer in [lo, hi] inclusive.
  [[nodiscard]] std::int64_t uniform_int(std::int64_t lo, std::int64_t hi) noexcept {
    return lo + static_cast<std::int64_t>(
                    uniform(static_cast<std::uint64_t>(hi - lo) + 1));
  }

  /// Uniform double in [0, 1).
  [[nodiscard]] double uniform01() noexcept {
    return static_cast<double>(next() >> 11) * 0x1.0p-53;
  }

  /// Uniform double in [lo, hi).
  [[nodiscard]] double uniform_real(double lo, double hi) noexcept {
    return lo + (hi - lo) * uniform01();
  }

  /// Bernoulli trial with probability p.
  [[nodiscard]] bool chance(double p) noexcept { return uniform01() < p; }

  /// Standard normal via Box–Muller (one value per call; simple and exact
  /// enough for population modelling).
  [[nodiscard]] double normal() noexcept {
    double u1 = uniform01();
    while (u1 <= 0.0) u1 = uniform01();
    const double u2 = uniform01();
    return std::sqrt(-2.0 * std::log(u1)) * std::cos(6.283185307179586 * u2);
  }

  /// Log-normal with parameters of the underlying normal.
  [[nodiscard]] double lognormal(double mu, double sigma) noexcept {
    return std::exp(mu + sigma * normal());
  }

  /// Exponential with the given mean (mean > 0).
  [[nodiscard]] double exponential(double mean) noexcept {
    double u = uniform01();
    while (u <= 0.0) u = uniform01();
    return -mean * std::log(u);
  }

  /// Pareto (Lomax-free, classic) with scale xm > 0 and shape alpha > 0.
  /// Heavy-tailed: used for attack sizes and per-amplifier response volume.
  [[nodiscard]] double pareto(double xm, double alpha) noexcept {
    double u = uniform01();
    while (u <= 0.0) u = uniform01();
    return xm / std::pow(u, 1.0 / alpha);
  }

  /// Poisson with small-to-moderate mean (inversion by sequential search for
  /// lambda <= 30, normal approximation above).
  [[nodiscard]] std::uint64_t poisson(double lambda) noexcept {
    if (lambda <= 0.0) return 0;
    if (lambda > 30.0) {
      const double v = lambda + std::sqrt(lambda) * normal();
      return v <= 0.0 ? 0 : static_cast<std::uint64_t>(v + 0.5);
    }
    const double l = std::exp(-lambda);
    std::uint64_t k = 0;
    double p = 1.0;
    do {
      ++k;
      p *= uniform01();
    } while (p > l);
    return k - 1;
  }

  /// Forks an independent stream for a named sub-component; deterministic in
  /// (parent seed, tag). Lets modules draw without perturbing one another.
  [[nodiscard]] Rng fork(std::uint64_t tag) noexcept {
    Rng child(state_[0] ^ (tag * kSplitmixGamma) ^ rotl(state_[3], 13));
    return child;
  }

  /// A *pure* substream: deterministic in (seed, tag) alone — unlike
  /// fork(), which depends on the parent's current position. One mix64
  /// step folds the tag into the seed (the same stateless idiom
  /// sim::ImpairmentLayer uses for hash draws); reseed() then splitmixes the
  /// result again, so nearby tags land on unrelated streams. Day/week
  /// shards derive their RNG here so each shard is a pure function of
  /// (seed, index) — the keystone of the sharded engine's determinism-merge
  /// contract (DESIGN.md §3d).
  [[nodiscard]] static Rng substream(std::uint64_t seed,
                                     std::uint64_t tag) noexcept {
    return Rng(mix64(seed + tag * kSplitmixGamma));
  }

 private:
  static constexpr std::uint64_t rotl(std::uint64_t x, int k) noexcept {
    return (x << k) | (x >> (64 - k));
  }

  std::array<std::uint64_t, 4> state_{};
};

/// Zipf(s) sampler over ranks 1..n — used for AS popularity, victim targeting
/// concentration, and port selection tails. Precomputes the CDF once.
class ZipfSampler {
 public:
  ZipfSampler(std::size_t n, double s);

  /// Returns a rank in [0, n).
  [[nodiscard]] std::size_t sample(Rng& rng) const noexcept;

  [[nodiscard]] std::size_t size() const noexcept { return cdf_.size(); }

 private:
  std::vector<double> cdf_;
};

/// Weighted discrete sampler (alias-free binary search over a CDF).
class WeightedSampler {
 public:
  explicit WeightedSampler(std::span<const double> weights);

  [[nodiscard]] std::size_t sample(Rng& rng) const noexcept;

  [[nodiscard]] std::size_t size() const noexcept { return cdf_.size(); }

 private:
  std::vector<double> cdf_;
};

}  // namespace gorilla::util
