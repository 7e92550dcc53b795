// Small statistics toolkit used by every analysis: quantiles, boxplot
// five-number summaries (Figure 4b/4c), CDFs (Figure 5), and running
// accumulators for streaming samples.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

namespace gorilla::core {

/// Five-number summary as drawn in the paper's boxplots.
struct BoxplotSummary {
  double min = 0.0;
  double q1 = 0.0;
  double median = 0.0;
  double q3 = 0.0;
  double max = 0.0;
  std::size_t count = 0;
};

/// Quantile by linear interpolation on a *sorted* span; q in [0,1].
[[nodiscard]] double quantile_sorted(std::span<const double> sorted, double q);

/// Quantile of an unsorted span (copies + sorts).
[[nodiscard]] double quantile(std::span<const double> values, double q);

[[nodiscard]] double mean(std::span<const double> values);

/// Builds the five-number summary (empty input -> all zeros, count 0).
[[nodiscard]] BoxplotSummary boxplot(std::span<const double> values);

/// One point of an empirical CDF over ranked contributions.
struct CdfPoint {
  std::size_t rank = 0;     ///< 1-based rank (largest contributor first)
  double cumulative = 0.0;  ///< fraction of the total carried by ranks <= rank
};

/// CDF of contributions sorted descending (Figure 5's by-AS concentration):
/// returns one point per rank. Non-positive totals yield an empty curve.
[[nodiscard]] std::vector<CdfPoint> concentration_cdf(
    std::span<const double> contributions);

/// Distinct routed blocks and origin ASes among a sample's addresses.
struct RouteCounts {
  std::uint64_t blocks = 0;
  std::uint64_t asns = 0;
};

/// Counts `routes`, each `asn << 32 | block index`, with one sort: a block
/// has one origin AS, so equal blocks are adjacent and ASes form runs.
[[nodiscard]] RouteCounts distinct_routes(std::vector<std::uint64_t>& routes);

/// Fraction of the total carried by the top `k` contributors.
[[nodiscard]] double top_k_share(std::span<const double> contributions,
                                 std::size_t k);

/// Streaming accumulator: keeps every value (analyses are bounded by the
/// per-sample amplifier count) and answers summary queries at end-of-sample.
///
/// The first quantile() or boxplot() after an add() sorts a copy of the
/// values once; later queries read that copy until the next add() or
/// clear(). mean() and values() keep insertion order, so mean() sums in the
/// order the values arrived. Queries fill the cache, so concurrent const
/// calls on one accumulator need outside synchronization.
class SampleAccumulator {
 public:
  void add(double v) { values_.push_back(v); }
  void reserve(std::size_t n) { values_.reserve(n); }
  [[nodiscard]] std::size_t count() const noexcept { return values_.size(); }
  [[nodiscard]] double mean() const;
  [[nodiscard]] double quantile(double q) const;
  [[nodiscard]] BoxplotSummary boxplot() const;
  void clear() {
    values_.clear();
    sorted_.clear();
  }
  [[nodiscard]] const std::vector<double>& values() const noexcept {
    return values_;
  }

 private:
  /// The values in ascending order. add() only appends, so the cache is
  /// current exactly when it holds as many values as values_.
  const std::vector<double>& sorted() const;

  std::vector<double> values_;
  mutable std::vector<double> sorted_;
};

}  // namespace gorilla::core
