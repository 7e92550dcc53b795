#include "core/stats.h"

#include <algorithm>
#include <cmath>

namespace gorilla::core {

double quantile_sorted(std::span<const double> sorted, double q) {
  if (sorted.empty()) return 0.0;
  q = std::clamp(q, 0.0, 1.0);
  const double pos = q * static_cast<double>(sorted.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const auto hi = std::min(lo + 1, sorted.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return sorted[lo] * (1.0 - frac) + sorted[hi] * frac;
}

double quantile(std::span<const double> values, double q) {
  if (values.empty()) return 0.0;
  std::vector<double> sorted(values.begin(), values.end());
  std::sort(sorted.begin(), sorted.end());
  return quantile_sorted(sorted, q);
}

double mean(std::span<const double> values) {
  if (values.empty()) return 0.0;
  double sum = 0.0;
  for (const double v : values) sum += v;
  return sum / static_cast<double>(values.size());
}

namespace {

BoxplotSummary boxplot_sorted(std::span<const double> sorted) {
  BoxplotSummary s;
  if (sorted.empty()) return s;
  s.min = sorted.front();
  s.q1 = quantile_sorted(sorted, 0.25);
  s.median = quantile_sorted(sorted, 0.5);
  s.q3 = quantile_sorted(sorted, 0.75);
  s.max = sorted.back();
  s.count = sorted.size();
  return s;
}

}  // namespace

BoxplotSummary boxplot(std::span<const double> values) {
  std::vector<double> sorted(values.begin(), values.end());
  std::sort(sorted.begin(), sorted.end());
  return boxplot_sorted(sorted);
}

std::vector<CdfPoint> concentration_cdf(
    std::span<const double> contributions) {
  std::vector<double> sorted(contributions.begin(), contributions.end());
  std::sort(sorted.begin(), sorted.end(), std::greater<>());
  double total = 0.0;
  for (const double v : sorted) total += v;
  std::vector<CdfPoint> out;
  if (total <= 0.0) return out;
  out.reserve(sorted.size());
  double acc = 0.0;
  for (std::size_t i = 0; i < sorted.size(); ++i) {
    acc += sorted[i];
    out.push_back(CdfPoint{i + 1, acc / total});
  }
  return out;
}

double top_k_share(std::span<const double> contributions, std::size_t k) {
  const auto cdf = concentration_cdf(contributions);
  if (cdf.empty()) return 0.0;
  const auto idx = std::min(k, cdf.size()) - 1;
  return k == 0 ? 0.0 : cdf[idx].cumulative;
}

RouteCounts distinct_routes(std::vector<std::uint64_t>& routes) {
  std::sort(routes.begin(), routes.end());
  RouteCounts out;
  for (std::size_t i = 0; i < routes.size(); ++i) {
    const std::uint64_t route = routes[i];
    const std::uint64_t prev = i > 0 ? routes[i - 1] : ~route;
    if (route == prev) continue;
    ++out.blocks;
    if ((route >> 32) != (prev >> 32)) ++out.asns;
  }
  return out;
}

double SampleAccumulator::mean() const { return core::mean(values_); }

const std::vector<double>& SampleAccumulator::sorted() const {
  if (sorted_.size() != values_.size()) {
    sorted_.assign(values_.begin(), values_.end());
    std::sort(sorted_.begin(), sorted_.end());
  }
  return sorted_;
}

double SampleAccumulator::quantile(double q) const {
  return quantile_sorted(sorted(), q);
}

BoxplotSummary SampleAccumulator::boxplot() const {
  return boxplot_sorted(sorted());
}

}  // namespace gorilla::core
