#include "core/stats.h"

#include <gtest/gtest.h>

#include <array>

namespace gorilla::core {
namespace {

TEST(QuantileTest, EmptyInputIsZero) {
  EXPECT_EQ(quantile({}, 0.5), 0.0);
}

TEST(QuantileTest, SingleValue) {
  const std::array<double, 1> v = {7.0};
  EXPECT_EQ(quantile(v, 0.0), 7.0);
  EXPECT_EQ(quantile(v, 0.5), 7.0);
  EXPECT_EQ(quantile(v, 1.0), 7.0);
}

TEST(QuantileTest, LinearInterpolation) {
  const std::array<double, 5> v = {10, 20, 30, 40, 50};
  EXPECT_EQ(quantile(v, 0.0), 10.0);
  EXPECT_EQ(quantile(v, 0.25), 20.0);
  EXPECT_EQ(quantile(v, 0.5), 30.0);
  EXPECT_EQ(quantile(v, 0.875), 45.0);
  EXPECT_EQ(quantile(v, 1.0), 50.0);
}

TEST(QuantileTest, UnsortedInput) {
  const std::array<double, 5> v = {50, 10, 40, 20, 30};
  EXPECT_EQ(quantile(v, 0.5), 30.0);
}

TEST(QuantileTest, ClampsOutOfRangeQ) {
  const std::array<double, 3> v = {1, 2, 3};
  EXPECT_EQ(quantile(v, -0.5), 1.0);
  EXPECT_EQ(quantile(v, 1.5), 3.0);
}

TEST(MeanTest, Basic) {
  const std::array<double, 4> v = {1, 2, 3, 4};
  EXPECT_EQ(mean(v), 2.5);
  EXPECT_EQ(mean({}), 0.0);
}

TEST(BoxplotTest, FiveNumberSummary) {
  std::vector<double> v;
  for (int i = 1; i <= 101; ++i) v.push_back(static_cast<double>(i));
  const auto b = boxplot(v);
  EXPECT_EQ(b.min, 1.0);
  EXPECT_EQ(b.q1, 26.0);
  EXPECT_EQ(b.median, 51.0);
  EXPECT_EQ(b.q3, 76.0);
  EXPECT_EQ(b.max, 101.0);
  EXPECT_EQ(b.count, 101u);
}

TEST(BoxplotTest, EmptyInput) {
  const auto b = boxplot({});
  EXPECT_EQ(b.count, 0u);
  EXPECT_EQ(b.median, 0.0);
}

TEST(ConcentrationCdfTest, UniformContributions) {
  const std::array<double, 4> v = {1, 1, 1, 1};
  const auto cdf = concentration_cdf(v);
  ASSERT_EQ(cdf.size(), 4u);
  EXPECT_NEAR(cdf[0].cumulative, 0.25, 1e-12);
  EXPECT_NEAR(cdf[3].cumulative, 1.0, 1e-12);
  EXPECT_EQ(cdf[0].rank, 1u);
}

TEST(ConcentrationCdfTest, SkewedContributions) {
  // One giant, many small: rank 1 carries most of the mass (the Figure 5
  // shape: top-100 ASes carry 60-75% of packets).
  std::vector<double> v(99, 1.0);
  v.push_back(901.0);
  const auto cdf = concentration_cdf(v);
  EXPECT_NEAR(cdf[0].cumulative, 0.901, 1e-9);
  EXPECT_NEAR(cdf[99].cumulative, 1.0, 1e-9);
}

TEST(ConcentrationCdfTest, ZeroTotalYieldsEmpty) {
  const std::array<double, 3> v = {0, 0, 0};
  EXPECT_TRUE(concentration_cdf(v).empty());
  EXPECT_TRUE(concentration_cdf({}).empty());
}

TEST(TopKShareTest, Basic) {
  const std::array<double, 5> v = {50, 20, 15, 10, 5};
  EXPECT_NEAR(top_k_share(v, 1), 0.5, 1e-12);
  EXPECT_NEAR(top_k_share(v, 2), 0.7, 1e-12);
  EXPECT_NEAR(top_k_share(v, 5), 1.0, 1e-12);
  EXPECT_NEAR(top_k_share(v, 50), 1.0, 1e-12);  // k beyond size
  EXPECT_EQ(top_k_share(v, 0), 0.0);
}

TEST(SampleAccumulatorTest, Lifecycle) {
  SampleAccumulator acc;
  EXPECT_EQ(acc.count(), 0u);
  for (int i = 1; i <= 10; ++i) acc.add(static_cast<double>(i));
  EXPECT_EQ(acc.count(), 10u);
  EXPECT_NEAR(acc.mean(), 5.5, 1e-12);
  EXPECT_NEAR(acc.quantile(0.5), 5.5, 1e-12);
  EXPECT_EQ(acc.boxplot().max, 10.0);
  acc.clear();
  EXPECT_EQ(acc.count(), 0u);
}

// The accumulator sorts once per batch of adds and serves every quantile()
// and boxplot() from that sort; mean() still sums in insertion order.
TEST(SampleAccumulatorTest, MeanSumsInInsertionOrderAfterAQuantile) {
  // 1e16 + 1 rounds back to 1e16, so the double sum depends on the order:
  // insertion order gives 3 / 5, ascending order 4 / 5.
  const std::array<double, 5> v = {1e16, 1.0, 1.0, -1e16, 3.0};
  SampleAccumulator acc;
  for (const double x : v) acc.add(x);
  ASSERT_EQ(mean(v), 0.6);
  EXPECT_EQ(acc.quantile(0.5), 1.0);
  EXPECT_EQ(acc.boxplot().min, -1e16);
  EXPECT_EQ(acc.mean(), 0.6);
  EXPECT_EQ(acc.values().front(), 1e16);  // values() keeps insertion order
}

TEST(SampleAccumulatorTest, AddAfterAQuantileIsSeenByTheNextOne) {
  SampleAccumulator acc;
  for (const double x : {5.0, 1.0, 3.0}) acc.add(x);
  EXPECT_EQ(acc.quantile(1.0), 5.0);
  EXPECT_EQ(acc.quantile(0.5), 3.0);
  acc.add(9.0);
  EXPECT_EQ(acc.quantile(1.0), 9.0);
  EXPECT_EQ(acc.quantile(0.5), 4.0);
  EXPECT_EQ(acc.boxplot().count, 4u);
  acc.clear();
  EXPECT_EQ(acc.quantile(0.5), 0.0);
  EXPECT_EQ(acc.boxplot().count, 0u);
  acc.add(2.0);
  EXPECT_EQ(acc.quantile(0.0), 2.0);
}

TEST(SampleAccumulatorTest, AgreesWithTheFreeFunctions) {
  std::vector<double> v;
  std::uint64_t x = 0x9e3779b97f4a7c15u;
  SampleAccumulator acc;
  for (int i = 0; i < 301; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    v.push_back(static_cast<double>(x % 100000) / 7.0);
    acc.add(v.back());
    if (i % 50 != 0) continue;
    // Interleave queries with adds: each must see every value so far.
    for (const double q : {0.0, 0.05, 0.25, 0.5, 0.75, 0.95, 1.0}) {
      EXPECT_EQ(acc.quantile(q), quantile(v, q)) << i << " q=" << q;
    }
    const auto a = acc.boxplot();
    const auto b = boxplot(v);
    EXPECT_EQ(a.min, b.min);
    EXPECT_EQ(a.q1, b.q1);
    EXPECT_EQ(a.median, b.median);
    EXPECT_EQ(a.q3, b.q3);
    EXPECT_EQ(a.max, b.max);
    EXPECT_EQ(a.count, b.count);
    EXPECT_EQ(acc.mean(), mean(v));
  }
}

TEST(DistinctRoutesTest, CountsBlocksAndAsesWithOneSort) {
  auto route = [](std::uint64_t asn, std::uint64_t block) {
    return asn << 32 | block;
  };
  std::vector<std::uint64_t> routes = {route(7, 3), route(2, 9), route(7, 3),
                                       route(7, 4), route(2, 9), route(5, 1)};
  const auto counts = distinct_routes(routes);
  EXPECT_EQ(counts.blocks, 4u);
  EXPECT_EQ(counts.asns, 3u);
  std::vector<std::uint64_t> none;
  EXPECT_EQ(distinct_routes(none).blocks, 0u);
  EXPECT_EQ(distinct_routes(none).asns, 0u);
}

// Property sweep: quantile is monotone in q for arbitrary data.
class QuantileMonotonic : public ::testing::TestWithParam<int> {};

TEST_P(QuantileMonotonic, MonotoneInQ) {
  std::vector<double> v;
  std::uint64_t x = static_cast<std::uint64_t>(GetParam()) * 2654435761u + 1;
  for (int i = 0; i < 200; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    v.push_back(static_cast<double>(x % 100000));
  }
  double prev = quantile(v, 0.0);
  for (double q = 0.05; q <= 1.0; q += 0.05) {
    const double cur = quantile(v, q);
    EXPECT_GE(cur, prev);
    prev = cur;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, QuantileMonotonic,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8));

}  // namespace
}  // namespace gorilla::core
