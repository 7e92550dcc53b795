#include "sim/remediation.h"

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "util/rng.h"

namespace gorilla::sim {
namespace {

// The per-week samplers the threshold curves replaced, kept as the
// reference: each week recomputes survival(w)^hazard and compares it with u.
int reference_monlist_fix_week(double hazard, double u) {
  for (int w = 1; w < static_cast<int>(kPaperAmplifierCounts.size()); ++w) {
    if (std::pow(monlist_survival(w), hazard) < u) return w;
  }
  return -1;
}

int reference_version_fix_week(double hazard, double u, int horizon_weeks) {
  for (int w = 1; w <= horizon_weeks; ++w) {
    if (std::pow(version_survival(w), hazard) < u) return w;
  }
  return -1;
}

int monlist_fix_week(double hazard, double u) {
  return FixWeekCurve::monlist(hazard).fix_week(u);
}

TEST(MonlistSurvivalTest, AnchorsToPaperCounts) {
  EXPECT_DOUBLE_EQ(monlist_survival(0), 1.0);
  EXPECT_NEAR(monlist_survival(2), 677112.0 / 1405186.0, 1e-9);
  EXPECT_NEAR(monlist_survival(14), 106445.0 / 1405186.0, 1e-9);
}

TEST(MonlistSurvivalTest, PreStudyIsFull) {
  EXPECT_DOUBLE_EQ(monlist_survival(-3), 1.0);
}

TEST(MonlistSurvivalTest, BeyondHorizonHoldsSteady) {
  EXPECT_DOUBLE_EQ(monlist_survival(20), monlist_survival(14));
}

TEST(MonlistSurvivalTest, NinetyTwoPercentReduction) {
  // §6: "a reduction of 92%" from first to last sample.
  EXPECT_NEAR(1.0 - monlist_survival(14), 0.92, 0.005);
}

TEST(ContinentHazardTest, OrderingMatchesPaper) {
  // §6.1 remediated%: NA 97 > OC 93 > EU 89 > AS 84 > AF 77 > SA 63.
  EXPECT_GT(continent_hazard(net::Continent::kNorthAmerica),
            continent_hazard(net::Continent::kOceania));
  EXPECT_GT(continent_hazard(net::Continent::kOceania),
            continent_hazard(net::Continent::kEurope));
  EXPECT_GT(continent_hazard(net::Continent::kEurope),
            continent_hazard(net::Continent::kAsia));
  EXPECT_GT(continent_hazard(net::Continent::kAsia),
            continent_hazard(net::Continent::kAfrica));
  EXPECT_GT(continent_hazard(net::Continent::kAfrica),
            continent_hazard(net::Continent::kSouthAmerica));
}

TEST(ContinentHazardTest, ImpliedSurvivalMatchesPaper) {
  const double base = monlist_survival(14);
  // survival^hazard should land near 1 - remediated%.
  EXPECT_NEAR(std::pow(base, continent_hazard(net::Continent::kNorthAmerica)),
              0.03, 0.01);
  EXPECT_NEAR(std::pow(base, continent_hazard(net::Continent::kSouthAmerica)),
              0.37, 0.02);
}

TEST(HostTypeHazardTest, EndHostsSlower) {
  EXPECT_LT(host_type_hazard(true), host_type_hazard(false));
}

TEST(SampleFixWeekTest, ZeroDrawNeverFixes) {
  // u -> 0 means the server survives everything.
  EXPECT_EQ(monlist_fix_week(1.0, 1e-12), -1);
}

TEST(SampleFixWeekTest, DrawNearOneFixesImmediately) {
  EXPECT_EQ(monlist_fix_week(1.0, 0.999999), 1);
}

TEST(SampleFixWeekTest, PopulationTracksSurvivalCurve) {
  util::Rng rng(77);
  constexpr int n = 200000;
  std::array<int, 15> alive{};
  for (int i = 0; i < n; ++i) {
    const int fix = monlist_fix_week(1.0, rng.uniform01());
    for (int w = 0; w < 15; ++w) {
      if (fix < 0 || w < fix) ++alive[static_cast<std::size_t>(w)];
    }
  }
  for (int w : {0, 2, 7, 14}) {
    EXPECT_NEAR(alive[static_cast<std::size_t>(w)] / double(n),
                monlist_survival(w), 0.01)
        << "week " << w;
  }
}

TEST(SampleFixWeekTest, HigherHazardFixesFaster) {
  util::Rng rng(78);
  constexpr int n = 50000;
  int fast_alive = 0, slow_alive = 0;
  for (int i = 0; i < n; ++i) {
    const double u = rng.uniform01();
    const int fast = monlist_fix_week(1.4, u);
    const int slow = monlist_fix_week(0.5, u);
    if (fast < 0) ++fast_alive;
    if (slow < 0) ++slow_alive;
    // Coupled draws: a higher hazard can never fix *later*.
    if (fast >= 0 && slow >= 0) {
      EXPECT_LE(fast, slow);
    }
    if (slow >= 0) {
      EXPECT_GE(fast, 0);
    }
  }
  EXPECT_LT(fast_alive, slow_alive);
}

TEST(VersionSurvivalTest, NineteenPercentOverNineWeeks) {
  EXPECT_DOUBLE_EQ(version_survival(0), 1.0);
  EXPECT_NEAR(version_survival(9), 0.81, 0.005);
}

TEST(VersionSurvivalTest, MonotoneDecline) {
  for (int w = 1; w < 40; ++w) {
    EXPECT_LT(version_survival(w), version_survival(w - 1));
  }
}

TEST(VersionFixWeekTest, MostSurviveHorizon) {
  util::Rng rng(79);
  constexpr int n = 50000;
  int survived = 0;
  for (int i = 0; i < n; ++i) {
    if (FixWeekCurve::version(9).fix_week(rng.uniform01()) < 0) ++survived;
  }
  EXPECT_NEAR(survived / double(n), 0.81, 0.01);
}

/// Every combined monlist hazard a World passes: continent x host type at
/// the paper's remediation speed and at the ablation's 0.4, and the
/// regional cast's unit hazard at both speeds.
std::vector<double> world_monlist_hazards() {
  std::vector<double> hazards;
  for (const double speed : {1.0, 0.4}) {
    for (int c = 0; c < net::kContinentCount; ++c) {
      for (const bool end_host : {false, true}) {
        hazards.push_back(continent_hazard(static_cast<net::Continent>(c)) *
                          host_type_hazard(end_host) * speed);
      }
    }
    hazards.push_back(speed);
  }
  return hazards;
}

/// Random draws plus every threshold of `curve` and its two neighbouring
/// doubles, where a comparison flips.
std::vector<double> probe_draws(const FixWeekCurve& curve, std::uint64_t seed) {
  std::vector<double> draws;
  util::Rng rng(seed);
  for (int i = 0; i < 100000; ++i) draws.push_back(rng.uniform01());
  for (const double t : curve.thresholds()) {
    draws.push_back(t);
    draws.push_back(std::nextafter(t, 0.0));
    draws.push_back(std::nextafter(t, 2.0));
  }
  draws.push_back(0.0);
  draws.push_back(std::nextafter(1.0, 0.0));
  return draws;
}

TEST(FixWeekCurveTest, MonlistMatchesPerWeekPowLoop) {
  for (const double hazard : world_monlist_hazards()) {
    const FixWeekCurve curve = FixWeekCurve::monlist(hazard);
    ASSERT_EQ(curve.thresholds().size(), kPaperAmplifierCounts.size() - 1);
    for (const double u : probe_draws(curve, 91)) {
      ASSERT_EQ(curve.fix_week(u), reference_monlist_fix_week(hazard, u))
          << "hazard " << hazard << " u " << u;
    }
  }
}

TEST(FixWeekCurveTest, VersionMatchesPerWeekPowLoop) {
  for (const int horizon : {9, 40}) {
    const FixWeekCurve curve = FixWeekCurve::version(horizon);
    ASSERT_EQ(curve.thresholds().size(), static_cast<std::size_t>(horizon));
    for (const double u : probe_draws(curve, 92)) {
      ASSERT_EQ(curve.fix_week(u), reference_version_fix_week(1.0, u, horizon))
          << "horizon " << horizon << " u " << u;
    }
  }
}

TEST(FixWeekCurveTest, UnitHazardLeavesVersionSurvivalExact) {
  // The version curve drops the always-1 hazard: pow(s, 1.0) must be s
  // itself for every week the World samples, or the thresholds would move.
  for (int w = 1; w <= 40; ++w) {
    const double s = version_survival(w);
    EXPECT_EQ(std::pow(s, 1.0), s) << "week " << w;
  }
}

TEST(FixWeekCurveTest, MonlistCurveIsNotMonotone) {
  // Week 12's count (112131) is above week 11's (108385), so the threshold
  // rises there: the first crossing needs a scan in week order.
  const FixWeekCurve curve = FixWeekCurve::monlist(1.0);
  const auto& t = curve.thresholds();
  EXPECT_GT(t[11], t[10]);
  const double u = (t[10] + t[11]) / 2;
  EXPECT_EQ(curve.fix_week(u), 11);
}

TEST(PaperConstantsTest, TableOneCounts) {
  EXPECT_EQ(kPaperAmplifierCounts.front(), 1405186u);
  EXPECT_EQ(kPaperAmplifierCounts.back(), 106445u);
  EXPECT_EQ(kPaperVictimCounts.front(), 49979u);
  EXPECT_EQ(kPaperVictimCounts[5], 94125u);
}

}  // namespace
}  // namespace gorilla::sim
