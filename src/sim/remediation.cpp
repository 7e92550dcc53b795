#include "sim/remediation.h"

#include <algorithm>
#include <cmath>

namespace gorilla::sim {

double monlist_survival(int week) noexcept {
  if (week < 0) return 1.0;
  const std::size_t idx = std::min<std::size_t>(
      static_cast<std::size_t>(week), kPaperAmplifierCounts.size() - 1);
  return static_cast<double>(kPaperAmplifierCounts[idx]) /
         static_cast<double>(kPaperAmplifierCounts[0]);
}

double continent_hazard(net::Continent c) noexcept {
  // h_c = ln(survival_c) / ln(global survival at horizon), where survival_c
  // is 1 - remediated fraction from §6.1 and the global horizon survival is
  // 106445/1405186 ~ 0.0757 (ln ~ -2.581).
  switch (c) {
    case net::Continent::kNorthAmerica: return 1.36;  // 97% remediated
    case net::Continent::kOceania: return 1.03;       // 93%
    case net::Continent::kEurope: return 0.855;       // 89%
    case net::Continent::kAsia: return 0.710;         // 84%
    case net::Continent::kAfrica: return 0.569;       // 77%
    case net::Continent::kSouthAmerica: return 0.385; // 63%
  }
  return 1.0;
}

double host_type_hazard(bool end_host) noexcept {
  // Tuned (see remediation tests) so the live-pool end-host share roughly
  // doubles over the horizon, matching Table 1's 18.5% -> 33.5%.
  return end_host ? 0.72 : 1.08;
}

double version_survival(int week) noexcept {
  if (week <= 0) return 1.0;
  // -19% over nine weeks, log-linear: per-week survival factor.
  constexpr double kPerWeek = 0.97689;  // 0.97689^9 ~ 0.81
  return std::pow(kPerWeek, week);
}

FixWeekCurve FixWeekCurve::monlist(double hazard) {
  FixWeekCurve curve;
  for (int w = 1; w < static_cast<int>(kPaperAmplifierCounts.size()); ++w) {
    curve.thresholds_.push_back(std::pow(monlist_survival(w), hazard));
  }
  return curve;
}

FixWeekCurve FixWeekCurve::version(int horizon_weeks) {
  FixWeekCurve curve;
  for (int w = 1; w <= horizon_weeks; ++w) {
    curve.thresholds_.push_back(version_survival(w));
  }
  return curve;
}

int FixWeekCurve::fix_week(double u) const noexcept {
  for (std::size_t i = 0; i < thresholds_.size(); ++i) {
    if (thresholds_[i] < u) return static_cast<int>(i) + 1;
  }
  return -1;
}

int sample_post_study_fix_week(double u, int horizon_weeks) noexcept {
  constexpr double kPostWeeklySurvival = 0.87;  // 60K -> 15K over ~10 weeks
  double survival = 1.0;
  for (int w = 15; w <= horizon_weeks; ++w) {
    survival *= kPostWeeklySurvival;
    if (survival < u) return w;
  }
  return -1;
}

}  // namespace gorilla::sim
