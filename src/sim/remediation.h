// Remediation (pool decay) models — §6.
//
// The monlist amplifier pool fell 92% in fifteen weeks; the version pool
// only 19% in nine; open DNS resolvers barely moved. We calibrate the
// monlist hazard to the paper's fifteen published weekly counts and apply
// proportional-hazards multipliers for the subgroup axes the paper measures:
// end-host vs infrastructure (§6.1: end-host share of amplifiers doubled,
// 17% -> 34%) and continent (§6.1: NA 97% remediated ... SA 63%).
#pragma once

#include <array>
#include <cstdint>
#include <vector>

#include "net/registry.h"
#include "util/rng.h"

namespace gorilla::sim {

/// The paper's fifteen weekly global monlist amplifier counts (Table 1),
/// 2014-01-10 .. 2014-04-18 — the calibration target for the decay model.
inline constexpr std::array<std::uint64_t, 15> kPaperAmplifierCounts = {
    1405186, 1276639, 677112, 438722, 365724, 235370, 176931, 159629,
    123673,  121507,  110565, 108385, 112131, 108636, 106445};

/// Paper victim counts per sample (Table 1, right half) — used as shape
/// targets for the attack model, not consumed by the decay model itself.
inline constexpr std::array<std::uint64_t, 15> kPaperVictimCounts = {
    49979,  59937,  66373,  68319,  81284,  94125,  121362, 156643,
    153541, 169573, 167578, 160191, 143422, 108756, 107459};

/// Fraction of an ONP weekly scan's target pool that actually answers
/// (availability/churn): the first sample saw ~60% of the 2.166M unique
/// amplifier IPs eventually learned (§3.1).
inline constexpr double kScanAvailability = 0.63;

/// Survival fraction of the *live vulnerable pool* at sample week w
/// (counts de-rated by availability and normalized to week 0).
[[nodiscard]] double monlist_survival(int week) noexcept;

/// Hazard multiplier for a continent, calibrated to the §6.1 remediated
/// percentages (NA 97, OC 93, EU 89, AS 84, AF 77, SA 63).
[[nodiscard]] double continent_hazard(net::Continent c) noexcept;

/// Hazard multiplier for host type: infrastructure fixes faster than end
/// hosts; tuned so the end-host share of live amplifiers rises ~18% -> ~34%.
[[nodiscard]] double host_type_hazard(bool end_host) noexcept;

/// Version (mode 6) pool: -19% over the nine measured weeks (§3.3, Fig 10);
/// survival extrapolates linearly-in-log beyond.
[[nodiscard]] double version_survival(int week) noexcept;

/// One survival curve's per-week fix thresholds under one hazard, computed
/// once and shared by every server with that hazard. A server with uniform
/// draw `u` (possibly farm-shared) stops answering in the first week whose
/// threshold is below `u`.
class FixWeekCurve {
 public:
  /// Monlist curve of combined hazard h: week w's threshold is
  /// monlist_survival(w)^h, for w = 1..14.
  [[nodiscard]] static FixWeekCurve monlist(double hazard);
  /// Version curve (its hazard is always 1): week w's threshold is
  /// version_survival(w), for w = 1..horizon_weeks.
  [[nodiscard]] static FixWeekCurve version(int horizon_weeks);

  /// The first week whose threshold is below `u`, or -1 if the server
  /// survives the horizon. A scan in week order, not a binary search: the
  /// monlist curve is not monotone (week 12's count is above week 11's).
  [[nodiscard]] int fix_week(double u) const noexcept;

  /// Week w's threshold at index w - 1.
  [[nodiscard]] const std::vector<double>& thresholds() const noexcept {
    return thresholds_;
  }

 private:
  std::vector<double> thresholds_;
};

/// Remediation does not stop when the paper's sampling does: the §3.4
/// follow-up probes (April-June) watched the March amplifier subset shrink
/// from ~60K to ~15K responders, roughly 13% per week. Samples a fix week
/// >= 15 for a server that survived the study window, or -1 if it outlives
/// `horizon_weeks` too.
[[nodiscard]] int sample_post_study_fix_week(double u,
                                             int horizon_weeks = 60) noexcept;

}  // namespace gorilla::sim
