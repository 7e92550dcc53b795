// Civil-date arithmetic and the study's simulation clock.
//
// The paper's measurement window runs from 2013-11-01 through 2014-05-01,
// with fifteen weekly OpenNTPProject samples from 2014-01-10 to 2014-04-18.
// All simulation time is expressed as seconds since the *simulation epoch*,
// 2013-11-01 00:00:00 UTC, so every dataset in the reproduction shares one
// clock and no wall-clock or timezone state leaks in.
#pragma once

#include <array>
#include <cstdint>
#include <optional>
#include <string>

namespace gorilla::util {

/// A civil (proleptic Gregorian) calendar date.
struct Date {
  int year = 1970;
  int month = 1;  ///< 1..12
  int day = 1;    ///< 1..31

  friend constexpr bool operator==(const Date&, const Date&) = default;
};

/// Days since 1970-01-01 for a civil date (Howard Hinnant's algorithm).
[[nodiscard]] constexpr std::int64_t days_from_civil(const Date& d) noexcept {
  const int y = d.year - (d.month <= 2 ? 1 : 0);
  const std::int64_t era = (y >= 0 ? y : y - 399) / 400;
  const unsigned yoe = static_cast<unsigned>(y - era * 400);
  const unsigned doy =
      (153u * static_cast<unsigned>(d.month + (d.month > 2 ? -3 : 9)) + 2u) / 5u +
      static_cast<unsigned>(d.day) - 1u;
  const unsigned doe = yoe * 365 + yoe / 4 - yoe / 100 + doy;
  return era * 146097 + static_cast<std::int64_t>(doe) - 719468;
}

/// Inverse of days_from_civil.
[[nodiscard]] constexpr Date civil_from_days(std::int64_t z) noexcept {
  z += 719468;
  const std::int64_t era = (z >= 0 ? z : z - 146096) / 146097;
  const unsigned doe = static_cast<unsigned>(z - era * 146097);
  const unsigned yoe = (doe - doe / 1460 + doe / 36524 - doe / 146096) / 365;
  const std::int64_t y = static_cast<std::int64_t>(yoe) + era * 400;
  const unsigned doy = doe - (365 * yoe + yoe / 4 - yoe / 100);
  const unsigned mp = (5 * doy + 2) / 153;
  const unsigned d = doy - (153 * mp + 2) / 5 + 1;
  const unsigned m = mp + (mp < 10 ? 3 : -9);
  return Date{static_cast<int>(y + (m <= 2 ? 1 : 0)), static_cast<int>(m),
              static_cast<int>(d)};
}

/// Seconds since 2013-11-01 00:00:00 UTC — the clock every module shares.
using SimTime = std::int64_t;

inline constexpr Date kSimEpochDate{2013, 11, 1};
inline constexpr std::int64_t kSecondsPerDay = 86400;
inline constexpr std::int64_t kSecondsPerHour = 3600;
inline constexpr std::int64_t kSecondsPerWeek = 7 * kSecondsPerDay;

/// SimTime (midnight UTC) of a civil date.
[[nodiscard]] constexpr SimTime sim_time_from_date(const Date& d) noexcept {
  return (days_from_civil(d) - days_from_civil(kSimEpochDate)) * kSecondsPerDay;
}

/// Civil date containing a SimTime (negative times land before the epoch).
[[nodiscard]] constexpr Date date_from_sim_time(SimTime t) noexcept {
  std::int64_t days = t / kSecondsPerDay;
  if (t < 0 && t % kSecondsPerDay != 0) --days;
  return civil_from_days(days + days_from_civil(kSimEpochDate));
}

/// Day index (0 = 2013-11-01) of a SimTime; floors negative times.
[[nodiscard]] constexpr std::int64_t day_index(SimTime t) noexcept {
  std::int64_t d = t / kSecondsPerDay;
  if (t < 0 && t % kSecondsPerDay != 0) --d;
  return d;
}

/// "YYYY-MM-DD".
[[nodiscard]] std::string to_string(const Date& d);

/// "MM-DD" (the style used on the paper's figure axes).
[[nodiscard]] std::string to_short_string(const Date& d);

/// Parse "YYYY-MM-DD"; nullopt on malformed input.
[[nodiscard]] std::optional<Date> parse_date(const std::string& s);

/// Day index of ONP sample week `week`: week 0 anchors at 2014-01-10
/// (day 70) and samples follow every seven days.
[[nodiscard]] constexpr int onp_sample_day(int week) noexcept {
  return 70 + 7 * week;
}

/// The fifteen weekly ONP monlist sample dates, 2014-01-10 .. 2014-04-18
/// (the dates of onp_sample_day(0..14)).
[[nodiscard]] const std::array<Date, 15>& onp_sample_dates() noexcept;

/// The nine weekly ONP version sample dates, 2014-02-21 .. 2014-04-18.
[[nodiscard]] const std::array<Date, 9>& onp_version_sample_dates() noexcept;

}  // namespace gorilla::util
