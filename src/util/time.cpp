#include "util/time.h"

#include <cstdio>

namespace gorilla::util {

std::string to_string(const Date& d) {
  char buf[16];
  std::snprintf(buf, sizeof buf, "%04d-%02d-%02d", d.year, d.month, d.day);
  return buf;
}

std::string to_short_string(const Date& d) {
  char buf[8];
  std::snprintf(buf, sizeof buf, "%02d-%02d", d.month, d.day);
  return buf;
}

std::optional<Date> parse_date(const std::string& s) {
  int y = 0, m = 0, dd = 0;
  if (std::sscanf(s.c_str(), "%d-%d-%d", &y, &m, &dd) != 3 || m < 1 || m > 12 ||
      dd < 1 || dd > 31) {
    return std::nullopt;
  }
  return Date{y, m, dd};
}

const std::array<Date, 15>& onp_sample_dates() noexcept {
  static const std::array<Date, 15> dates = [] {
    std::array<Date, 15> a{};
    for (std::size_t i = 0; i < a.size(); ++i) {
      a[i] = civil_from_days(days_from_civil(kSimEpochDate) +
                             onp_sample_day(static_cast<int>(i)));
    }
    return a;
  }();
  return dates;
}

const std::array<Date, 9>& onp_version_sample_dates() noexcept {
  static const std::array<Date, 9> dates = [] {
    std::array<Date, 9> a{};
    const std::int64_t first = days_from_civil(Date{2014, 2, 21});
    for (std::size_t i = 0; i < a.size(); ++i) {
      a[i] = civil_from_days(first + static_cast<std::int64_t>(i) * 7);
    }
    return a;
  }();
  return dates;
}

}  // namespace gorilla::util
