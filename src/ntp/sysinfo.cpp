#include "ntp/sysinfo.h"

#include <algorithm>
#include <cctype>
#include <cstdio>

#include "util/format.h"

namespace gorilla::ntp {

namespace {

/// Longest identity make_system_variables() writes is ~530 bytes (a full
/// ntpd install with every statistic at its widest).
constexpr std::size_t kIdentityReserveBytes = 576;

}  // namespace

const std::vector<std::pair<std::string, double>>& system_string_distribution(
    SystemPool pool) {
  // Probabilities are Table 2 of the paper, renormalized over the rows shown.
  static const std::vector<std::pair<std::string, double>> kAllNtp = {
      {"cisco", 48.39},   {"unix", 30.64},   {"linux", 18.97},
      {"bsd", 0.97},      {"junos", 0.33},   {"sun", 0.21},
      {"darwin", 0.13},   {"vmkernel", 0.10}, {"windows", 0.07},
      {"secureos", 0.03}, {"qnx", 0.02},
  };
  static const std::vector<std::pair<std::string, double>> kAmplifiers = {
      {"linux", 80.22},  {"bsd", 11.08},     {"junos", 3.43},
      {"vmkernel", 1.42}, {"darwin", 0.92},  {"windows", 0.84},
      {"unix", 0.56},    {"secureos", 0.49}, {"sun", 0.25},
      {"qnx", 0.22},     {"cisco", 0.17},
  };
  static const std::vector<std::pair<std::string, double>> kMega = {
      {"linux", 44.18},  {"junos", 35.85},  {"bsd", 9.18},
      {"cygwin", 4.82},  {"vmkernel", 2.41}, {"unix", 2.01},
      {"windows", 0.42}, {"sun", 0.37},     {"secureos", 0.25},
      {"isilon", 0.23},  {"cisco", 0.06},
  };
  static const std::vector<std::pair<std::string, double>> kNonAmplifier = {
      {"cisco", 58.0},  {"unix", 36.0},  {"linux", 4.3},
      {"bsd", 0.8},     {"sun", 0.25},   {"darwin", 0.15},
      {"vmkernel", 0.12}, {"windows", 0.08}, {"junos", 0.2},
      {"secureos", 0.04}, {"qnx", 0.03},
  };
  switch (pool) {
    case SystemPool::kAllNtp: return kAllNtp;
    case SystemPool::kAllAmplifiers: return kAmplifiers;
    case SystemPool::kMega: return kMega;
    case SystemPool::kNonAmplifier: return kNonAmplifier;
  }
  return kAllNtp;
}

std::string sample_system_string(SystemPool pool, util::Rng& rng) {
  const auto& dist = system_string_distribution(pool);
  double total = 0.0;
  for (const auto& [_, w] : dist) total += w;
  double u = rng.uniform01() * total;
  for (const auto& [name, w] : dist) {
    u -= w;
    if (u <= 0.0) return name;
  }
  return dist.back().first;
}

int sample_compile_year(util::Rng& rng) {
  // Piecewise-uniform over the paper's cumulative fractions:
  //   13% < 2004, 23% < 2010, 48% < 2011, 59% < 2012, 79% < 2013, 21% >= 2013.
  const double u = rng.uniform01();
  if (u < 0.13) return static_cast<int>(rng.uniform_int(1998, 2003));
  if (u < 0.23) return static_cast<int>(rng.uniform_int(2004, 2009));
  if (u < 0.48) return 2010;
  if (u < 0.59) return 2011;
  if (u < 0.79) return 2012;
  return static_cast<int>(rng.uniform_int(2013, 2014));
}

int sample_stratum(util::Rng& rng) {
  if (rng.chance(0.19)) return kStratumUnsynchronized;  // §3.3: 19% stratum 16
  const double u = rng.uniform01();
  if (u < 0.05) return 1;
  if (u < 0.55) return 2;
  if (u < 0.85) return 3;
  if (u < 0.95) return 4;
  return static_cast<int>(rng.uniform_int(5, 6));
}

ServerIdentity make_system_variables(const std::string& system,
                                     int compile_year, int stratum,
                                     util::Rng& rng) {
  // The text is written in wire order, which is also the draw order, so
  // every value lands exactly where SystemVariables::render() put it. The
  // snprintf argument lists are kept verbatim: their evaluation order is
  // unspecified, and moving a draw out of one would reorder the stream.
  ServerIdentity id;
  id.stratum = stratum;
  std::string& out = id.readvar;
  out.reserve(kIdentityReserveBytes);
  const int maj = 4;
  const int min = compile_year >= 2010 ? 2 : 1;
  const int patch = static_cast<int>(rng.uniform_int(0, 8));
  char buf[128];
  static constexpr const char* kMonths[] = {"Jan", "Feb", "Mar", "Apr",
                                            "May", "Jun", "Jul", "Aug",
                                            "Sep", "Oct", "Nov", "Dec"};
  std::snprintf(buf, sizeof buf, "ntpd %d.%d.%dp%d@1.%04d-o %s %2d %d",
                maj, min, static_cast<int>(rng.uniform_int(0, 8)), patch,
                static_cast<int>(rng.uniform_int(1500, 2600)),
                kMonths[rng.uniform(12)],
                static_cast<int>(rng.uniform_int(1, 28)), compile_year);
  const double rootdelay_ms = rng.uniform_real(0.1, 60.0);
  const double rootdisp_ms = rng.uniform_real(0.5, 120.0);
  append_core_variables(
      out, buf, system == "cisco" || system == "junos" ? "" : "x86_64",
      system, stratum == kStratumUnsynchronized ? 3 : 0, stratum,
      rootdelay_ms, rootdisp_ms);

  // Daemon variables beyond the core set. Network devices (cisco, junos)
  // report a short list; full ntpd installs return a dozen statistics —
  // the source of the version-response size spread behind Figure 4c's
  // 3.5/4.6/6.9 on-wire BAF quartiles.
  auto var = [&out](std::string_view key) -> std::string& {
    return out.append(", ").append(key).append("=");
  };
  auto num = [&](std::string_view key, double lo, double hi) {
    util::append_fixed(var(key), rng.uniform_real(lo, hi), 3);
  };
  char refid[32];
  std::snprintf(refid, sizeof refid, "%d.%d.%d.%d",
                static_cast<int>(rng.uniform_int(1, 223)),
                static_cast<int>(rng.uniform_int(0, 255)),
                static_cast<int>(rng.uniform_int(0, 255)),
                static_cast<int>(rng.uniform_int(1, 254)));
  char stamp[64];
  std::snprintf(stamp, sizeof stamp,
                "0x%08x.%08x  Fri, %s %2d 2014 %2d:%02d:%02d.%03d",
                static_cast<unsigned>(rng.next() >> 36) | 0xd6000000u,
                static_cast<unsigned>(rng.next() >> 32),
                kMonths[rng.uniform(4)],
                static_cast<int>(rng.uniform_int(1, 28)),
                static_cast<int>(rng.uniform_int(0, 23)),
                static_cast<int>(rng.uniform_int(0, 59)),
                static_cast<int>(rng.uniform_int(0, 59)),
                static_cast<int>(rng.uniform_int(0, 999)));
  // Three response tiers: network devices are terse; about half of full
  // ntpd installs report the moderate set; the rest dump everything.
  const bool terse = system == "cisco" || system == "junos" ||
                     system == "vmkernel" || system == "qnx";
  var("refid").append(refid);
  var("reftime").append(stamp);
  if (!terse) {
    var("clock").append(stamp);
    num("offset", -80.0, 80.0);
    num("sys_jitter", 0.0, 12.0);
    if (rng.chance(0.5)) {
      util::append_decimal(var("peer"), rng.uniform_int(1000, 65000));
      util::append_decimal(var("tc"), rng.uniform_int(6, 10));
      var("mintc").append("3");
      num("frequency", -120.0, 120.0);
      num("clk_jitter", 0.0, 8.0);
      num("clk_wander", 0.0, 1.0);
      // Full installs also dump daemon statistics to READVAR.
      util::append_decimal(var("ss_uptime"), rng.uniform(9000000));
      util::append_decimal(var("ss_reset"), rng.uniform(900000));
      util::append_decimal(var("ss_received"), rng.uniform(50000000));
      util::append_decimal(var("ss_badformat"), rng.uniform(999));
      util::append_decimal(var("ss_declined"), rng.uniform(9999));
      util::append_decimal(var("ss_limited"), rng.uniform(999999));
      util::append_decimal(var("ss_kodsent"), rng.uniform(99999));
    }
  }
  out.shrink_to_fit();
  return id;
}

int extract_compile_year(const std::string& version_string) {
  // The year is the last 4-digit token in ntpd's "... Mon DD YYYY" banner.
  int year = 0;
  for (std::size_t i = 0; i + 4 <= version_string.size(); ++i) {
    const bool boundary_before =
        i == 0 || !std::isdigit(static_cast<unsigned char>(version_string[i - 1]));
    const bool boundary_after =
        i + 4 == version_string.size() ||
        !std::isdigit(static_cast<unsigned char>(version_string[i + 4]));
    if (!boundary_before || !boundary_after) continue;
    bool all_digits = true;
    for (int k = 0; k < 4; ++k) {
      if (!std::isdigit(static_cast<unsigned char>(version_string[i + k]))) {
        all_digits = false;
        break;
      }
    }
    if (!all_digits) continue;
    const int candidate = std::stoi(version_string.substr(i, 4));
    if (candidate >= 1990 && candidate <= 2100) year = candidate;
  }
  return year;
}

std::string normalize_os_label(const std::string& system) {
  std::string lower;
  lower.reserve(system.size());
  for (char c : system) {
    lower += static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
  }
  static constexpr const char* kLabels[] = {
      "cisco",  "junos",   "linux",    "bsd",   "darwin", "windows",
      "sun",    "vmkernel", "secureos", "qnx",  "cygwin", "isilon",
      "unix",
  };
  for (const char* label : kLabels) {
    if (lower.find(label) != std::string::npos) return label;
  }
  return "OTHER";
}

}  // namespace gorilla::ntp
