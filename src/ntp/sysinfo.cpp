#include "ntp/sysinfo.h"

#include <algorithm>
#include <cctype>
#include <charconv>
#include <utility>

#include "util/format.h"
#include "util/mem_stats.h"

namespace gorilla::ntp {

namespace {

/// Longest identity make_system_variables() writes is ~530 bytes (a full
/// ntpd install with every statistic at its widest).
constexpr std::size_t kIdentityReserveBytes = 576;

/// Appends a non-negative `v` as printf's "%*d" (fill ' ') or "%0*d" (fill
/// '0') writes it: at least `width` characters.
void append_padded(std::string& out, std::int64_t v, std::size_t width,
                   char fill) {
  char digits[24];
  const auto res = std::to_chars(digits, digits + sizeof digits, v);
  const auto n = static_cast<std::size_t>(res.ptr - digits);
  if (n < width) out.append(width - n, fill);
  out.append(digits, res.ptr);
}

/// Appends `v` as printf's "%08x" writes it.
void append_hex8(std::string& out, unsigned v) {
  char hex[8];
  const auto res = std::to_chars(hex, hex + sizeof hex, v, 16);
  out.append(sizeof hex - static_cast<std::size_t>(res.ptr - hex), '0')
      .append(hex, res.ptr);
}

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

std::uint8_t sample_system_row(SystemPool pool, util::Rng& rng) {
  const auto& dist = system_string_distribution(pool);
  double total = 0.0;
  for (const auto& [_, w] : dist) total += w;
  double u = rng.uniform01() * total;
  for (std::size_t row = 0; row < dist.size(); ++row) {
    u -= dist[row].second;
    if (u <= 0.0) return static_cast<std::uint8_t>(row);
  }
  return static_cast<std::uint8_t>(dist.size() - 1);
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

std::string make_system_variables(std::string_view system, int compile_year,
                                  int stratum, util::Rng& rng,
                                  DrawMode mode) {
  // Every draw is its own statement, so the stream order is the code order.
  // The values of one printf directive string below (the banner, the refid,
  // the timestamp) are drawn right to left: the order the pinned identities
  // were drawn in (DESIGN.md §3g).
  const bool render = mode == DrawMode::kRender;
  static constexpr const char* kMonths[] = {"Jan", "Feb", "Mar", "Apr",
                                            "May", "Jun", "Jul", "Aug",
                                            "Sep", "Oct", "Nov", "Dec"};
  // The version banner: "ntpd 4.<min>.<point>p<patch>@1.<build>-o <Mon> <day>
  // <year>".
  const auto patch = rng.uniform_int(0, 8);
  const auto day = rng.uniform_int(1, 28);
  const char* month = kMonths[rng.uniform(12)];
  const auto build = rng.uniform_int(1500, 2600);
  const auto point = rng.uniform_int(0, 8);
  const double rootdelay_ms = rng.uniform_real(0.1, 60.0);
  const double rootdisp_ms = rng.uniform_real(0.5, 120.0);
  // The refid, a dotted quad, last octet first.
  const auto ref_d = rng.uniform_int(1, 254);
  const auto ref_c = rng.uniform_int(0, 255);
  const auto ref_b = rng.uniform_int(0, 255);
  const auto ref_a = rng.uniform_int(1, 223);
  // The reference timestamp, milliseconds first.
  const auto stamp_ms = rng.uniform_int(0, 999);
  const auto stamp_sec = rng.uniform_int(0, 59);
  const auto stamp_min = rng.uniform_int(0, 59);
  const auto stamp_hour = rng.uniform_int(0, 23);
  const auto stamp_day = rng.uniform_int(1, 28);
  const char* stamp_month = kMonths[rng.uniform(4)];
  const auto stamp_frac = static_cast<unsigned>(rng.next() >> 32);
  const auto stamp_secs =
      static_cast<unsigned>(rng.next() >> 36) | 0xd6000000u;

  std::string out;
  auto var = [&out](std::string_view key) -> std::string& {
    return out.append(", ").append(key).append("=");
  };
  // Three response tiers: network devices are terse; about half of full
  // ntpd installs report the moderate set; the rest dump everything.
  const bool terse = system == "cisco" || system == "junos" ||
                     system == "vmkernel" || system == "qnx";
  if (render) {
    // The text is written in wire order, so every value lands exactly
    // where SystemVariables::render() put it, formatted as the printf
    // directives noted alongside would format it.
    out.reserve(kIdentityReserveBytes);
    std::string version = "ntpd 4.";  // "ntpd 4.%d.%dp%d@1.%04d-o %s %2d %d"
    util::append_decimal(version, compile_year >= 2010 ? 2 : 1);
    version += '.';
    util::append_decimal(version, point);
    version += 'p';
    util::append_decimal(version, patch);
    version += "@1.";
    append_padded(version, build, 4, '0');
    version.append("-o ").append(month) += ' ';
    append_padded(version, day, 2, ' ');
    version += ' ';
    util::append_decimal(version, compile_year);
    append_core_variables(
        out, version, system == "cisco" || system == "junos" ? "" : "x86_64",
        system, stratum == kStratumUnsynchronized ? 3 : 0, stratum,
        rootdelay_ms, rootdisp_ms);
    util::append_decimal(var("refid"), ref_a);  // "%d.%d.%d.%d"
    for (const auto octet : {ref_b, ref_c, ref_d}) {
      util::append_decimal(out += '.', octet);
    }
    // "0x%08x.%08x  Fri, %s %2d 2014 %2d:%02d:%02d.%03d"
    const auto append_stamp = [&](std::string& to) {
      append_hex8(to += "0x", stamp_secs);
      append_hex8(to += '.', stamp_frac);
      to.append("  Fri, ").append(stamp_month) += ' ';
      append_padded(to, stamp_day, 2, ' ');
      to += " 2014 ";
      append_padded(to, stamp_hour, 2, ' ');
      append_padded(to += ':', stamp_min, 2, '0');
      append_padded(to += ':', stamp_sec, 2, '0');
      append_padded(to += '.', stamp_ms, 3, '0');
    };
    append_stamp(var("reftime"));
    if (!terse) append_stamp(var("clock"));
  }
  if (!terse) {
    // Daemon variables beyond the core set. Network devices (cisco, junos)
    // report a short list; full ntpd installs return a dozen statistics —
    // the source of the version-response size spread behind Figure 4c's
    // 3.5/4.6/6.9 on-wire BAF quartiles.
    auto num = [&](std::string_view key, double lo, double hi) {
      const double v = rng.uniform_real(lo, hi);
      if (render) util::append_fixed(var(key), v, 3);
    };
    auto dec = [&](std::string_view key, auto v) {
      if (render) util::append_decimal(var(key), v);
    };
    num("offset", -80.0, 80.0);
    num("sys_jitter", 0.0, 12.0);
    if (rng.chance(0.5)) {
      dec("peer", rng.uniform_int(1000, 65000));
      dec("tc", rng.uniform_int(6, 10));
      if (render) var("mintc").append("3");
      num("frequency", -120.0, 120.0);
      num("clk_jitter", 0.0, 8.0);
      num("clk_wander", 0.0, 1.0);
      // Full installs also dump daemon statistics to READVAR.
      dec("ss_uptime", rng.uniform(9000000));
      dec("ss_reset", rng.uniform(900000));
      dec("ss_received", rng.uniform(50000000));
      dec("ss_badformat", rng.uniform(999));
      dec("ss_declined", rng.uniform(9999));
      dec("ss_limited", rng.uniform(999999));
      dec("ss_kodsent", rng.uniform(99999));
    }
  }
  out.shrink_to_fit();
  return out;
}

namespace {

/// Bytes of READVAR text held by live ServerIdentity objects.
util::MemStats::Counter& identity_bytes() {
  static auto& counter = util::MemStats::instance().counter("ntp.identity");
  return counter;
}

}  // namespace

ServerIdentity::ServerIdentity(std::string text, int stratum_value)
    : text_(std::move(text)), stratum(stratum_value) {
  if (!text_.empty()) identity_bytes().add(text_.size());
}

ServerIdentity::ServerIdentity(const IdentityDraw& draw, int stratum_value)
    : draws_(draw.rng),
      compile_year_(static_cast<std::uint16_t>(draw.compile_year)),
      pool_(draw.pool),
      row_(draw.row),
      stratum(stratum_value) {}

ServerIdentity::ServerIdentity(const ServerIdentity& other)
    : text_(other.text_),
      draws_(other.draws_),
      compile_year_(other.compile_year_),
      pool_(other.pool_),
      row_(other.row_),
      stratum(other.stratum) {
  if (!text_.empty()) identity_bytes().add(text_.size());
}

ServerIdentity::ServerIdentity(ServerIdentity&& other) noexcept
    : text_(std::exchange(other.text_, {})),
      draws_(other.draws_),
      compile_year_(other.compile_year_),
      pool_(other.pool_),
      row_(other.row_),
      stratum(other.stratum) {}

ServerIdentity& ServerIdentity::operator=(ServerIdentity other) noexcept {
  // `other` leaves with this identity's old text and charge.
  std::swap(text_, other.text_);
  std::swap(draws_, other.draws_);
  std::swap(compile_year_, other.compile_year_);
  std::swap(pool_, other.pool_);
  std::swap(row_, other.row_);
  std::swap(stratum, other.stratum);
  return *this;
}

ServerIdentity::~ServerIdentity() {
  if (!text_.empty()) identity_bytes().sub(text_.size());
}

const std::string& ServerIdentity::readvar() const {
  if (!rendered()) {
    util::Rng rng = draws_;
    text_ = make_system_variables(
        system_string_distribution(pool_)[row_].first, compile_year_,
        stratum, rng);
    identity_bytes().add(text_.size());
  }
  return text_;
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
