#include "util/format.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <stdexcept>

namespace gorilla::util {

TextTable::TextTable(std::vector<std::string> headers)
    : headers_(std::move(headers)) {
  if (headers_.empty())
    throw std::invalid_argument("TextTable: need at least one column");
}

void TextTable::add_row(std::vector<std::string> cells) {
  if (cells.size() != headers_.size())
    throw std::invalid_argument("TextTable: row width mismatch");
  rows_.push_back(std::move(cells));
}

std::string TextTable::to_string() const {
  std::vector<std::size_t> width(headers_.size());
  for (std::size_t c = 0; c < headers_.size(); ++c) width[c] = headers_[c].size();
  for (const auto& row : rows_) {
    for (std::size_t c = 0; c < row.size(); ++c)
      width[c] = std::max(width[c], row[c].size());
  }
  std::string out;
  auto emit_row = [&](const std::vector<std::string>& row) {
    for (std::size_t c = 0; c < row.size(); ++c) {
      out += row[c];
      out.append(width[c] - row[c].size() + (c + 1 < row.size() ? 2 : 0), ' ');
    }
    out += '\n';
  };
  emit_row(headers_);
  std::size_t total = 0;
  for (std::size_t c = 0; c < width.size(); ++c)
    total += width[c] + (c + 1 < width.size() ? 2 : 0);
  out.append(total, '-');
  out += '\n';
  for (const auto& row : rows_) emit_row(row);
  return out;
}

std::string si_count(double v) {
  char buf[32];
  const double a = std::fabs(v);
  if (a >= 1e12) {
    std::snprintf(buf, sizeof buf, "%.2fT", v / 1e12);
  } else if (a >= 1e9) {
    std::snprintf(buf, sizeof buf, "%.2fB", v / 1e9);
  } else if (a >= 1e6) {
    std::snprintf(buf, sizeof buf, "%.2fM", v / 1e6);
  } else if (a >= 1e4) {
    std::snprintf(buf, sizeof buf, "%.1fK", v / 1e3);
  } else {
    std::snprintf(buf, sizeof buf, "%.0f", v);
  }
  return buf;
}

std::string bytes_str(double v) {
  static constexpr const char* units[] = {"B", "KB", "MB", "GB", "TB", "PB"};
  int u = 0;
  while (std::fabs(v) >= 1000.0 && u < 5) {
    v /= 1000.0;
    ++u;
  }
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.1f %s", v, units[u]);
  return buf;
}

void append_fixed(std::string& out, double v, int precision) {
  // DBL_MAX has 309 integer digits: room for any double at precision <= 80.
  char buf[400];
  const auto res = std::to_chars(buf, buf + sizeof buf, v,
                                 std::chars_format::fixed, precision);
  out.append(buf, res.ptr);
}

std::string fixed(double v, int precision) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.*f", precision, v);
  return buf;
}

std::string compact(double v) {
  const double a = std::fabs(v);
  char buf[32];
  // Exact zero test on purpose: 0.0 prints as "0", not "0.00e+00".
  if (a != 0.0 && (a < 1e-3 || a >= 1e7)) {  // NOLINT(float-eq)
    std::snprintf(buf, sizeof buf, "%.3g", v);
  } else if (a >= 100.0 || v == std::floor(v)) {
    std::snprintf(buf, sizeof buf, "%.0f", v);
  } else {
    std::snprintf(buf, sizeof buf, "%.3f", v);
  }
  return buf;
}

namespace {

std::string render_sparkline(const std::vector<double>& series, bool log_scale) {
  static constexpr const char* glyphs[] = {"▁", "▂", "▃", "▄",
                                           "▅", "▆", "▇", "█"};
  if (series.empty()) return "";
  std::vector<double> vals = series;
  if (log_scale) {
    // 0.0 is a literal "unset" sentinel here, never a computed value.
    double min_pos = 0.0;
    for (double v : vals)
      if (v > 0.0 && (min_pos == 0.0 || v < min_pos)) min_pos = v;  // NOLINT(float-eq)
    if (min_pos == 0.0) min_pos = 1.0;  // NOLINT(float-eq)
    for (auto& v : vals) v = std::log10(std::max(v, min_pos / 10.0));
  }
  const auto [mn_it, mx_it] = std::minmax_element(vals.begin(), vals.end());
  const double mn = *mn_it, mx = *mx_it;
  std::string out;
  for (double v : vals) {
    int idx = mx > mn ? static_cast<int>((v - mn) / (mx - mn) * 7.999) : 0;
    idx = std::clamp(idx, 0, 7);
    out += glyphs[idx];
  }
  return out;
}

}  // namespace

std::string log_sparkline(const std::vector<double>& series) {
  return render_sparkline(series, /*log_scale=*/true);
}

std::string sparkline(const std::vector<double>& series) {
  return render_sparkline(series, /*log_scale=*/false);
}

std::string banner(const std::string& title) {
  std::string out = "== " + title + " ==";
  return out + "\n" + std::string(out.size(), '=') + "\n";
}

}  // namespace gorilla::util
