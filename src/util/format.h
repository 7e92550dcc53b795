// ASCII rendering shared by the bench harnesses.
//
// Every bench regenerates one of the paper's tables or figures; figures are
// rendered as aligned numeric series (one row per x value) plus an optional
// log-scale sparkline so the shape — rise, peak, decline, crossover — is
// visible directly in terminal output.
#pragma once

#include <charconv>
#include <cstdint>
#include <initializer_list>
#include <string>
#include <vector>

namespace gorilla::util {

/// Fixed-width text table: set headers, append rows, render aligned.
class TextTable {
 public:
  explicit TextTable(std::vector<std::string> headers);

  /// Appends a row; must have exactly as many cells as there are headers.
  void add_row(std::vector<std::string> cells);

  [[nodiscard]] std::size_t row_count() const noexcept { return rows_.size(); }

  /// Renders with single-space-padded columns and a dashed header rule.
  [[nodiscard]] std::string to_string() const;

 private:
  std::vector<std::string> headers_;
  std::vector<std::vector<std::string>> rows_;
};

/// Human-readable count: 1405186 -> "1.41M", 942 -> "942".
[[nodiscard]] std::string si_count(double v);

/// Human-readable byte count: 514e9 -> "514.0 GB".
[[nodiscard]] std::string bytes_str(double v);

/// Fixed-precision double without trailing-zero noise ("4.31", "0.001").
[[nodiscard]] std::string fixed(double v, int precision);

/// Appends `v` exactly as printf("%.*f", precision, v) renders it, via
/// std::to_chars: the same correctly rounded digits (ties to even, "-0.000"
/// for small negatives) without parsing a format string per call.
void append_fixed(std::string& out, double v, int precision);

/// Appends the decimal digits of an integer (printf "%d" / "%llu" text).
template <typename Int>
void append_decimal(std::string& out, Int v) {
  char buf[24];
  const auto res = std::to_chars(buf, buf + sizeof buf, v);
  out.append(buf, res.ptr);
}

/// Scientific-ish compact number for wide-dynamic-range figure columns.
[[nodiscard]] std::string compact(double v);

/// A one-line log-scale sparkline over the series (empty series -> "").
/// Non-positive values render as the lowest glyph.
[[nodiscard]] std::string log_sparkline(const std::vector<double>& series);

/// A one-line linear sparkline over the series.
[[nodiscard]] std::string sparkline(const std::vector<double>& series);

/// Section banner used by benches: "== Figure 3: ... ==".
[[nodiscard]] std::string banner(const std::string& title);

}  // namespace gorilla::util
