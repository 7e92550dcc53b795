#include "util/format.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <limits>
#include <string>

#include "util/rng.h"

namespace gorilla::util {
namespace {

TEST(TextTableTest, RendersAlignedColumns) {
  TextTable t({"Date", "IPs"});
  t.add_row({"2014-01-10", "1405186"});
  t.add_row({"2014-04-18", "106445"});
  const std::string out = t.to_string();
  EXPECT_NE(out.find("Date"), std::string::npos);
  EXPECT_NE(out.find("1405186"), std::string::npos);
  // Every line has the same start for column 2.
  const auto header_pos = out.find("IPs");
  const auto row_pos = out.find("1405186");
  EXPECT_EQ(header_pos % (out.find('\n') + 1),
            row_pos % (out.find('\n') + 1));
}

TEST(TextTableTest, RowCountTracksRows) {
  TextTable t({"a"});
  EXPECT_EQ(t.row_count(), 0u);
  t.add_row({"1"});
  t.add_row({"2"});
  EXPECT_EQ(t.row_count(), 2u);
}

TEST(TextTableTest, RejectsWidthMismatch) {
  TextTable t({"a", "b"});
  EXPECT_THROW(t.add_row({"only-one"}), std::invalid_argument);
  EXPECT_THROW(t.add_row({"1", "2", "3"}), std::invalid_argument);
}

TEST(TextTableTest, RejectsEmptyHeader) {
  EXPECT_THROW(TextTable({}), std::invalid_argument);
}

TEST(SiCountTest, ScalesUnits) {
  EXPECT_EQ(si_count(942), "942");
  EXPECT_EQ(si_count(106445), "106.4K");
  EXPECT_EQ(si_count(1405186), "1.41M");
  EXPECT_EQ(si_count(2.92e12), "2.92T");
}

TEST(BytesStrTest, ScalesUnits) {
  EXPECT_EQ(bytes_str(512), "512.0 B");
  EXPECT_EQ(bytes_str(514e9), "514.0 GB");
  EXPECT_EQ(bytes_str(1.2e15), "1.2 PB");
}

TEST(FixedTest, Precision) {
  EXPECT_EQ(fixed(4.309, 2), "4.31");
  EXPECT_EQ(fixed(0.001, 3), "0.001");
}

std::string printf_fixed(double v, int precision) {
  char buf[400];
  std::snprintf(buf, sizeof buf, "%.*f", precision, v);
  return buf;
}

std::string appended_fixed(double v, int precision) {
  std::string out = "x";
  append_fixed(out, v, precision);
  return out.substr(1);
}

TEST(AppendFixedTest, MatchesPrintfOnEdgeCases) {
  // Negative values that round to zero keep their sign, as printf does.
  EXPECT_EQ(appended_fixed(-0.0004, 3), "-0.000");
  EXPECT_EQ(appended_fixed(-0.0, 3), "-0.000");
  EXPECT_EQ(appended_fixed(0.0, 3), "0.000");
  // Exact binary ties (odd multiples of 1/16) round half to even.
  EXPECT_EQ(appended_fixed(0.0625, 3), "0.062");
  EXPECT_EQ(appended_fixed(0.1875, 3), "0.188");
  EXPECT_EQ(appended_fixed(-2.4375, 3), "-2.438");
  for (int j = -4001; j <= 4001; j += 2) {
    const double tie = j / 16.0;
    ASSERT_EQ(appended_fixed(tie, 3), printf_fixed(tie, 3)) << j;
  }
  // Decimal ".0005" values are not exact in binary: each rounds by which
  // side of the tie its double lies on.
  for (int k = -1200; k <= 1200; ++k) {
    const double near_tie = k / 1000.0 + (k < 0 ? -0.0005 : 0.0005);
    ASSERT_EQ(appended_fixed(near_tie, 3), printf_fixed(near_tie, 3)) << k;
  }
  for (const double v : {1e-300, 123456789.0125, -80.0, 119.9995, 1e22}) {
    for (int precision = 0; precision <= 8; ++precision) {
      EXPECT_EQ(appended_fixed(v, precision), printf_fixed(v, precision));
    }
  }
}

TEST(AppendFixedTest, MatchesPrintfOnRandomDraws) {
  // The ranges ntp::make_system_variables() draws from, plus wide ones.
  Rng rng(2024);
  const double ranges[][2] = {{-80.0, 80.0},   {0.0, 12.0},  {-120.0, 120.0},
                              {0.0, 1.0},      {0.1, 60.0},  {0.5, 120.0},
                              {-1e9, 1e9},     {-1e-3, 1e-3}};
  for (int i = 0; i < 200000; ++i) {
    const auto& r = ranges[i % 8];
    const double v = rng.uniform_real(r[0], r[1]);
    ASSERT_EQ(appended_fixed(v, 3), printf_fixed(v, 3)) << v;
  }
}

TEST(AppendDecimalTest, MatchesPrintf) {
  std::string out;
  append_decimal(out, std::numeric_limits<std::int64_t>::min());
  out += ' ';
  append_decimal(out, std::numeric_limits<std::uint64_t>::max());
  out += ' ';
  append_decimal(out, 0);
  out += ' ';
  append_decimal(out, -16);
  EXPECT_EQ(out, "-9223372036854775808 18446744073709551615 0 -16");
}

TEST(CompactTest, WideRange) {
  EXPECT_EQ(compact(0.0), "0");
  EXPECT_EQ(compact(600.0), "600");
  EXPECT_NE(compact(1e9).find("e"), std::string::npos);
}

TEST(SparklineTest, EmptySeries) {
  EXPECT_EQ(log_sparkline({}), "");
  EXPECT_EQ(sparkline({}), "");
}

TEST(SparklineTest, LengthMatchesSeries) {
  const std::vector<double> series = {1, 10, 100, 1000};
  // Each glyph is a 3-byte UTF-8 block character.
  EXPECT_EQ(log_sparkline(series).size(), series.size() * 3);
  EXPECT_EQ(sparkline(series).size(), series.size() * 3);
}

TEST(SparklineTest, MonotoneSeriesEndsHigh) {
  const std::vector<double> series = {1, 10, 100, 1000, 10000};
  const std::string s = log_sparkline(series);
  EXPECT_EQ(s.substr(s.size() - 3), "█");
  EXPECT_EQ(s.substr(0, 3), "▁");
}

TEST(SparklineTest, HandlesNonPositiveValues) {
  const std::vector<double> series = {0, 0, 5, 50};
  EXPECT_EQ(log_sparkline(series).size(), series.size() * 3);
}

TEST(SparklineTest, ConstantSeriesUniform) {
  const std::vector<double> series = {7, 7, 7};
  const std::string s = sparkline(series);
  EXPECT_EQ(s, "▁▁▁");
}

TEST(BannerTest, ContainsTitle) {
  const std::string b = banner("Figure 3");
  EXPECT_NE(b.find("Figure 3"), std::string::npos);
  EXPECT_NE(b.find("=="), std::string::npos);
}

}  // namespace
}  // namespace gorilla::util
