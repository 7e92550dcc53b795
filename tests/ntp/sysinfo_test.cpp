#include "ntp/sysinfo.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <map>
#include <string>

namespace gorilla::ntp {
namespace {

TEST(SystemDistributionTest, PoolsHaveDistinctLeaders) {
  // Table 2: the overall NTP pool is cisco-led; amplifiers are linux-led;
  // megas are linux/junos.
  EXPECT_EQ(system_string_distribution(SystemPool::kAllNtp)[0].first, "cisco");
  EXPECT_EQ(system_string_distribution(SystemPool::kAllAmplifiers)[0].first,
            "linux");
  EXPECT_EQ(system_string_distribution(SystemPool::kMega)[0].first, "linux");
  EXPECT_EQ(system_string_distribution(SystemPool::kMega)[1].first, "junos");
}

TEST(SystemDistributionTest, SamplingTracksWeights) {
  util::Rng rng(1);
  std::map<std::string, int> counts;
  constexpr int n = 50000;
  for (int i = 0; i < n; ++i) {
    ++counts[sample_system_string(SystemPool::kAllNtp, rng)];
  }
  EXPECT_NEAR(counts["cisco"] / double(n), 0.484, 0.02);
  EXPECT_NEAR(counts["unix"] / double(n), 0.306, 0.02);
  EXPECT_NEAR(counts["linux"] / double(n), 0.19, 0.02);
}

TEST(SystemDistributionTest, AmplifierPoolLinuxDominates) {
  util::Rng rng(2);
  int linux_count = 0;
  constexpr int n = 20000;
  for (int i = 0; i < n; ++i) {
    if (sample_system_string(SystemPool::kAllAmplifiers, rng) == "linux") {
      ++linux_count;
    }
  }
  EXPECT_NEAR(linux_count / double(n), 0.80, 0.02);
}

TEST(CompileYearTest, CumulativeFractionsMatchPaper) {
  util::Rng rng(3);
  constexpr int n = 100000;
  int before2004 = 0, before2010 = 0, before2012 = 0, recent = 0;
  for (int i = 0; i < n; ++i) {
    const int y = sample_compile_year(rng);
    EXPECT_GE(y, 1998);
    EXPECT_LE(y, 2014);
    if (y < 2004) ++before2004;
    if (y < 2010) ++before2010;
    if (y < 2012) ++before2012;
    if (y >= 2013) ++recent;
  }
  EXPECT_NEAR(before2004 / double(n), 0.13, 0.01);   // §3.3: 13% before 2004
  EXPECT_NEAR(before2010 / double(n), 0.23, 0.01);   // 23% before 2010
  EXPECT_NEAR(before2012 / double(n), 0.59, 0.01);   // 59% before 2012
  EXPECT_NEAR(recent / double(n), 0.21, 0.01);       // 21% in 2013-14
}

TEST(StratumTest, NineteenPercentUnsynchronized) {
  util::Rng rng(4);
  constexpr int n = 100000;
  int stratum16 = 0;
  for (int i = 0; i < n; ++i) {
    const int s = sample_stratum(rng);
    EXPECT_GE(s, 1);
    EXPECT_LE(s, 16);
    if (s == kStratumUnsynchronized) ++stratum16;
  }
  EXPECT_NEAR(stratum16 / double(n), 0.19, 0.01);
}

/// The field-by-field identity builder make_system_variables() replaced,
/// kept verbatim (snprintf argument lists and all) as the reference its
/// text must reproduce byte for byte, draw for draw.
SystemVariables reference_system_variables(const std::string& system,
                                           int compile_year, int stratum,
                                           util::Rng& rng) {
  SystemVariables v;
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
  v.version = buf;
  v.system = system;
  v.processor = system == "cisco" || system == "junos" ? "" : "x86_64";
  v.stratum = stratum;
  v.leap = stratum == kStratumUnsynchronized ? 3 : 0;
  v.rootdelay_ms = rng.uniform_real(0.1, 60.0);
  v.rootdisp_ms = rng.uniform_real(0.5, 120.0);
  auto num = [&](double lo, double hi, int prec) {
    char b[48];
    std::snprintf(b, sizeof b, "%.*f", prec, rng.uniform_real(lo, hi));
    return std::string(b);
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
  const bool terse = system == "cisco" || system == "junos" ||
                     system == "vmkernel" || system == "qnx";
  v.extras.emplace_back("refid", refid);
  v.extras.emplace_back("reftime", stamp);
  if (!terse) {
    v.extras.emplace_back("clock", stamp);
    v.extras.emplace_back("offset", num(-80.0, 80.0, 3));
    v.extras.emplace_back("sys_jitter", num(0.0, 12.0, 3));
    if (rng.chance(0.5)) {
      v.extras.emplace_back("peer",
                            std::to_string(rng.uniform_int(1000, 65000)));
      v.extras.emplace_back("tc", std::to_string(rng.uniform_int(6, 10)));
      v.extras.emplace_back("mintc", "3");
      v.extras.emplace_back("frequency", num(-120.0, 120.0, 3));
      v.extras.emplace_back("clk_jitter", num(0.0, 8.0, 3));
      v.extras.emplace_back("clk_wander", num(0.0, 1.0, 3));
      v.extras.emplace_back("ss_uptime", std::to_string(rng.uniform(9000000)));
      v.extras.emplace_back("ss_reset", std::to_string(rng.uniform(900000)));
      v.extras.emplace_back("ss_received",
                            std::to_string(rng.uniform(50000000)));
      v.extras.emplace_back("ss_badformat", std::to_string(rng.uniform(999)));
      v.extras.emplace_back("ss_declined", std::to_string(rng.uniform(9999)));
      v.extras.emplace_back("ss_limited",
                            std::to_string(rng.uniform(999999)));
      v.extras.emplace_back("ss_kodsent", std::to_string(rng.uniform(99999)));
    }
  }
  return v;
}

/// The reference's text as the original render() produced it (snprintf
/// for the numbers).
std::string reference_render(const SystemVariables& v) {
  std::string out = "version=\"" + v.version + "\", processor=\"" +
                    v.processor + "\", system=\"" + v.system + "\"";
  char num[64];
  std::snprintf(num, sizeof num, ", leap=%d, stratum=%d", v.leap, v.stratum);
  out += num;
  std::snprintf(num, sizeof num, ", rootdelay=%.3f, rootdisp=%.3f",
                v.rootdelay_ms, v.rootdisp_ms);
  out += num;
  for (const auto& [key, value] : v.extras) out += ", " + key + "=" + value;
  return out;
}

TEST(MakeSystemVariablesTest, EmbedsIdentity) {
  util::Rng rng(5);
  const auto id = make_system_variables("junos", 2009, 16, rng);
  EXPECT_EQ(id.stratum, 16);
  const auto vars = parse_variable_list(id.readvar);
  EXPECT_EQ(vars.at("system"), "junos");
  EXPECT_EQ(vars.at("stratum"), "16");
  EXPECT_EQ(vars.at("leap"), "3");
  EXPECT_NE(vars.at("version").find("2009"), std::string::npos);
  EXPECT_NE(vars.at("version").find("ntpd "), std::string::npos);
}

TEST(MakeSystemVariablesTest, TextMatchesFieldByFieldReference) {
  // Every system string, both leap states and every response tier, over
  // enough draws to cover both halves of each chance() and wide numeric
  // ranges; the two generators must also leave the stream in step.
  util::Rng rng(41);
  util::Rng ref_rng(41);
  static const char* kSystems[] = {"linux", "cisco",  "junos", "bsd",
                                   "vmkernel", "qnx", "unix",  "windows"};
  for (int i = 0; i < 4000; ++i) {
    const std::string system = kSystems[i % 8];
    const int year = 1998 + i % 17;
    const int stratum = i % 5 == 0 ? 16 : 1 + i % 6;
    const auto id = make_system_variables(system, year, stratum, rng);
    const auto ref =
        reference_system_variables(system, year, stratum, ref_rng);
    ASSERT_EQ(id.readvar, reference_render(ref)) << "draw " << i;
    ASSERT_EQ(id.readvar, ref.render()) << "draw " << i;
    ASSERT_EQ(id.stratum, ref.stratum);
    ASSERT_EQ(id.readvar.capacity() - id.readvar.size(), 0u);
    ASSERT_EQ(rng.next(), ref_rng.next());
  }
}

TEST(ExtractCompileYearTest, FindsTrailingYear) {
  EXPECT_EQ(extract_compile_year("ntpd 4.2.6p5@1.2349-o Tue May 10 2011"),
            2011);
  EXPECT_EQ(extract_compile_year("ntpd 4.1.1@1.786 Mon Feb  3 2003"), 2003);
}

TEST(ExtractCompileYearTest, IgnoresNonYearDigits) {
  EXPECT_EQ(extract_compile_year("ntpd 4.2.8p15"), 0);
  EXPECT_EQ(extract_compile_year(""), 0);
  // 2349 in the build number is a plausible year token; the last valid year
  // wins, which is the date's.
  EXPECT_EQ(extract_compile_year("ntpd 4.2.6@1.2349-o Jan 5 2012"), 2012);
}

TEST(ExtractCompileYearTest, RoundTripsWithGenerator) {
  util::Rng rng(6);
  for (int i = 0; i < 500; ++i) {
    const int year = sample_compile_year(rng);
    const auto id = make_system_variables("linux", year, 2, rng);
    const auto version = parse_variable_list(id.readvar).at("version");
    EXPECT_EQ(extract_compile_year(version), year) << version;
  }
}

TEST(NormalizeOsLabelTest, MapsVariants) {
  EXPECT_EQ(normalize_os_label("Linux/2.6.32"), "linux");
  EXPECT_EQ(normalize_os_label("Linux2.4.20"), "linux");
  EXPECT_EQ(normalize_os_label("cisco IOS"), "cisco");
  EXPECT_EQ(normalize_os_label("JUNOS 10.4"), "junos");
  EXPECT_EQ(normalize_os_label("FreeBSD/9.1 bsd"), "bsd");
  EXPECT_EQ(normalize_os_label("UNIX"), "unix");
  EXPECT_EQ(normalize_os_label("Windows"), "windows");
  EXPECT_EQ(normalize_os_label("SomethingElse OS"), "OTHER");
}

TEST(NormalizeOsLabelTest, CiscoBeforeUnixForIosXr) {
  // Some Cisco IOS-XR devices report "UNIX" — the label logic checks cisco
  // first so explicit cisco strings stay cisco.
  EXPECT_EQ(normalize_os_label("cisco-UNIX"), "cisco");
}

}  // namespace
}  // namespace gorilla::ntp
