// Pins every output of the §3 census and the §4 victimology over a seeded
// synthetic stream, as CRC-32s of an exact (%.17g) text rendering.
//
// The stream is built to reach every branch of both analyses' per-entry and
// per-sample folds: victims witnessed by odd and even numbers of
// amplifiers, witnesses that tie on the derived attack start, addresses
// repeated within and across samples, unallocated and PBL-listed
// amplifiers and victims, empty, partial, scanner-only and low-volume
// tables, mode 6 and mode 7 entries, mega responders, an empty sample and a
// skipped week. A change to how the analyses store or fold their state must
// leave both CRCs alone; a change that moves them changes a paper output.
//
// Every accessor is read after the last end_sample(): unique_victims(), the
// per-AS packet totals and the churn views are complete only for closed
// samples.
#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <map>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "core/amplifiers.h"
#include "core/monlist_analysis.h"
#include "core/victims.h"
#include "util/crc32.h"
#include "util/rng.h"

namespace gorilla::core {
namespace {

net::RegistryConfig small_registry() {
  net::RegistryConfig cfg;
  cfg.num_ases = 300;
  return cfg;
}

std::string g(double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::uint32_t crc_of(const std::string& text) {
  return util::crc32(std::span<const std::uint8_t>(
      reinterpret_cast<const std::uint8_t*>(text.data()), text.size()));
}

struct Sample {
  int week = 0;
  util::Date date;
  std::vector<scan::AmplifierObservation> obs;
};

class AnalysisPinTest : public ::testing::Test {
 protected:
  AnalysisPinTest()
      : registry_(small_registry()), pbl_(registry_, net::PblConfig{}) {}

  /// Addresses drawn from the registry, plus unallocated (darknet) space
  /// and, when `end_hosts`, a share from residential (PBL-heavy) blocks.
  std::vector<net::Ipv4Address> pool(util::Rng& rng, std::size_t n,
                                     bool end_hosts) const {
    std::vector<net::Ipv4Address> out;
    for (std::size_t i = 0; i < n; ++i) {
      if (i % 9 == 4) {
        out.push_back(registry_.named().darknet.at(rng.uniform(1u << 20)));
      } else if (end_hosts && i % 3 == 1) {
        const auto a = registry_.random_address(
            rng, [](const net::RoutedBlock& b) { return b.residential; });
        out.push_back(a ? *a : registry_.random_address(rng));
      } else {
        out.push_back(registry_.random_address(rng));
      }
    }
    return out;
  }

  ntp::MonitorEntry entry(util::Rng& rng,
                          const std::vector<net::Ipv4Address>& victims) const {
    static constexpr std::uint16_t kPorts[] = {80, 123, 3074, 19, 27015, 53};
    ntp::MonitorEntry e;
    e.address = victims[rng.uniform(victims.size())];
    e.local_address = net::Ipv4Address(10, 0, 0, 1);
    e.port = rng.chance(0.8) ? kPorts[rng.uniform(6)]
                             : static_cast<std::uint16_t>(rng.uniform(65536));
    e.mode = rng.chance(0.3) ? 6 : 7;
    e.version = 2;
    // Few distinct (count, interval, last_seen) triples, so witnesses of
    // one victim often derive the same start.
    static constexpr std::uint32_t kCounts[] = {3, 40, 5000, 123456};
    static constexpr std::uint32_t kIntervals[] = {0, 1, 60, 3600};
    static constexpr std::uint32_t kLastSeen[] = {0, 10, 600, 86400};
    e.count = kCounts[rng.uniform(4)];
    e.avg_interval = kIntervals[rng.uniform(4)];
    e.last_seen = kLastSeen[rng.uniform(4)];
    switch (rng.uniform(8)) {
      case 0:  // scanner: one or two packets
        e.count = static_cast<std::uint32_t>(1 + rng.uniform(2));
        break;
      case 1:  // low volume: under one packet an hour
        e.avg_interval = 3601 + static_cast<std::uint32_t>(rng.uniform(9000));
        break;
      case 2:  // ordinary NTP client
        e.mode = static_cast<std::uint8_t>(1 + rng.uniform(5));
        break;
      default:
        break;
    }
    return e;
  }

  std::vector<Sample> stream() const {
    util::Rng rng(0x5eed'a11a'0005ULL);
    const auto amps = pool(rng, 70, /*end_hosts=*/true);
    const auto victims = pool(rng, 36, /*end_hosts=*/true);
    // Week 3 is skipped; week 5 is an empty sample.
    const int weeks[] = {0, 1, 2, 4, 5, 6};
    std::vector<Sample> out;
    for (const int week : weeks) {
      Sample s;
      s.week = week;
      s.date = util::onp_sample_dates()[static_cast<std::size_t>(week)];
      if (week == 5) {
        out.push_back(std::move(s));
        continue;
      }
      const util::SimTime base = util::onp_sample_day(week) *
                                 static_cast<util::SimTime>(util::kSecondsPerDay);
      for (std::size_t a = 0; a < amps.size(); ++a) {
        if (!rng.chance(0.7)) continue;
        scan::AmplifierObservation o;
        o.server_index = static_cast<std::uint32_t>(a);
        o.address = amps[a];
        o.probe_time = base + 3600 * static_cast<util::SimTime>(rng.uniform(3));
        const std::size_t kind = rng.uniform(10);
        std::size_t entries = 1 + rng.uniform(12);
        if (kind == 0) entries = 0;  // error-only reply: empty table
        for (std::size_t i = 0; i < entries; ++i) {
          o.table.push_back(entry(rng, victims));
        }
        if (kind == 1) {  // scanner-only table
          for (auto& e : o.table) e.count = 1;
        }
        if (kind == 2) {  // low-volume-only table
          for (auto& e : o.table) e.avg_interval = 7200;
        }
        o.table_partial = kind == 3;
        o.response_packets = 1 + o.table.size() / 6;
        o.response_udp_bytes = 8 + 72 * o.table.size();
        o.response_wire_bytes = kind == 4 ? 150'000 + 1000 * rng.uniform(400)
                                          : 90 + 80 * o.table.size();
        s.obs.push_back(o);
        if (kind == 5) s.obs.push_back(o);  // repeated within the sample
      }
      out.push_back(std::move(s));
    }
    return out;
  }

  static std::string render_census(const AmplifierCensus& ac) {
    std::string out;
    for (const auto& r : ac.rows()) {
      out += std::to_string(r.week) + ' ' + util::to_string(r.date) + ' ' +
             std::to_string(r.ips) + ' ' + std::to_string(r.slash24s) + ' ' +
             std::to_string(r.routed_blocks) + ' ' + std::to_string(r.asns) +
             ' ' + std::to_string(r.end_hosts) + ' ' + g(r.end_host_pct) +
             ' ' + g(r.ips_per_block) + ' ' + g(r.baf.min) + ' ' +
             g(r.baf.q1) + ' ' + g(r.baf.median) + ' ' + g(r.baf.q3) + ' ' +
             g(r.baf.max) + ' ' + std::to_string(r.baf.count) + ' ' +
             g(r.bytes_median) + ' ' + g(r.bytes_p95) + ' ' + g(r.bytes_max) +
             ' ' + std::to_string(r.mega_count) + ' ' +
             std::to_string(r.partial_tables);
      for (const auto n : r.by_continent) out += ' ' + std::to_string(n);
      out += '\n';
    }
    out += std::to_string(ac.unique_ips()) + ' ' +
           g(ac.first_sample_fraction()) + ' ' + g(ac.seen_once_fraction()) +
           '\n';
    for (const double b : ac.bytes_rank_curve()) out += g(b) + ';';
    out += '\n';
    for (const auto& [addr, bytes] : ac.mega_roster()) {
      out += net::to_string(addr) + '@' + std::to_string(bytes) + '\n';
    }
    for (const int w : ac.missing_weeks(8)) out += std::to_string(w) + ',';
    out += '\n';
    return out;
  }

  static std::string render_victims(const VictimAnalysis& va) {
    std::string out;
    for (const auto& r : va.rows()) {
      out += std::to_string(r.week) + ' ' + util::to_string(r.date) + ' ' +
             std::to_string(r.ips) + ' ' + std::to_string(r.routed_blocks) +
             ' ' + std::to_string(r.asns) + ' ' +
             std::to_string(r.end_hosts) + ' ' + g(r.end_host_pct) + ' ' +
             g(r.ips_per_block) + ' ' + g(r.packets_mean) + ' ' +
             g(r.packets_median) + ' ' + g(r.packets_p95) + ' ' +
             g(r.amplifiers_per_victim) + ' ' + g(r.median_window_seconds) +
             ' ' + g(r.scanner_mode6_share) + ' ' + g(r.victim_mode6_share) +
             '\n';
    }
    out += std::to_string(va.unique_victims()) + ' ' +
           std::to_string(va.total_packets()) + '\n';
    for (const auto& [port, share] : va.top_ports(1000)) {
      out += std::to_string(port) + '=' + g(share) + '\n';
    }
    for (const double p : va.victim_as_packets()) out += g(p) + ';';
    out += '\n';
    for (const double p : va.amplifier_as_packets()) out += g(p) + ';';
    out += '\n' + std::to_string(va.victim_as_count()) + ' ' +
           std::to_string(va.amplifier_as_count()) + '\n';
    for (const auto& [asn, packets] : va.top_victim_ases(1000)) {
      out += std::to_string(asn) + ':' + std::to_string(packets) + '\n';
    }
    for (const auto& [asn, packets] : va.amplifier_as_breakdown()) {
      out += std::to_string(asn) + '~' + std::to_string(packets) + '\n';
    }
    for (const auto& [hour, n] : va.attacks_per_hour()) {
      out += std::to_string(hour) + '#' + std::to_string(n) + '\n';
    }
    for (const auto& [median, p95] : va.duration_median_p95_by_sample()) {
      out += g(median) + '/' + g(p95) + '\n';
    }
    return out;
  }

  std::pair<std::string, std::string> run() const {
    AmplifierCensus ac(registry_, pbl_);
    VictimAnalysis va(registry_, pbl_);
    for (const auto& s : stream()) {
      ac.begin_sample(s.week, s.date);
      va.begin_sample(s.week, s.date);
      for (const auto& o : s.obs) {
        ac.add(o);
        va.add(o);
      }
      ac.end_sample();
      va.end_sample();
    }
    return {render_census(ac), render_victims(va)};
  }

  net::Registry registry_;
  net::PolicyBlockList pbl_;
};

TEST_F(AnalysisPinTest, StreamCoversEveryFoldBranch) {
  bool odd = false, even = false, tied = false, repeated = false;
  bool unallocated_amp = false, unallocated_victim = false;
  bool end_host_amp = false, end_host_victim = false;
  bool empty = false, partial = false, scanner = false, low_volume = false;
  bool mode6 = false, mode7 = false, mega = false;
  for (const auto& s : stream()) {
    std::map<std::uint32_t, std::vector<util::SimTime>> starts;
    std::map<std::uint32_t, int> amp_seen;
    for (const auto& o : s.obs) {
      repeated |= ++amp_seen[o.address.value()] == 2;
      unallocated_amp |= !registry_.block_index_of(o.address).has_value();
      end_host_amp |= pbl_.is_end_host(o.address);
      empty |= o.table.empty();
      partial |= o.table_partial;
      mega |= o.response_wire_bytes > kMegaThresholdBytes;
      for (const auto& e : o.table) {
        const auto cls = classify_client(e);
        scanner |= cls == ClientClass::kScannerOrLowVolume && e.count < 3;
        low_volume |= cls == ClientClass::kScannerOrLowVolume && e.count >= 3;
        const auto attack = derive_attack(e, o.probe_time, o.address);
        if (!attack) continue;
        mode6 |= e.mode == 6;
        mode7 |= e.mode == 7;
        starts[e.address.value()].push_back(attack->start_time);
      }
    }
    for (auto& [victim, st] : starts) {
      (st.size() % 2 ? odd : even) = true;
      std::sort(st.begin(), st.end());
      tied |= std::adjacent_find(st.begin(), st.end()) != st.end();
      const net::Ipv4Address ip{victim};
      unallocated_victim |= !registry_.block_index_of(ip).has_value();
      end_host_victim |= pbl_.is_end_host(ip);
    }
  }
  EXPECT_TRUE(odd && even && tied && repeated);
  EXPECT_TRUE(unallocated_amp && unallocated_victim);
  EXPECT_TRUE(end_host_amp && end_host_victim);
  EXPECT_TRUE(empty && partial && scanner && low_volume);
  EXPECT_TRUE(mode6 && mode7 && mega);
}

TEST_F(AnalysisPinTest, CensusAndVictimOutputsArePinned) {
  const auto [census, victims] = run();
  ASSERT_NE(census.find("@"), std::string::npos);   // mega roster non-empty
  ASSERT_NE(victims.find("#"), std::string::npos);  // attacks were derived
  // Captured from the hash-set and hash-map folds of both analyses.
  EXPECT_EQ(crc_of(census), 0x045568FEu) << census;
  EXPECT_EQ(crc_of(victims), 0x86F628E6u) << victims;
}

TEST_F(AnalysisPinTest, RepeatedRunsRenderTheSameBytes) {
  EXPECT_EQ(run(), run());
}

}  // namespace
}  // namespace gorilla::core
