#include "sim/scanner.h"

#include <gtest/gtest.h>

#include "scan/prober.h"
#include "sim/attack.h"
#include "sim/sharded_executor.h"
#include "study/bus.h"
#include "study/collector_sink.h"
#include "study/events.h"
#include "telemetry/darknet.h"
#include "telemetry/flow.h"
#include "util/bytes.h"
#include "util/crc32.h"
#include "util/thread_pool.h"

namespace gorilla::sim {
namespace {

WorldConfig tiny_config() {
  WorldConfig cfg;
  cfg.scale = 200;
  cfg.registry.num_ases = 2000;
  return cfg;
}

ScanTrafficConfig scan_config() {
  ScanTrafficConfig cfg;
  return cfg;
}

class ScanTrafficTest : public ::testing::Test {
 protected:
  ScanTrafficTest() : world_(tiny_config()), scans_(world_, scan_config()) {}

  telemetry::DarknetTelescope make_telescope() {
    telemetry::DarknetConfig cfg;
    cfg.telescope = world_.registry().named().darknet;
    return telemetry::DarknetTelescope(cfg);
  }

  World world_;
  ScanTraffic scans_;
};

TEST_F(ScanTrafficTest, ActorsIncludeResearchAndMalicious) {
  std::size_t benign = 0, malicious = 0;
  for (const auto& a : scans_.actors()) {
    (a.benign ? benign : malicious)++;
  }
  EXPECT_EQ(benign, 6u);
  EXPECT_GT(malicious, 10u);
}

TEST_F(ScanTrafficTest, MaliciousOnsetMidDecember) {
  for (const auto& a : scans_.actors()) {
    if (!a.benign) {
      EXPECT_GE(a.first_day, scan_config().malicious_onset_day);
      EXPECT_LT(a.first_day, scan_config().malicious_onset_day +
                                 scan_config().malicious_ramp_days);
    }
  }
}

TEST_F(ScanTrafficTest, DarknetQuietBeforeOnsetBusyAfter) {
  auto telescope = make_telescope();
  study::CollectorSink sink;
  sink.darknet = &telescope;
  for (int day = 0; day < 140; ++day) {
    scans_.run_day(day, sink, &telescope, {});
  }
  const auto per_day = telescope.unique_scanners_per_day();
  auto scanners_on = [&](int day) {
    const auto it = per_day.find(day);
    return it == per_day.end() ? std::uint64_t{0} : it->second;
  };
  // Average scanners/day in November vs February.
  double nov = 0, feb = 0;
  for (int d = 0; d < 30; ++d) nov += static_cast<double>(scanners_on(d));
  for (int d = 100; d < 130; ++d) feb += static_cast<double>(scanners_on(d));
  EXPECT_GT(feb, nov * 5 + 10);
}

TEST_F(ScanTrafficTest, ScanningContinuesThroughRemediation) {
  // §5.1: scanning stays high even as the vulnerable pool collapses.
  auto telescope = make_telescope();
  study::CollectorSink sink;
  sink.darknet = &telescope;
  for (int day = 0; day < 170; ++day) {
    scans_.run_day(day, sink, &telescope, {});
  }
  const auto per_day = telescope.unique_scanners_per_day();
  double march = 0, april = 0;
  for (int d = 120; d < 150; ++d) {
    const auto it = per_day.find(d);
    if (it != per_day.end()) march += static_cast<double>(it->second);
  }
  for (int d = 150; d < 170; ++d) {
    const auto it = per_day.find(d);
    if (it != per_day.end()) april += static_cast<double>(it->second);
  }
  EXPECT_GT(april / 20.0, march / 30.0 * 0.5);
}

TEST_F(ScanTrafficTest, BenignFractionIdentifiable) {
  auto telescope = make_telescope();
  study::CollectorSink sink;
  sink.darknet = &telescope;
  for (int day = 0; day < 60; ++day) {
    scans_.run_day(day, sink, &telescope, {});
  }
  const auto monthly = telescope.monthly_volumes();
  ASSERT_FALSE(monthly.empty());
  // Before the malicious onset (first month), research dominates.
  EXPECT_GT(monthly.front().benign_fraction(), 0.5);
}

TEST_F(ScanTrafficTest, VantageSeesScanFlowsWithLinuxTtl) {
  const auto& named = world_.registry().named();
  telemetry::FlowCollector merit("merit", {named.merit_space});
  study::CollectorSink sink;
  sink.vantages = {&merit};
  for (int day = 50; day < 80; ++day) {
    scans_.run_day(day, sink, nullptr, sink.vantages);
  }
  ASSERT_FALSE(merit.flows().empty());
  for (const auto& f : merit.flows()) {
    EXPECT_EQ(f.dst_port, net::kNtpPort);
    EXPECT_EQ(f.ttl, kScanTtl);
  }
}

TEST_F(ScanTrafficTest, SeedMonitorTablesLeavesScannerEntries) {
  scans_.seed_monitor_tables(0);
  std::size_t with_entries = 0;
  for (const auto ai : world_.amplifier_indices()) {
    const auto* server = world_.detailed(ai);
    if (server != nullptr && server->monitor().size() > 0) ++with_entries;
  }
  // Research scanners sweep everything: every amplifier has entries.
  EXPECT_GT(with_entries, world_.amplifier_indices().size() * 9 / 10);
}

TEST_F(ScanTrafficTest, SeededEntriesClassifyAsScanners) {
  scans_.seed_monitor_tables(0);
  const auto ai = world_.amplifier_indices().front();
  const auto* server = world_.detailed(ai);
  ASSERT_NE(server, nullptr);
  const auto entries = server->monitor().dump(
      70 * util::kSecondsPerDay, server->config().address);
  ASSERT_FALSE(entries.empty());
  for (const auto& e : entries) {
    // Probe entries: mode 6 or 7, tiny counts — the §4.2 scanner class.
    EXPECT_GE(e.mode, 6);
    EXPECT_LT(e.count, 3u);
  }
}

TEST_F(ScanTrafficTest, DeterministicGivenSeed) {
  World w2(tiny_config());
  ScanTraffic s2(w2, scan_config());
  ASSERT_EQ(scans_.actors().size(), s2.actors().size());
  for (std::size_t i = 0; i < scans_.actors().size(); ++i) {
    EXPECT_EQ(scans_.actors()[i].address, s2.actors()[i].address);
    EXPECT_EQ(scans_.actors()[i].first_day, s2.actors()[i].first_day);
  }
}

/// Detailed amplifiers whose monlist is fixed by `week`.
std::vector<std::uint32_t> fixed_by(const World& world, int week) {
  std::vector<std::uint32_t> out;
  for (const auto ai : world.amplifier_indices()) {
    if (!world.servers()[ai].monlist_live(week) &&
        world.detailed(ai) != nullptr) {
      out.push_back(ai);
    }
  }
  return out;
}

const net::Ipv4Address kProberSource(198, 51, 100, 7);

TEST_F(ScanTrafficTest, SeedingSkipsTablesFixedByThisWeek) {
  constexpr int kWeek = 4;
  const auto fixed = fixed_by(world_, kWeek);
  ASSERT_FALSE(fixed.empty());
  scans_.seed_monitor_tables(kWeek);
  for (const auto ai : fixed) {
    EXPECT_EQ(world_.detailed(ai)->monitor().size(), 0u) << "server " << ai;
  }
  std::size_t live_with_entries = 0;
  for (const auto ai : world_.amplifier_indices()) {
    const auto* server = world_.detailed(ai);
    if (server != nullptr && world_.servers()[ai].monlist_live(kWeek) &&
        server->monitor().size() > 0) {
      ++live_with_entries;
    }
  }
  EXPECT_GT(live_with_entries, 0u);
}

TEST_F(ScanTrafficTest, TransitionPassLeavesFixedTablesEmpty) {
  constexpr int kWeek = 4;
  for (int week = 0; week <= kWeek; ++week) scans_.seed_monitor_tables(week);
  const auto fixed = fixed_by(world_, kWeek);
  ASSERT_FALSE(fixed.empty());
  std::size_t seeded = 0;  // filled by the weeks before each fix
  for (const auto ai : fixed) {
    if (world_.detailed(ai)->monitor().size() > 0) ++seeded;
  }
  ASSERT_GT(seeded, 0u);
  scan::Prober prober(world_, kProberSource);
  (void)prober.run_monlist_sample(kWeek,
                                  [](const scan::AmplifierObservation&) {});
  // The pass releases each fixed table and sends its server no probe.
  for (const auto ai : fixed) {
    EXPECT_EQ(world_.detailed(ai)->monitor().size(), 0u) << "server " << ai;
  }
}

TEST_F(ScanTrafficTest, FixedTableIsClearedOnlyAtTheTransition) {
  constexpr int kWeek = 4;
  for (int week = 0; week <= kWeek; ++week) scans_.seed_monitor_tables(week);
  scan::Prober prober(world_, kProberSource);
  const auto ignore = [](const scan::AmplifierObservation&) {};
  (void)prober.run_monlist_sample(kWeek, ignore);
  // Entries written by hand after the transition, stamped at the next
  // pass's probe time so no restart expiry can drop them.
  const net::Ipv4Address by_hand(203, 0, 113, 9);
  const util::SimTime next = scan::Prober::sample_time(kWeek + 1);
  const auto fixed = fixed_by(world_, kWeek);
  ASSERT_FALSE(fixed.empty());
  for (const auto ai : fixed) {
    world_.detailed(ai)->monitor().observe(by_hand, 4444, 3, 4, next);
  }
  (void)prober.run_monlist_sample(kWeek + 1, ignore);
  for (const auto ai : fixed) {
    EXPECT_TRUE(world_.detailed(ai)->monitor().find(by_hand).has_value())
        << "server " << ai;
  }
}

/// Weeks 0..5 of the study loop on a tiny world (attack days up to each
/// sample day, then seeding, then the monlist pass), each on `executor`,
/// and a CRC-32 over the dump of every amplifier whose monlist is still
/// live at week 5: what any later probe of this world could read out of
/// its monitor tables.
struct LiveTables {
  std::uint32_t crc = 0;
  std::size_t fixed = 0;    ///< amplifiers remediated by week 5
  std::size_t entries = 0;  ///< dumped entries across the live tables
};

LiveTables live_tables_after_six_weeks(ShardedExecutor& executor) {
  World world(tiny_config());
  study::EventBus no_sinks;
  AttackEngine attacks(world, AttackEngineConfig{}, no_sinks);
  ScanTraffic scans(world, scan_config());
  scan::Prober prober(world, kProberSource);
  prober.set_executor(&executor);
  constexpr int kLastWeek = 5;
  int day = 0;
  for (int week = 0; week <= kLastWeek; ++week) {
    const int sample_day = util::onp_sample_day(week);
    attacks.run_days(day, sample_day + 1, &executor);
    day = sample_day + 1;
    scans.seed_monitor_tables(week, &executor);
    (void)prober.run_monlist_sample(week,
                                    [](const scan::AmplifierObservation&) {});
  }
  const util::SimTime now = scan::Prober::sample_time(kLastWeek) + 3600;
  LiveTables out;
  util::Crc32 crc;
  std::vector<std::uint8_t> bytes;
  for (const auto ai : world.amplifier_indices()) {
    const auto& t = world.servers()[ai];
    if (t.monlist_fix_week >= 0 && kLastWeek >= t.monlist_fix_week) {
      ++out.fixed;
      continue;
    }
    const auto* server = world.detailed(ai);
    if (server == nullptr) continue;
    bytes.clear();
    util::ByteWriter w(bytes);
    w.u32le(ai);
    const auto dump = server->monitor().dump(now, server->config().address);
    out.entries += dump.size();
    for (const auto& e : dump) {
      w.u32le(e.address.value());
      w.u32le(e.local_address.value());
      w.u32le(e.avg_interval);
      w.u32le(e.last_seen);
      w.u32le(e.restr);
      w.u32le(e.count);
      w.u16le(e.port);
      w.u8(e.mode);
      w.u8(e.version);
    }
    crc.update(bytes);
  }
  out.crc = crc.value();
  return out;
}

TEST(ScanTrafficPinTest, LiveMonitorTablesAfterSixWeeksArePinned) {
  // Inline, then on four threads: there, tables grow on the attack-day
  // and seeding lanes and shrink in the probe's expiry on other workers.
  util::ThreadPool pool(4);
  for (util::ThreadPool* threads : {static_cast<util::ThreadPool*>(nullptr),
                                    &pool}) {
    ShardedExecutor executor(threads);
    const LiveTables live = live_tables_after_six_weeks(executor);
    ASSERT_GT(live.fixed, 0u);
    ASSERT_GT(live.entries, 0u);
    // Captured before remediated tables left the seeding and probe paths:
    // releasing what no dump can see must leave every dumpable byte alone.
    EXPECT_EQ(live.crc, 0x1E8EB4D0u) << (threads ? "4 threads" : "inline");
  }
}

}  // namespace
}  // namespace gorilla::sim
