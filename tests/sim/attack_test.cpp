#include "sim/attack.h"

#include <gtest/gtest.h>

#include <array>
#include <bit>
#include <cmath>
#include <set>
#include <span>
#include <string_view>

#include "scan/prober.h"
#include "sim/scanner.h"
#include "sim/sharded_executor.h"
#include "study/bus.h"
#include "study/collector_sink.h"
#include "util/crc32.h"
#include "util/mem_stats.h"
#include "util/thread_pool.h"

namespace gorilla::sim {
namespace {

WorldConfig tiny_config() {
  WorldConfig cfg;
  cfg.scale = 200;
  cfg.registry.num_ases = 2000;
  return cfg;
}

/// Feeds `v` to `crc` as four little-endian bytes.
void feed(util::Crc32& crc, std::uint32_t v) {
  const std::array<std::uint8_t, 4> le{
      static_cast<std::uint8_t>(v), static_cast<std::uint8_t>(v >> 8),
      static_cast<std::uint8_t>(v >> 16), static_cast<std::uint8_t>(v >> 24)};
  crc.update(le);
}

/// Feeds `text` to `crc`, length first.
void feed(util::Crc32& crc, std::string_view text) {
  feed(crc, static_cast<std::uint32_t>(text.size()));
  crc.update(std::span(reinterpret_cast<const std::uint8_t*>(text.data()),
                       text.size()));
}

/// Feeds one monitor-table row: address, times, count, port, mode, version.
void feed(util::Crc32& crc, const ntp::MonitorEntry& e) {
  for (const std::uint32_t v :
       {e.address.value(), e.avg_interval, e.last_seen, e.count,
        std::uint32_t{e.port}, std::uint32_t{e.mode},
        std::uint32_t{e.version}}) {
    feed(crc, v);
  }
}

/// CRC-32 over every detailed server's monitor table, dumped at a fixed
/// time: holds each table's entries, counts and times byte for byte.
std::uint32_t monitor_tables_crc(const World& world) {
  constexpr util::SimTime kDumpAt = 110 * util::kSecondsPerDay;
  util::Crc32 crc;
  for (std::uint32_t i = 0; i < world.servers().size(); ++i) {
    const ntp::NtpServer* server = world.detailed(i);
    if (server == nullptr) continue;
    const auto entries = server->monitor().dump(kDumpAt, net::Ipv4Address{});
    feed(crc, i);
    feed(crc, static_cast<std::uint32_t>(entries.size()));
    for (const auto& e : entries) feed(crc, e);
  }
  return crc.value();
}

/// Feeds `v` as two little-endian words, low word first.
void feed(util::Crc32& crc, std::uint64_t v) {
  feed(crc, static_cast<std::uint32_t>(v));
  feed(crc, static_cast<std::uint32_t>(v >> 32));
}

/// Feeds `v` bit for bit.
void feed(util::Crc32& crc, double v) {
  feed(crc, std::bit_cast<std::uint64_t>(v));
}

/// Feeds one record's victim, amplifiers, response volume and peak rate.
void feed(util::Crc32& crc, const AttackRecord& rec) {
  feed(crc, rec.victim.value());
  feed(crc, static_cast<std::uint32_t>(rec.amplifiers.size()));
  for (const auto amp : rec.amplifiers) feed(crc, amp);
  feed(crc, rec.response_packets);
  feed(crc, rec.response_bytes);
  feed(crc, rec.peak_bps);
}

/// Folds every traffic event of an attack run into one CRC-32: each flow
/// field by field with its vantage, each global-bytes report and each
/// label, rates and volumes bit for bit.
class StreamCrcSink : public study::EventSink {
 public:
  [[nodiscard]] bool wants_flows() const override { return true; }
  [[nodiscard]] bool wants_labels() const override { return true; }
  void on_global_bytes(int day, telemetry::ProtocolClass p,
                       double bytes) override {
    feed(crc, static_cast<std::uint32_t>(day));
    feed(crc, static_cast<std::uint32_t>(p));
    feed(crc, bytes);
  }
  void on_attack_label(const telemetry::LabeledAttack& label) override {
    feed(crc, static_cast<std::uint64_t>(label.start));
    feed(crc, static_cast<std::uint32_t>(label.vector));
    feed(crc, label.peak_bps);
  }
  void on_flow(const telemetry::FlowRecord& f, int vantage) override {
    feed(crc, static_cast<std::uint32_t>(vantage));
    for (const std::uint32_t v :
         {f.src.value(), f.dst.value(), std::uint32_t{f.src_port},
          std::uint32_t{f.dst_port}, std::uint32_t{f.protocol},
          std::uint32_t{f.ttl}}) {
      feed(crc, v);
    }
    for (const std::uint64_t v :
         {f.packets, f.bytes, f.payload_bytes,
          static_cast<std::uint64_t>(f.first),
          static_cast<std::uint64_t>(f.last)}) {
      feed(crc, v);
    }
  }

  util::Crc32 crc;
};

TEST(AttackIntensityTest, FollowsPaperArc) {
  // Trickle in November, explosive growth through mid-February, decline.
  EXPECT_LT(AttackEngine::ntp_attacks_per_day(10), 100.0);
  EXPECT_LT(AttackEngine::ntp_attacks_per_day(10),
            AttackEngine::ntp_attacks_per_day(60));
  EXPECT_LT(AttackEngine::ntp_attacks_per_day(60),
            AttackEngine::ntp_attacks_per_day(102));
  // Peak lands around Feb 11-12 (days 102-103).
  const double peak = AttackEngine::ntp_attacks_per_day(103);
  EXPECT_GT(peak, AttackEngine::ntp_attacks_per_day(140));
  EXPECT_GE(peak, 15000.0);
  // April level is well below peak but far above November.
  EXPECT_LT(AttackEngine::ntp_attacks_per_day(170), peak / 2);
  EXPECT_GT(AttackEngine::ntp_attacks_per_day(170),
            AttackEngine::ntp_attacks_per_day(10) * 50);
}

TEST(AttackWeekTest, Mapping) {
  EXPECT_EQ(AttackEngine::week_of_day(70), 0);   // 2014-01-10
  EXPECT_EQ(AttackEngine::week_of_day(76), 0);
  EXPECT_EQ(AttackEngine::week_of_day(77), 1);
  EXPECT_EQ(AttackEngine::week_of_day(69), -1);
  EXPECT_EQ(AttackEngine::week_of_day(0), -10);
}

TEST(PortMixTest, MatchesTableFour) {
  const auto& mix = attacked_port_mix();
  EXPECT_EQ(mix[0].first, 80);
  EXPECT_NEAR(mix[0].second, 0.362, 1e-9);
  EXPECT_EQ(mix[1].first, 123);
  EXPECT_NEAR(mix[1].second, 0.238, 1e-9);
  double total = 0.0;
  for (const auto& [_, f] : mix) total += f;
  EXPECT_NEAR(total, 1.0, 1e-6);
}

class AttackEngineTest : public ::testing::Test {
 protected:
  AttackEngineTest() : world_(tiny_config()) {}

  AttackEngineConfig engine_config() {
    AttackEngineConfig cfg;
    return cfg;
  }

  World world_;
  study::EventBus no_sinks_;  ///< no subscribers: evidence goes nowhere
};

TEST_F(AttackEngineTest, QuietBeforeOnset) {
  AttackEngine engine(world_, engine_config(), no_sinks_);
  const auto records = engine.run_day(10);
  EXPECT_LT(records.size(), 3u);  // 20/day at scale 200
}

TEST_F(AttackEngineTest, BusyAtPeak) {
  AttackEngine engine(world_, engine_config(), no_sinks_);
  const auto records = engine.run_day(103);
  EXPECT_GT(records.size(), 50u);  // 28000/day at scale 200 -> ~140
}

TEST_F(AttackEngineTest, RecordsAreWellFormed) {
  AttackEngine engine(world_, engine_config(), no_sinks_);
  const auto records = engine.run_day(100);
  ASSERT_FALSE(records.empty());
  for (const auto& rec : records) {
    EXPECT_FALSE(rec.amplifiers.empty());
    EXPECT_GT(rec.triggers_per_amplifier, 0u);
    EXPECT_GE(rec.end, rec.start);
    EXPECT_GT(rec.response_bytes, 0u);
    EXPECT_GT(rec.peak_bps, 0.0);
    // Start lands within the requested day.
    EXPECT_GE(rec.start, 100 * util::kSecondsPerDay);
    EXPECT_LT(rec.start, 101 * util::kSecondsPerDay);
  }
}

TEST_F(AttackEngineTest, AttacksLeaveMonitorTableEvidence) {
  AttackEngine engine(world_, engine_config(), no_sinks_);
  const auto records = engine.run_day(100);
  ASSERT_FALSE(records.empty());
  std::size_t witnessed = 0;
  for (const auto& rec : records) {
    for (const auto amp : rec.amplifiers) {
      const auto* server = world_.detailed(amp);
      ASSERT_NE(server, nullptr);
      const auto slot = server->monitor().find(rec.victim);
      if (slot.has_value()) {
        EXPECT_EQ(slot->mode, 7);
        EXPECT_GE(slot->count, rec.triggers_per_amplifier);
        ++witnessed;
      }
    }
  }
  // Most (amplifier, victim) pairs must be witnessed; a few may have been
  // recycled out of a 600-entry table by later attacks.
  EXPECT_GT(witnessed, 0u);
}

TEST_F(AttackEngineTest, OnlyLiveAmplifiersUsed) {
  AttackEngine engine(world_, engine_config(), no_sinks_);
  const int day = 150;  // late: much of the pool is remediated
  const int week = AttackEngine::week_of_day(day);
  const auto records = engine.run_day(day);
  for (const auto& rec : records) {
    for (const auto amp : rec.amplifiers) {
      const auto& t = world_.servers()[amp];
      EXPECT_TRUE(t.monlist_fix_week < 0 || week < t.monlist_fix_week);
    }
  }
}

TEST_F(AttackEngineTest, GlobalSinkAccumulatesNtpBytes) {
  telemetry::GlobalTrafficCollector global(181, 7.15e12);
  study::CollectorSink sinks;
  sinks.global = &global;
  AttackEngine engine(world_, engine_config(), sinks);
  engine.run_day(100);
  EXPECT_GT(global.bytes(100, telemetry::ProtocolClass::kNtp), 0.0);
  EXPECT_EQ(global.bytes(99, telemetry::ProtocolClass::kNtp), 0.0);
}

TEST_F(AttackEngineTest, LabelsIncludeNtpAndBackground) {
  telemetry::AttackLabelStore labels;
  study::CollectorSink sinks;
  sinks.labels = &labels;
  AttackEngine engine(world_, engine_config(), sinks);
  engine.run_day(100);
  bool saw_ntp = false, saw_other = false;
  for (const auto& a : labels.attacks()) {
    if (a.vector == telemetry::AttackVector::kNtp) saw_ntp = true;
    else saw_other = true;
  }
  EXPECT_TRUE(saw_ntp);
  EXPECT_TRUE(saw_other);
}

TEST_F(AttackEngineTest, VantageSeesRegionalAttackFlows) {
  const auto& named = world_.registry().named();
  telemetry::FlowCollector merit("merit", {named.merit_space});
  study::CollectorSink sinks;
  sinks.vantages = {&merit};
  AttackEngine engine(world_, engine_config(), sinks);
  // Run several peak days so regional reflection fires.
  for (int day = 95; day < 105; ++day) engine.run_day(day);
  EXPECT_FALSE(merit.flows().empty());
  bool saw_egress_ntp = false;
  for (const auto& f : merit.flows()) {
    if (f.src_port == net::kNtpPort &&
        merit.direction(f) == telemetry::Direction::kEgress) {
      saw_egress_ntp = true;
      break;
    }
  }
  EXPECT_TRUE(saw_egress_ntp);
}

TEST_F(AttackEngineTest, TotalsAccumulate) {
  AttackEngine engine(world_, engine_config(), no_sinks_);
  std::set<std::uint32_t> victims;
  for (const auto& rec : engine.run_day(100)) victims.insert(rec.victim.value());
  const auto after_one = engine.totals();
  for (const auto& rec : engine.run_day(101)) victims.insert(rec.victim.value());
  const auto after_two = engine.totals();
  EXPECT_GT(after_two.ntp_attacks, after_one.ntp_attacks);
  EXPECT_GT(after_two.response_packets, after_one.response_packets);
  EXPECT_GE(victims.size(), 1u);
  EXPECT_LE(victims.size(), after_two.ntp_attacks);
}

TEST_F(AttackEngineTest, DeterministicGivenSeed) {
  World w1(tiny_config()), w2(tiny_config());
  AttackEngine e1(w1, AttackEngineConfig{}, no_sinks_);
  AttackEngine e2(w2, AttackEngineConfig{}, no_sinks_);
  const auto r1 = e1.run_day(100);
  const auto r2 = e2.run_day(100);
  ASSERT_EQ(r1.size(), r2.size());
  for (std::size_t i = 0; i < r1.size(); ++i) {
    EXPECT_EQ(r1[i].victim, r2[i].victim);
    EXPECT_EQ(r1[i].victim_port, r2[i].victim_port);
    EXPECT_EQ(r1[i].start, r2[i].start);
    EXPECT_EQ(r1[i].response_bytes, r2[i].response_bytes);
  }
}

TEST_F(AttackEngineTest, RunDaysMatchesPerDayLoop) {
  // A window is nothing but its days: every draw comes from a (seed, day)
  // substream, so run_days() over [95, 109) launches exactly the attacks of
  // fourteen run_day() calls — same counts, per booter too. Response volumes
  // may drift within a fraction of a percent: non-primed dump sizes are
  // estimated from the *window-start* monitor snapshot plus each shard's
  // own same-day additions (DESIGN.md §3d), and the per-day loop
  // re-snapshots daily.
  World w1(tiny_config()), w2(tiny_config());
  AttackEngine e1(w1, AttackEngineConfig{}, no_sinks_);
  AttackEngine e2(w2, AttackEngineConfig{}, no_sinks_);
  e1.run_days(95, 109);
  for (int day = 95; day < 109; ++day) (void)e2.run_day(day);
  EXPECT_EQ(e1.totals().ntp_attacks, e2.totals().ntp_attacks);
  EXPECT_EQ(e1.attacks_per_booter(), e2.attacks_per_booter());
  const double window_bytes = static_cast<double>(e1.totals().response_bytes);
  const double daily_bytes = static_cast<double>(e2.totals().response_bytes);
  EXPECT_NEAR(window_bytes / daily_bytes, 1.0, 0.01);
}

TEST_F(AttackEngineTest, ImpairedWindowMonitorTablesArePinned) {
  // Lost triggers thin each amplifier's delivered count, the scripted OVH
  // campaign (days 101-103) writes to the FRGP amplifiers, and sampling
  // with replacement writes twice to an amplifier listed twice: all of it
  // reaches the tables. The constant holds those writes, inline and on a
  // 4-thread executor alike.
  constexpr std::uint32_t kPinnedCrc = 0x00ab8401u;
  AttackEngineConfig cfg;
  cfg.impairment.seed = 0x1d5eedULL;
  cfg.impairment.request_loss = 0.3;
  auto run = [&cfg, this](util::ThreadPool* pool) {
    World world(tiny_config());
    AttackEngine engine(world, cfg, no_sinks_);
    ShardedExecutor executor(pool);
    engine.run_days(98, 106, &executor);
    return monitor_tables_crc(world);
  };
  util::ThreadPool pool(4);
  EXPECT_EQ(run(nullptr), kPinnedCrc);
  EXPECT_EQ(run(&pool), kPinnedCrc);
}

TEST_F(AttackEngineTest, WindowRecordsArePinned) {
  // What a day shard reads of its amplifiers reaches every record's volume
  // and peak rate and every flow: dump sizes estimated from the window-start
  // snapshot plus the shard's distinct same-day (server, victim) keys, a
  // mega's loop count, a mode 7 rate limit. Days 90-96 fill the tables the
  // window [97, 105) snapshots; between the two, one FRGP amplifier (every
  // scripted OVH day 101-103 lists it) is rate-limited through detailed().
  // kDailyCrc holds the records and events of run_day() over those days.
  // kWindowCrc holds the events, the scripted records and the totals of the
  // two run_days() windows, inline and on a 4-thread executor alike.
  constexpr std::uint32_t kDailyCrc = 0x1d8dbe0eu;
  constexpr std::uint32_t kWindowCrc = 0x5c87ad8au;
  constexpr int kFirst = 90, kFrom = 97, kTo = 105;
  constexpr std::uint32_t kRateLimit = 600;  // responses per minute
  const std::uint32_t limited = world_.frgp_amplifiers().front();
  {
    World world(tiny_config());
    StreamCrcSink sink;
    AttackEngine engine(world, AttackEngineConfig{}, sink);
    for (int day = kFirst; day < kFrom; ++day) (void)engine.run_day(day);
    world.detailed(limited)->set_mode7_rate_limit(kRateLimit);
    std::size_t repeat_keys = 0, mega_uses = 0, limited_uses = 0;
    for (int day = kFrom; day < kTo; ++day) {
      std::set<std::uint64_t> keys;
      for (const auto& rec : engine.run_day(day)) {
        feed(sink.crc, rec);
        for (const auto amp : rec.amplifiers) {
          const std::uint64_t key =
              (std::uint64_t{amp} << 32) | rec.victim.value();
          if (!keys.insert(key).second) ++repeat_keys;
          if (world.detailed(amp)->config().loop_repeat > 0) ++mega_uses;
          if (amp == limited) ++limited_uses;
        }
      }
    }
    EXPECT_GT(repeat_keys, 0u);
    EXPECT_GT(mega_uses, 0u);
    EXPECT_GT(limited_uses, 0u);
    EXPECT_EQ(sink.crc.value(), kDailyCrc);
  }
  util::ThreadPool pool(4);
  for (util::ThreadPool* threads : {static_cast<util::ThreadPool*>(nullptr),
                                    &pool}) {
    World world(tiny_config());
    StreamCrcSink sink;
    AttackEngine engine(world, AttackEngineConfig{}, sink);
    ShardedExecutor executor(threads);
    engine.run_days(kFirst, kFrom, &executor);
    world.detailed(limited)->set_mode7_rate_limit(kRateLimit);
    engine.run_days(kFrom, kTo, &executor);
    for (const auto& rec : engine.scripted_events()) feed(sink.crc, rec);
    feed(sink.crc, engine.totals().ntp_attacks);
    feed(sink.crc, engine.totals().response_packets);
    feed(sink.crc, engine.totals().response_bytes);
    EXPECT_EQ(sink.crc.value(), kWindowCrc);
  }
}

TEST_F(AttackEngineTest, WindowMonitorWritesSettleAtEveryReader) {
  // The impaired window of ImpairedWindowMonitorTablesArePinned only logs
  // its monitor writes: no table grows while it runs. It is then read three
  // ways on fresh worlds: a const table read, monitor seeding followed by a
  // monlist pass, and a version pass (whose remediation clears tables).
  // Each constant holds what its reader saw, inline and on a 4-thread
  // executor alike; the engine is gone before seeding and the passes run.
  constexpr std::uint32_t kPinnedCrc = 0x00ab8401u;
  constexpr std::uint32_t kSeededMonlistCrc = 0x69ef5709u;
  constexpr std::uint32_t kVersionPassCrc = 0x0117175au;
  constexpr int kWeek = 5;  // the window's last sample week
  const net::Ipv4Address probe_source(198, 51, 100, 7);
  AttackEngineConfig cfg;
  cfg.impairment.seed = 0x1d5eedULL;
  cfg.impairment.request_loss = 0.3;
  util::ThreadPool pool(4);
  for (util::ThreadPool* threads : {static_cast<util::ThreadPool*>(nullptr),
                                    &pool}) {
    ShardedExecutor executor(threads);
    auto run_window = [&cfg, &executor, this](World& world) {
      const auto& monitor_bytes =
          util::MemStats::instance().counter("ntp.monitor");
      const std::uint64_t before = monitor_bytes.live();
      AttackEngine engine(world, cfg, no_sinks_);
      engine.run_days(98, 106, &executor);
      EXPECT_EQ(monitor_bytes.live(), before);
    };
    {
      World world(tiny_config());
      run_window(world);
      EXPECT_EQ(monitor_tables_crc(world), kPinnedCrc);
    }
    {
      World world(tiny_config());
      run_window(world);
      ScanTraffic scans(world, ScanTrafficConfig{});
      scans.seed_monitor_tables(kWeek, &executor);
      scan::Prober prober(world, probe_source);
      prober.set_executor(&executor);
      util::Crc32 crc;
      const auto summary = prober.run_monlist_sample(
          kWeek, [&crc](const scan::AmplifierObservation& obs) {
            feed(crc, obs.server_index);
            feed(crc, static_cast<std::uint32_t>(obs.response_wire_bytes));
            feed(crc, static_cast<std::uint32_t>(obs.table.size()));
            for (const auto& e : obs.table) feed(crc, e);
          });
      feed(crc, static_cast<std::uint32_t>(summary.responders));
      EXPECT_EQ(crc.value(), kSeededMonlistCrc);
    }
    {
      World world(tiny_config());
      run_window(world);
      scan::Prober prober(world, probe_source);
      prober.set_executor(&executor);
      util::Crc32 crc;
      const auto summary = prober.run_version_sample(
          0, [&crc](const scan::VersionObservation& obs) {
            feed(crc, obs.server_index);
            feed(crc, static_cast<std::uint32_t>(obs.response_wire_bytes));
            feed(crc, obs.system);
            feed(crc, obs.version);
          });
      feed(crc, static_cast<std::uint32_t>(summary.responders_detailed));
      feed(crc, monitor_tables_crc(world));
      EXPECT_EQ(crc.value(), kVersionPassCrc);
    }
  }
}

TEST_F(AttackEngineTest, OvhVictimsStayInsideTheAnalogueBlocks) {
  // Regression for the OVH-campaign draw: the concentrated-victim index is
  // clamped to the block size, so a small-world block (scale 200 shrinks
  // routed blocks well below the full-scale /16s) can never be overrun —
  // every OVH-branch victim must fall inside the analogue AS's space.
  AttackEngineConfig cfg;
  cfg.ovh_victim_rate = 1.0;
  cfg.common_victim_rate = 0.0;
  cfg.merit_victim_rate = 0.0;
  cfg.frgp_victim_rate = 0.0;
  cfg.scripted_ovh_event = false;
  AttackEngine engine(world_, cfg, no_sinks_);
  const auto& registry = world_.registry();
  const auto& info = registry.as_info(registry.named().ovh_analogue);
  std::size_t checked = 0;
  for (int day = 98; day < 102; ++day) {
    for (const auto& rec : engine.run_day(day)) {
      bool inside = false;
      for (const auto bi : info.block_indices) {
        if (registry.blocks()[bi].prefix.contains(rec.victim)) {
          inside = true;
          break;
        }
      }
      EXPECT_TRUE(inside) << "victim " << rec.victim.value()
                          << " outside the OVH analogue on day " << day;
      ++checked;
    }
  }
  EXPECT_GT(checked, 0u);
}

TEST_F(AttackEngineTest, PortEightyMostCommon) {
  AttackEngine engine(world_, engine_config(), no_sinks_);
  std::map<std::uint16_t, int> ports;
  for (int day = 98; day < 104; ++day) {
    for (const auto& rec : engine.run_day(day)) ++ports[rec.victim_port];
  }
  int max_count = 0;
  std::uint16_t max_port = 0;
  for (const auto& [port, count] : ports) {
    if (count > max_count) {
      max_count = count;
      max_port = port;
    }
  }
  EXPECT_EQ(max_port, 80);
}

TEST_F(AttackEngineTest, MegaCapBoundsPerAmplifierRate) {
  // No amplifier may contribute more than ~500 Mbps sustained.
  AttackEngine engine(world_, engine_config(), no_sinks_);
  for (int day = 100; day < 103; ++day) {
    for (const auto& rec : engine.run_day(day)) {
      const double duration =
          static_cast<double>(std::max<util::SimTime>(1, rec.end - rec.start));
      const double per_amp_bps =
          static_cast<double>(rec.response_bytes) * 8.0 /
          duration / static_cast<double>(rec.amplifiers.size());
      // Normal amplifiers are bounded by pps_cap x full-dump size
      // (~1.2 Gbps); looping megas are clamped to ~500 Mbps sustained.
      EXPECT_LT(per_amp_bps, 1.3e9);
    }
  }
}

}  // namespace
}  // namespace gorilla::sim
