#include "sim/attack.h"

#include <gtest/gtest.h>

#include <cmath>

#include "study/bus.h"
#include "study/collector_sink.h"

namespace gorilla::sim {
namespace {

WorldConfig tiny_config() {
  WorldConfig cfg;
  cfg.scale = 200;
  cfg.registry.num_ases = 2000;
  return cfg;
}

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
  engine.run_day(100);
  const auto after_one = engine.totals();
  engine.run_day(101);
  const auto after_two = engine.totals();
  EXPECT_GT(after_two.ntp_attacks, after_one.ntp_attacks);
  EXPECT_GT(after_two.response_packets, after_one.response_packets);
  EXPECT_GE(engine.unique_victims(), 1u);
  EXPECT_LE(engine.unique_victims(), after_two.ntp_attacks);
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
  // fourteen run_day() calls — same counts, same victims. Response volumes
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
  EXPECT_EQ(e1.unique_victims(), e2.unique_victims());
  const double window_bytes = static_cast<double>(e1.totals().response_bytes);
  const double daily_bytes = static_cast<double>(e2.totals().response_bytes);
  EXPECT_NEAR(window_bytes / daily_bytes, 1.0, 0.01);
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
