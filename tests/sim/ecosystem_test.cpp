// Tests for the §5.2 booter-ecosystem model, the §6.4 remediation-speed
// ablation knob, the §3.4 post-study decay, and the engine's handling of
// rate-limited amplifiers.
#include <gtest/gtest.h>

#include <numeric>

#include "sim/attack.h"
#include "sim/remediation.h"
#include "sim/world.h"
#include "study/bus.h"

namespace gorilla::sim {
namespace {

WorldConfig tiny_config() {
  WorldConfig cfg;
  cfg.scale = 200;
  cfg.registry.num_ases = 2000;
  return cfg;
}

/// A sink with no subscribers: these tests read the engine's own records.
study::EventBus no_sinks;

TEST(BooterModelTest, PopulationScalesWithWorld) {
  World world(tiny_config());
  AttackEngine engine(world, AttackEngineConfig{}, no_sinks);
  // 400 booters at full scale / 200 = 2, floored at 4.
  EXPECT_EQ(engine.booters().size(), 4u);
  EXPECT_EQ(engine.attacks_per_booter().size(), engine.booters().size());
}

TEST(BooterModelTest, AttacksCarryProvenance) {
  World world(tiny_config());
  AttackEngine engine(world, AttackEngineConfig{}, no_sinks);
  for (int day = 98; day < 101; ++day) {
    for (const auto& rec : engine.run_day(day)) {
      EXPECT_LT(rec.booter_id, engine.booters().size());
    }
  }
  const auto& per_booter = engine.attacks_per_booter();
  const auto total = std::accumulate(per_booter.begin(), per_booter.end(),
                                     std::uint64_t{0});
  EXPECT_EQ(total, engine.totals().ntp_attacks);
}

TEST(BooterModelTest, MarketShareIsConcentrated) {
  WorldConfig wcfg = tiny_config();
  wcfg.scale = 40;  // more booters (10) for a meaningful ranking
  World world(wcfg);
  AttackEngine engine(world, AttackEngineConfig{}, no_sinks);
  for (int day = 95; day < 103; ++day) engine.run_day(day);
  auto shares = engine.attacks_per_booter();
  std::sort(shares.begin(), shares.end(), std::greater<>());
  ASSERT_GE(shares.size(), 4u);
  // Zipf market: the top service clearly outsells the median one.
  EXPECT_GT(shares[0], shares[shares.size() / 2] * 2);
}

TEST(BooterModelTest, OnlyPrimingBootersPrime) {
  World world(tiny_config());
  AttackEngine engine(world, AttackEngineConfig{}, no_sinks);
  for (int day = 98; day < 103; ++day) {
    for (const auto& rec : engine.run_day(day)) {
      if (rec.primed) {
        EXPECT_TRUE(engine.booters()[rec.booter_id].primes_amplifiers);
      }
    }
  }
}

TEST(BooterModelTest, CustomerTargetsAreSticky) {
  World world(tiny_config());
  AttackEngine engine(world, AttackEngineConfig{}, no_sinks);
  std::map<std::uint32_t, std::map<std::uint32_t, int>> victim_hits;
  for (int day = 95; day < 105; ++day) {
    for (const auto& rec : engine.run_day(day)) {
      ++victim_hits[rec.booter_id][rec.victim.value()];
    }
  }
  // Some booter re-attacks some victim across the window.
  bool repeat = false;
  for (const auto& [_, victims] : victim_hits) {
    for (const auto& [__, hits] : victims) {
      if (hits >= 3) repeat = true;
    }
  }
  EXPECT_TRUE(repeat);
}

TEST(ScriptedEventTest, OvhEventRecordedOnEventDays) {
  World world(tiny_config());
  AttackEngine engine(world, AttackEngineConfig{}, no_sinks);
  for (int day = 100; day <= 104; ++day) engine.run_day(day);
  const auto& events = engine.scripted_events();
  ASSERT_EQ(events.size(), 3u);  // Feb 10, 11, 12
  for (const auto& event : events) {
    EXPECT_TRUE(event.primed);
    EXPECT_EQ(event.victim_port, 80);
    EXPECT_GE(event.end - event.start, 8 * 3600);  // hours-long
    EXPECT_GE(event.amplifiers.size(), 8u);
    // The victim lives in the OVH analogue.
    EXPECT_EQ(world.registry().asn_of(event.victim),
              world.registry().named().ovh_analogue);
  }
}

TEST(ScriptedEventTest, DisabledByConfig) {
  World world(tiny_config());
  AttackEngineConfig cfg;
  cfg.scripted_ovh_event = false;
  AttackEngine engine(world, cfg, no_sinks);
  for (int day = 100; day <= 104; ++day) engine.run_day(day);
  EXPECT_TRUE(engine.scripted_events().empty());
}

TEST(RemediationSpeedTest, ZeroSpeedMeansNobodyPatches) {
  WorldConfig cfg = tiny_config();
  cfg.remediation_speed = 0.0;
  cfg.merit_amplifiers = 0;  // regional cast has scripted fix weeks
  cfg.csu_amplifiers = 0;
  cfg.frgp_amplifiers = 0;
  World world(cfg);
  EXPECT_EQ(world.live_amplifier_count(14),
            world.live_amplifier_count(0));
  for (const auto ai : world.amplifier_indices()) {
    EXPECT_EQ(world.servers()[ai].monlist_fix_week, -1);
  }
}

TEST(RemediationSpeedTest, SlowerSpeedKeepsLargerPool) {
  WorldConfig fast = tiny_config();
  WorldConfig slow = tiny_config();
  slow.remediation_speed = 0.4;
  World fast_world(fast), slow_world(slow);
  EXPECT_GT(slow_world.live_amplifier_count(14),
            fast_world.live_amplifier_count(14) * 2);
  // Initial pools are the same size.
  EXPECT_EQ(slow_world.amplifier_indices().size(),
            fast_world.amplifier_indices().size());
}

TEST(PostStudyDecayTest, SurvivorsKeepGettingFixed) {
  // §3.4: the April-June watch saw the remnant shrink ~13%/week.
  World world(tiny_config());
  const auto at_study_end = world.live_amplifier_count(14);
  const auto eight_weeks_later = world.live_amplifier_count(22);
  EXPECT_LT(eight_weeks_later, at_study_end);
  const double survival = static_cast<double>(eight_weeks_later) /
                          static_cast<double>(at_study_end);
  EXPECT_NEAR(survival, std::pow(0.87, 8), 0.12);
}

TEST(PostStudyDecayTest, SampleFunctionMatchesHazard) {
  util::Rng rng(99);
  constexpr int n = 100000;
  int alive_at_25 = 0;
  for (int i = 0; i < n; ++i) {
    const int fix = sample_post_study_fix_week(rng.uniform01());
    EXPECT_TRUE(fix == -1 || fix >= 15);
    if (fix < 0 || fix > 25) ++alive_at_25;
  }
  EXPECT_NEAR(alive_at_25 / double(n), std::pow(0.87, 11), 0.01);
}

TEST(RateLimitedAmplifierTest, EngineRespectsServerLimit) {
  // Two identical worlds; one rate-limits every amplifier. Emitted attack
  // volume collapses while witnessed trigger counts stay identical.
  WorldConfig cfg = tiny_config();
  World open_world(cfg), limited_world(cfg);
  for (const auto ai : limited_world.amplifier_indices()) {
    if (auto* server = limited_world.detailed(ai)) {
      server->set_mode7_rate_limit(60);
    }
  }
  AttackEngine open_engine(open_world, AttackEngineConfig{}, no_sinks);
  AttackEngine limited_engine(limited_world, AttackEngineConfig{}, no_sinks);
  for (int day = 98; day < 102; ++day) {
    open_engine.run_day(day);
    limited_engine.run_day(day);
  }
  EXPECT_LT(limited_engine.totals().response_bytes,
            open_engine.totals().response_bytes / 5);
  // The spoofed triggers still arrive and are still witnessed.
  EXPECT_EQ(limited_engine.totals().ntp_attacks,
            open_engine.totals().ntp_attacks);
}

}  // namespace
}  // namespace gorilla::sim
