#include "scan/prober.h"

#include <gtest/gtest.h>

#include <set>

#include "core/monlist_analysis.h"
#include "sim/attack.h"
#include "study/bus.h"

namespace gorilla::scan {
namespace {

sim::WorldConfig tiny_config() {
  sim::WorldConfig cfg;
  cfg.scale = 200;
  cfg.registry.num_ases = 2000;
  return cfg;
}

const net::Ipv4Address kProbeSource{net::Ipv4Address(198, 51, 100, 7)};

class ProberTest : public ::testing::Test {
 protected:
  ProberTest() : world_(tiny_config()), prober_(world_, kProbeSource) {}

  sim::World world_;
  Prober prober_;
};

TEST_F(ProberTest, SampleTimeAnchorsToJan10) {
  EXPECT_EQ(util::date_from_sim_time(Prober::sample_time(0)),
            (util::Date{2014, 1, 10}));
  EXPECT_EQ(util::date_from_sim_time(Prober::sample_time(14)),
            (util::Date{2014, 4, 18}));
}

TEST_F(ProberTest, FirstSampleSeesAvailabilityFractionOfPool) {
  std::uint64_t visited = 0;
  const auto summary =
      prober_.run_monlist_sample(0, [&](const AmplifierObservation&) {
        ++visited;
      });
  EXPECT_EQ(summary.responders, visited);
  // ~availability x (1 - other_impl) of the ever-pool answers with tables.
  const double expected =
      static_cast<double>(world_.amplifier_indices().size()) *
      world_.config().availability * (1.0 - world_.config().other_impl_fraction);
  EXPECT_NEAR(static_cast<double>(visited), expected, expected * 0.06);
  // Wrong-implementation servers return tiny errors instead.
  EXPECT_GT(summary.error_replies, 0u);
  EXPECT_NEAR(static_cast<double>(summary.error_replies),
              static_cast<double>(world_.amplifier_indices().size()) *
                  world_.config().availability *
                  world_.config().other_impl_fraction,
              expected * 0.05);
}

TEST_F(ProberTest, ObservationsCarryConsistentAccounting) {
  prober_.run_monlist_sample(0, [&](const AmplifierObservation& obs) {
    EXPECT_GT(obs.response_packets, 0u);
    EXPECT_GT(obs.response_udp_bytes, 0u);
    EXPECT_GT(obs.response_wire_bytes, obs.response_udp_bytes);
    EXPECT_FALSE(obs.table.empty());  // at least the probe entry
    EXPECT_EQ(obs.probe_time, Prober::sample_time(0));
  });
}

TEST_F(ProberTest, ProbeEntryTopmostInTables) {
  std::size_t checked = 0;
  prober_.run_monlist_sample(0, [&](const AmplifierObservation& obs) {
    if (checked >= 50) return;
    ++checked;
    ASSERT_FALSE(obs.table.empty());
    EXPECT_EQ(obs.table.front().address, kProbeSource);
    EXPECT_EQ(obs.table.front().last_seen, 0u);
    EXPECT_EQ(obs.table.front().mode, 7);
  });
  EXPECT_EQ(checked, 50u);
}

TEST_F(ProberTest, WeeklyProbeCountsAccumulateInTables) {
  for (int week = 0; week < 3; ++week) {
    prober_.run_monlist_sample(week, [](const AmplifierObservation&) {});
  }
  // Find an amplifier that answered all three weeks: its probe entry has
  // count 3 and avg interval ~ a week (Table 3a's shape).
  bool found = false;
  prober_.run_monlist_sample(3, [&](const AmplifierObservation& obs) {
    if (found) return;
    const auto& probe = obs.table.front();
    if (probe.address == kProbeSource && probe.count == 4) {
      EXPECT_NEAR(static_cast<double>(probe.avg_interval), 604800.0, 5.0);
      found = true;
    }
  });
  EXPECT_TRUE(found);
}

TEST_F(ProberTest, PoolShrinksAcrossWeeks) {
  std::array<std::uint64_t, 4> counts{};
  const int weeks[] = {0, 4, 9, 14};
  for (int i = 0; i < 4; ++i) {
    counts[static_cast<std::size_t>(i)] =
        prober_
            .run_monlist_sample(weeks[i], [](const AmplifierObservation&) {})
            .responders;
  }
  EXPECT_GT(counts[0], counts[1]);
  EXPECT_GT(counts[1], counts[2]);
  EXPECT_GT(counts[2], counts[3]);
  // End-to-end reduction close to the paper's 92%.
  const double reduction = 1.0 - static_cast<double>(counts[3]) /
                                     static_cast<double>(counts[0]);
  EXPECT_GT(reduction, 0.80);
  EXPECT_LT(reduction, 0.97);
}

TEST_F(ProberTest, RemediatedServersStillWitnessProbes) {
  // Probe a server before and after its fix week: afterwards it is silent,
  // but its monitor table keeps recording (§6's witnessing remark).
  prober_.run_monlist_sample(0, [](const AmplifierObservation&) {});
  // Pick an amplifier fixed at week 1+.
  std::optional<std::uint32_t> target;
  for (const auto ai : world_.amplifier_indices()) {
    const auto& t = world_.servers()[ai];
    if (t.monlist_fix_week == 2 && !t.other_impl) {
      target = ai;
      break;
    }
  }
  ASSERT_TRUE(target);
  std::set<std::uint32_t> responders_w3;
  prober_.run_monlist_sample(3, [&](const AmplifierObservation& obs) {
    responders_w3.insert(obs.server_index);
  });
  EXPECT_FALSE(responders_w3.count(*target));
}

TEST_F(ProberTest, VersionSampleCountsPopulation) {
  std::uint64_t visited = 0;
  const auto summary =
      prober_.run_version_sample(0, [&](const VersionObservation&) {
        ++visited;
      });
  EXPECT_EQ(summary.responders_detailed, visited);
  EXPECT_GE(summary.responders_total, summary.responders_detailed);
  EXPECT_GT(summary.responders_total, 0u);
  EXPECT_EQ(util::date_from_sim_time(Prober::sample_time(summary.week + 6)),
            (util::Date{2014, 2, 21}));
}

TEST_F(ProberTest, VersionObservationsParseIdentity) {
  std::size_t checked = 0;
  prober_.run_version_sample(0, [&](const VersionObservation& obs) {
    if (checked >= 100) return;
    ++checked;
    EXPECT_FALSE(obs.system.empty());
    EXPECT_FALSE(obs.version.empty());
    EXPECT_GE(obs.stratum, 1);
    EXPECT_LE(obs.stratum, 16);
    EXPECT_GT(obs.response_wire_bytes, 0u);
  });
  EXPECT_GT(checked, 0u);
}

TEST_F(ProberTest, VersionPoolShrinksSlowly) {
  const auto w0 =
      prober_.run_version_sample(0, [](const VersionObservation&) {});
  const auto w8 =
      prober_.run_version_sample(8, [](const VersionObservation&) {});
  ASSERT_GT(w0.responders_total, 0u);
  const double survival = static_cast<double>(w8.responders_total) /
                          static_cast<double>(w0.responders_total);
  // §3.3: the version pool shrank only ~19% over nine weeks — while the
  // monlist pool collapsed.
  EXPECT_GT(survival, 0.70);
  EXPECT_LT(survival, 0.95);
}

TEST_F(ProberTest, AttackEvidenceVisibleInTables) {
  study::EventBus no_sinks;
  sim::AttackEngine engine(world_, sim::AttackEngineConfig{}, no_sinks);
  for (int day = 95; day < 98; ++day) engine.run_day(day);
  // Week 4 = day 98: probe right after the attacks.
  std::uint64_t victims_witnessed = 0;
  prober_.run_monlist_sample(4, [&](const AmplifierObservation& obs) {
    for (const auto& e : obs.table) {
      if (core::classify_client(e) == core::ClientClass::kVictim) {
        ++victims_witnessed;
      }
    }
  });
  EXPECT_GT(victims_witnessed, 10u);
}

TEST_F(ProberTest, DeterministicAcrossRuns) {
  sim::World w2(tiny_config());
  Prober p2(w2, kProbeSource);
  std::vector<std::uint64_t> a, b;
  prober_.run_monlist_sample(0, [&](const AmplifierObservation& obs) {
    a.push_back(obs.response_wire_bytes);
  });
  p2.run_monlist_sample(0, [&](const AmplifierObservation& obs) {
    b.push_back(obs.response_wire_bytes);
  });
  EXPECT_EQ(a, b);
}

}  // namespace
}  // namespace gorilla::scan
