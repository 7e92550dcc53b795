// Resilient-prober behaviour under the deterministic impairment layer:
// zero config must be byte-identical to the seed prober, lossy configs must
// be bit-for-bit reproducible, retries must recover transient failures, and
// rate-limited servers must stop answering after their window budget.
#include "scan/prober.h"

#include <gtest/gtest.h>

#include <set>
#include <tuple>
#include <vector>

#include "core/amplifiers.h"

namespace gorilla::scan {
namespace {

sim::WorldConfig tiny_config() {
  sim::WorldConfig cfg;
  cfg.scale = 200;
  cfg.registry.num_ases = 2000;
  return cfg;
}

const net::Ipv4Address kProbeSource{net::Ipv4Address(198, 51, 100, 7)};

using ObsKey = std::tuple<std::uint32_t, std::uint64_t, std::uint64_t,
                          std::size_t, int, bool>;

ObsKey key_of(const AmplifierObservation& obs) {
  return {obs.server_index, obs.response_wire_bytes, obs.response_packets,
          obs.table.size(), obs.attempts, obs.table_partial};
}

std::vector<ObsKey> collect_sample(Prober& prober, int week,
                                   MonlistSampleSummary* out = nullptr) {
  std::vector<ObsKey> keys;
  const auto summary = prober.run_monlist_sample(
      week, [&](const AmplifierObservation& obs) { keys.push_back(key_of(obs)); });
  if (out != nullptr) *out = summary;
  return keys;
}

TEST(ProberImpairmentTest, ZeroConfigIsByteIdenticalToSeedProber) {
  sim::World seed_world(tiny_config());
  Prober seed_prober(seed_world, kProbeSource);

  sim::World world(tiny_config());
  ProbePolicy aggressive;  // policy must be inert while impairment is off
  aggressive.max_retries = 9;
  Prober prober(world, kProbeSource, ntp::Implementation::kXntpd,
                sim::ImpairmentConfig{}, aggressive);
  EXPECT_FALSE(prober.impairment().enabled());

  MonlistSampleSummary a, b;
  const auto seed_keys = collect_sample(seed_prober, 0, &a);
  const auto keys = collect_sample(prober, 0, &b);
  EXPECT_EQ(seed_keys, keys);
  EXPECT_EQ(a.responders, b.responders);
  EXPECT_EQ(a.error_replies, b.error_replies);
  EXPECT_EQ(b.probes_lost, 0u);
  EXPECT_EQ(b.retries, 0u);
  EXPECT_EQ(b.truncated_tables, 0u);
  EXPECT_EQ(b.rate_limited, 0u);
  for (const auto& k : keys) {
    EXPECT_EQ(std::get<4>(k), 1);      // single attempt everywhere
    EXPECT_FALSE(std::get<5>(k));      // no partial tables
  }
}

TEST(ProberImpairmentTest, LossyRunsReproduceBitForBit) {
  sim::ImpairmentConfig cfg;
  cfg.seed = 17;
  cfg.request_loss = 0.1;
  cfg.transient_silence_rate = 0.05;
  cfg.response_packet_loss = 0.1;
  cfg.response_garble_rate = 0.02;

  sim::World w1(tiny_config());
  Prober p1(w1, kProbeSource, ntp::Implementation::kXntpd, cfg);
  sim::World w2(tiny_config());
  Prober p2(w2, kProbeSource, ntp::Implementation::kXntpd, cfg);

  MonlistSampleSummary a, b;
  EXPECT_EQ(collect_sample(p1, 0, &a), collect_sample(p2, 0, &b));
  EXPECT_EQ(a.responders, b.responders);
  EXPECT_EQ(a.probes_lost, b.probes_lost);
  EXPECT_EQ(a.retries, b.retries);
  EXPECT_EQ(a.truncated_tables, b.truncated_tables);
  EXPECT_GT(a.retries, 0u);
  EXPECT_GT(a.truncated_tables, 0u);
}

TEST(ProberImpairmentTest, RetriesRecoverTransientFailures) {
  sim::World clean_world(tiny_config());
  Prober clean(clean_world, kProbeSource);
  MonlistSampleSummary clean_summary;
  collect_sample(clean, 0, &clean_summary);

  sim::ImpairmentConfig cfg;
  cfg.transient_silence_rate = 0.3;
  ProbePolicy policy;
  policy.max_retries = 5;  // p(six straight losses) = 0.3^6 ~ 7e-4
  sim::World world(tiny_config());
  Prober prober(world, kProbeSource, ntp::Implementation::kXntpd, cfg, policy);

  std::set<std::uint32_t> seen;
  std::uint64_t visits = 0;
  const auto summary =
      prober.run_monlist_sample(0, [&](const AmplifierObservation& obs) {
        ++visits;
        seen.insert(obs.server_index);
        EXPECT_LE(obs.attempts, policy.max_retries + 1);
      });
  EXPECT_EQ(visits, seen.size());  // each recovered probe counted exactly once
  EXPECT_EQ(visits, summary.responders);
  EXPECT_GT(summary.retries, 0u);
  // Nearly every transient failure rides out on a retry.
  EXPECT_GE(summary.responders * 100, clean_summary.responders * 99);
  EXPECT_LE(summary.probes_lost, clean_summary.responders / 50);
}

TEST(ProberImpairmentTest, WithoutRetriesLossThinsThePool) {
  sim::World clean_world(tiny_config());
  Prober clean(clean_world, kProbeSource);
  MonlistSampleSummary clean_summary;
  collect_sample(clean, 0, &clean_summary);

  sim::ImpairmentConfig cfg;
  cfg.request_loss = 0.3;
  ProbePolicy no_retries;
  no_retries.max_retries = 0;
  sim::World world(tiny_config());
  Prober prober(world, kProbeSource, ntp::Implementation::kXntpd, cfg,
                no_retries);
  MonlistSampleSummary summary;
  collect_sample(prober, 0, &summary);

  EXPECT_EQ(summary.retries, 0u);
  EXPECT_GT(summary.probes_lost, 0u);
  EXPECT_LT(summary.responders, clean_summary.responders);
  EXPECT_NEAR(static_cast<double>(summary.responders),
              0.7 * static_cast<double>(clean_summary.responders),
              0.05 * static_cast<double>(clean_summary.responders));
  // Every would-be responder either got through or is accounted as lost.
  EXPECT_GE(summary.responders + summary.error_replies + summary.probes_lost,
            clean_summary.responders + clean_summary.error_replies);
}

class RateLimitTest : public ::testing::Test {
 protected:
  /// A week-0 responder that also survives into week 1 (not remediated,
  /// address stable) — so a week-1 reprobe exercises only the rate-limit
  /// window reset, not pool churn.
  std::uint32_t durable_responder(const sim::World& world) {
    sim::World clean_world(tiny_config());
    Prober clean(clean_world, kProbeSource);
    std::vector<std::uint32_t> responders;
    clean.run_monlist_sample(0, [&](const AmplifierObservation& obs) {
      responders.push_back(obs.server_index);
    });
    for (const auto idx : responders) {
      const auto& t = world.servers()[idx];
      const bool fixed_by_w1 =
          t.monlist_fix_week >= 0 && t.monlist_fix_week <= 1;
      if (!fixed_by_w1 && world.reachable(idx, 1)) return idx;
    }
    ADD_FAILURE() << "no durable responder in the tiny world";
    return 0;
  }
};

TEST_F(RateLimitTest, ServerStopsAfterWindowCapAndKodHaltsRetries) {
  sim::ImpairmentConfig cfg;
  cfg.rate_limiter_fraction = 1.0;  // every server rate limits
  cfg.rate_limit_per_window = 1;
  cfg.rate_limit_kod = true;
  sim::World world(tiny_config());
  const std::uint32_t idx = durable_responder(world);
  Prober prober(world, kProbeSource, ntp::Implementation::kXntpd, cfg);
  ASSERT_TRUE(prober.impairment().is_rate_limiter(idx));

  const util::SimTime t0 = Prober::sample_time(0);
  const std::vector<std::uint32_t> targets{idx};
  // First probe of the window is answered.
  auto s1 = prober.probe_targets(targets, 0, t0, [](const auto&) {});
  EXPECT_EQ(s1.responders, 1u);
  EXPECT_EQ(s1.rate_limited, 0u);
  // Second probe (same window): budget spent; the KoD stops retries cold.
  auto s2 = prober.probe_targets(targets, 0, t0 + 3600, [](const auto&) {});
  EXPECT_EQ(s2.responders, 0u);
  EXPECT_EQ(s2.rate_limited, 1u);
  EXPECT_EQ(s2.retries, 0u);
  EXPECT_EQ(s2.probes_lost, 0u);  // refused, not lost — distinct accounting
  // A new week is a new window: the server answers again.
  auto s3 = prober.probe_targets(targets, 1, Prober::sample_time(1),
                                 [](const auto&) {});
  EXPECT_EQ(s3.responders, 1u);
}

TEST_F(RateLimitTest, SilentLimiterEatsRetriesInsteadOfKod) {
  sim::ImpairmentConfig cfg;
  cfg.rate_limiter_fraction = 1.0;
  cfg.rate_limit_per_window = 1;
  cfg.rate_limit_kod = false;  // drop silently: the client keeps trying
  ProbePolicy policy;
  policy.max_retries = 3;
  sim::World world(tiny_config());
  const std::uint32_t idx = durable_responder(world);
  Prober prober(world, kProbeSource, ntp::Implementation::kXntpd, cfg, policy);

  const util::SimTime t0 = Prober::sample_time(0);
  const std::vector<std::uint32_t> targets{idx};
  prober.probe_targets(targets, 0, t0, [](const auto&) {});
  auto s2 = prober.probe_targets(targets, 0, t0 + 3600, [](const auto&) {});
  EXPECT_EQ(s2.responders, 0u);
  EXPECT_EQ(s2.rate_limited, 1u);
  EXPECT_EQ(s2.retries, static_cast<std::uint64_t>(policy.max_retries));
}

TEST(ProberImpairmentTest, PartialTablesFlowIntoCensus) {
  sim::ImpairmentConfig cfg;
  cfg.response_packet_loss = 0.15;
  sim::World world(tiny_config());
  Prober prober(world, kProbeSource, ntp::Implementation::kXntpd, cfg);
  core::AmplifierCensus census(world.registry(), world.pbl());

  census.begin_sample(0, util::Date{2014, 1, 10});
  const auto summary = prober.run_monlist_sample(
      0, [&](const AmplifierObservation& obs) { census.add(obs); });
  census.end_sample();

  EXPECT_GT(summary.truncated_tables, 0u);
  ASSERT_EQ(census.rows().size(), 1u);
  EXPECT_EQ(census.rows()[0].partial_tables, summary.truncated_tables);
  EXPECT_TRUE(census.missing_weeks(1).empty());
}

TEST(ProberImpairmentTest, CensusReportsMissingWeeks) {
  sim::World world(tiny_config());
  core::AmplifierCensus census(world.registry(), world.pbl());
  census.begin_sample(0, util::Date{2014, 1, 10});
  census.end_sample();
  census.begin_sample(2, util::Date{2014, 1, 24});
  census.end_sample();
  EXPECT_EQ(census.missing_weeks(4), (std::vector<int>{1, 3}));
}

TEST(ProberImpairmentTest, VersionPassCountersReproduceAndCount) {
  sim::ImpairmentConfig cfg;
  cfg.seed = 99;
  cfg.request_loss = 0.15;
  cfg.transient_silence_rate = 0.1;

  auto run = [&] {
    sim::World world(tiny_config());
    Prober prober(world, kProbeSource, ntp::Implementation::kXntpd, cfg);
    std::vector<std::tuple<std::uint32_t, std::uint64_t, int>> keys;
    const auto summary =
        prober.run_version_sample(0, [&](const VersionObservation& obs) {
          keys.emplace_back(obs.server_index, obs.response_wire_bytes,
                            obs.stratum);
        });
    return std::make_pair(keys, summary);
  };
  const auto [k1, s1] = run();
  const auto [k2, s2] = run();
  EXPECT_EQ(k1, k2);
  EXPECT_EQ(s1.responders_detailed, s2.responders_detailed);
  EXPECT_EQ(s1.retries, s2.retries);
  EXPECT_EQ(s1.probes_lost, s2.probes_lost);
  EXPECT_GT(s1.retries, 0u);
  EXPECT_EQ(s1.responders_detailed, k1.size());
}

TEST(ProberImpairmentTest, VersionPassRetriesRepliesDestroyedInTransit) {
  // Every reply datagram truncated: no fragment parses, so nothing may be
  // recorded as a responder with an empty identity — the reply was lost in
  // transit and is retried, exactly as the monlist pass does.
  sim::ImpairmentConfig cfg;
  cfg.seed = 99;
  cfg.response_truncate_rate = 1.0;
  sim::World world(tiny_config());
  Prober prober(world, kProbeSource, ntp::Implementation::kXntpd, cfg);
  std::size_t observed = 0, empty_identity = 0;
  const auto summary =
      prober.run_version_sample(0, [&](const VersionObservation& obs) {
        ++observed;
        if (obs.system.empty() && obs.version.empty() && obs.stratum == 0) {
          ++empty_identity;
        }
      });
  EXPECT_EQ(empty_identity, 0u);
  EXPECT_EQ(summary.responders_detailed, observed);
  // The destroyed replies are retried, then counted as lost.
  EXPECT_GT(summary.probes_lost, 10000u);
  EXPECT_GE(summary.retries, summary.probes_lost);
}

}  // namespace
}  // namespace gorilla::scan
