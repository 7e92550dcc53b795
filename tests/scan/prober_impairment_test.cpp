// Resilient-prober behaviour under the deterministic impairment layer:
// zero config must be byte-identical to the seed prober, lossy configs must
// be bit-for-bit reproducible, retries must recover transient failures, and
// rate-limited servers must stop answering after their window budget.
#include "scan/prober.h"

#include <gtest/gtest.h>

#include <array>
#include <set>
#include <span>
#include <string_view>
#include <tuple>
#include <vector>

#include "core/amplifiers.h"
#include "sim/scanner.h"
#include "sim/sharded_executor.h"
#include "util/crc32.h"
#include "util/mem_stats.h"
#include "util/thread_pool.h"

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

/// CRC-32 over a stream of integers (8 bytes little-endian each) and
/// length-prefixed strings: one number that moves when any field does.
class Fingerprint {
 public:
  void add(std::uint64_t v) {
    std::array<std::uint8_t, 8> bytes{};
    for (std::size_t i = 0; i < bytes.size(); ++i) {
      bytes[i] = static_cast<std::uint8_t>(v >> (8 * i));
    }
    crc_.update(bytes);
  }
  void add(std::string_view text) {
    add(text.size());
    crc_.update(std::span(reinterpret_cast<const std::uint8_t*>(text.data()),
                          text.size()));
  }
  void add(const util::Date& d) {
    add(static_cast<std::uint64_t>(d.year));
    add(static_cast<std::uint64_t>(d.month));
    add(static_cast<std::uint64_t>(d.day));
  }
  void add(const AmplifierObservation& o) {
    add(o.server_index);
    add(o.address.value());
    add(o.response_packets);
    add(o.response_udp_bytes);
    add(o.response_wire_bytes);
    add(o.table.size());
    for (const auto& e : o.table) {
      add(e.address.value());
      add(e.local_address.value());
      add(e.avg_interval);
      add(e.last_seen);
      add(e.restr);
      add(e.count);
      add(e.port);
      add(e.mode);
      add(e.version);
    }
    add(static_cast<std::uint64_t>(o.probe_time));
    add(o.table_partial ? 1u : 0u);
    add(static_cast<std::uint64_t>(o.attempts));
  }
  void add(const VersionObservation& o) {
    add(o.server_index);
    add(o.address.value());
    add(o.response_packets);
    add(o.response_wire_bytes);
    add(std::string_view(o.system));
    add(std::string_view(o.version));
    add(static_cast<std::uint64_t>(o.stratum));
    add(static_cast<std::uint64_t>(o.probe_time));
  }
  void add(const MonlistSampleSummary& s) {
    add(static_cast<std::uint64_t>(s.week));
    add(s.date);
    for (const auto n : {s.probes_sent, s.responders, s.error_replies,
                         s.probes_lost, s.retries, s.truncated_tables,
                         s.rate_limited}) {
      add(n);
    }
  }
  void add(const VersionSampleSummary& s) {
    add(static_cast<std::uint64_t>(s.week));
    add(s.date);
    for (const auto n : {s.probes_sent, s.responders_total,
                         s.responders_detailed, s.probes_lost, s.retries,
                         s.truncated_tables, s.rate_limited}) {
      add(n);
    }
  }
  /// Every detailed server's monitor table, dumped at a fixed time through
  /// the const World: each table's entries, counts and times.
  void add_tables(const sim::World& world) {
    constexpr util::SimTime kDumpAt = 110 * util::kSecondsPerDay;
    for (std::uint32_t i = 0; i < world.servers().size(); ++i) {
      const ntp::NtpServer* server = world.detailed(i);
      if (server == nullptr) continue;
      const auto entries = server->monitor().dump(kDumpAt, net::Ipv4Address{});
      add(i);
      add(entries.size());
      for (const auto& e : entries) {
        add(e.address.value());
        add(e.avg_interval);
        add(e.last_seen);
        add(e.count);
        add(e.port);
        add(e.mode);
        add(e.version);
      }
    }
  }
  [[nodiscard]] std::uint32_t value() const { return crc_.value(); }

 private:
  util::Crc32 crc_;
};

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

TEST(ProberImpairmentTest, ImpairedPassesKeepTheirBytes) {
  // Every fate at once, on a monlist pass and the version pass of the same
  // week (so the two share one rate-limit window), once with a KoD limiter
  // and once with a silent one, inline and on a 4-thread executor: both
  // passes span many 512-target chunks, so the rate budget is spent on
  // worker threads. The constants pin every observation field and every
  // summary counter, for either executor.
  struct Pin {
    bool kod;
    std::uint32_t monlist_crc;
    std::uint32_t version_crc;
  };
  util::ThreadPool pool(4);
  sim::ShardedExecutor executor(&pool);
  sim::ShardedExecutor* const executors[] = {nullptr, &executor};
  for (auto* exec : executors) {
    for (const Pin pin : {Pin{true, 0x4f9360e2u, 0x990354bcu},
                          Pin{false, 0xd145d271u, 0xf2127d67u}}) {
      sim::ImpairmentConfig cfg;
      cfg.seed = 23;
      cfg.request_loss = 0.08;
      cfg.icmp_unreachable_rate = 0.04;
      cfg.transient_silence_rate = 0.06;
      cfg.response_packet_loss = 0.1;
      cfg.response_truncate_rate = 0.05;
      cfg.response_garble_rate = 0.05;
      cfg.rate_limiter_fraction = 0.3;
      cfg.rate_limit_per_window = 1;
      cfg.rate_limit_kod = pin.kod;
      sim::World world(tiny_config());
      Prober prober(world, kProbeSource, ntp::Implementation::kXntpd, cfg);
      prober.set_executor(exec);

      Fingerprint monlist;
      const auto ms = prober.run_monlist_sample(
          6, [&](const AmplifierObservation& obs) { monlist.add(obs); });
      monlist.add(ms);
      Fingerprint version;
      const auto vs = prober.run_version_sample(
          0, [&](const VersionObservation& obs) { version.add(obs); });
      version.add(vs);

      // Many chunks per pass, so the sharded run spreads the budget.
      EXPECT_GT(ms.probes_sent, 4u * 512u);
      EXPECT_GT(ms.retries, 0u);
      EXPECT_GT(ms.probes_lost, 0u);
      EXPECT_GT(ms.truncated_tables, 0u);
      EXPECT_GT(ms.rate_limited, 0u);
      EXPECT_GT(vs.retries, 0u);
      EXPECT_GT(vs.probes_lost, 0u);
      EXPECT_GT(vs.truncated_tables, 0u);
      EXPECT_GT(vs.rate_limited, 0u);
      EXPECT_EQ(monlist.value(), pin.monlist_crc)
          << "kod=" << pin.kod << " sharded=" << (exec != nullptr);
      EXPECT_EQ(version.value(), pin.version_crc)
          << "kod=" << pin.kod << " sharded=" << (exec != nullptr);
    }
  }
}

TEST(ProberImpairmentTest, VersionPassIsJobCountInvariant) {
  // A clean and a lossy config, neither with a rate limiter (the test
  // above shards a rate-limited pass): the visit order and the summary on
  // the executor must match the inline run exactly.
  sim::ImpairmentConfig lossy;
  lossy.seed = 5;
  lossy.request_loss = 0.1;
  lossy.transient_silence_rate = 0.05;
  lossy.response_packet_loss = 0.1;
  lossy.response_truncate_rate = 0.05;
  lossy.response_garble_rate = 0.05;
  util::ThreadPool pool(4);
  sim::ShardedExecutor executor(&pool);
  for (const auto& cfg : {sim::ImpairmentConfig{}, lossy}) {
    auto run = [&](sim::ShardedExecutor* exec) {
      sim::World world(tiny_config());
      Prober prober(world, kProbeSource, ntp::Implementation::kXntpd, cfg);
      prober.set_executor(exec);
      std::vector<std::uint32_t> order;
      Fingerprint f;
      for (const int vweek : {0, 3}) {
        f.add(prober.run_version_sample(
            vweek, [&](const VersionObservation& obs) {
              order.push_back(obs.server_index);
              f.add(obs);
            }));
      }
      return std::make_pair(order, f.value());
    };
    const auto inline_run = run(nullptr);
    const auto sharded_run = run(&executor);
    EXPECT_FALSE(inline_run.first.empty());
    EXPECT_EQ(inline_run.first, sharded_run.first);
    EXPECT_EQ(inline_run.second, sharded_run.second);
  }
}

/// A study's shape on a fresh world: a campaign prober probes the last
/// sample week (so its remediation is applied), then a second prober, with
/// lossy requests and transient silence, runs version weeks 0 and 1. The
/// loss makes retries, so a server sees a pass's request at several attempt
/// offsets. Neither version pass writes a table: the `ntp.monitor` counter
/// (the bytes every table owns) holds still across each, and the second
/// runs with the first's writes pending.
struct VersionStudy {
  static constexpr int kLastWeek = 14;

  explicit VersionStudy(sim::ShardedExecutor& executor)
      : versions(world, kProbeSource, ntp::Implementation::kXntpd, lossy()) {
    campaign.set_executor(&executor);
    versions.set_executor(&executor);
    campaign.run_monlist_sample(kLastWeek, [](const AmplifierObservation&) {});
    const auto& monitor_bytes =
        util::MemStats::instance().counter("ntp.monitor");
    for (const int vweek : {0, 1}) {
      const std::uint64_t before = monitor_bytes.live();
      const auto summary =
          versions.run_version_sample(vweek, [](const VersionObservation&) {});
      EXPECT_GT(summary.retries, 0u);
      EXPECT_EQ(monitor_bytes.live(), before);
    }
  }

  static sim::ImpairmentConfig lossy() {
    sim::ImpairmentConfig cfg;
    cfg.seed = 11;
    cfg.request_loss = 0.2;
    cfg.transient_silence_rate = 0.1;
    return cfg;
  }

  sim::World world{tiny_config()};
  Prober campaign{world, kProbeSource};
  Prober versions;
};

TEST(ProberImpairmentTest, VersionPassReadsRemediationOffItsOwnWeek) {
  // A version pass at vweek 0 (monlist week 6) on a World whose campaign
  // has probed through week 10 sees exactly what it sees on a fresh World:
  // amplifiers whose mode 6 is fixed in weeks 7-10 still answer it. Clean
  // and lossy alike, so the retry paths read the week too.
  constexpr int kCampaignWeeks = 10;
  const auto version_pass = [](sim::World& world,
                               const sim::ImpairmentConfig& cfg) {
    Prober prober(world, kProbeSource, ntp::Implementation::kXntpd, cfg);
    Fingerprint f;
    const auto summary = prober.run_version_sample(
        0, [&f](const VersionObservation& obs) { f.add(obs); });
    return std::make_pair(f.value(), summary.responders_total);
  };
  for (const auto& cfg : {sim::ImpairmentConfig{}, VersionStudy::lossy()}) {
    sim::World fresh(tiny_config());
    const auto expected = version_pass(fresh, cfg);

    sim::World studied(tiny_config());
    std::size_t fixed_later = 0;  // the servers the property is about
    for (const auto ai : studied.amplifier_indices()) {
      const auto& t = studied.servers()[ai];
      if (t.version_fix_week > 6 && t.version_fix_week <= kCampaignWeeks &&
          studied.server_config(ai) != nullptr &&
          studied.responds_version(ai, 6)) {
        ++fixed_later;
      }
    }
    ASSERT_GT(fixed_later, 0u);
    Prober campaign(studied, kProbeSource);
    for (int week = 0; week <= kCampaignWeeks; ++week) {
      (void)campaign.run_monlist_sample(week,
                                        [](const AmplifierObservation&) {});
    }
    const auto seen = version_pass(studied, cfg);
    EXPECT_EQ(seen.first, expected.first) << "lossy=" << cfg.any();
    EXPECT_EQ(seen.second, expected.second) << "lossy=" << cfg.any();
  }
}

TEST(ProberImpairmentTest, VersionPassMonitorWritesReachEveryReader) {
  // After two version passes the tables are read three ways, each on a
  // fresh VersionStudy: a const dump, monitor seeding followed by a monlist
  // pass, and a third version pass. Each constant holds what its reader
  // saw, inline and on a 4-thread executor alike.
  constexpr std::uint32_t kTablesCrc = 0x955f87a2u;
  constexpr std::uint32_t kSeededMonlistCrc = 0xec69a381u;
  constexpr std::uint32_t kThirdPassCrc = 0x06d02570u;
  util::ThreadPool pool(4);
  for (util::ThreadPool* threads : {static_cast<util::ThreadPool*>(nullptr),
                                    &pool}) {
    sim::ShardedExecutor executor(threads);
    {
      const VersionStudy study(executor);
      Fingerprint f;
      f.add_tables(study.world);
      EXPECT_EQ(f.value(), kTablesCrc);
    }
    {
      VersionStudy study(executor);
      sim::ScanTraffic scans(study.world, sim::ScanTrafficConfig{});
      scans.seed_monitor_tables(VersionStudy::kLastWeek, &executor);
      Fingerprint f;
      f.add(study.campaign.run_monlist_sample(
          VersionStudy::kLastWeek,
          [&f](const AmplifierObservation& obs) { f.add(obs); }));
      EXPECT_EQ(f.value(), kSeededMonlistCrc);
    }
    {
      VersionStudy study(executor);
      Fingerprint f;
      f.add(study.versions.run_version_sample(
          2, [&f](const VersionObservation& obs) { f.add(obs); }));
      f.add_tables(study.world);
      EXPECT_EQ(f.value(), kThirdPassCrc);
    }
  }
}

}  // namespace
}  // namespace gorilla::scan
