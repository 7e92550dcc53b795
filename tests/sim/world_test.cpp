#include "sim/world.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <set>
#include <string>

#include "sim/remediation.h"

namespace gorilla::sim {
namespace {

WorldConfig tiny_config() {
  WorldConfig cfg;
  cfg.scale = 200;  // ~11K amplifiers, ~32K servers: fast enough for tests
  cfg.registry.num_ases = 2000;
  return cfg;
}

class WorldTest : public ::testing::Test {
 protected:
  World world_{tiny_config()};
};

TEST_F(WorldTest, PopulationSizesScale) {
  const auto& cfg = world_.config();
  const double expected_amps =
      static_cast<double>(cfg.ever_amplifiers / cfg.scale) /
      (1.0 - cfg.other_impl_fraction);
  EXPECT_NEAR(static_cast<double>(world_.amplifier_indices().size()),
              expected_amps + cfg.merit_amplifiers + cfg.csu_amplifiers +
                  cfg.frgp_amplifiers,
              expected_amps * 0.02);
  EXPECT_GE(world_.servers().size(),
            cfg.total_ntp_servers / cfg.scale);
}

TEST_F(WorldTest, AmplifierIndicesPointAtAmplifiers) {
  for (const auto ai : world_.amplifier_indices()) {
    EXPECT_TRUE(world_.servers()[ai].ever_amplifier);
  }
}

TEST_F(WorldTest, EveryAmplifierHasDetailedServer) {
  for (const auto ai : world_.amplifier_indices()) {
    ASSERT_NE(world_.detailed(ai), nullptr);
    EXPECT_EQ(world_.detailed(ai)->config().address,
              world_.servers()[ai].home_address);
  }
}

TEST_F(WorldTest, EndHostFractionNearConfigured) {
  std::size_t end_hosts = 0;
  for (const auto ai : world_.amplifier_indices()) {
    if (world_.servers()[ai].end_host) ++end_hosts;
  }
  const double frac = static_cast<double>(end_hosts) /
                      static_cast<double>(world_.amplifier_indices().size());
  EXPECT_NEAR(frac, world_.config().amplifier_end_host_fraction, 0.05);
}

TEST_F(WorldTest, LivePoolDecaysLikePaperCurve) {
  const auto initial = world_.live_amplifier_count(0);
  const auto mid = world_.live_amplifier_count(7);
  const auto final_count = world_.live_amplifier_count(14);
  EXPECT_GT(initial, mid);
  EXPECT_GT(mid, final_count);
  // The end-to-start ratio should be within a factor ~2 of the paper's
  // (survival is hazard-modulated per subgroup, so exact match isn't
  // expected at tiny scale).
  const double ratio = static_cast<double>(final_count) /
                       static_cast<double>(initial);
  EXPECT_GT(ratio, 0.04);
  EXPECT_LT(ratio, 0.20);
}

TEST_F(WorldTest, RespondsMonlistHonorsFixWeek) {
  for (const auto ai : world_.amplifier_indices()) {
    const auto& t = world_.servers()[ai];
    if (t.monlist_fix_week >= 0) {
      EXPECT_FALSE(world_.responds_monlist(ai, t.monlist_fix_week));
      EXPECT_FALSE(world_.responds_monlist(ai, t.monlist_fix_week + 3));
    }
  }
}

TEST_F(WorldTest, AvailabilityGatesResponses) {
  // Roughly config.availability of live amplifiers answer in any week.
  std::size_t live = 0, responding = 0;
  for (const auto ai : world_.amplifier_indices()) {
    const auto& t = world_.servers()[ai];
    if (t.monlist_fix_week != 0) {
      ++live;
      if (world_.responds_monlist(ai, 0)) ++responding;
    }
  }
  ASSERT_GT(live, 0u);
  EXPECT_NEAR(static_cast<double>(responding) / static_cast<double>(live),
              world_.config().availability, 0.03);
}

TEST_F(WorldTest, ReachabilityIsDeterministic) {
  const auto ai = world_.amplifier_indices().front();
  for (int week = 0; week < 5; ++week) {
    EXPECT_EQ(world_.reachable(ai, week), world_.reachable(ai, week));
  }
}

TEST_F(WorldTest, AddressChurnOnlyForDhcpHosts) {
  for (const auto ai : world_.amplifier_indices()) {
    const auto& t = world_.servers()[ai];
    if (!t.dhcp_churn) {
      for (int w : {0, 3, 10}) {
        EXPECT_EQ(world_.address_at(ai, w), t.home_address);
      }
    }
  }
}

TEST_F(WorldTest, ChurnedAddressStaysInHomeBlock) {
  std::size_t churned = 0;
  for (const auto ai : world_.amplifier_indices()) {
    const auto& t = world_.servers()[ai];
    if (!t.dhcp_churn) continue;
    const auto home_block = world_.registry().block_index_of(t.home_address);
    for (int w : {1, 5, 12}) {
      const auto addr = world_.address_at(ai, w);
      EXPECT_EQ(world_.registry().block_index_of(addr), home_block);
      if (addr != t.home_address) ++churned;
    }
  }
  EXPECT_GT(churned, 0u);  // DHCP churn actually happens
}

TEST_F(WorldTest, MegaAmplifiersExistAndLoop) {
  std::size_t megas = 0, looping = 0;
  for (const auto ai : world_.amplifier_indices()) {
    if (!world_.servers()[ai].mega) continue;
    ++megas;
    if (world_.detailed(ai)->config().loop_repeat >= 2) ++looping;
  }
  EXPECT_GE(megas, world_.config().mega_amplifiers / world_.config().scale);
  EXPECT_GT(looping, 0u);
}

TEST_F(WorldTest, MegasPredominantlyInAsia) {
  std::size_t megas = 0, asia = 0;
  for (const auto ai : world_.amplifier_indices()) {
    const auto& t = world_.servers()[ai];
    if (!t.mega) continue;
    ++megas;
    if (world_.registry().continent_of(t.home_address) ==
        net::Continent::kAsia) {
      ++asia;
    }
  }
  ASSERT_GT(megas, 0u);
  EXPECT_GT(static_cast<double>(asia) / static_cast<double>(megas), 0.9);
}

TEST_F(WorldTest, RegionalCastPlaced) {
  const auto& cfg = world_.config();
  EXPECT_EQ(world_.merit_amplifiers().size(), cfg.merit_amplifiers);
  EXPECT_EQ(world_.csu_amplifiers().size(), cfg.csu_amplifiers);
  EXPECT_EQ(world_.frgp_amplifiers().size(), cfg.frgp_amplifiers);
  const auto& named = world_.registry().named();
  for (const auto ai : world_.merit_amplifiers()) {
    EXPECT_TRUE(named.merit_space.contains(world_.servers()[ai].home_address));
  }
  for (const auto ai : world_.csu_amplifiers()) {
    EXPECT_TRUE(named.csu_space.contains(world_.servers()[ai].home_address));
  }
  for (const auto ai : world_.frgp_amplifiers()) {
    EXPECT_TRUE(named.frgp_space.contains(world_.servers()[ai].home_address));
  }
}

TEST_F(WorldTest, CsuSecuredAtWeekTwo) {
  for (const auto ai : world_.csu_amplifiers()) {
    EXPECT_EQ(world_.servers()[ai].monlist_fix_week, 2);
  }
}

TEST_F(WorldTest, DarknetIsDark) {
  const auto& darknet = world_.registry().named().darknet;
  EXPECT_TRUE(world_.in_darknet(darknet.base()));
  EXPECT_TRUE(world_.in_darknet(darknet.at(darknet.size() - 1)));
  for (const auto ai : world_.amplifier_indices()) {
    EXPECT_FALSE(world_.in_darknet(world_.servers()[ai].home_address));
  }
}

TEST_F(WorldTest, OtherImplAmplifiersNearConfiguredFraction) {
  std::size_t other = 0;
  for (const auto ai : world_.amplifier_indices()) {
    if (world_.servers()[ai].other_impl) ++other;
  }
  const double frac = static_cast<double>(other) /
                      static_cast<double>(world_.amplifier_indices().size());
  EXPECT_NEAR(frac, world_.config().other_impl_fraction, 0.03);
}

TEST_F(WorldTest, DeterministicAcrossConstructions) {
  World other{tiny_config()};
  ASSERT_EQ(other.servers().size(), world_.servers().size());
  for (std::size_t i = 0; i < 1000 && i < other.servers().size(); ++i) {
    EXPECT_EQ(other.servers()[i].home_address,
              world_.servers()[i].home_address);
    EXPECT_EQ(other.servers()[i].monlist_fix_week,
              world_.servers()[i].monlist_fix_week);
  }
}

TEST_F(WorldTest, EndHostShareOfLivePoolGrows) {
  // §6.1: infrastructure remediates faster, so the end-host share of the
  // surviving pool roughly doubles.
  auto share_at = [&](int week) {
    std::size_t live = 0, end_hosts = 0;
    for (const auto ai : world_.amplifier_indices()) {
      const auto& t = world_.servers()[ai];
      if (t.monlist_fix_week < 0 || week < t.monlist_fix_week) {
        ++live;
        if (t.end_host) ++end_hosts;
      }
    }
    return live ? static_cast<double>(end_hosts) / static_cast<double>(live)
                : 0.0;
  };
  EXPECT_GT(share_at(14), share_at(0) * 1.4);
}

struct IdentityDigest {
  std::uint64_t fnv1a = 0;
  std::size_t servers = 0;
  std::size_t text_bytes = 0;
};

/// FNV-1a-64 over every detailed server's READVAR text in server-index
/// order, each text followed by '\n'.
IdentityDigest identity_digest(std::uint64_t seed) {
  WorldConfig cfg;
  cfg.scale = 400;
  cfg.seed = seed;
  const World world(cfg);
  IdentityDigest d;
  d.fnv1a = 0xcbf29ce484222325ULL;
  auto mix = [&d](unsigned char c) {
    d.fnv1a ^= c;
    d.fnv1a *= 0x100000001b3ULL;
  };
  for (std::uint32_t i = 0; i < world.servers().size(); ++i) {
    const ntp::NtpServer* server = world.detailed(i);
    if (server == nullptr) continue;
    const std::string& text = server->config().identity.readvar;
    for (const char c : text) mix(static_cast<unsigned char>(c));
    mix('\n');
    ++d.servers;
    d.text_bytes += text.size();
  }
  return d;
}

TEST(WorldIdentityTest, ReadvarTextIsPinned) {
  // The §3.3 identities are drawn once per world; these pins hold the bytes
  // the field-by-field builder rendered, so any change to the draw order or
  // the number formatting shows up here before it reaches Table 2.
  const IdentityDigest one = identity_digest(1);
  EXPECT_EQ(one.servers, 15288u);
  EXPECT_EQ(one.text_bytes, 5134731u);
  EXPECT_EQ(one.fnv1a, 0xa33bddb8d2e119d5ULL);
  EXPECT_EQ(identity_digest(7).fnv1a, 0x63ee5de6fdfd9b67ULL);
}

TEST(WorldIdentityTest, StoredStratumMatchesText) {
  const World world(tiny_config());
  std::size_t checked = 0;
  for (std::uint32_t i = 0; i < world.servers().size(); ++i) {
    const ntp::NtpServer* server = world.detailed(i);
    if (server == nullptr) continue;
    const auto& id = server->config().identity;
    ASSERT_EQ(ntp::parse_variable_list(id.readvar).at("stratum"),
              std::to_string(id.stratum));
    ++checked;
  }
  EXPECT_GT(checked, 1000u);
}

}  // namespace
}  // namespace gorilla::sim
