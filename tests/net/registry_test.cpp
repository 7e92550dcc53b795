#include "net/registry.h"

#include <gtest/gtest.h>

#include <set>

namespace gorilla::net {
namespace {

RegistryConfig small_config() {
  RegistryConfig cfg;
  cfg.num_ases = 500;
  return cfg;
}

class RegistryTest : public ::testing::Test {
 protected:
  Registry registry_{small_config()};
};

TEST_F(RegistryTest, BuildsRequestedAsCount) {
  // 500 generated + 5 named analogues.
  EXPECT_EQ(registry_.ases().size(), 505u);
}

TEST_F(RegistryTest, EveryAsHasAtLeastOneBlock) {
  for (const auto& as_info : registry_.ases()) {
    EXPECT_FALSE(as_info.block_indices.empty()) << as_info.name;
  }
}

TEST_F(RegistryTest, BlocksDoNotOverlap) {
  // Sequential aligned allocation must produce disjoint prefixes.
  std::vector<std::pair<std::uint64_t, std::uint64_t>> ranges;
  for (const auto& block : registry_.blocks()) {
    const std::uint64_t start = block.prefix.base().value();
    ranges.emplace_back(start, start + block.prefix.size());
  }
  std::sort(ranges.begin(), ranges.end());
  for (std::size_t i = 1; i < ranges.size(); ++i) {
    EXPECT_LE(ranges[i - 1].second, ranges[i].first);
  }
}

TEST_F(RegistryTest, DarknetDisjointFromAllBlocks) {
  const auto& darknet = registry_.named().darknet;
  EXPECT_EQ(darknet.length(), 8);
  for (const auto& block : registry_.blocks()) {
    EXPECT_FALSE(darknet.contains(block.prefix))
        << to_string(block.prefix);
  }
}

TEST_F(RegistryTest, AsnLookupRoundTrip) {
  for (const auto& block : registry_.blocks()) {
    EXPECT_EQ(registry_.asn_of(block.prefix.base()), block.asn);
    EXPECT_EQ(registry_.asn_of(block.prefix.at(block.prefix.size() - 1)),
              block.asn);
  }
}

TEST_F(RegistryTest, UnallocatedSpaceHasNoAsn) {
  EXPECT_FALSE(registry_.asn_of(registry_.named().darknet.base()));
  EXPECT_FALSE(registry_.asn_of(Ipv4Address(0, 0, 0, 1)));
}

TEST_F(RegistryTest, NamedNetworksResolve) {
  const auto& named = registry_.named();
  EXPECT_EQ(registry_.asn_of(named.merit_space.base()), named.merit);
  EXPECT_EQ(registry_.asn_of(named.csu_space.base()), named.csu);
  EXPECT_EQ(registry_.as_info(named.ovh_analogue).category,
            AsCategory::kHosting);
  EXPECT_EQ(registry_.as_info(named.merit).category,
            AsCategory::kRegionalIsp);
}

TEST_F(RegistryTest, CsuInsideFrgpSpace) {
  const auto& named = registry_.named();
  EXPECT_TRUE(named.frgp_space.contains(named.csu_space));
  // But CSU is its own origin AS.
  EXPECT_NE(named.csu, named.frgp);
}

TEST_F(RegistryTest, ContinentLookup) {
  const auto& named = registry_.named();
  EXPECT_EQ(registry_.continent_of(named.merit_space.base()),
            Continent::kNorthAmerica);
  EXPECT_EQ(registry_.continent_of(named.ovh_analogue == 0
                                       ? Ipv4Address{0}
                                       : registry_
                                             .blocks()[registry_
                                                           .as_info(named.ovh_analogue)
                                                           .block_indices[0]]
                                             .prefix.base()),
            Continent::kEurope);
}

TEST_F(RegistryTest, AttributeMatchesTheSingleFieldLookups) {
  util::Rng rng(11);
  for (int i = 0; i < 2000; ++i) {
    const Ipv4Address a = i % 4 == 0
                              ? Ipv4Address(static_cast<std::uint32_t>(rng.next()))
                              : registry_.random_address(rng);
    const auto where = registry_.attribute(a);
    ASSERT_EQ(where.has_value(), registry_.block_index_of(a).has_value());
    if (!where) continue;
    EXPECT_EQ(where->block_index, *registry_.block_index_of(a));
    EXPECT_EQ(where->asn, registry_.asn_of(a));
    EXPECT_EQ(where->continent, registry_.continent_of(a));
  }
  EXPECT_FALSE(registry_.attribute(registry_.named().darknet.base()));
}

TEST_F(RegistryTest, AsInfoRejectsUnknownAsn) {
  EXPECT_THROW(static_cast<void>(registry_.as_info(0)), std::out_of_range);
  EXPECT_THROW(static_cast<void>(registry_.as_info(999999)),
               std::out_of_range);
}

TEST_F(RegistryTest, RandomAddressIsAllocated) {
  util::Rng rng(1);
  for (int i = 0; i < 1000; ++i) {
    const auto addr = registry_.random_address(rng);
    EXPECT_TRUE(registry_.asn_of(addr)) << to_string(addr);
  }
}

TEST_F(RegistryTest, RandomAddressWithPredicate) {
  util::Rng rng(2);
  for (int i = 0; i < 200; ++i) {
    const auto addr = registry_.random_address(
        rng, [](const RoutedBlock& b) { return b.residential; });
    ASSERT_TRUE(addr);
    const auto idx = registry_.block_index_of(*addr);
    ASSERT_TRUE(idx);
    EXPECT_TRUE(registry_.blocks()[*idx].residential);
  }
}

TEST_F(RegistryTest, ImpossiblePredicateReturnsNullopt) {
  util::Rng rng(3);
  const auto addr = registry_.random_address(
      rng, [](const RoutedBlock&) { return false; }, /*max_tries=*/8);
  EXPECT_FALSE(addr);
}

TEST_F(RegistryTest, DeterministicForSeed) {
  Registry other{small_config()};
  ASSERT_EQ(other.blocks().size(), registry_.blocks().size());
  for (std::size_t i = 0; i < other.blocks().size(); ++i) {
    EXPECT_EQ(other.blocks()[i].prefix, registry_.blocks()[i].prefix);
    EXPECT_EQ(other.blocks()[i].asn, registry_.blocks()[i].asn);
  }
}

TEST_F(RegistryTest, DifferentSeedsDiffer) {
  RegistryConfig cfg = small_config();
  cfg.seed = 999;
  Registry other{cfg};
  bool any_diff = other.blocks().size() != registry_.blocks().size();
  for (std::size_t i = 0;
       !any_diff && i < std::min(other.blocks().size(),
                                 registry_.blocks().size());
       ++i) {
    any_diff = other.blocks()[i].prefix != registry_.blocks()[i].prefix;
  }
  EXPECT_TRUE(any_diff);
}

TEST_F(RegistryTest, ResidentialBlocksExist) {
  std::size_t residential = 0;
  for (const auto& b : registry_.blocks()) {
    if (b.residential) ++residential;
  }
  EXPECT_GT(residential, 10u);
  EXPECT_LT(residential, registry_.blocks().size());
}

TEST_F(RegistryTest, AllocatedAddressesMatchesBlockSum) {
  std::uint64_t sum = 0;
  for (const auto& b : registry_.blocks()) sum += b.prefix.size();
  EXPECT_EQ(registry_.allocated_addresses(), sum);
}

TEST(RegistryCategoryTest, ToStringCoversAll) {
  EXPECT_STREQ(to_string(AsCategory::kHosting), "hosting");
  EXPECT_STREQ(to_string(AsCategory::kResidentialIsp), "residential");
  EXPECT_STREQ(to_string(Continent::kSouthAmerica), "South America");
  EXPECT_STREQ(to_string(Continent::kAsia), "Asia");
}

}  // namespace
}  // namespace gorilla::net
