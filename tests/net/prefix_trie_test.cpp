#include "net/prefix_trie.h"

#include <gtest/gtest.h>

#include <optional>
#include <vector>

#include "util/rng.h"

namespace gorilla::net {
namespace {

TEST(PrefixTrieTest, EmptyTrieHasNoMatches) {
  PrefixTrie<int> trie;
  EXPECT_EQ(trie.size(), 0u);
  EXPECT_FALSE(trie.lookup(Ipv4Address(1, 2, 3, 4)));
}

TEST(PrefixTrieTest, ExactInsertLookup) {
  PrefixTrie<int> trie;
  trie.insert(Prefix(Ipv4Address(10, 0, 0, 0), 8), 42);
  EXPECT_EQ(trie.size(), 1u);
  EXPECT_EQ(trie.lookup(Ipv4Address(10, 200, 3, 4)), 42);
  EXPECT_FALSE(trie.lookup(Ipv4Address(11, 0, 0, 0)));
}

TEST(PrefixTrieTest, LongestPrefixWins) {
  PrefixTrie<int> trie;
  trie.insert(Prefix(Ipv4Address(10, 0, 0, 0), 8), 1);
  trie.insert(Prefix(Ipv4Address(10, 1, 0, 0), 16), 2);
  trie.insert(Prefix(Ipv4Address(10, 1, 2, 0), 24), 3);
  EXPECT_EQ(trie.lookup(Ipv4Address(10, 1, 2, 3)), 3);
  EXPECT_EQ(trie.lookup(Ipv4Address(10, 1, 9, 9)), 2);
  EXPECT_EQ(trie.lookup(Ipv4Address(10, 9, 9, 9)), 1);
}

TEST(PrefixTrieTest, DefaultRouteMatchesEverything) {
  PrefixTrie<int> trie;
  trie.insert(Prefix(Ipv4Address{0u}, 0), 99);
  EXPECT_EQ(trie.lookup(Ipv4Address(1, 2, 3, 4)), 99);
  EXPECT_EQ(trie.lookup(Ipv4Address(255, 0, 0, 1)), 99);
}

TEST(PrefixTrieTest, ReplaceKeepsSize) {
  PrefixTrie<int> trie;
  trie.insert(Prefix(Ipv4Address(10, 0, 0, 0), 8), 1);
  trie.insert(Prefix(Ipv4Address(10, 0, 0, 0), 8), 2);
  EXPECT_EQ(trie.size(), 1u);
  EXPECT_EQ(trie.lookup(Ipv4Address(10, 0, 0, 1)), 2);
}

TEST(PrefixTrieTest, HostRoute) {
  PrefixTrie<int> trie;
  trie.insert(Prefix(Ipv4Address(8, 8, 8, 8), 32), 7);
  EXPECT_EQ(trie.lookup(Ipv4Address(8, 8, 8, 8)), 7);
  EXPECT_FALSE(trie.lookup(Ipv4Address(8, 8, 8, 9)));
}

TEST(PrefixTrieTest, DisjointSiblings) {
  PrefixTrie<int> trie;
  trie.insert(Prefix(Ipv4Address(10, 0, 0, 0), 9), 1);   // 10.0-127
  trie.insert(Prefix(Ipv4Address(10, 128, 0, 0), 9), 2); // 10.128-255
  EXPECT_EQ(trie.lookup(Ipv4Address(10, 5, 0, 0)), 1);
  EXPECT_EQ(trie.lookup(Ipv4Address(10, 200, 0, 0)), 2);
}

// Property test: trie lookups agree with a linear scan over random data.
TEST(PrefixTrieTest, AgreesWithLinearScan) {
  util::Rng rng(12345);
  PrefixTrie<std::size_t> trie;
  std::vector<Prefix> prefixes;
  for (std::size_t i = 0; i < 500; ++i) {
    const int len = static_cast<int>(rng.uniform_int(4, 28));
    const Prefix p(Ipv4Address{static_cast<std::uint32_t>(rng.next())}, len);
    prefixes.push_back(p);
    trie.insert(p, i);
  }
  for (int trial = 0; trial < 2000; ++trial) {
    const Ipv4Address addr{static_cast<std::uint32_t>(rng.next())};
    // Linear: the longest matching prefix, latest insertion wins ties.
    std::optional<std::size_t> best;
    int best_len = -1;
    for (std::size_t i = 0; i < prefixes.size(); ++i) {
      if (prefixes[i].contains(addr) &&
          (prefixes[i].length() > best_len ||
           (prefixes[i].length() == best_len))) {
        // Equal-length duplicates: the trie keeps the last inserted value.
        if (prefixes[i].length() >= best_len) {
          best = i;
          best_len = prefixes[i].length();
        }
      }
    }
    const auto got = trie.lookup(addr);
    ASSERT_EQ(got.has_value(), best.has_value()) << to_string(addr);
    if (best) {
      // Compare by prefix (length + base), not index, because duplicate
      // prefixes overwrite.
      EXPECT_EQ(prefixes[*got].length(), best_len);
      EXPECT_TRUE(prefixes[*got].contains(addr));
    }
  }
}

}  // namespace
}  // namespace gorilla::net
