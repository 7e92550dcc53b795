#include "util/flat_map.h"

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <unordered_map>
#include <vector>

#include "util/rng.h"

namespace gorilla::util {
namespace {

constexpr std::uint64_t kEmptyPattern = ~std::uint64_t{0};

/// The home slot of `key` in a `capacity`-slot table (a power of two).
std::uint64_t home(std::uint64_t key, std::size_t capacity) {
  return FlatMap64::hash(key) >> (64 - std::countr_zero(capacity));
}

/// `n` keys, none of them the empty pattern, whose home in a
/// `capacity`-slot table is `slot`.
std::vector<std::uint64_t> keys_homed_at(std::uint64_t slot,
                                         std::size_t capacity, std::size_t n) {
  std::vector<std::uint64_t> keys;
  for (std::uint64_t k = 1; keys.size() < n; ++k) {
    if (home(k, capacity) == slot) keys.push_back(k);
  }
  return keys;
}

TEST(FlatMap64Test, InsertsOnceAndFinds) {
  FlatMap64 map;
  EXPECT_EQ(map.capacity(), 0u);
  EXPECT_EQ(map.find(7), nullptr);
  auto [value, inserted] = map.try_emplace(7);
  EXPECT_TRUE(inserted);
  EXPECT_EQ(value, 0u);
  value = 41;
  ++map.try_emplace(7).first;
  EXPECT_FALSE(map.try_emplace(7).second);
  ASSERT_NE(map.find(7), nullptr);
  EXPECT_EQ(*map.find(7), 42u);
  EXPECT_EQ(map.find(8), nullptr);
  EXPECT_EQ(map.size(), 1u);
  EXPECT_EQ(map.capacity(), FlatMap64::kMinCapacity);
}

TEST(FlatMap64Test, KeepsEveryKeyAcrossRehashes) {
  // 20K inserts from an empty table: the slot array doubles a dozen times
  // and every key keeps its value, as a node-based map would.
  FlatMap64 map;
  std::unordered_map<std::uint64_t, std::uint32_t> reference;
  Rng rng(0xf1a7);
  std::size_t rehashes = 0;
  for (std::uint32_t i = 0; i < 20000; ++i) {
    // Small keys repeat, so some inserts find their key.
    const std::uint64_t key = i % 3 == 0 ? rng.uniform(5000) : rng.next();
    const std::size_t before = map.capacity();
    auto [value, inserted] = map.try_emplace(key);
    if (map.capacity() != before) ++rehashes;
    EXPECT_EQ(inserted, reference.count(key) == 0);
    value += i;
    reference[key] += i;
    EXPECT_LE(2 * map.size(), map.capacity());
  }
  EXPECT_GE(rehashes, 8u);
  EXPECT_EQ(map.size(), reference.size());
  for (const auto& [key, value] : reference) {
    ASSERT_NE(map.find(key), nullptr);
    EXPECT_EQ(*map.find(key), value);
  }
  EXPECT_EQ(map.find(rng.next() | 1), nullptr);
}

TEST(FlatMap64Test, LongProbeChainsWrapAndStayFindable) {
  // 300 keys share the last slot of a 1024-slot table (the size 301 keys
  // grow it to; at every smaller size they share its last slot too), so
  // their chain wraps around the end of the array; a key homed inside the
  // chain lands past it, and absent keys with the same home walk it to
  // its end.
  FlatMap64 map;
  const auto chain = keys_homed_at(1023, 1024, 302);
  const auto inside = keys_homed_at(5, 1024, 1);
  for (std::size_t i = 0; i < 300; ++i) {
    map.try_emplace(chain[i]).first = static_cast<std::uint32_t>(i);
  }
  map.try_emplace(inside[0]).first = 999;
  ASSERT_EQ(map.capacity(), 1024u);  // the table the keys were chosen for
  for (std::size_t i = 0; i < 300; ++i) {
    ASSERT_NE(map.find(chain[i]), nullptr);
    EXPECT_EQ(*map.find(chain[i]), i);
    EXPECT_FALSE(map.try_emplace(chain[i]).second);
  }
  ASSERT_NE(map.find(inside[0]), nullptr);
  EXPECT_EQ(*map.find(inside[0]), 999u);
  EXPECT_EQ(map.find(chain[300]), nullptr);
  EXPECT_EQ(map.find(chain[301]), nullptr);
  EXPECT_EQ(map.size(), 301u);
}

TEST(FlatMap64Test, EmptySlotPatternIsAnOrdinaryKey) {
  // The bit pattern that marks an empty slot is a key like any other: it
  // inserts once, keeps its value across rehashes and counts in size().
  FlatMap64 map;
  EXPECT_EQ(map.find(kEmptyPattern), nullptr);
  auto [value, inserted] = map.try_emplace(kEmptyPattern);
  EXPECT_TRUE(inserted);
  value = 5;
  EXPECT_FALSE(map.try_emplace(kEmptyPattern).second);
  EXPECT_EQ(map.size(), 1u);
  for (std::uint64_t k = 0; k < 1000; ++k) map.try_emplace(k).first = 1;
  EXPECT_EQ(map.size(), 1001u);
  ASSERT_NE(map.find(kEmptyPattern), nullptr);
  EXPECT_EQ(*map.find(kEmptyPattern), 5u);
  EXPECT_EQ(*map.find(0), 1u);
  EXPECT_EQ(map.find(kEmptyPattern - 1), nullptr);
}

}  // namespace
}  // namespace gorilla::util
