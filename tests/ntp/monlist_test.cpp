#include "ntp/monlist.h"

#include <algorithm>
#include <cstdint>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "util/mem_stats.h"

namespace gorilla::ntp {
namespace {

constexpr net::Ipv4Address kLocal{0x0a000001};

TEST(MonitorTableTest, StartsEmpty) {
  MonitorTable table;
  EXPECT_EQ(table.size(), 0u);
  EXPECT_EQ(table.capacity(), kMonlistMaxEntries);
  EXPECT_TRUE(table.dump(100, kLocal).empty());
}

TEST(MonitorTableTest, ObserveCreatesSlot) {
  MonitorTable table;
  table.observe(net::Ipv4Address(1, 2, 3, 4), 123, 3, 4, 50);
  EXPECT_EQ(table.size(), 1u);
  const auto slot = table.find(net::Ipv4Address(1, 2, 3, 4));
  ASSERT_TRUE(slot.has_value());
  EXPECT_EQ(slot->count, 1u);
  EXPECT_EQ(slot->first_seen, 50);
  EXPECT_EQ(slot->last_seen, 50);
}

TEST(MonitorTableTest, RepeatObservationsUpdateInPlace) {
  MonitorTable table;
  const net::Ipv4Address client(1, 2, 3, 4);
  table.observe(client, 1000, 3, 4, 10);
  table.observe(client, 2000, 7, 2, 70);
  EXPECT_EQ(table.size(), 1u);
  const auto slot = table.find(client);
  ASSERT_TRUE(slot.has_value());
  EXPECT_EQ(slot->count, 2u);
  EXPECT_EQ(slot->port, 2000);   // last packet wins
  EXPECT_EQ(slot->mode, 7);
  EXPECT_EQ(slot->first_seen, 10);
  EXPECT_EQ(slot->last_seen, 70);
}

TEST(MonitorTableTest, DumpComputesAvgIntervalAndLastSeen) {
  MonitorTable table;
  const net::Ipv4Address client(1, 2, 3, 4);
  // 7 packets spread over 6 weeks: avg interval ~ 604800.
  table.observe_many(client, 123, 7, 2, 7, 0, 6 * 604800);
  const auto entries = table.dump(6 * 604800 + 100, kLocal);
  ASSERT_EQ(entries.size(), 1u);
  EXPECT_EQ(entries[0].avg_interval, 604800u);
  EXPECT_EQ(entries[0].last_seen, 100u);
  EXPECT_EQ(entries[0].count, 7u);
  EXPECT_EQ(entries[0].local_address, kLocal);
}

TEST(MonitorTableTest, SinglePacketHasZeroInterval) {
  MonitorTable table;
  table.observe(net::Ipv4Address(1, 2, 3, 4), 123, 3, 4, 500);
  const auto entries = table.dump(500, kLocal);
  ASSERT_EQ(entries.size(), 1u);
  EXPECT_EQ(entries[0].avg_interval, 0u);
  EXPECT_EQ(entries[0].last_seen, 0u);
}

TEST(MonitorTableTest, DumpOrdersMostRecentFirst) {
  MonitorTable table;
  table.observe(net::Ipv4Address(1, 0, 0, 1), 1, 3, 4, 100);
  table.observe(net::Ipv4Address(1, 0, 0, 2), 2, 3, 4, 300);
  table.observe(net::Ipv4Address(1, 0, 0, 3), 3, 3, 4, 200);
  const auto entries = table.dump(400, kLocal);
  ASSERT_EQ(entries.size(), 3u);
  EXPECT_EQ(entries[0].address, net::Ipv4Address(1, 0, 0, 2));
  EXPECT_EQ(entries[1].address, net::Ipv4Address(1, 0, 0, 3));
  EXPECT_EQ(entries[2].address, net::Ipv4Address(1, 0, 0, 1));
}

TEST(MonitorTableTest, ProbeAppearsTopmostAfterProbing) {
  // Table 3a: the ONP probe is typically the topmost entry with last
  // seen 0 — the most recent client is the prober itself.
  MonitorTable table;
  table.observe(net::Ipv4Address(9, 9, 9, 9), 1234, 3, 4, 50);
  table.observe(net::Ipv4Address(8, 8, 8, 8), 57915, 7, 2, 100);
  const auto entries = table.dump(100, kLocal);
  ASSERT_EQ(entries.size(), 2u);
  EXPECT_EQ(entries[0].address, net::Ipv4Address(8, 8, 8, 8));
  EXPECT_EQ(entries[0].last_seen, 0u);
  EXPECT_EQ(entries[0].mode, 7);
}

TEST(MonitorTableTest, EvictsLeastRecentlySeenAtCapacity) {
  MonitorTable table(3);
  table.observe(net::Ipv4Address(1, 0, 0, 1), 1, 3, 4, 10);
  table.observe(net::Ipv4Address(1, 0, 0, 2), 2, 3, 4, 20);
  table.observe(net::Ipv4Address(1, 0, 0, 3), 3, 3, 4, 30);
  table.observe(net::Ipv4Address(1, 0, 0, 4), 4, 3, 4, 40);  // evicts .1
  EXPECT_EQ(table.size(), 3u);
  EXPECT_FALSE(table.find(net::Ipv4Address(1, 0, 0, 1)).has_value());
  EXPECT_TRUE(table.find(net::Ipv4Address(1, 0, 0, 4)).has_value());
}

TEST(MonitorTableTest, ReobservationRefreshesEvictionOrder) {
  MonitorTable table(2);
  table.observe(net::Ipv4Address(1, 0, 0, 1), 1, 3, 4, 10);
  table.observe(net::Ipv4Address(1, 0, 0, 2), 2, 3, 4, 20);
  table.observe(net::Ipv4Address(1, 0, 0, 1), 1, 3, 4, 30);  // refresh .1
  table.observe(net::Ipv4Address(1, 0, 0, 3), 3, 3, 4, 40);  // evicts .2
  EXPECT_TRUE(table.find(net::Ipv4Address(1, 0, 0, 1)).has_value());
  EXPECT_FALSE(table.find(net::Ipv4Address(1, 0, 0, 2)).has_value());
}

TEST(MonitorTableTest, CapacityIs600ByDefault) {
  MonitorTable table;
  for (std::uint32_t i = 0; i < 700; ++i) {
    table.observe(net::Ipv4Address{0x01000000u + i}, 1, 3, 4,
                  static_cast<util::SimTime>(i));
  }
  EXPECT_EQ(table.size(), 600u);
  // The earliest 100 clients were recycled.
  EXPECT_FALSE(table.find(net::Ipv4Address{0x01000000u}).has_value());
  EXPECT_TRUE(table.find(net::Ipv4Address{0x01000000u + 699}).has_value());
}

TEST(MonitorTableTest, ObserveManyMatchesRepeatedObserve) {
  MonitorTable bulk, loop;
  const net::Ipv4Address client(5, 5, 5, 5);
  bulk.observe_many(client, 80, 7, 2, 100, 1000, 1990);
  for (int i = 0; i < 100; ++i) {
    loop.observe(client, 80, 7, 2, 1000 + i * 10);
  }
  const auto be = bulk.dump(2000, kLocal);
  const auto le = loop.dump(2000, kLocal);
  ASSERT_EQ(be.size(), 1u);
  ASSERT_EQ(le.size(), 1u);
  EXPECT_EQ(be[0].count, le[0].count);
  EXPECT_EQ(be[0].avg_interval, le[0].avg_interval);
  EXPECT_EQ(be[0].last_seen, le[0].last_seen);
}

TEST(MonitorTableTest, ObserveManyZeroPacketsIsNoop) {
  MonitorTable table;
  table.observe_many(net::Ipv4Address(1, 1, 1, 1), 80, 7, 2, 0, 0, 100);
  EXPECT_EQ(table.size(), 0u);
}

TEST(MonitorTableTest, CountSaturatesAt32BitsOnDump) {
  MonitorTable table;
  const net::Ipv4Address client(6, 6, 6, 6);
  table.observe_many(client, 80, 7, 2, 10'000'000'000ULL, 0, 100);
  const auto entries = table.dump(100, kLocal);
  ASSERT_EQ(entries.size(), 1u);
  EXPECT_EQ(entries[0].count, 0xffffffffu);
  // Internally the full count survives.
  EXPECT_EQ(table.find(client)->count, 10'000'000'000ULL);
}

TEST(MonitorTableTest, DumpNeverReportsNegativeLastSeen) {
  MonitorTable table;
  table.observe(net::Ipv4Address(1, 1, 1, 1), 80, 7, 2, 1000);
  // Dump taken "before" the observation (clock skew): clamps to 0.
  const auto entries = table.dump(500, kLocal);
  ASSERT_EQ(entries.size(), 1u);
  EXPECT_EQ(entries[0].last_seen, 0u);
}

TEST(MonitorTableTest, ClearEmptiesTable) {
  MonitorTable table;
  table.observe(net::Ipv4Address(1, 1, 1, 1), 80, 7, 2, 10);
  table.clear();
  EXPECT_EQ(table.size(), 0u);
}

TEST(MonitorTableTest, DeterministicTieBreakOnEqualLastSeen) {
  MonitorTable table;
  table.observe(net::Ipv4Address(2, 0, 0, 2), 1, 3, 4, 100);
  table.observe(net::Ipv4Address(2, 0, 0, 1), 2, 3, 4, 100);
  const auto entries = table.dump(100, kLocal);
  ASSERT_EQ(entries.size(), 2u);
  EXPECT_LT(entries[0].address, entries[1].address);
}

TEST(MonitorTableTest, StorageFollowsTheSlotLadder) {
  // Slots grow to 8, then in steps of 32, never past the capacity; the
  // index is the smallest power of two (from 16) under a 3/4 load.
  constexpr std::size_t kSlot = 32;
  constexpr std::size_t kEntry = 4;
  MonitorTable table;
  EXPECT_EQ(table.footprint_bytes(), 0u);
  const auto fill_to = [&table](std::uint32_t n) {
    for (std::uint32_t k = static_cast<std::uint32_t>(table.size()); k < n;
         ++k) {
      table.observe(net::Ipv4Address{0x0b000000u + k}, 123, 3, 4, 100 + k);
    }
  };
  fill_to(1);
  EXPECT_EQ(table.footprint_bytes(), 8 * kSlot + 16 * kEntry);
  fill_to(9);
  EXPECT_EQ(table.footprint_bytes(), 32 * kSlot + 16 * kEntry);
  fill_to(33);
  EXPECT_EQ(table.footprint_bytes(), 64 * kSlot + 64 * kEntry);
  fill_to(600);
  EXPECT_EQ(table.footprint_bytes(), 600 * kSlot + 1024 * kEntry);
  // Expiry keeps the last 40 (last_seen 660..699): back to 64 slots and
  // a 64-entry index.
  table.expire_before(660);
  ASSERT_EQ(table.size(), 40u);
  EXPECT_EQ(table.footprint_bytes(), 64 * kSlot + 64 * kEntry);
  table.expire_before(1000);
  EXPECT_EQ(table.size(), 0u);
  EXPECT_EQ(table.footprint_bytes(), 0u);
  fill_to(3);
  table.clear();
  EXPECT_EQ(table.footprint_bytes(), 0u);
}

TEST(MonitorTableTest, ChargesItsFootprintToTheMonitorCounter) {
  const auto& counter = util::MemStats::instance().counter("ntp.monitor");
  const std::uint64_t before = counter.live();
  {
    MonitorTable table;
    for (std::uint32_t k = 0; k < 700; ++k) {
      table.observe(net::Ipv4Address{0x0c000000u + k % 650}, 1, 3, 4, k);
      ASSERT_EQ(counter.live() - before, table.footprint_bytes()) << k;
    }
    table.expire_before(690);
    EXPECT_EQ(counter.live() - before, table.footprint_bytes());
    MonitorTable moved(std::move(table));
    EXPECT_EQ(counter.live() - before, moved.footprint_bytes());
    moved.clear();
    EXPECT_EQ(counter.live(), before);
    moved.observe(net::Ipv4Address{0x0c000000u}, 1, 3, 4, 1);
    EXPECT_GT(counter.live(), before);
  }
  EXPECT_EQ(counter.live(), before);
}

TEST(MonitorTableTest, CrossThreadChurnKeepsAccountingExact) {
  // Tables grow on one thread and shrink, clear or die on another, as
  // seeding lanes and the parallel probe's expiry do: the counter ends at
  // exactly the bytes the survivors own.
  constexpr int kThreads = 4;
  constexpr std::uint32_t kTablesPerThread = 64;
  const auto& counter = util::MemStats::instance().counter("ntp.monitor");
  const std::uint64_t before = counter.live();
  std::vector<MonitorTable> tables(kThreads * kTablesPerThread);
  const auto on_threads = [&tables](auto&& work) {
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
      threads.emplace_back([&tables, &work, t] {
        for (std::uint32_t i = 0; i < kTablesPerThread; ++i) {
          work(tables[static_cast<std::size_t>(t) * kTablesPerThread + i],
               static_cast<std::uint32_t>(t) * kTablesPerThread + i);
        }
      });
    }
    for (auto& thread : threads) thread.join();
  };
  on_threads([](MonitorTable& table, std::uint32_t id) {
    for (std::uint32_t k = 0; k < 40 + id % 300; ++k) {
      table.observe(net::Ipv4Address{(id << 12) | k}, 1, 3, 4, k);
    }
  });
  // The second pass hands each thread another thread's tables.
  std::reverse(tables.begin(), tables.end());
  on_threads([](MonitorTable& table, std::uint32_t id) {
    if (id % 3 == 0) {
      table.clear();
    } else if (id % 3 == 1) {
      table.expire_before(30);
    } else {
      const MonitorTable gone(std::move(table));
    }
  });
  std::uint64_t owned = 0;
  for (const MonitorTable& table : tables) owned += table.footprint_bytes();
  EXPECT_EQ(counter.live() - before, owned);
  tables.clear();
  EXPECT_EQ(counter.live(), before);
}

}  // namespace
}  // namespace gorilla::ntp
