// Randomized differential suite for the flat monitor table.
//
// Drives MonitorTable and a deliberately naive reference model (a std::map
// plus an insertion-stamp clock) through the same long mixed operation
// stream — observe / observe_many / eviction pressure / dump /
// expire_before / find — and requires exact agreement after every probe
// point. The reference encodes the documented recency contract directly:
// eviction removes the minimum (last_seen, stamp); dump orders by
// last_seen descending then address ascending.
#include <algorithm>
#include <cstdint>
#include <map>
#include <optional>
#include <vector>

#include <gtest/gtest.h>

#include "net/ipv4.h"
#include "ntp/monlist.h"
#include "util/rng.h"

namespace gorilla::ntp {

/// The per-slot expiry loop (backward-shift index delete plus swap-remove
/// for every expired slot, then a slot-ladder and oversized-index shrink)
/// that MonitorTable::expire_before's single compaction sweep replaced,
/// kept as the reference the sweep must agree with.
struct MonitorTableTestAccess {
  static void legacy_expire_before(MonitorTable& t, util::SimTime cutoff) {
    std::uint32_t at = 0;
    while (at < t.slots_.size()) {
      if (static_cast<util::SimTime>(t.slots_[at].last) < cutoff) {
        t.index_remove(t.slots_[at].address);
        t.swap_remove(at);  // the swapped-in slot is examined next
      } else {
        ++at;
      }
    }
    if (t.slots_.empty()) {
      t.slots_ = MonitorTable::Slots();
      t.index_ = MonitorTable::Index();
      return;
    }
    t.shrink_slots();
    const std::uint32_t want = MonitorTable::index_entries_for(
        static_cast<std::uint32_t>(t.slots_.size()));
    if (!t.index_.empty() && want * 2 <= t.index_.size()) {
      t.rebuild_index(want);
    }
  }
};

namespace {

struct RefSlot {
  MonitorSlot slot;
  std::uint64_t stamp = 0;  ///< bumped whenever last_seen is (re)set
};

/// The executable specification of the table's semantics.
class ReferenceTable {
 public:
  explicit ReferenceTable(std::size_t capacity) : capacity_(capacity) {}

  void observe_many(net::Ipv4Address address, std::uint16_t port,
                    std::uint8_t mode, std::uint8_t version,
                    std::uint64_t packet_count, util::SimTime first,
                    util::SimTime last) {
    if (packet_count == 0 || capacity_ == 0) return;
    auto it = slots_.find(address.value());
    if (it == slots_.end()) {
      if (slots_.size() >= capacity_) evict_one();
      RefSlot fresh;
      fresh.slot.address = address;
      fresh.slot.first_seen = first;
      fresh.slot.last_seen = first;
      it = slots_.emplace(address.value(), fresh).first;
      it->second.stamp = ++clock_;
    }
    RefSlot& ref = it->second;
    const util::SimTime before = ref.slot.last_seen;
    ref.slot.port = port;
    ref.slot.mode = mode;
    ref.slot.version = version;
    ref.slot.count += packet_count;
    ref.slot.first_seen = std::min(ref.slot.first_seen, first);
    ref.slot.last_seen = std::max(ref.slot.last_seen, last);
    if (ref.slot.last_seen != before) ref.stamp = ++clock_;
  }

  void expire_before(util::SimTime cutoff) {
    for (auto it = slots_.begin(); it != slots_.end();) {
      if (it->second.slot.last_seen < cutoff) {
        it = slots_.erase(it);
      } else {
        ++it;
      }
    }
  }

  [[nodiscard]] const MonitorSlot* find(net::Ipv4Address address) const {
    const auto it = slots_.find(address.value());
    return it == slots_.end() ? nullptr : &it->second.slot;
  }

  [[nodiscard]] std::size_t size() const { return slots_.size(); }

  /// Slots in dump order: last_seen descending, address ascending.
  [[nodiscard]] std::vector<MonitorSlot> ordered_slots() const {
    std::vector<MonitorSlot> out;
    out.reserve(slots_.size());
    for (const auto& [addr, ref] : slots_) out.push_back(ref.slot);
    std::sort(out.begin(), out.end(),
              [](const MonitorSlot& a, const MonitorSlot& b) {
                if (a.last_seen != b.last_seen) {
                  return a.last_seen > b.last_seen;
                }
                return a.address < b.address;
              });
    return out;
  }

  void clear() { slots_.clear(); }

 private:
  void evict_one() {
    auto victim = slots_.begin();
    for (auto it = slots_.begin(); it != slots_.end(); ++it) {
      const bool older =
          it->second.slot.last_seen < victim->second.slot.last_seen ||
          (it->second.slot.last_seen == victim->second.slot.last_seen &&
           it->second.stamp < victim->second.stamp);
      if (older) victim = it;
    }
    slots_.erase(victim);
  }

  std::size_t capacity_;
  std::uint64_t clock_ = 0;
  std::map<std::uint32_t, RefSlot> slots_;
};

void expect_same_dump(const MonitorTable& table, const ReferenceTable& ref,
                      util::SimTime now, std::size_t step) {
  const net::Ipv4Address local(10, 0, 0, 1);
  const auto got = table.dump(now, local);
  const auto want = ref.ordered_slots();
  ASSERT_EQ(got.size(), want.size()) << "step " << step;
  constexpr std::uint64_t u32max = 0xffffffffull;
  for (std::size_t i = 0; i < got.size(); ++i) {
    const MonitorSlot& w = want[i];
    ASSERT_EQ(got[i].address, w.address) << "step " << step << " row " << i;
    EXPECT_EQ(got[i].count, static_cast<std::uint32_t>(
                                std::min(w.count, u32max)));
    const std::uint64_t span =
        static_cast<std::uint64_t>(w.last_seen - w.first_seen);
    const std::uint32_t want_avg =
        w.count > 1
            ? static_cast<std::uint32_t>(std::min(span / (w.count - 1), u32max))
            : 0;
    EXPECT_EQ(got[i].avg_interval, want_avg);
    EXPECT_EQ(got[i].last_seen,
              static_cast<std::uint32_t>(std::min<std::uint64_t>(
                  static_cast<std::uint64_t>(
                      std::max<util::SimTime>(0, now - w.last_seen)),
                  u32max)));
    EXPECT_EQ(got[i].port, w.port);
    EXPECT_EQ(got[i].mode, w.mode);
    EXPECT_EQ(got[i].version, w.version);
  }
}

/// 10k+ mixed operations against a small-capacity table (so eviction fires
/// constantly) with periodic full-dump comparison.
void run_differential(MonitorTable& table, std::uint64_t seed) {
  constexpr std::size_t kCapacity = 48;
  constexpr std::size_t kSteps = 12000;
  // A pool barely larger than capacity maximizes collision/eviction churn.
  constexpr std::uint32_t kAddressPool = 96;
  ReferenceTable ref(kCapacity);
  util::Rng rng(seed);
  util::SimTime now = 1000;
  for (std::size_t step = 0; step < kSteps; ++step) {
    // Time mostly advances, sometimes stalls (equal-last_seen ties),
    // sometimes jumps (expiry-sized gaps).
    const std::int64_t tick = rng.uniform_int(0, 9);
    if (tick >= 4) now += static_cast<util::SimTime>(tick - 3);
    const net::Ipv4Address addr{0x0a000000u + static_cast<std::uint32_t>(
                                                  rng.uniform_int(
                                                      0, kAddressPool - 1))};
    const auto port = static_cast<std::uint16_t>(rng.uniform_int(1024, 65535));
    const auto mode = static_cast<std::uint8_t>(rng.uniform_int(3, 7));
    const auto version = static_cast<std::uint8_t>(rng.uniform_int(2, 4));
    switch (rng.uniform_int(0, 9)) {
      case 0: {  // bulk observation over a backward-reaching window
        const auto span = static_cast<util::SimTime>(rng.uniform_int(0, 500));
        const auto count = static_cast<std::uint64_t>(
            rng.uniform_int(0, 1 << 20));  // 0 = must be noop
        table.observe_many(addr, port, mode, version, count, now - span, now);
        ref.observe_many(addr, port, mode, version, count, now - span, now);
        break;
      }
      case 1: {  // expiry sweep, ntpd-restart style
        const auto back = static_cast<util::SimTime>(rng.uniform_int(0, 2000));
        table.expire_before(now - back);
        ref.expire_before(now - back);
        break;
      }
      default:  // plain single-packet observation (the dominant op)
        table.observe(addr, port, mode, version, now);
        ref.observe_many(addr, port, mode, version, 1, now, now);
        break;
    }
    ASSERT_EQ(table.size(), ref.size()) << "step " << step;
    // Spot-check lookups every step, full dump comparison periodically.
    const net::Ipv4Address peek{0x0a000000u + static_cast<std::uint32_t>(
                                                  rng.uniform_int(
                                                      0, kAddressPool - 1))};
    const std::optional<MonitorSlot> got = table.find(peek);
    const MonitorSlot* want = ref.find(peek);
    ASSERT_EQ(got.has_value(), want != nullptr) << "step " << step;
    if (got.has_value()) {
      ASSERT_EQ(got->count, want->count) << "step " << step;
      ASSERT_EQ(got->last_seen, want->last_seen) << "step " << step;
    }
    if (step % 250 == 0) {
      expect_same_dump(table, ref, now + 10, step);
    }
  }
  expect_same_dump(table, ref, now + 10, kSteps);
}

TEST(MonlistDifferentialTest, HeapBackedAgreesWithReference) {
  MonitorTable table(48);
  run_differential(table, 0xd1ff001ull);
}

// Once the arena-backed storage path; tables have one storage path now, so
// this runs the same differential on a second, independent seed.
TEST(MonlistDifferentialTest, ArenaBackedAgreesWithReference) {
  MonitorTable table(48);
  run_differential(table, 0xd1ff002ull);
}

TEST(MonlistDifferentialTest, SurvivesClearAndReuse) {
  MonitorTable table(48);
  run_differential(table, 0xd1ff003ull);
  table.clear();
  EXPECT_EQ(table.size(), 0u);
  EXPECT_FALSE(table.find(net::Ipv4Address{0x0a000000u}).has_value());
  run_differential(table, 0xd1ff004ull);
}

/// Full agreement between two tables: size, footprint, dump() and find()
/// on every address of the pool.
void expect_same_tables(const MonitorTable& got, const MonitorTable& want,
                        std::uint32_t pool, util::SimTime now,
                        std::size_t step) {
  ASSERT_EQ(got.size(), want.size()) << "step " << step;
  ASSERT_EQ(got.footprint_bytes(), want.footprint_bytes()) << "step " << step;
  const net::Ipv4Address local(10, 0, 0, 1);
  const auto a = got.dump(now, local);
  const auto b = want.dump(now, local);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    ASSERT_EQ(a[i].address, b[i].address) << "step " << step << " row " << i;
    ASSERT_EQ(a[i].count, b[i].count);
    ASSERT_EQ(a[i].avg_interval, b[i].avg_interval);
    ASSERT_EQ(a[i].last_seen, b[i].last_seen);
    ASSERT_EQ(a[i].port, b[i].port);
    ASSERT_EQ(a[i].mode, b[i].mode);
    ASSERT_EQ(a[i].version, b[i].version);
  }
  for (std::uint32_t k = 0; k < pool; ++k) {
    const net::Ipv4Address addr{0x0a000000u + k};
    const auto x = got.find(addr);
    const auto y = want.find(addr);
    ASSERT_EQ(x.has_value(), y.has_value()) << "step " << step << " addr " << k;
    if (!x) continue;
    ASSERT_EQ(x->count, y->count);
    ASSERT_EQ(x->first_seen, y->first_seen);
    ASSERT_EQ(x->last_seen, y->last_seen);
    ASSERT_EQ(x->port, y->port);
  }
}

/// Drives the single-sweep expire_before() and the legacy per-slot loop
/// through the same random history, then fills both tables past capacity
/// and requires the same eviction victim at every insert.
void run_expiry_differential(MonitorTable& fast, MonitorTable& legacy,
                             std::uint32_t pool, std::uint64_t seed) {
  util::Rng rng(seed);
  util::SimTime now = 5000;
  for (std::size_t step = 0; step < 6000; ++step) {
    now += static_cast<util::SimTime>(rng.uniform_int(0, 3));
    if (rng.uniform_int(0, 39) == 0) {
      // Restart-style sweep; a wide range of cutoffs empties anything
      // from nothing to the whole table.
      const util::SimTime cutoff =
          now - static_cast<util::SimTime>(rng.uniform_int(-5, 400));
      fast.expire_before(cutoff);
      MonitorTableTestAccess::legacy_expire_before(legacy, cutoff);
      expect_same_tables(fast, legacy, pool, now + 10, step);
      continue;
    }
    const net::Ipv4Address addr{
        0x0a000000u +
        static_cast<std::uint32_t>(rng.uniform_int(0, pool - 1))};
    const auto port = static_cast<std::uint16_t>(rng.uniform_int(1024, 65535));
    const auto count = static_cast<std::uint64_t>(rng.uniform_int(1, 50));
    const auto span = static_cast<util::SimTime>(rng.uniform_int(0, 60));
    fast.observe_many(addr, port, 3, 4, count, now - span, now);
    legacy.observe_many(addr, port, 3, 4, count, now - span, now);
  }
  expect_same_tables(fast, legacy, pool, now + 10, 6000);

  // Fill past capacity with fresh addresses, some sharing a last_seen so
  // the recency stamp decides: each insert must evict the same slot.
  const std::uint32_t fresh_base = 0x0b000000u;
  for (std::uint32_t k = 0; k < fast.capacity() + 40; ++k) {
    if (k % 3 == 0) ++now;
    const net::Ipv4Address addr{fresh_base + k};
    const auto before = fast.dump(now, net::Ipv4Address{});
    fast.observe(addr, 123, 3, 4, now);
    legacy.observe(addr, 123, 3, 4, now);
    ASSERT_EQ(fast.size(), legacy.size());
    for (const auto& e : before) {
      ASSERT_EQ(fast.find(e.address).has_value(),
                legacy.find(e.address).has_value())
          << "fill " << k << " victim mismatch";
    }
  }
  expect_same_tables(fast, legacy, pool, now + 10, 7000);
}

TEST(MonlistDifferentialTest, SingleSweepExpiryMatchesPerSlotLoop) {
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    MonitorTable fast(48);
    MonitorTable legacy(48);
    run_expiry_differential(fast, legacy, 96, 0xe5e0 + seed);
  }
}

TEST(MonlistDifferentialTest, SingleSweepExpiryMatchesPerSlotLoopInArena) {
  // Full ntpd capacity: ladder shrinks and index halvings at every size.
  // Once run on arena storage; tables have one storage path now.
  for (std::uint64_t seed = 1; seed <= 3; ++seed) {
    MonitorTable fast(kMonlistMaxEntries);
    MonitorTable legacy(kMonlistMaxEntries);
    run_expiry_differential(fast, legacy, 900, 0xe5f0 + seed);
  }
}

TEST(MonlistDifferentialTest, MoveTransfersStateExactly) {
  MonitorTable table(48);
  ReferenceTable ref(48);
  util::Rng rng(7);
  for (int i = 0; i < 500; ++i) {
    const net::Ipv4Address addr{
        0x0a000000u + static_cast<std::uint32_t>(rng.uniform_int(0, 79))};
    const auto now = static_cast<util::SimTime>(1000 + i);
    table.observe(addr, 123, 7, 2, now);
    ref.observe_many(addr, 123, 7, 2, 1, now, now);
  }
  MonitorTable moved(std::move(table));
  expect_same_dump(moved, ref, 2000, 0);
  MonitorTable assigned(8);
  assigned = std::move(moved);
  expect_same_dump(assigned, ref, 2000, 1);
}

}  // namespace
}  // namespace gorilla::ntp
