// The ntpd monitor ("MRU") table behind the monlist command.
//
// ntpd records the most recent clients it has heard from, capped at 600
// entries with least-recently-seen recycling. Because attackers spoof the
// victim's address, the table doubles as an attack log — the insight §4
// ("Victimology") is built on. This module implements the table semantics;
// serialization to mode 7 items lives in mode7.h.
//
// Storage (DESIGN.md §3g): the §4 victimology analyses materialize one of
// these tables per detailed server — hundreds of thousands at --scale 40,
// millions at --scale 1 — so slots are packed 32-byte records in one dense
// vector, found through an open-addressing index in a second,
// power-of-two vector. Slot storage grows and shrinks along a fixed
// ladder (8 slots, then multiples of 32, never past the capacity), so a
// table's footprint tracks its live entry count. Eviction swap-removes; an
// expiry sweep compacts the survivors in one pass, rebuilds the index once
// and shrinks both vectors; an emptied or cleared table owns no storage.
// Both vectors charge the `ntp.monitor` MemStats counter, byte for byte.
//
// There is no recency list: dump() (weekly, per probed server) sorts its
// output, eviction (only when a table actually fills) scans for the
// minimum, and both reproduce the node-based implementation's ordering
// contract exactly. Slot times are stored as 32-bit sim-seconds — the
// simulation's clock fits comfortably ([0, 2^32) seconds is ~136 years).
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "net/ipv4.h"
#include "ntp/mode7.h"
#include "util/mem_stats.h"
#include "util/time.h"

namespace gorilla::ntp {

/// One live (in-server) monitor slot.
struct MonitorSlot {
  net::Ipv4Address address;
  std::uint16_t port = 0;
  std::uint8_t mode = 0;
  std::uint8_t version = 4;
  std::uint64_t count = 0;
  util::SimTime first_seen = 0;
  util::SimTime last_seen = 0;
};

/// The MRU monitor table. All mutation is via observe(); dumping produces
/// the wire-format entries, most-recently-seen first (ntpd dump order).
///
/// Recency semantics: eviction always removes the slot with the minimum
/// (last_seen, recency stamp) — the stamp advances whenever a slot's
/// last_seen is (re)set, so equal-last_seen ties recycle the slot whose
/// value is oldest to have been reached; dump() orders by last_seen
/// descending with ascending-address tie-break, exactly as the node-based
/// implementation did.
class MonitorTable {  // LINT-COMPACT
 public:
  /// A fresh table owns no storage until the first observe().
  explicit MonitorTable(std::size_t capacity = kMonlistMaxEntries)
      : capacity_(static_cast<std::uint32_t>(capacity)) {}

  MonitorTable(MonitorTable&&) noexcept = default;
  MonitorTable& operator=(MonitorTable&&) noexcept = default;
  MonitorTable(const MonitorTable&) = delete;
  MonitorTable& operator=(const MonitorTable&) = delete;

  /// Records one packet from `address`. Existing entries update count,
  /// port/mode/version (last packet wins) and last_seen; new entries evict
  /// the least-recently-seen slot when the table is full.
  void observe(net::Ipv4Address address, std::uint16_t port, std::uint8_t mode,
               std::uint8_t version, util::SimTime now);

  /// Bulk variant: records `packet_count` packets evenly spread over
  /// [first, last]. Lets the attack model account for millions of spoofed
  /// packets without simulating each datagram (the count and interarrival
  /// arithmetic match packet-at-a-time observation).
  void observe_many(net::Ipv4Address address, std::uint16_t port,
                    std::uint8_t mode, std::uint8_t version,
                    std::uint64_t packet_count, util::SimTime first,
                    util::SimTime last);

  /// Renders wire entries as of `now`, most recent first. avg_interval is
  /// (last_seen - first_seen) / (count - 1) (0 when count <= 1); last_seen
  /// is seconds before `now`. Counts saturate at the field's 32-bit width --
  /// the >3e9 counts in the paper's Table 3b are exactly such saturated-ish
  /// giants, so we keep full 64-bit internally and clamp on serialization.
  [[nodiscard]] std::vector<MonitorEntry> dump(util::SimTime now,
                                               net::Ipv4Address local) const;

  [[nodiscard]] std::size_t size() const noexcept { return slots_.size(); }
  [[nodiscard]] std::size_t capacity() const noexcept { return capacity_; }

  /// Drops every slot last seen before `cutoff` — what an ntpd restart does
  /// to its monitor table (clients still active simply re-appear). The §4.2
  /// observation window exists because real servers restart regularly.
  /// Shrinks the slot vector back down the ladder, and the index when it
  /// is oversized.
  void expire_before(util::SimTime cutoff);

  /// The slot for an address, or nullopt (for tests/forensics).
  [[nodiscard]] std::optional<MonitorSlot> find(
      net::Ipv4Address address) const;

  /// Empties the table and returns every byte of storage.
  void clear();

  /// Bytes of slot + index storage this table currently owns: what it
  /// charges to the `ntp.monitor` counter.
  [[nodiscard]] std::size_t footprint_bytes() const noexcept;

 private:
  /// A packed slot. Times are 32-bit sim-seconds; `stamp` is the recency
  /// tie-break for eviction.
  struct Node {
    std::uint64_t count;
    std::uint32_t address;
    std::uint32_t first;
    std::uint32_t last;
    std::uint32_t stamp;
    std::uint16_t port;
    std::uint8_t mode;
    std::uint8_t version;
  };
  static_assert(sizeof(Node) == 32, "slot layout is part of the mem budget");

  /// std::allocator that charges every byte to the `ntp.monitor` counter.
  template <typename T>
  struct Counted {
    using value_type = T;
    Counted() = default;
    template <typename U>
    Counted(const Counted<U>&) noexcept {}
    [[nodiscard]] T* allocate(std::size_t n) {
      T* p = std::allocator<T>{}.allocate(n);
      monitor_bytes().add(n * sizeof(T));
      return p;
    }
    void deallocate(T* p, std::size_t n) noexcept {
      monitor_bytes().sub(n * sizeof(T));
      std::allocator<T>{}.deallocate(p, n);
    }
    friend bool operator==(const Counted&, const Counted&) noexcept {
      return true;
    }
  };
  using Slots = std::vector<Node, Counted<Node>>;
  using Index = std::vector<std::uint32_t, Counted<std::uint32_t>>;

  static constexpr std::uint32_t kNil = 0xffffffffu;
  static constexpr std::uint32_t kHeadSlots = 8;
  static constexpr std::uint32_t kStepSlots = 32;
  static constexpr std::uint32_t kInitialIndexEntries = 16;

  [[nodiscard]] static util::MemStats::Counter& monitor_bytes();

  /// Slot storage reserved for `live` slots: 8, then the next multiple of
  /// 32, never past the capacity.
  [[nodiscard]] std::uint32_t slots_for(std::uint32_t live) const noexcept;
  /// Smallest index entry count (power of two) keeping `entries` under
  /// the 3/4 load factor.
  [[nodiscard]] static std::uint32_t index_entries_for(
      std::uint32_t entries) noexcept;
  [[nodiscard]] std::uint32_t index_mask() const noexcept {
    return static_cast<std::uint32_t>(index_.size()) - 1;
  }

  /// Removes the slot at position `at` (index entry already gone): the
  /// last slot moves into the hole and its index entry is rewritten.
  void swap_remove(std::uint32_t at) noexcept;
  /// Moves the live slots into storage of the ladder size they need, when
  /// the slot vector holds more.
  void shrink_slots();

  /// Index lookup: slot position for `key`, or kNil.
  [[nodiscard]] std::uint32_t lookup(std::uint32_t key) const noexcept;
  /// Inserts `slot_pos` under `key` (key must be absent), growing the
  /// index when its load factor crosses 3/4. Called before the slot is
  /// appended.
  void index_insert(std::uint32_t key, std::uint32_t slot_pos);
  /// Rewrites the slot position stored for existing `key`.
  void index_update(std::uint32_t key, std::uint32_t slot_pos) noexcept;
  /// Removes `key` with backward-shift deletion (no tombstones).
  void index_remove(std::uint32_t key) noexcept;
  /// Replaces the index with one of `entries` slots, reinserting all live
  /// keys. Refills it in place when `entries` is its current size.
  void rebuild_index(std::uint32_t entries);

  /// White-box access for the differential tests, which keep the
  /// superseded per-slot expiry loop as a reference.
  friend struct MonitorTableTestAccess;

  std::uint32_t capacity_ = 0;
  std::uint32_t stamp_ = 0;  ///< recency clock (bumped per last_seen set)
  Slots slots_;              ///< live slots, dense
  Index index_;  ///< open addressing, slot position + 1; empty or 2^k
};

}  // namespace gorilla::ntp
