// The ntpd monitor ("MRU") table behind the monlist command.
//
// ntpd records the most recent clients it has heard from, capped at 600
// entries with least-recently-seen recycling. Because attackers spoof the
// victim's address, the table doubles as an attack log — the insight §4
// ("Victimology") is built on. This module implements the table semantics;
// serialization to mode 7 items lives in mode7.h.
//
// Storage spine (DESIGN.md §3g): the §4 victimology analyses materialize
// one of these tables per detailed server — hundreds of thousands at
// --scale 40, millions at --scale 1 — so slots are packed 32-byte records
// in a dense chunked slab (one 8-slot head chunk, one 24-slot chunk, then
// 32-slot chunks) plus an open-addressing index, all drawn from an
// optional util::Arena (sim::World owns one arena for the whole
// population) with a private-heap fallback for standalone tables. Fixed
// chunk sizes mean every table draws from the same three arena size
// classes, so one table's post-restart shrink feeds any other table's
// attack-day growth byte for byte — the population's footprint tracks the
// *live* entry count, not the sum of per-table high-water marks, and a
// non-moving allocator has nothing to fragment. The slab stays dense
// (eviction swap-removes; an expiry sweep compacts the survivors in one
// pass and rebuilds the index once), releases chunks when an expiry sweep
// empties them, and growth appends a chunk without ever copying slots.
//
// There is no recency list: dump() (weekly, per probed server) sorts its
// output, eviction (only when a table actually fills) scans for the
// minimum, and both reproduce the node-based implementation's ordering
// contract exactly. Slot times are stored as 32-bit sim-seconds — the
// simulation's clock fits comfortably ([0, 2^32) seconds is ~136 years).
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "net/ipv4.h"
#include "ntp/mode7.h"
#include "util/arena.h"
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

/// One buffered observe_many() call — a day shard's unit of monitor-table
/// mutation. Worker threads record these instead of touching the table;
/// the calling thread applies them in day order during the ordered merge
/// (DESIGN.md §3d), so per-table LRU evolution matches the sequential
/// engine exactly.
struct MonitorObservation {
  net::Ipv4Address address;
  std::uint16_t port = 0;
  std::uint8_t mode = 0;
  std::uint8_t version = 4;
  std::uint64_t count = 0;
  util::SimTime first = 0;
  util::SimTime last = 0;
};

/// A day shard's ordered observation batch against one table.
using MonitorDelta = std::vector<MonitorObservation>;

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
  /// A table drawing slab storage from `arena` (shared, outlives the
  /// table) — or from its own heap when null. A fresh table owns no
  /// storage at all until the first observe().
  explicit MonitorTable(std::size_t capacity = kMonlistMaxEntries,
                        util::Arena* arena = nullptr)
      : arena_(arena), capacity_(static_cast<std::uint32_t>(capacity)) {}

  MonitorTable(MonitorTable&& other) noexcept;
  MonitorTable& operator=(MonitorTable&& other) noexcept;
  MonitorTable(const MonitorTable&) = delete;
  MonitorTable& operator=(const MonitorTable&) = delete;
  ~MonitorTable();

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

  /// Applies one buffered observation — exactly observe_many() with the
  /// recorded arguments.
  void apply(const MonitorObservation& obs) {
    observe_many(obs.address, obs.port, obs.mode, obs.version, obs.count,
                 obs.first, obs.last);
  }

  /// Applies a day shard's batch in recorded order.
  void apply_delta(const MonitorDelta& delta) {
    for (const auto& obs : delta) apply(obs);
  }

  /// Renders wire entries as of `now`, most recent first. avg_interval is
  /// (last_seen - first_seen) / (count - 1) (0 when count <= 1); last_seen
  /// is seconds before `now`. Counts saturate at the field's 32-bit width --
  /// the >3e9 counts in the paper's Table 3b are exactly such saturated-ish
  /// giants, so we keep full 64-bit internally and clamp on serialization.
  [[nodiscard]] std::vector<MonitorEntry> dump(util::SimTime now,
                                               net::Ipv4Address local) const;

  [[nodiscard]] std::size_t size() const noexcept { return size_; }
  [[nodiscard]] std::size_t capacity() const noexcept { return capacity_; }

  /// Drops every slot last seen before `cutoff` — what an ntpd restart does
  /// to its monitor table (clients still active simply re-appear). The §4.2
  /// observation window exists because real servers restart regularly.
  /// Shrinks the slab back down the ladder when most of it empties.
  void expire_before(util::SimTime cutoff);

  /// The slot for an address, or nullopt (for tests/forensics).
  [[nodiscard]] std::optional<MonitorSlot> find(
      net::Ipv4Address address) const;

  /// Empties the table and returns every byte of storage.
  void clear();

  /// Bytes of slab + index storage this table currently claims (arena
  /// storage it holds, or private-heap bytes). Diagnostic for the memory
  /// spine.
  [[nodiscard]] std::size_t footprint_bytes() const noexcept;

 private:
  /// A packed slab slot. Times are 32-bit sim-seconds; `stamp` is the
  /// recency tie-break for eviction.
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

  static constexpr std::uint32_t kNil = 0xffffffffu;
  static constexpr std::uint32_t kHeadChunkSlots = 8;
  static constexpr std::uint32_t kSecondChunkSlots = 24;
  static constexpr std::uint32_t kChunkSlots = 32;
  static constexpr std::uint32_t kInitialIndexEntries = 16;

  /// Slots chunk `c` holds: 8, 24, 32, 32, ...
  [[nodiscard]] static constexpr std::uint32_t chunk_slots(
      std::uint32_t c) noexcept {
    return c == 0 ? kHeadChunkSlots : (c == 1 ? kSecondChunkSlots
                                              : kChunkSlots);
  }
  /// Chunks needed to hold `slots` dense slots.
  [[nodiscard]] static constexpr std::uint32_t chunks_for(
      std::uint32_t slots) noexcept {
    if (slots == 0) return 0;
    if (slots <= kHeadChunkSlots) return 1;
    if (slots <= kHeadChunkSlots + kSecondChunkSlots) return 2;
    const std::uint32_t rest = slots - kHeadChunkSlots - kSecondChunkSlots;
    return 2 + (rest + kChunkSlots - 1) / kChunkSlots;
  }
  /// Total slots `chunks` chunks hold.
  [[nodiscard]] static constexpr std::uint32_t chunk_capacity(
      std::uint32_t chunks) noexcept {
    if (chunks == 0) return 0;
    if (chunks == 1) return kHeadChunkSlots;
    return kHeadChunkSlots + kSecondChunkSlots + (chunks - 2) * kChunkSlots;
  }

  [[nodiscard]] Node& node(std::uint32_t i) noexcept;
  [[nodiscard]] const Node& node(std::uint32_t i) const noexcept;

  /// Smallest index entry count (power of two) keeping `entries` under
  /// the 3/4 load factor.
  [[nodiscard]] static std::uint32_t index_entries_for(
      std::uint32_t entries) noexcept;

  /// Ensures the slab can hold one more slot; appends a chunk (and grows
  /// the chunk directory) when full.
  void reserve_one();
  /// Removes the slot at slab position `at` (index entry already gone):
  /// the last slot swaps into the hole and its index entry is rewritten.
  void swap_remove(std::uint32_t at) noexcept;
  /// Releases chunks beyond those the live slots need.
  void release_tail_chunks() noexcept;

  /// Index lookup: slab position for `key`, or kNil.
  [[nodiscard]] std::uint32_t lookup(std::uint32_t key) const noexcept;
  /// Inserts `slot_pos` under `key` (key must be absent), growing the
  /// index when its load factor crosses 3/4.
  void index_insert(std::uint32_t key, std::uint32_t slot_pos);
  /// Rewrites the slab position stored for existing `key`.
  void index_update(std::uint32_t key, std::uint32_t slot_pos) noexcept;
  /// Removes `key` with backward-shift deletion (no tombstones).
  void index_remove(std::uint32_t key) noexcept;
  /// Replaces the index with one of `entries` slots, reinserting all live
  /// keys. Recycles the old array, or refills it in place when `entries`
  /// is its current size.
  void rebuild_index(std::uint32_t entries);

  /// Array storage from the arena, or private heap when arena_ is null.
  template <typename T>
  [[nodiscard]] T* allocate_array(std::uint32_t count) {
    if (arena_ != nullptr) return arena_->allocate_array<T>(count);
    private_bytes_ += sizeof(T) * count;
    return new T[count]();
  }
  template <typename T>
  void release_array(T* ptr, std::uint32_t count) noexcept {
    if (ptr == nullptr) return;
    if (arena_ != nullptr) {
      arena_->recycle_array(ptr, count);
    } else {
      private_bytes_ -= sizeof(T) * count;
      delete[] ptr;
    }
  }

  /// Grows the chunk directory to hold at least `want` chunk pointers.
  void reserve_directory(std::uint32_t want);
  void release_all_storage() noexcept;

  /// White-box access for the differential tests, which keep the
  /// superseded per-slot expiry loop as a reference.
  friend struct MonitorTableTestAccess;

  util::Arena* arena_ = nullptr;
  std::uint32_t capacity_ = 0;
  std::uint32_t size_ = 0;        ///< live slots == dense slab prefix length
  std::uint32_t chunk_count_ = 0; ///< chunks currently allocated
  std::uint32_t dir_cap_ = 0;     ///< chunk pointers chunks_ can hold
  std::uint32_t stamp_ = 0;       ///< recency clock (bumped per last_seen set)
  Node** chunks_ = nullptr;         ///< chunk directory
  std::uint32_t* index_ = nullptr;  ///< open addressing, slab position + 1
  std::uint32_t index_mask_ = 0;    ///< entries - 1 (power of two)
  std::size_t private_bytes_ = 0;   ///< heap bytes when arena_ == nullptr
};

}  // namespace gorilla::ntp
