#include "ntp/monlist.h"

#include <algorithm>
#include <limits>
#include <numeric>
#include <utility>

namespace gorilla::ntp {

namespace {

/// 32-bit finalizer (MurmurHash3): spreads IPv4 keys across the index.
[[nodiscard]] std::uint32_t hash_key(std::uint32_t key) noexcept {
  key ^= key >> 16;
  key *= 0x85ebca6bu;
  key ^= key >> 13;
  key *= 0xc2b2ae35u;
  key ^= key >> 16;
  return key;
}

}  // namespace

// --- slot storage ----------------------------------------------------------
//
// The ladder's 8-slot head keeps one-entry scanner-only tables at a
// 256-byte slot footprint; past it, storage moves in uniform 1 KB steps.

util::MemStats::Counter& MonitorTable::monitor_bytes() {
  static util::MemStats::Counter& counter =
      util::MemStats::instance().counter("ntp.monitor");
  return counter;
}

std::uint32_t MonitorTable::slots_for(std::uint32_t live) const noexcept {
  if (live == 0) return 0;
  const std::uint32_t ladder =
      live <= kHeadSlots ? kHeadSlots
                         : (live + kStepSlots - 1) / kStepSlots * kStepSlots;
  return std::min(ladder, capacity_);
}

std::uint32_t MonitorTable::index_entries_for(std::uint32_t entries) noexcept {
  std::uint32_t out = kInitialIndexEntries;
  while (entries * 4 > out * 3) out *= 2;
  return out;
}

void MonitorTable::swap_remove(std::uint32_t at) noexcept {
  if (at + 1 != slots_.size()) {
    slots_[at] = slots_.back();
    index_update(slots_[at].address, at);
  }
  slots_.pop_back();
}

void MonitorTable::shrink_slots() {
  const std::uint32_t want = slots_for(static_cast<std::uint32_t>(size()));
  if (slots_.capacity() <= want) return;
  Slots fewer;
  fewer.reserve(want);
  fewer.assign(slots_.begin(), slots_.end());
  slots_.swap(fewer);
}

// --- open-addressing index -------------------------------------------------

std::uint32_t MonitorTable::lookup(std::uint32_t key) const noexcept {
  if (index_.empty()) return kNil;
  const std::uint32_t mask = index_mask();
  std::uint32_t at = hash_key(key) & mask;
  while (index_[at] != 0) {
    const std::uint32_t i = index_[at] - 1;
    if (slots_[i].address == key) return i;
    at = (at + 1) & mask;
  }
  return kNil;
}

void MonitorTable::index_insert(std::uint32_t key, std::uint32_t slot_pos) {
  if (index_.empty()) {
    index_ = Index(kInitialIndexEntries, 0u);
  } else if ((slot_pos + 1) * 4 > index_.size() * 3) {
    rebuild_index(static_cast<std::uint32_t>(index_.size()) * 2);
  }
  const std::uint32_t mask = index_mask();
  std::uint32_t at = hash_key(key) & mask;
  while (index_[at] != 0) at = (at + 1) & mask;
  index_[at] = slot_pos + 1;
}

void MonitorTable::index_update(std::uint32_t key,
                                std::uint32_t slot_pos) noexcept {
  const std::uint32_t mask = index_mask();
  std::uint32_t at = hash_key(key) & mask;
  while (slots_[index_[at] - 1].address != key) at = (at + 1) & mask;
  index_[at] = slot_pos + 1;
}

void MonitorTable::index_remove(std::uint32_t key) noexcept {
  const std::uint32_t mask = index_mask();
  std::uint32_t at = hash_key(key) & mask;
  while (index_[at] != 0) {
    if (slots_[index_[at] - 1].address == key) break;
    at = (at + 1) & mask;
  }
  if (index_[at] == 0) return;  // absent (callers never remove a missing key)
  // Backward-shift deletion keeps probe chains tombstone-free.
  std::uint32_t hole = at;
  std::uint32_t scan = (at + 1) & mask;
  while (index_[scan] != 0) {
    const std::uint32_t home = hash_key(slots_[index_[scan] - 1].address) & mask;
    // Move scan into the hole unless its probe path starts after the hole.
    const bool movable = ((scan - home) & mask) >= ((scan - hole) & mask);
    if (movable) {
      index_[hole] = index_[scan];
      hole = scan;
    }
    scan = (scan + 1) & mask;
  }
  index_[hole] = 0;
}

void MonitorTable::rebuild_index(std::uint32_t entries) {
  if (entries == index_.size()) {
    std::fill(index_.begin(), index_.end(), 0u);  // same size: refill in place
  } else {
    index_ = Index(entries, 0u);
  }
  const std::uint32_t mask = index_mask();
  const auto live = static_cast<std::uint32_t>(size());
  for (std::uint32_t i = 0; i < live; ++i) {
    std::uint32_t at = hash_key(slots_[i].address) & mask;
    while (index_[at] != 0) at = (at + 1) & mask;
    index_[at] = i + 1;
  }
}

// --- public semantics ------------------------------------------------------

void MonitorTable::observe(net::Ipv4Address address, std::uint16_t port,
                           std::uint8_t mode, std::uint8_t version,
                           util::SimTime now) {
  observe_many(address, port, mode, version, 1, now, now);
}

void MonitorTable::observe_many(net::Ipv4Address address, std::uint16_t port,
                                std::uint8_t mode, std::uint8_t version,
                                std::uint64_t packet_count, util::SimTime first,
                                util::SimTime last) {
  if (packet_count == 0 || capacity_ == 0) return;
  const std::uint32_t i = lookup(address.value());
  if (i == kNil) {
    if (size() >= capacity_) {
      // Recycle the least-recently-seen slot (ntpd's mon_getmoremem path):
      // minimum last_seen, oldest recency stamp breaking ties. The scan is
      // linear but only runs once the table is actually full.
      const auto victim = std::min_element(
          slots_.begin(), slots_.end(), [](const Node& n, const Node& v) {
            return n.last < v.last || (n.last == v.last && n.stamp < v.stamp);
          });
      index_remove(victim->address);
      swap_remove(static_cast<std::uint32_t>(victim - slots_.begin()));
    }
    const auto pos = static_cast<std::uint32_t>(size());
    if (pos == slots_.capacity()) slots_.reserve(slots_for(pos + 1));
    index_insert(address.value(), pos);
    slots_.push_back(Node{packet_count, address.value(),
                          static_cast<std::uint32_t>(first),
                          static_cast<std::uint32_t>(std::max(first, last)),
                          ++stamp_, port, mode, version});
    return;
  }
  Node& n = slots_[i];
  n.port = port;
  n.mode = mode;
  n.version = version;
  n.count += packet_count;
  if (first < static_cast<util::SimTime>(n.first)) {
    n.first = static_cast<std::uint32_t>(first);
  }
  if (last > static_cast<util::SimTime>(n.last)) {
    // Only a raised last_seen changes the slot's recency rank.
    n.last = static_cast<std::uint32_t>(last);
    n.stamp = ++stamp_;
  }
}

std::vector<MonitorEntry> MonitorTable::dump(util::SimTime now,
                                             net::Ipv4Address local) const {
  // Order by the *internal* last_seen (descending, ascending address to
  // break ties), not by the emitted age: future-dated slots all clamp to
  // age 0, but still rank ahead of older slots exactly as the recency-list
  // implementation dumped them.
  std::vector<std::uint32_t> order(size());
  std::iota(order.begin(), order.end(), 0u);
  std::sort(order.begin(), order.end(),
            [this](std::uint32_t a, std::uint32_t b) {
              const Node& na = slots_[a];
              const Node& nb = slots_[b];
              if (na.last != nb.last) return na.last > nb.last;
              return na.address < nb.address;
            });
  std::vector<MonitorEntry> out;
  out.reserve(size());
  constexpr std::uint64_t u32max = std::numeric_limits<std::uint32_t>::max();
  for (const std::uint32_t i : order) {
    const Node& n = slots_[i];
    MonitorEntry e;
    e.address = net::Ipv4Address{n.address};
    e.local_address = local;
    e.count = static_cast<std::uint32_t>(std::min(n.count, u32max));
    const std::uint64_t span = n.last - n.first;
    e.avg_interval =
        n.count > 1
            ? static_cast<std::uint32_t>(std::min(span / (n.count - 1), u32max))
            : 0;
    const util::SimTime age =
        std::max<util::SimTime>(0, now - static_cast<util::SimTime>(n.last));
    e.last_seen = static_cast<std::uint32_t>(
        std::min<std::uint64_t>(static_cast<std::uint64_t>(age), u32max));
    e.port = n.port;
    e.mode = n.mode;
    e.version = n.version;
    out.push_back(e);
  }
  return out;
}

void MonitorTable::expire_before(util::SimTime cutoff) {
  // One sweep: survivors slide down over the expired slots. Slot order is
  // not observable — dump() sorts, and eviction takes the unique minimum
  // (last_seen, stamp) — so compacting in place of per-slot swap-removes
  // changes nothing but the cost.
  const auto kept = std::remove_if(
      slots_.begin(), slots_.end(), [cutoff](const Node& n) {
        return static_cast<util::SimTime>(n.last) < cutoff;
      });
  if (kept == slots_.end()) return;
  slots_.erase(kept, slots_.end());
  if (slots_.empty()) {
    slots_ = Slots();
    index_ = Index();
    return;
  }
  shrink_slots();
  // Survivors moved, so the index is rebuilt once: into a smaller array
  // when it is now oversized, otherwise in place.
  const auto entries = static_cast<std::uint32_t>(index_.size());
  const std::uint32_t want =
      index_entries_for(static_cast<std::uint32_t>(size()));
  rebuild_index(want * 2 <= entries ? want : entries);
}

std::optional<MonitorSlot> MonitorTable::find(net::Ipv4Address address) const {
  const std::uint32_t i = lookup(address.value());
  if (i == kNil) return std::nullopt;
  const Node& n = slots_[i];
  MonitorSlot slot;
  slot.address = net::Ipv4Address{n.address};
  slot.port = n.port;
  slot.mode = n.mode;
  slot.version = n.version;
  slot.count = n.count;
  slot.first_seen = static_cast<util::SimTime>(n.first);
  slot.last_seen = static_cast<util::SimTime>(n.last);
  return slot;
}

void MonitorTable::clear() {
  slots_ = Slots();
  index_ = Index();
  stamp_ = 0;
}

std::size_t MonitorTable::footprint_bytes() const noexcept {
  return slots_.capacity() * sizeof(Node) +
         index_.capacity() * sizeof(std::uint32_t);
}

}  // namespace gorilla::ntp
