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

// --- chunked slab ----------------------------------------------------------
//
// Slot i lives in the dense chunk sequence 8 + 24 + 32 + 32 + ...; the
// irregular head keeps one-entry scanner-only tables at a 256-byte
// footprint while everything past slot 32 is uniform 1 KB chunks.

MonitorTable::Node& MonitorTable::node(std::uint32_t i) noexcept {
  if (i < kHeadChunkSlots) return chunks_[0][i];
  if (i < kHeadChunkSlots + kSecondChunkSlots) {
    return chunks_[1][i - kHeadChunkSlots];
  }
  const std::uint32_t rest = i - kHeadChunkSlots - kSecondChunkSlots;
  return chunks_[2 + rest / kChunkSlots][rest % kChunkSlots];
}

const MonitorTable::Node& MonitorTable::node(std::uint32_t i) const noexcept {
  return const_cast<MonitorTable*>(this)->node(i);
}

std::uint32_t MonitorTable::index_entries_for(std::uint32_t entries) noexcept {
  std::uint32_t out = kInitialIndexEntries;
  while (entries * 4 > out * 3) out *= 2;
  return out;
}

void MonitorTable::reserve_directory(std::uint32_t want) {
  if (want <= dir_cap_) return;
  // The directory tops out at 20 pointers (600-slot capacity); doubling
  // from 4 keeps it in three tiny arena classes.
  const std::uint32_t max_dir = chunks_for(capacity_);
  std::uint32_t grown_cap = dir_cap_ == 0 ? 4 : dir_cap_ * 2;
  while (grown_cap < want) grown_cap *= 2;
  if (grown_cap > max_dir) grown_cap = max_dir;
  Node** grown = allocate_array<Node*>(grown_cap);
  std::copy_n(chunks_, chunk_count_, grown);
  release_array(chunks_, dir_cap_);
  chunks_ = grown;
  dir_cap_ = grown_cap;
}

void MonitorTable::reserve_one() {
  if (size_ < chunk_capacity(chunk_count_)) return;
  reserve_directory(chunk_count_ + 1);
  chunks_[chunk_count_] = allocate_array<Node>(chunk_slots(chunk_count_));
  ++chunk_count_;
}

void MonitorTable::swap_remove(std::uint32_t at) noexcept {
  const std::uint32_t last = size_ - 1;
  if (at != last) {
    node(at) = node(last);
    index_update(node(at).address, at);
  }
  --size_;
}

void MonitorTable::release_tail_chunks() noexcept {
  while (chunk_count_ > chunks_for(size_)) {
    --chunk_count_;
    release_array(chunks_[chunk_count_], chunk_slots(chunk_count_));
    chunks_[chunk_count_] = nullptr;
  }
}

void MonitorTable::release_all_storage() noexcept {
  for (std::uint32_t c = 0; c < chunk_count_; ++c) {
    release_array(chunks_[c], chunk_slots(c));
  }
  release_array(chunks_, dir_cap_);
  release_array(index_, index_mask_ == 0 ? 0 : index_mask_ + 1);
  chunks_ = nullptr;
  chunk_count_ = 0;
  dir_cap_ = 0;
  index_ = nullptr;
  index_mask_ = 0;
}

MonitorTable::~MonitorTable() { release_all_storage(); }

MonitorTable::MonitorTable(MonitorTable&& other) noexcept {
  *this = std::move(other);
}

MonitorTable& MonitorTable::operator=(MonitorTable&& other) noexcept {
  if (this == &other) return *this;
  release_all_storage();
  arena_ = other.arena_;
  capacity_ = other.capacity_;
  size_ = other.size_;
  chunk_count_ = other.chunk_count_;
  dir_cap_ = other.dir_cap_;
  stamp_ = other.stamp_;
  chunks_ = other.chunks_;
  index_ = other.index_;
  index_mask_ = other.index_mask_;
  private_bytes_ = other.private_bytes_;
  other.size_ = 0;
  other.chunk_count_ = 0;
  other.dir_cap_ = 0;
  other.chunks_ = nullptr;
  other.index_ = nullptr;
  other.index_mask_ = 0;
  other.private_bytes_ = 0;
  return *this;
}

// --- open-addressing index -------------------------------------------------

std::uint32_t MonitorTable::lookup(std::uint32_t key) const noexcept {
  if (index_ == nullptr) return kNil;
  std::uint32_t at = hash_key(key) & index_mask_;
  while (index_[at] != 0) {
    const std::uint32_t i = index_[at] - 1;
    if (node(i).address == key) return i;
    at = (at + 1) & index_mask_;
  }
  return kNil;
}

void MonitorTable::index_insert(std::uint32_t key, std::uint32_t slot_pos) {
  if (index_ == nullptr) {
    index_ = allocate_array<std::uint32_t>(kInitialIndexEntries);
    index_mask_ = kInitialIndexEntries - 1;
  } else if ((size_ + 1) * 4 > (index_mask_ + 1) * 3) {
    rebuild_index((index_mask_ + 1) * 2);
  }
  std::uint32_t at = hash_key(key) & index_mask_;
  while (index_[at] != 0) at = (at + 1) & index_mask_;
  index_[at] = slot_pos + 1;
}

void MonitorTable::index_update(std::uint32_t key,
                                std::uint32_t slot_pos) noexcept {
  std::uint32_t at = hash_key(key) & index_mask_;
  while (node(index_[at] - 1).address != key) at = (at + 1) & index_mask_;
  index_[at] = slot_pos + 1;
}

void MonitorTable::index_remove(std::uint32_t key) noexcept {
  std::uint32_t at = hash_key(key) & index_mask_;
  while (index_[at] != 0) {
    if (node(index_[at] - 1).address == key) break;
    at = (at + 1) & index_mask_;
  }
  if (index_[at] == 0) return;  // absent (callers never remove a missing key)
  // Backward-shift deletion keeps probe chains tombstone-free.
  std::uint32_t hole = at;
  std::uint32_t scan = (at + 1) & index_mask_;
  while (index_[scan] != 0) {
    const std::uint32_t home =
        hash_key(node(index_[scan] - 1).address) & index_mask_;
    // Move scan into the hole unless its probe path starts after the hole.
    const bool movable =
        ((scan - home) & index_mask_) >= ((scan - hole) & index_mask_);
    if (movable) {
      index_[hole] = index_[scan];
      hole = scan;
    }
    scan = (scan + 1) & index_mask_;
  }
  index_[hole] = 0;
}

void MonitorTable::rebuild_index(std::uint32_t entries) {
  const std::uint32_t old_entries = index_mask_ == 0 ? 0 : index_mask_ + 1;
  std::uint32_t* old = nullptr;
  if (entries == old_entries) {
    std::fill_n(index_, entries, 0u);  // same size: refill in place
  } else {
    old = index_;
    index_ = allocate_array<std::uint32_t>(entries);
    index_mask_ = entries - 1;
  }
  for (std::uint32_t i = 0; i < size_; ++i) {
    std::uint32_t at = hash_key(node(i).address) & index_mask_;
    while (index_[at] != 0) at = (at + 1) & index_mask_;
    index_[at] = i + 1;
  }
  release_array(old, old_entries);
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
    if (size_ >= capacity_) {
      // Recycle the least-recently-seen slot (ntpd's mon_getmoremem path):
      // minimum last_seen, oldest recency stamp breaking ties. The scan is
      // linear but only runs once the table is actually full.
      std::uint32_t victim = 0;
      for (std::uint32_t at = 1; at < size_; ++at) {
        const Node& n = node(at);
        const Node& v = node(victim);
        if (n.last < v.last || (n.last == v.last && n.stamp < v.stamp)) {
          victim = at;
        }
      }
      index_remove(node(victim).address);
      swap_remove(victim);
    }
    reserve_one();
    const std::uint32_t pos = size_;
    Node& n = node(pos);
    n.count = packet_count;
    n.address = address.value();
    n.first = static_cast<std::uint32_t>(first);
    n.last = static_cast<std::uint32_t>(std::max(first, last));
    n.stamp = ++stamp_;
    n.port = port;
    n.mode = mode;
    n.version = version;
    index_insert(address.value(), pos);
    ++size_;
    return;
  }
  Node& n = node(i);
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
  std::vector<std::uint32_t> order(size_);
  std::iota(order.begin(), order.end(), 0u);
  std::sort(order.begin(), order.end(),
            [this](std::uint32_t a, std::uint32_t b) {
              const Node& na = node(a);
              const Node& nb = node(b);
              if (na.last != nb.last) return na.last > nb.last;
              return na.address < nb.address;
            });
  std::vector<MonitorEntry> out;
  out.reserve(size_);
  constexpr std::uint64_t u32max = std::numeric_limits<std::uint32_t>::max();
  for (const std::uint32_t i : order) {
    const Node& n = node(i);
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
  // One sweep: survivors slide down over the expired slots. Slab order is
  // not observable — dump() sorts, and eviction takes the unique minimum
  // (last_seen, stamp) — so compacting in place of per-slot swap-removes
  // changes nothing but the cost.
  std::uint32_t kept = 0;
  for (std::uint32_t at = 0; at < size_; ++at) {
    if (static_cast<util::SimTime>(node(at).last) < cutoff) continue;
    if (kept != at) node(kept) = node(at);
    ++kept;
  }
  if (kept == size_) return;
  size_ = kept;
  if (size_ == 0) {
    release_all_storage();
    return;
  }
  release_tail_chunks();
  // Survivors moved, so the index is rebuilt once: into a smaller array
  // when it is now oversized, otherwise in place.
  const std::uint32_t entries = index_mask_ + 1;
  const std::uint32_t want = index_entries_for(size_);
  rebuild_index(want * 2 <= entries ? want : entries);
}

std::optional<MonitorSlot> MonitorTable::find(net::Ipv4Address address) const {
  const std::uint32_t i = lookup(address.value());
  if (i == kNil) return std::nullopt;
  const Node& n = node(i);
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
  release_all_storage();
  size_ = 0;
  stamp_ = 0;
}

std::size_t MonitorTable::footprint_bytes() const noexcept {
  std::size_t bytes = static_cast<std::size_t>(dir_cap_) * sizeof(Node*);
  for (std::uint32_t c = 0; c < chunk_count_; ++c) {
    bytes += static_cast<std::size_t>(chunk_slots(c)) * sizeof(Node);
  }
  if (index_ != nullptr) {
    bytes += static_cast<std::size_t>(index_mask_ + 1) * sizeof(std::uint32_t);
  }
  return bytes;
}

}  // namespace gorilla::ntp
