// Slab/arena allocator with size-class recycling for compact structures.
//
// The monitor-table spine allocates hundreds of thousands of small slot
// slabs with world lifetime; giving each its own malloc costs an
// allocation header per slab and scatters them across the heap. An Arena
// carves them out of large blocks instead: allocation is a bump pointer,
// and the whole spine stays dense.
//
// Blocks are never returned to the OS before the arena dies, but callers
// MAY hand storage back with recycle(): freed allocations go on exact-size
// free lists (sizes are canonicalized to 16-byte multiples, and the
// callers draw from small growth ladders, so the class count stays tiny)
// and the next allocate() of that size reuses them. That is what lets one
// monitor table's post-expiry shrink feed another table's growth — the
// cross-table reuse malloc gave the node-based tables — while keeping
// bump-pointer locality for the steady state.
//
// Thread-safe by striping: the arena holds kStripes independent stripes
// (each its own mutex, free lists and bump block), and a thread always
// uses the stripe its process-wide thread ordinal selects. Arena calls are
// not rare — a monitor table regrows from empty every week (chunk, index
// and directory steps, ~14 calls per table per week) and shrinks back in
// the probe-time expiry — so one shared mutex serialized the §3d parallel
// seeding and probe fan-outs. With stripes, workers never share a lock
// unless two of them map to the same stripe. recycle() files storage on
// the *calling* thread's stripe, whichever stripe carved it: blocks are
// owned by the arena as a whole and all die with it, so storage migrating
// between stripes is harmless. The study frees on one thread what it
// allocated on another (attack-day and seeding apply lanes grow tables on
// whichever worker runs the lane, the parallel probe's expiry shrinks them
// on others), so a stripe whose bump block runs out first adopts the other
// stripes' idle free lists, and only then carves a new block. Which
// stripe serves a request never changes what a caller observes beyond the
// address it gets back.
//
// Accounting: each block charges one MemStats::Counter::add per block (a
// relaxed atomic), so per-subsystem live/peak bytes are exact at block
// granularity for free. Recycled storage stays "live" — the arena still
// owns it — which is exactly the retained-footprint number the scale-1
// planning needs.
#pragma once

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <new>
#include <type_traits>
#include <vector>

#include "util/mem_stats.h"

namespace gorilla::util {

class Arena {
 public:
  /// `stats` (optional) receives one add() per block allocated and the
  /// matching sub()s on destruction; it must outlive the arena (the
  /// MemStats registry's counters are process-lived, so that is the
  /// normal case). `request_stats` (optional) additionally tracks
  /// *outstanding requests* — allocate() adds the canonical size,
  /// recycle() subtracts it — so its peak is the callers' true live
  /// high-water mark and the gap to the block counter is the arena's
  /// overhead (bump slack + idle free-list storage).
  explicit Arena(MemStats::Counter* stats = nullptr,
                 std::size_t block_bytes = kDefaultBlockBytes,
                 MemStats::Counter* request_stats = nullptr)
      : stats_(stats), request_stats_(request_stats),
        block_bytes_(block_bytes) {}

  Arena(const Arena&) = delete;
  Arena& operator=(const Arena&) = delete;

  ~Arena() {
    if (stats_ != nullptr) stats_->sub(allocated_bytes());
    if (request_stats_ != nullptr) {
      request_stats_->sub(outstanding_bytes_.load(std::memory_order_relaxed));
    }
  }

  static constexpr std::size_t kDefaultBlockBytes = std::size_t{256} * 1024;
  /// Every allocation is rounded up to this granule: recycled storage must
  /// hold a free-list link, and canonical sizes keep the class count small.
  static constexpr std::size_t kGranule = 16;
  /// Stripes per arena. A fixed constant, not a knob: more stripes than
  /// concurrently allocating threads only costs idle bump-block slack.
  static constexpr std::size_t kStripes = 8;

  /// Bytes of raw storage, 16-byte aligned (`align` must not exceed
  /// kGranule). Never returns nullptr. Reuse order, within the calling
  /// thread's stripe: an exact-size recycled block, else the smallest
  /// larger recycled block (best fit, remainder split back onto its own
  /// free list — during a synchronized growth wave every table frees rung
  /// N while demanding rung N+1, and splitting keeps that storage in play
  /// instead of stranding it), else the bump pointer advances; a spent
  /// bump block first adopts other stripes' free lists, then refills.
  [[nodiscard]] void* allocate(std::size_t bytes, std::size_t align) {
    (void)align;
    const std::size_t size = canonical(bytes);
    if (request_stats_ != nullptr) {
      request_stats_->add(size);
      outstanding_bytes_.fetch_add(size, std::memory_order_relaxed);
    }
    Stripe& s = own_stripe();
    const std::lock_guard<std::mutex> lock(s.mutex);
    if (void* out = take_free(s, size)) return out;
    std::size_t offset = (s.cursor + kGranule - 1) & ~(kGranule - 1);
    if (s.current == nullptr || offset + size > s.current_size) {
      // The bump block is spent. Storage recycled on other threads sits on
      // their stripes; adopt it before carving a new block, so the arena
      // grows only when no idle stripe holds a fit.
      adopt_free_lists(s);
      if (void* out = take_free(s, size)) return out;
      refill(s, size + kGranule);
      offset = 0;
    }
    s.cursor = offset + size;
    return s.current + offset;
  }

  /// Returns an allocation of `bytes` (the size passed to allocate()) to
  /// the calling thread's stripe, on the matching size-class free list.
  void recycle(void* ptr, std::size_t bytes) noexcept {
    const std::size_t size = canonical(bytes);
    if (request_stats_ != nullptr) {
      request_stats_->sub(size);
      outstanding_bytes_.fetch_sub(size, std::memory_order_relaxed);
    }
    Stripe& s = own_stripe();
    const std::lock_guard<std::mutex> lock(s.mutex);
    push_free(s, ptr, size);
  }

  /// `count` default-initialized objects of trivially-destructible T (the
  /// arena never runs destructors; recycled storage is re-initialized
  /// here).
  template <typename T>
  [[nodiscard]] T* allocate_array(std::size_t count) {
    static_assert(std::is_trivially_destructible_v<T>,
                  "arena storage is never destroyed element-wise");
    static_assert(alignof(T) <= kGranule);
    T* out = static_cast<T*>(allocate(sizeof(T) * count, alignof(T)));
    for (std::size_t i = 0; i < count; ++i) new (out + i) T();
    return out;
  }

  /// recycle() for an allocate_array<T>() allocation.
  template <typename T>
  void recycle_array(T* ptr, std::size_t count) noexcept {
    recycle(static_cast<void*>(ptr), sizeof(T) * count);
  }

  /// Total block bytes currently owned, over all stripes (what MemStats
  /// sees as live).
  [[nodiscard]] std::size_t allocated_bytes() const {
    std::size_t total = 0;
    for (const auto& s : stripes_) {
      const std::lock_guard<std::mutex> lock(s.mutex);
      total += s.allocated_bytes;
    }
    return total;
  }

  /// Blocks owned, over all stripes (diagnostic; one malloc each over the
  /// arena's lifetime).
  [[nodiscard]] std::size_t block_count() const {
    std::size_t total = 0;
    for (const auto& s : stripes_) {
      const std::lock_guard<std::mutex> lock(s.mutex);
      total += s.blocks.size();
    }
    return total;
  }

  /// Process-wide ordinal of the calling thread: 0 for the first thread to
  /// ask, then 1, 2, ... Stable for the thread's lifetime.
  [[nodiscard]] static std::size_t thread_ordinal() noexcept {
    static std::atomic<std::size_t> next{0};
    thread_local const std::size_t ordinal =
        next.fetch_add(1, std::memory_order_relaxed);
    return ordinal;
  }

 private:
  struct FreeList {
    std::size_t size;
    void* head;
  };

  /// One independent sub-arena; cache-line aligned so neighbouring
  /// stripes' mutexes never share a line.
  struct alignas(64) Stripe {
    mutable std::mutex mutex;
    std::vector<std::unique_ptr<std::byte[]>> blocks;
    std::vector<FreeList> free_lists;
    std::byte* current = nullptr;
    std::size_t current_size = 0;
    std::size_t cursor = 0;
    std::size_t allocated_bytes = 0;
  };

  [[nodiscard]] static constexpr std::size_t canonical(
      std::size_t bytes) noexcept {
    const std::size_t up = (bytes + kGranule - 1) & ~(kGranule - 1);
    return up == 0 ? kGranule : up;
  }

  [[nodiscard]] Stripe& own_stripe() noexcept {
    return stripes_[thread_ordinal() % kStripes];
  }

  /// Pops a recycled block of `size` bytes from `s`: an exact-size one,
  /// else the best-fit larger one, split. nullptr when `s` holds no fit.
  /// Called under s.mutex.
  static void* take_free(Stripe& s, std::size_t size) {
    FreeList* best = nullptr;
    for (auto& fl : s.free_lists) {
      if (fl.head == nullptr || fl.size < size) continue;
      if (fl.size == size) {
        best = &fl;
        break;
      }
      if (best == nullptr || fl.size < best->size) best = &fl;
    }
    if (best == nullptr) return nullptr;
    void* out = best->head;
    best->head = *static_cast<void**>(out);
    if (best->size > size) {
      push_free(s, static_cast<std::byte*>(out) + size, best->size - size);
    }
    return out;
  }

  /// Moves into `s` every free list another stripe holds for a size class
  /// `s` has none of (whole lists, O(1) each). Stripes whose lock is busy
  /// are skipped: their owner is active, and try_lock keeps two adopting
  /// stripes from deadlocking on each other. Called under s.mutex.
  void adopt_free_lists(Stripe& s) {
    for (auto& other : stripes_) {
      if (&other == &s) continue;
      const std::unique_lock<std::mutex> lock(other.mutex, std::try_to_lock);
      if (!lock.owns_lock()) continue;
      for (auto& theirs : other.free_lists) {
        if (theirs.head == nullptr) continue;
        FreeList* mine = nullptr;
        for (auto& fl : s.free_lists) {
          if (fl.size == theirs.size) mine = &fl;
        }
        if (mine == nullptr) {
          s.free_lists.push_back(FreeList{theirs.size, theirs.head});
        } else if (mine->head == nullptr) {
          mine->head = theirs.head;
        } else {
          continue;
        }
        theirs.head = nullptr;
      }
    }
  }

  /// Links `ptr` (a canonical-size block) onto its size class in `s`.
  /// Called under s.mutex.
  static void push_free(Stripe& s, void* ptr, std::size_t size) {
    for (auto& fl : s.free_lists) {
      if (fl.size == size) {
        *static_cast<void**>(ptr) = fl.head;
        fl.head = ptr;
        return;
      }
    }
    *static_cast<void**>(ptr) = nullptr;
    s.free_lists.push_back(FreeList{size, ptr});
  }

  /// Starts a fresh block of at least `min_bytes` in `s` (oversize
  /// requests get a dedicated block). Called under s.mutex.
  void refill(Stripe& s, std::size_t min_bytes) {
    const std::size_t size = min_bytes > block_bytes_ ? min_bytes
                                                      : block_bytes_;
    s.blocks.push_back(std::make_unique<std::byte[]>(size));
    s.current = s.blocks.back().get();
    s.current_size = size;
    s.cursor = 0;
    s.allocated_bytes += size;
    if (stats_ != nullptr) stats_->add(size);
  }

  MemStats::Counter* stats_;
  MemStats::Counter* request_stats_;
  std::size_t block_bytes_;
  std::array<Stripe, kStripes> stripes_;
  std::atomic<std::size_t> outstanding_bytes_{0};
};

}  // namespace gorilla::util
