// Per-subsystem memory accounting for the scale-1 push.
//
// The ROADMAP's full-population run is bounded by memory, not CPU, so the
// memory trajectory has to be observable the way the perf trajectory is:
// every subsystem that owns bulk storage (the monitor tables, the study
// event buffers, the recorder columns) reports into a named counter here,
// and benches print the registry (plus the process peak RSS) under
// --mem-report. Accounting is cheap by construction — the monitor tables'
// allocator charges one relaxed atomic add per *allocation*, not per
// entry, and gauge-style subsystems observe their footprint at natural
// batch boundaries.
#pragma once

#include <atomic>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace gorilla::util {

class MemStats {
 public:
  /// One subsystem's live/peak byte counters. `add`/`sub` track exact
  /// ownership transfers (allocators); `observe` is the gauge form for
  /// subsystems that re-measure their footprint at batch boundaries.
  /// All updates are relaxed atomics: counters are diagnostics, never
  /// synchronization.
  class Counter {
   public:
    void add(std::uint64_t bytes) noexcept {
      const std::uint64_t now =
          live_.fetch_add(bytes, std::memory_order_relaxed) + bytes;
      raise_peak(now);
    }
    void sub(std::uint64_t bytes) noexcept {
      live_.fetch_sub(bytes, std::memory_order_relaxed);
    }
    /// Gauge form: sets the live value and raises the peak.
    void observe(std::uint64_t bytes) noexcept {
      live_.store(bytes, std::memory_order_relaxed);
      raise_peak(bytes);
    }
    [[nodiscard]] std::uint64_t live() const noexcept {
      return live_.load(std::memory_order_relaxed);
    }
    [[nodiscard]] std::uint64_t peak() const noexcept {
      return peak_.load(std::memory_order_relaxed);
    }

   private:
    void raise_peak(std::uint64_t now) noexcept {
      std::uint64_t prev = peak_.load(std::memory_order_relaxed);
      while (prev < now &&
             !peak_.compare_exchange_weak(prev, now,
                                          std::memory_order_relaxed)) {
      }
    }
    std::atomic<std::uint64_t> live_{0};
    std::atomic<std::uint64_t> peak_{0};
  };

  /// The process-wide registry. Counters live for the process lifetime, so
  /// a subsystem may cache the reference.
  [[nodiscard]] static MemStats& instance();

  /// The counter registered under `subsystem` (created on first use).
  /// Registration takes a lock; updates through the returned reference are
  /// lock-free.
  [[nodiscard]] Counter& counter(const std::string& subsystem);

  /// Registered (subsystem, live, peak) rows, sorted by subsystem name.
  struct Row {
    std::string subsystem;
    std::uint64_t live_bytes = 0;
    std::uint64_t peak_bytes = 0;
  };
  [[nodiscard]] std::vector<Row> rows() const;

  /// Process peak RSS (VmHWM) in bytes from /proc/self/status; 0 when the
  /// platform does not expose it.
  [[nodiscard]] static std::uint64_t peak_rss_bytes();

  /// Human-readable registry dump (one line per subsystem + peak RSS).
  void report(std::FILE* out) const;

 private:
  MemStats() = default;

  mutable std::mutex mutex_;
  // Deque-like stable storage: counters are handed out by reference, so
  // they must never move. Each entry is a separately owned node.
  struct Entry {
    std::string name;
    Counter counter;
  };
  std::vector<std::unique_ptr<Entry>> entries_;
};

}  // namespace gorilla::util
