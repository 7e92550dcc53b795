// Unidirectional flow records and per-vantage collection.
//
// The §7 local views (Merit, FRGP/CSU) are built from netflow-style records
// exported at each ISP's border. A FlowCollector keeps the flows that cross
// its local prefix set and can aggregate them into time series and top-N
// reports — the raw material of Figures 11-16 and Tables 5-6.
#pragma once

#include <algorithm>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "net/ipv4.h"
#include "util/time.h"

namespace gorilla::telemetry {

struct FlowRecord {
  net::Ipv4Address src;
  net::Ipv4Address dst;
  std::uint16_t src_port = 0;
  std::uint16_t dst_port = 0;
  std::uint8_t protocol = 17;  ///< UDP unless stated otherwise
  std::uint8_t ttl = 64;       ///< TTL observed at the vantage (§7.2)
  std::uint64_t packets = 0;
  std::uint64_t bytes = 0;          ///< on-wire bytes
  std::uint64_t payload_bytes = 0;  ///< UDP payload bytes (BAF numerators)
  util::SimTime first = 0;
  util::SimTime last = 0;

  [[nodiscard]] util::SimTime duration() const noexcept {
    return last >= first ? last - first : 0;
  }
};

/// Direction of a flow relative to a vantage's local space.
enum class Direction : std::uint8_t { kIngress, kEgress, kInternal, kTransit };

/// A bucketized byte-volume time series.
struct VolumeSeries {
  util::SimTime start = 0;
  util::SimTime bucket_seconds = 0;
  std::vector<double> bytes;  ///< per bucket

  [[nodiscard]] double rate_bps(std::size_t bucket) const {
    return bucket_seconds > 0 ? bytes[bucket] * 8.0 /
                                    static_cast<double>(bucket_seconds)
                              : 0.0;
  }
};

/// Adds `f`'s bytes to `buckets`, bucket b covering [start + b *
/// bucket_seconds, start + (b + 1) * bucket_seconds): the bytes are spread
/// at a flat rate over the flow's [first, last] span, clipped to [start,
/// end); `bucket_seconds` must be positive. Returns false, adding nothing,
/// when the flow misses the window.
/// FlowCollector::volume_series and study::DetectorSink both bin with this,
/// so a batch series and a streamed one over the same flows in the same
/// order hold the same bits.
inline bool spread_flow(const FlowRecord& f, util::SimTime start,
                        util::SimTime end, util::SimTime bucket_seconds,
                        std::vector<double>& buckets) {
  const util::SimTime f_first = std::max(f.first, start);
  const util::SimTime f_last = std::min(std::max(f.last, f.first), end - 1);
  if (f_first > f_last) return false;
  const double span =
      static_cast<double>(std::max<util::SimTime>(1, f.last - f.first + 1));
  const double rate = static_cast<double>(f.bytes) / span;  // bytes/sec
  std::size_t b = static_cast<std::size_t>((f_first - start) / bucket_seconds);
  util::SimTime cursor = f_first;
  while (cursor <= f_last && b < buckets.size()) {
    const util::SimTime bucket_end =
        start + static_cast<util::SimTime>(b + 1) * bucket_seconds;
    const util::SimTime seg_end =
        std::min<util::SimTime>(f_last + 1, bucket_end);
    buckets[b] += rate * static_cast<double>(seg_end - cursor);
    cursor = seg_end;
    ++b;
  }
  return true;
}

/// Flow collector at one vantage point (an ISP border).
class FlowCollector {
 public:
  FlowCollector(std::string name, std::vector<net::Prefix> local_prefixes);

  [[nodiscard]] const std::string& name() const noexcept { return name_; }

  /// The local prefixes this vantage covers (as configured).
  [[nodiscard]] const std::vector<net::Prefix>& prefixes() const noexcept {
    return prefixes_;
  }

  /// True when a local prefix covers `a`. Every vantage covers one prefix
  /// or a few, so a scan beats a trie walk.
  [[nodiscard]] bool is_local(net::Ipv4Address a) const {
    return std::ranges::any_of(
        prefixes_, [a](const net::Prefix& p) { return p.contains(a); });
  }

  [[nodiscard]] Direction direction(const FlowRecord& f) const;

  /// Records a flow if it touches local space (transit flows are dropped,
  /// as a border exporter would not see them).
  void add(const FlowRecord& f);

  [[nodiscard]] const std::vector<FlowRecord>& flows() const noexcept {
    return flows_;
  }

  /// Bucketized volume of flows matching `filter`, bytes spread uniformly
  /// across the flow's [first, last] span.
  [[nodiscard]] VolumeSeries volume_series(
      util::SimTime start, util::SimTime end, util::SimTime bucket_seconds,
      const std::function<bool(const FlowRecord&)>& filter) const;

  /// Sum of bytes over flows matching `filter`.
  [[nodiscard]] std::uint64_t total_bytes(
      const std::function<bool(const FlowRecord&)>& filter) const;

  void clear() { flows_.clear(); }

 private:
  std::string name_;
  std::vector<net::Prefix> prefixes_;
  std::vector<FlowRecord> flows_;
};

/// Convenience filters used across the §7 analyses.
[[nodiscard]] bool is_ntp_source(const FlowRecord& f) noexcept;  // sport 123
[[nodiscard]] bool is_ntp_dest(const FlowRecord& f) noexcept;    // dport 123

}  // namespace gorilla::telemetry
