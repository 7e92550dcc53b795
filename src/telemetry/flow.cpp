#include "telemetry/flow.h"

#include <algorithm>

#include "net/packet.h"

namespace gorilla::telemetry {

FlowCollector::FlowCollector(std::string name,
                             std::vector<net::Prefix> local_prefixes)
    : name_(std::move(name)), prefixes_(std::move(local_prefixes)) {}

Direction FlowCollector::direction(const FlowRecord& f) const {
  const bool src_local = is_local(f.src);
  const bool dst_local = is_local(f.dst);
  if (src_local && dst_local) return Direction::kInternal;
  if (src_local) return Direction::kEgress;
  if (dst_local) return Direction::kIngress;
  return Direction::kTransit;
}

void FlowCollector::add(const FlowRecord& f) {
  if (direction(f) == Direction::kTransit) return;
  flows_.push_back(f);
}

VolumeSeries FlowCollector::volume_series(
    util::SimTime start, util::SimTime end, util::SimTime bucket_seconds,
    const std::function<bool(const FlowRecord&)>& filter) const {
  VolumeSeries series;
  series.start = start;
  series.bucket_seconds = bucket_seconds;
  if (end <= start || bucket_seconds <= 0) return series;
  const std::size_t n =
      static_cast<std::size_t>((end - start + bucket_seconds - 1) /
                               bucket_seconds);
  series.bytes.assign(n, 0.0);
  for (const auto& f : flows_) {
    if (!filter(f)) continue;
    const util::SimTime f_first = std::max(f.first, start);
    const util::SimTime f_last = std::min(std::max(f.last, f.first), end - 1);
    if (f_first > f_last) continue;
    const double span =
        static_cast<double>(std::max<util::SimTime>(1, f.last - f.first + 1));
    const double rate = static_cast<double>(f.bytes) / span;  // bytes/sec
    // Spread across buckets the [f_first, f_last] interval overlaps.
    std::size_t b = static_cast<std::size_t>((f_first - start) / bucket_seconds);
    util::SimTime cursor = f_first;
    while (cursor <= f_last && b < n) {
      const util::SimTime bucket_end = start + static_cast<util::SimTime>(b + 1) * bucket_seconds;
      const util::SimTime seg_end = std::min<util::SimTime>(f_last + 1, bucket_end);
      series.bytes[b] += rate * static_cast<double>(seg_end - cursor);
      cursor = seg_end;
      ++b;
    }
  }
  return series;
}

std::uint64_t FlowCollector::total_bytes(
    const std::function<bool(const FlowRecord&)>& filter) const {
  std::uint64_t total = 0;
  for (const auto& f : flows_) {
    if (filter(f)) total += f.bytes;
  }
  return total;
}

bool is_ntp_source(const FlowRecord& f) noexcept {
  return f.protocol == 17 && f.src_port == net::kNtpPort;
}

bool is_ntp_dest(const FlowRecord& f) noexcept {
  return f.protocol == 17 && f.dst_port == net::kNtpPort;
}

}  // namespace gorilla::telemetry
