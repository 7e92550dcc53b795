#include "telemetry/flow.h"

#include <utility>

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
    if (filter(f)) spread_flow(f, start, end, bucket_seconds, series.bytes);
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
