#include "core/victims.h"

#include <algorithm>
#include <stdexcept>

#include "util/det.h"

namespace gorilla::core {

VictimAnalysis::VictimAnalysis(const net::Registry& registry,
                               const net::PolicyBlockList& pbl)
    : registry_(registry), pbl_(pbl), port_pairs_(std::size_t{1} << 16) {}

void VictimAnalysis::begin_sample(int week, util::Date date) {
  if (sample_open_) throw std::logic_error("VictimAnalysis: sample open");
  sample_open_ = true;
  current_ = VictimSampleRow{};
  current_.week = week;
  current_.date = date;
  cur_hits_.clear();
  cur_windows_.clear();
  cur_durations_.clear();
  cur_scanner_mode6_ = cur_scanner_total_ = 0;
  cur_victim_mode6_ = cur_victim_total_ = 0;
}

void VictimAnalysis::add(const scan::AmplifierObservation& obs) {
  if (!sample_open_) throw std::logic_error("VictimAnalysis: no open sample");

  std::uint32_t largest_last_seen = 0;
  bool witnessed = false;  // the table holds at least one attack
  std::uint64_t obs_packets = 0;
  for (const auto& entry : obs.table) {
    largest_last_seen = std::max(largest_last_seen, entry.last_seen);
    const ClientClass cls = classify_client(entry);
    if (cls == ClientClass::kNonVictim) continue;
    if (cls == ClientClass::kScannerOrLowVolume) {
      ++cur_scanner_total_;
      if (entry.mode == 6) ++cur_scanner_mode6_;
      continue;
    }
    // Victim entry.
    ++cur_victim_total_;
    if (entry.mode == 6) ++cur_victim_mode6_;
    const auto attack = derive_attack(entry, obs.probe_time, obs.address);
    if (!attack) continue;

    cur_hits_.push_back(
        Hit{entry.address.value(), attack->packets, attack->start_time});
    witnessed = true;
    obs_packets += attack->packets;
    ++port_pairs_[entry.port];
    ++port_pairs_total_;
    cur_durations_.add(static_cast<double>(attack->duration));
  }
  if (!obs.table.empty()) {
    cur_windows_.add(static_cast<double>(largest_last_seen));
  }
  total_packets_ += obs_packets;
  if (witnessed) {
    if (const auto amp_asn = registry_.asn_of(obs.address)) {
      packets_by_amplifier_as_[*amp_asn] += obs_packets;
    }
  }
}

void VictimAnalysis::end_sample() {
  if (!sample_open_) throw std::logic_error("VictimAnalysis: no open sample");

  // One sort puts each victim's witnesses in one run, in address order
  // (the row is serialized output, so the fold order is fixed) and by start
  // within the run.
  std::sort(cur_hits_.begin(), cur_hits_.end(), [](const Hit& a, const Hit& b) {
    return a.victim != b.victim ? a.victim < b.victim : a.start < b.start;
  });
  std::vector<std::uint32_t> victims;
  std::vector<std::uint64_t> routes;
  SampleAccumulator packets;
  double amp_sum = 0.0;
  for (std::size_t i = 0; i < cur_hits_.size();) {
    const std::size_t run_begin = i;
    const std::uint32_t ip_value = cur_hits_[i].victim;
    std::uint64_t victim_packets = 0;
    for (; i < cur_hits_.size() && cur_hits_[i].victim == ip_value; ++i) {
      victim_packets += cur_hits_[i].packets;
    }
    const std::size_t amplifiers = i - run_begin;
    const net::Ipv4Address ip{ip_value};
    ++current_.ips;
    victims.push_back(ip_value);
    if (const auto where = registry_.attribute(ip)) {
      routes.push_back(std::uint64_t{where->asn} << 32 | where->block_index);
      packets_by_victim_as_[where->asn] += victim_packets;
    }
    if (pbl_.is_end_host(ip)) ++current_.end_hosts;
    packets.add(static_cast<double>(victim_packets));
    amp_sum += static_cast<double>(amplifiers);

    // One attack per victim per sample (the paper's simplification); its
    // start is the median start across witnessing amplifiers: the upper
    // median of the run's sorted starts.
    const util::SimTime start = cur_hits_[run_begin + amplifiers / 2].start;
    const std::int64_t hour = start / util::kSecondsPerHour;
    ++attacks_per_hour_[hour];
  }
  const auto closed = static_cast<std::ptrdiff_t>(victim_ever_.size());
  victim_ever_.insert(victim_ever_.end(), victims.begin(), victims.end());
  std::inplace_merge(victim_ever_.begin(), victim_ever_.begin() + closed,
                     victim_ever_.end());
  victim_ever_.erase(std::unique(victim_ever_.begin(), victim_ever_.end()),
                     victim_ever_.end());
  const auto route_counts = distinct_routes(routes);
  current_.routed_blocks = route_counts.blocks;
  current_.asns = route_counts.asns;
  current_.end_host_pct =
      current_.ips ? 100.0 * static_cast<double>(current_.end_hosts) /
                         static_cast<double>(current_.ips)
                   : 0.0;
  current_.ips_per_block =
      current_.routed_blocks
          ? static_cast<double>(current_.ips) /
                static_cast<double>(current_.routed_blocks)
          : 0.0;
  current_.packets_mean = packets.mean();
  current_.packets_median = packets.quantile(0.5);
  current_.packets_p95 = packets.quantile(0.95);
  current_.amplifiers_per_victim =
      current_.ips ? amp_sum / static_cast<double>(current_.ips) : 0.0;
  current_.median_window_seconds = cur_windows_.quantile(0.5);
  current_.scanner_mode6_share =
      cur_scanner_total_ ? static_cast<double>(cur_scanner_mode6_) /
                               static_cast<double>(cur_scanner_total_)
                         : 0.0;
  current_.victim_mode6_share =
      cur_victim_total_ ? static_cast<double>(cur_victim_mode6_) /
                              static_cast<double>(cur_victim_total_)
                        : 0.0;
  durations_.emplace_back(cur_durations_.quantile(0.5),
                          cur_durations_.quantile(0.95));
  rows_.push_back(current_);
  sample_open_ = false;
}

std::vector<std::pair<std::uint16_t, double>> VictimAnalysis::top_ports(
    std::size_t n) const {
  // Port-ordered tallies + stable_sort = rank by count with the port number
  // as deterministic tie-break.
  std::vector<std::pair<std::uint16_t, std::uint64_t>> counted;
  for (std::size_t port = 0; port < port_pairs_.size(); ++port) {
    if (port_pairs_[port] > 0) {
      counted.emplace_back(static_cast<std::uint16_t>(port), port_pairs_[port]);
    }
  }
  std::stable_sort(
      counted.begin(), counted.end(),
      [](const auto& a, const auto& b) { return a.second > b.second; });
  std::vector<std::pair<std::uint16_t, double>> out;
  const double total = static_cast<double>(std::max<std::uint64_t>(
      1, port_pairs_total_));
  for (std::size_t i = 0; i < counted.size() && i < n; ++i) {
    out.emplace_back(counted[i].first,
                     static_cast<double>(counted[i].second) / total);
  }
  return out;
}

std::vector<double> VictimAnalysis::victim_as_packets() const {
  std::vector<double> out;
  out.reserve(packets_by_victim_as_.size());
  for (const auto& [_, p] : util::sorted_items(packets_by_victim_as_)) {
    out.push_back(static_cast<double>(p));
  }
  return out;
}

std::vector<double> VictimAnalysis::amplifier_as_packets() const {
  std::vector<double> out;
  out.reserve(packets_by_amplifier_as_.size());
  for (const auto& [_, p] : util::sorted_items(packets_by_amplifier_as_)) {
    out.push_back(static_cast<double>(p));
  }
  return out;
}

std::vector<std::pair<net::Asn, std::uint64_t>>
VictimAnalysis::amplifier_as_breakdown() const {
  return util::sorted_items(packets_by_amplifier_as_);
}

std::vector<std::pair<net::Asn, std::uint64_t>> VictimAnalysis::top_victim_ases(
    std::size_t n) const {
  auto ranked = util::sorted_items(packets_by_victim_as_);
  std::stable_sort(
      ranked.begin(), ranked.end(),
      [](const auto& a, const auto& b) { return a.second > b.second; });
  if (ranked.size() > n) ranked.resize(n);
  return ranked;
}

}  // namespace gorilla::core
