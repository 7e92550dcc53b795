#include "telemetry/darknet.h"

#include <algorithm>

#include "util/rng.h"

namespace gorilla::telemetry {

namespace {

using util::mix64;

/// Deterministic thinning of `offered` packets by `loss`: floor of the
/// expectation, with the fractional remainder resolved by one hash draw.
std::uint64_t thin_capture(std::uint64_t seed, std::uint32_t scanner, int day,
                           std::uint64_t offered, double loss) noexcept {
  if (loss <= 0.0 || offered == 0) return offered;
  if (loss >= 1.0) return 0;
  const double expected = static_cast<double>(offered) * (1.0 - loss);
  const auto base = static_cast<std::uint64_t>(expected);
  const double frac = expected - static_cast<double>(base);
  const std::uint64_t h = mix64(
      seed ^ mix64(scanner ^ mix64(static_cast<std::uint64_t>(day + 64))));
  const double draw = static_cast<double>(h >> 11) * 0x1.0p-53;
  return std::min(offered, base + (draw < frac ? 1u : 0u));
}

}  // namespace

DarknetTelescope::DarknetTelescope(const DarknetConfig& config)
    : config_(config) {}

void DarknetTelescope::observe_scan(net::Ipv4Address scanner, int day,
                                    std::uint64_t packets, bool benign) {
  if (config_.capture_loss > 0.0) {
    packets = thin_capture(config_.loss_seed, scanner.value(), day, packets,
                           config_.capture_loss);
  }
  if (packets == 0) return;
  auto& entry = by_day_[day][scanner.value()];
  entry.first += packets;
  entry.second = entry.second || benign;
  total_packets_ += packets;
}

void DarknetTelescope::observe_packet(const net::UdpPacket& pkt, bool benign) {
  if (!config_.telescope.contains(pkt.dst)) return;
  observe_scan(pkt.src, static_cast<int>(util::day_index(pkt.timestamp)), 1,
               benign);
}

double DarknetTelescope::effective_dark_slash24s() const noexcept {
  const double total_24s =
      static_cast<double>(config_.telescope.size()) / 256.0;
  return total_24s * config_.effective_coverage;
}

std::vector<DarknetTelescope::MonthlyVolume>
DarknetTelescope::monthly_volumes() const {
  const double dark24s = effective_dark_slash24s();
  std::map<std::pair<int, int>, MonthlyVolume> months;
  for (const auto& [day, scanners] : by_day_) {
    const util::Date d =
        util::date_from_sim_time(static_cast<util::SimTime>(day) *
                                 util::kSecondsPerDay);
    auto& row = months[{d.year, d.month}];
    row.year = d.year;
    row.month = d.month;
    for (const auto& [_, entry] : scanners) {
      const double normalized =
          dark24s > 0.0 ? static_cast<double>(entry.first) / dark24s : 0.0;
      if (entry.second) {
        row.benign_packets_per_24 += normalized;
      } else {
        row.other_packets_per_24 += normalized;
      }
    }
  }
  std::vector<MonthlyVolume> out;
  out.reserve(months.size());
  for (auto& [_, row] : months) out.push_back(row);
  return out;
}

std::map<int, std::uint64_t> DarknetTelescope::unique_scanners_per_day() const {
  std::map<int, std::uint64_t> out;
  for (const auto& [day, scanners] : by_day_) {
    out[day] = scanners.size();
  }
  return out;
}

std::vector<ScannerIdentity> DarknetTelescope::scanners() const {
  std::map<std::uint32_t, bool> seen;
  for (const auto& [_, scanners] : by_day_) {
    for (const auto& [addr, entry] : scanners) {
      seen[addr] = seen[addr] || entry.second;
    }
  }
  std::vector<ScannerIdentity> out;
  out.reserve(seen.size());
  for (const auto& [addr, benign] : seen) {
    out.push_back(ScannerIdentity{net::Ipv4Address{addr}, benign});
  }
  return out;
}

Ipv6DarknetTelescope::Ipv6DarknetTelescope(
    std::vector<net::Ipv6Prefix> covering)
    : covering_(std::move(covering)) {}

void Ipv6DarknetTelescope::observe(const net::Ipv6Address& src,
                                   const net::Ipv6Address& dst,
                                   std::uint16_t dst_port, int day,
                                   std::uint64_t packets) {
  (void)day;
  bool dark = false;
  for (const auto& p : covering_) {
    if (p.contains(dst)) {
      dark = true;
      break;
    }
  }
  if (!dark || packets == 0) return;
  total_packets_ += packets;
  if (dst_port == net::kNtpPort) {
    ntp_packets_ += packets;
    auto& stats = ntp_sources_[src];
    stats.packets += packets;
    stats.targets.insert(dst);
  }
}

std::vector<net::Ipv6Address> Ipv6DarknetTelescope::scanning_suspects(
    std::size_t min_targets) const {
  std::vector<net::Ipv6Address> out;
  for (const auto& [src, stats] : ntp_sources_) {
    if (stats.targets.size() >= min_targets) out.push_back(src);
  }
  return out;
}

std::vector<net::Ipv6Prefix> rir_covering_prefixes() {
  return {
      *net::parse_ipv6_prefix("2600::/12"),  // ARIN-analogue
      *net::parse_ipv6_prefix("2800::/12"),  // LACNIC-analogue
      *net::parse_ipv6_prefix("2400::/12"),  // APNIC-analogue
      *net::parse_ipv6_prefix("2c00::/12"),  // AFRINIC-analogue
  };
}

}  // namespace gorilla::telemetry
