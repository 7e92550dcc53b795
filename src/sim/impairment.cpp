#include "sim/impairment.h"

#include <algorithm>
#include <cmath>

#include "util/rng.h"

namespace gorilla::sim {

namespace {

// Decision salts: one per independent impairment channel so enabling one
// knob never perturbs another's draws.
constexpr std::uint64_t kSaltRequestLoss = 0x10c5;
constexpr std::uint64_t kSaltUnreachable = 0x1c4b;
constexpr std::uint64_t kSaltSilence = 0x51ce;
constexpr std::uint64_t kSaltPacketDrop = 0xd209;
constexpr std::uint64_t kSaltTruncate = 0x7294;
constexpr std::uint64_t kSaltTruncatePoint = 0x7295;
constexpr std::uint64_t kSaltGarble = 0x6a2b;
constexpr std::uint64_t kSaltRateLimiter = 0x2a7e;
constexpr std::uint64_t kSaltAggRequest = 0xa662;
constexpr std::uint64_t kSaltAggResponse = 0xa663;

using util::mix64;

}  // namespace

double ImpairmentLayer::draw(std::uint64_t a, std::uint64_t b, std::uint64_t c,
                             std::uint64_t salt) const noexcept {
  const std::uint64_t h = mix64(
      config_.seed ^
      mix64(a * 0x9e3779b97f4a7c15ULL ^ mix64(b ^ mix64(c ^ salt))));
  return static_cast<double>(h >> 11) * 0x1.0p-53;
}

ImpairmentLayer::Fate ImpairmentLayer::request_fate(std::uint32_t server_index,
                                                    int week,
                                                    int attempt) const noexcept {
  if (!enabled_) return Fate::kDelivered;
  const auto w = static_cast<std::uint64_t>(week + 64);
  const auto k = static_cast<std::uint64_t>(attempt);
  if (config_.request_loss > 0.0 &&
      draw(server_index, w, k, kSaltRequestLoss) < config_.request_loss) {
    return Fate::kRequestLost;
  }
  if (config_.icmp_unreachable_rate > 0.0 &&
      draw(server_index, w, k, kSaltUnreachable) <
          config_.icmp_unreachable_rate) {
    return Fate::kUnreachable;
  }
  if (config_.transient_silence_rate > 0.0 &&
      draw(server_index, w, k, kSaltSilence) <
          config_.transient_silence_rate) {
    return Fate::kSilent;
  }
  return Fate::kDelivered;
}

bool ImpairmentLayer::is_rate_limiter(std::uint32_t server_index) const noexcept {
  if (!enabled_ || config_.rate_limiter_fraction <= 0.0 ||
      config_.rate_limit_per_window == 0) {
    return false;
  }
  return draw(server_index, 0, 0, kSaltRateLimiter) <
         config_.rate_limiter_fraction;
}

ImpairmentLayer::Damage ImpairmentLayer::degrade_response(
    std::uint32_t server_index, int week, int attempt,
    std::vector<net::UdpPacket>& packets) const {
  Damage damage;
  if (!enabled_ || packets.empty()) return damage;
  if (config_.response_packet_loss <= 0.0 &&
      config_.response_truncate_rate <= 0.0 &&
      config_.response_garble_rate <= 0.0) {
    return damage;
  }

  const auto w = static_cast<std::uint64_t>(week + 64);
  std::vector<net::UdpPacket> kept;
  kept.reserve(packets.size());
  for (std::size_t i = 0; i < packets.size(); ++i) {
    // Fold (attempt, packet index) into one key; packets keep independent
    // draws across attempts so a retry can recover a previously lost segment.
    const std::uint64_t pk =
        static_cast<std::uint64_t>(attempt) * 0x100000001ULL + i;
    auto& pkt = packets[i];
    if (config_.response_packet_loss > 0.0 &&
        draw(server_index, w, pk, kSaltPacketDrop) <
            config_.response_packet_loss) {
      ++damage.packets_dropped;
      damage.udp_bytes_lost += pkt.payload.size();
      damage.wire_bytes_lost += pkt.on_wire_bytes();
      continue;
    }
    if (config_.response_truncate_rate > 0.0 && !pkt.payload.empty() &&
        draw(server_index, w, pk, kSaltTruncate) <
            config_.response_truncate_rate) {
      const std::uint64_t before_udp = pkt.payload.size();
      const std::uint64_t before_wire = pkt.on_wire_bytes();
      const auto cut = static_cast<std::size_t>(
          draw(server_index, w, pk, kSaltTruncatePoint) *
          static_cast<double>(pkt.payload.size()));
      pkt.payload.resize(cut);
      ++damage.packets_truncated;
      damage.udp_bytes_lost += before_udp - pkt.payload.size();
      damage.wire_bytes_lost += before_wire - pkt.on_wire_bytes();
    } else if (config_.response_garble_rate > 0.0 && !pkt.payload.empty() &&
               draw(server_index, w, pk, kSaltGarble) <
                   config_.response_garble_rate) {
      // Flip a handful of deterministic bits; length is preserved so the
      // damage is semantic (lying headers, corrupt items), not structural.
      const std::uint64_t h = mix64(config_.seed ^ mix64(server_index) ^
                                    mix64(pk ^ kSaltGarble));
      const int flips = 2 + static_cast<int>(h & 0x3);
      for (int f = 0; f < flips; ++f) {
        const std::uint64_t g = mix64(h + static_cast<std::uint64_t>(f));
        pkt.payload[g % pkt.payload.size()] ^=
            static_cast<std::uint8_t>(1u << ((g >> 17) & 0x7));
      }
      ++damage.packets_garbled;
    }
    kept.push_back(std::move(pkt));
  }
  packets = std::move(kept);
  return damage;
}

std::uint64_t ImpairmentLayer::thin(std::uint32_t key, int week,
                                    std::uint64_t offered, double loss,
                                    std::uint64_t salt) const noexcept {
  if (!enabled_ || loss <= 0.0 || offered == 0) return offered;
  if (loss >= 1.0) return 0;
  const double expected = static_cast<double>(offered) * (1.0 - loss);
  const auto base = static_cast<std::uint64_t>(expected);
  const double frac = expected - static_cast<double>(base);
  const std::uint64_t extra =
      draw(key, static_cast<std::uint64_t>(week + 64), offered, salt) < frac
          ? 1
          : 0;
  return std::min(offered, base + extra);
}

std::uint64_t ImpairmentLayer::delivered_requests(
    std::uint32_t key, int week, std::uint64_t offered) const noexcept {
  // Request loss and unreachability are independent per-packet events; the
  // aggregate channel composes their survival probabilities.
  const double loss = 1.0 - (1.0 - config_.request_loss) *
                                (1.0 - config_.icmp_unreachable_rate);
  return thin(key, week, offered, loss, kSaltAggRequest);
}

std::uint64_t ImpairmentLayer::delivered_responses(
    std::uint32_t key, int week, std::uint64_t offered) const noexcept {
  return thin(key, week, offered, config_.response_packet_loss,
              kSaltAggResponse);
}

}  // namespace gorilla::sim
