// monlist table interpretation — §4.1 / §4.2.
//
// The heart of the paper's victimology: each table entry is classified as a
// non-victim (ordinary NTP modes), a scanner/low-volume client, or an
// apparent DDoS victim, using exactly the paper's thresholds. From a victim
// entry and the probe time we derive the attack's end (last seen), duration
// (count x average interarrival), and start (end - duration).
#pragma once

#include <cstdint>
#include <optional>

#include "net/ipv4.h"
#include "ntp/mode7.h"
#include "util/time.h"

namespace gorilla::core {

enum class ClientClass : std::uint8_t {
  kNonVictim,           ///< mode < 6: ordinary NTP operation
  kScannerOrLowVolume,  ///< mode 6/7 but count < 3 or interarrival > 3600
  kVictim,              ///< mode 6/7, count >= 3, <= 1 packet/hour average
};

/// §4.2's filter, verbatim: modes below 6 are non-victims; mode 6/7 clients
/// that sent fewer than 3 packets or averaged more than an hour between
/// packets are scanners/low-volume; the rest are victims.
[[nodiscard]] inline ClientClass classify_client(
    const ntp::MonitorEntry& entry) noexcept {
  if (entry.mode < 6) return ClientClass::kNonVictim;
  if (entry.count < 3 || entry.avg_interval > 3600) {
    return ClientClass::kScannerOrLowVolume;
  }
  return ClientClass::kVictim;
}

/// An attack on one victim as witnessed by one amplifier's table.
struct WitnessedAttack {
  net::Ipv4Address victim;
  net::Ipv4Address amplifier;
  std::uint16_t victim_port = 0;
  std::uint8_t mode = 0;
  std::uint64_t packets = 0;          ///< spoofed packets the amplifier saw
  util::SimTime end_time = 0;         ///< probe_time - last_seen
  util::SimTime duration = 0;         ///< count * avg_interarrival
  util::SimTime start_time = 0;       ///< end - duration
};

/// Derives the witnessed attack from a victim-classified entry; nullopt for
/// entries the filter rejects.
[[nodiscard]] std::optional<WitnessedAttack> derive_attack(
    const ntp::MonitorEntry& entry, util::SimTime probe_time,
    net::Ipv4Address amplifier) noexcept;

}  // namespace gorilla::core
