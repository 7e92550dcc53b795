#include "core/monlist_analysis.h"

#include <algorithm>

namespace gorilla::core {

std::optional<WitnessedAttack> derive_attack(const ntp::MonitorEntry& entry,
                                             util::SimTime probe_time,
                                             net::Ipv4Address amplifier)
    noexcept {
  if (classify_client(entry) != ClientClass::kVictim) return std::nullopt;
  WitnessedAttack a;
  a.victim = entry.address;
  a.amplifier = amplifier;
  a.victim_port = entry.port;
  a.mode = entry.mode;
  a.packets = entry.count;
  // Degraded data (truncated or garbled packets) can carry a last_seen past
  // probe_time; clamp the derived end instead of letting a corrupt entry
  // place it before the sim began. The clamp never fires on clean tables
  // (last_seen is bounded by the observation window). The duration product
  // is overflow-safe without a clamp: classify_client admits only
  // avg_interval <= 3600, so count * avg_interval <= 2^32 * 3600 fits in
  // int64. start_time is deliberately unclamped — §4.3.4 legitimately
  // derives starts before the first sample.
  a.end_time = std::max<util::SimTime>(
      0, probe_time - static_cast<util::SimTime>(entry.last_seen));
  a.duration = static_cast<util::SimTime>(entry.count) *
               static_cast<util::SimTime>(entry.avg_interval);
  a.start_time = a.end_time - a.duration;
  return a;
}

}  // namespace gorilla::core
