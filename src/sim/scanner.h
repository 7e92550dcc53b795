// Scanning actors — §5's darknet signal and the probe entries amplifiers log.
//
// Two populations scan for NTP amplifiers: research projects (a handful of
// fixed IPs sweeping the whole IPv4 space on a weekly cadence, in the open,
// labeled benign by their hostnames) and malicious scanners (a growing swarm
// that appears in mid-December 2013, each covering partial, randomized
// slices). Both leak packets into the darknet telescope; both leave mode 6/7
// probe entries in amplifier monitor tables (the "scanner/low-volume" class
// of §4.2); and both appear as dport-123 flows at the regional vantages
// (where §7.2 reads their TTLs: research/malicious scanning is Linux-built).
#pragma once

#include <cstdint>
#include <vector>

#include "sim/impairment.h"
#include "sim/sharded_executor.h"
#include "sim/world.h"
#include "util/rng.h"

// The interface only passes collectors by pointer/reference, so the upward
// layers stay out of this header; scanner.cpp includes them (waived).
namespace gorilla::study {
class EventSink;
}  // namespace gorilla::study
namespace gorilla::telemetry {
class DarknetTelescope;
class FlowCollector;
}  // namespace gorilla::telemetry

namespace gorilla::sim {

struct ScanActor {
  net::Ipv4Address address;
  bool benign = false;       ///< research project (hostname-labeled)
  int first_day = 0;         ///< first active sim day
  int last_day = 1 << 30;    ///< last active sim day
  double ipv4_coverage = 1.0;///< fraction of the address space swept per pass
  double passes_per_week = 1.0;
  double mode6_share = 0.0;  ///< fraction of probes using the version command
};

struct ScanTrafficConfig {
  std::uint64_t seed = util::Rng::kDefaultSeed ^ 0x5ca7ULL;
  int research_scanners = 6;
  /// Malicious scanner swarm size at plateau (full scale; scaled by world).
  int malicious_scanners = 9000;
  int malicious_onset_day = 44;   ///< mid-December 2013
  int malicious_ramp_days = 21;
  /// Daily probability an active malicious scanner actually scans.
  double malicious_duty_cycle = 0.6;
  double malicious_coverage = 0.02;  ///< slice of IPv4 per malicious pass

  /// Network impairment on the scan paths: darknet-bound packets, vantage
  /// flows, and monitor-table probe entries all thin consistently with the
  /// probe/attack channels. All-zero = the seed's lossless behaviour.
  ImpairmentConfig impairment;
};

/// Drives all non-ONP scanning for a horizon: darknet packets, amplifier
/// monitor-table probe entries, and vantage flows.
class ScanTraffic {
 public:
  ScanTraffic(World& world, const ScanTrafficConfig& config);

  /// Runs one day of scanning. `darknet`, `vantages` may be empty/null.
  void run_day(int day, telemetry::DarknetTelescope* darknet,
               const std::vector<telemetry::FlowCollector*>& vantages) const;

  /// Event-stream form: darknet packets become on_darknet_scan() events and
  /// vantage flows become on_flow(flow, vantage_index) events. The darknet
  /// and vantage collectors are consulted for *geometry only* (dark-space
  /// size, local prefixes); all observations flow through `sink`. Draws the
  /// exact RNG stream of the direct form above.
  ///
  /// Each day draws from a pure (seed, day) substream, so a day is a pure
  /// function of the day index — AttackEngine::run_days() calls this from
  /// worker threads with a per-shard buffer as `sink` (DESIGN.md §3d).
  void run_day(int day, study::EventSink& sink,
               const telemetry::DarknetTelescope* darknet_geometry,
               const std::vector<telemetry::FlowCollector*>& vantage_geometry)
      const;

  /// Injects this week's research-scanner probe entries into the detailed
  /// servers' monitor tables (called once per sample week by the harness,
  /// cheaper than per-day per-server observation). The plan draws from a
  /// pure (seed, week) substream, independent of the day streams.
  ///
  /// With a (multi-job) executor, the RNG plan is drawn sequentially —
  /// burning exactly the draws of the inline path — and only the per-server
  /// monitor-table writes fan out, each server owned by one chunk; the
  /// result is bit-identical for any job count.
  void seed_monitor_tables(int week, ShardedExecutor* executor = nullptr);

  [[nodiscard]] const std::vector<ScanActor>& actors() const noexcept {
    return actors_;
  }

 private:
  [[nodiscard]] std::uint64_t darknet_packets_per_pass(
      const ScanActor& actor, const telemetry::DarknetTelescope& t) const;

  /// The single source of the seed_monitor_tables() RNG stream: walks every
  /// amplifier slot, calling `begin_server()` once per slot (before any
  /// draws) and `emit(server, address, port, mode, when)` per planned
  /// monitor-table observation. Both the inline and the plan/apply paths
  /// run through here, so their draw order cannot diverge.
  template <typename BeginServer, typename Emit>
  void plan_seed_observations(int week, util::Rng& rng,
                              BeginServer&& begin_server, Emit&& emit);

  World& world_;
  ScanTrafficConfig config_;
  ImpairmentLayer impairment_;
  util::Rng rng_;                  ///< construction-time draws only
  std::vector<ScanActor> actors_;  ///< research first, then malicious
  std::size_t last_plan_size_ = 0; ///< previous week's seeding plan length
};

/// TTL of scan packets at a ~10-hop vantage: Linux initial 64 -> mode 54
/// (§7.2's scanning-host OS inference).
inline constexpr std::uint8_t kScanTtl = 54;

}  // namespace gorilla::sim
