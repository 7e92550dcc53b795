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

  /// Runs one day of scanning: darknet packets become on_darknet_scan()
  /// events and vantage flows become on_flow(flow, vantage_index) events.
  /// The darknet and vantage collectors (either may be null/empty) are
  /// consulted for *geometry only* (dark-space size, local prefixes); all
  /// observations flow through `sink` — a study::CollectorSink over the
  /// same collectors fills them directly.
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
  /// pure (seed, week) substream, independent of the day streams. Tables
  /// whose monlist is fixed by `week` are left alone.
  ///
  /// The World's pending monitor writes are posted to the executor's apply
  /// lanes first, keyed by server, and the plan's writes follow on the same
  /// lanes. The RNG plan is always drawn on the calling thread, in one
  /// order; each lane's chunk of writes is posted once it holds 256 servers,
  /// and the lanes join before returning. A server's writes all go to one
  /// lane, so the result is bit-identical for any job count (a null or
  /// 1-job executor applies each job inline).
  void seed_monitor_tables(int week, ShardedExecutor* executor = nullptr);

  [[nodiscard]] const std::vector<ScanActor>& actors() const noexcept {
    return actors_;
  }

 private:
  [[nodiscard]] std::uint64_t darknet_packets_per_pass(
      const ScanActor& actor, const telemetry::DarknetTelescope& t) const;

  /// The single source of the seed_monitor_tables() RNG stream: walks every
  /// amplifier slot, calling `begin_server(server_index)` once per slot
  /// (before any draws) and `emit(server, address, port, mode, when)` per planned
  /// monitor-table observation. A server whose monlist is fixed by `week`
  /// gets its draws but no emits: no probe can dump its table again.
  template <typename BeginServer, typename Emit>
  void plan_seed_observations(int week, util::Rng& rng,
                              BeginServer&& begin_server, Emit&& emit);

  World& world_;
  ScanTrafficConfig config_;
  ImpairmentLayer impairment_;
  util::Rng rng_;                  ///< construction-time draws only
  std::vector<ScanActor> actors_;  ///< research first, then malicious
};

/// TTL of scan packets at a ~10-hop vantage: Linux initial 64 -> mode 54
/// (§7.2's scanning-host OS inference).
inline constexpr std::uint8_t kScanTtl = 54;

}  // namespace gorilla::sim
