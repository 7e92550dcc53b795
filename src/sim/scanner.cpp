#include "sim/scanner.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "net/ethernet.h"
#include "ntp/mode7.h"
// Published downward interface (DESIGN.md §3f): sim emits into the study
// event vocabulary and consults collector geometry; the types cross the
// layer boundary by design, so the upward includes live here, waived, not
// in scanner.h.
#include "study/collector_sink.h"  // NOLINT(layer-break)
#include "study/events.h"          // NOLINT(layer-break)
#include "telemetry/darknet.h"     // NOLINT(layer-break)
#include "telemetry/flow.h"        // NOLINT(layer-break)

namespace gorilla::sim {

namespace {

constexpr std::uint64_t kProbeWireBytes =
    net::on_wire_bytes_for_udp(ntp::kMode7RequestBytes);

}  // namespace

ScanTraffic::ScanTraffic(World& world, const ScanTrafficConfig& config)
    : world_(world),
      config_(config),
      impairment_(config.impairment),
      rng_(config.seed) {
  const auto& registry = world_.registry();
  // Research scanners: stable, whole-space, weekly, from well-known hosts.
  for (int i = 0; i < config_.research_scanners; ++i) {
    ScanActor a;
    a.address = registry.random_address(rng_);
    a.benign = true;
    a.first_day = i < 2 ? 0 : 30 + i * 8;  // projects joined over time
    a.ipv4_coverage = 1.0;
    a.passes_per_week = 1.0;
    a.mode6_share = i % 2 == 0 ? 0.5 : 0.0;  // some also run version scans
    actors_.push_back(a);
  }
  // Malicious swarm: scaled with the world, ramping in from mid-December.
  const std::uint64_t scale = std::max<std::uint32_t>(1, world_.config().scale);
  const int n_malicious = static_cast<int>(
      std::max<std::uint64_t>(8, static_cast<std::uint64_t>(
                                     config_.malicious_scanners) /
                                     scale));
  for (int i = 0; i < n_malicious; ++i) {
    ScanActor a;
    a.address = registry.random_address(rng_);
    a.benign = false;
    a.first_day = config_.malicious_onset_day +
                  static_cast<int>(rng_.uniform(
                      static_cast<std::uint64_t>(config_.malicious_ramp_days)));
    // Most keep scanning through the horizon (scanning stayed high even as
    // the pool shrank, §5.1); some churn out.
    a.last_day = rng_.chance(0.3)
                     ? a.first_day + static_cast<int>(rng_.uniform_int(7, 60))
                     : 1 << 30;
    a.ipv4_coverage = config_.malicious_coverage * rng_.lognormal(0.0, 0.8);
    a.passes_per_week = rng_.uniform_real(1.0, 7.0);
    // Interest in the version command grows; sampled per actor.
    a.mode6_share = rng_.chance(0.2) ? rng_.uniform_real(0.1, 0.5) : 0.0;
    actors_.push_back(a);
  }
}

std::uint64_t ScanTraffic::darknet_packets_per_pass(
    const ScanActor& actor, const telemetry::DarknetTelescope& t) const {
  // A pass covering fraction c of IPv4 hits c * (dark /24s * 256) addresses.
  const double dark_addresses = t.effective_dark_slash24s() * 256.0;
  return static_cast<std::uint64_t>(dark_addresses * actor.ipv4_coverage);
}

void ScanTraffic::run_day(
    int day, telemetry::DarknetTelescope* darknet,
    const std::vector<telemetry::FlowCollector*>& vantages) const {
  study::CollectorSink sink;
  sink.darknet = darknet;
  sink.vantages = vantages;
  run_day(day, sink, darknet, vantages);
}

void ScanTraffic::run_day(
    int day, study::EventSink& sink,
    const telemetry::DarknetTelescope* darknet_geometry,
    const std::vector<telemetry::FlowCollector*>& vantage_geometry) const {
  // A pure (seed, day) substream: the day's scan traffic is independent of
  // every other day, so attack-day shards can simulate it on workers.
  util::Rng rng = util::Rng::substream(
      config_.seed, static_cast<std::uint64_t>(static_cast<std::uint32_t>(
                        day)));
  const util::SimTime day_start =
      static_cast<util::SimTime>(day) * util::kSecondsPerDay;
  for (const auto& actor : actors_) {
    if (day < actor.first_day || day > actor.last_day) continue;
    const double passes_today = actor.passes_per_week / 7.0;
    const bool scans_today =
        actor.benign ? rng.chance(passes_today)
                     : (rng.chance(config_.malicious_duty_cycle) &&
                        rng.chance(std::min(1.0, passes_today * 4)));
    if (!scans_today) continue;

    if (darknet_geometry != nullptr) {
      std::uint64_t pkts = darknet_packets_per_pass(actor, *darknet_geometry);
      if (impairment_.enabled()) {
        // Scan packets die in flight before the telescope like anywhere
        // else; key on the scanner so each actor thins reproducibly.
        pkts = impairment_.delivered_requests(actor.address.value(), day / 7,
                                              pkts);
      }
      if (pkts > 0) {
        sink.on_darknet_scan(actor.address, day, pkts, actor.benign);
      }
    }
    // Flows at regional vantages: malicious scanners sweep contiguous
    // slices, so a pass covering fraction c of IPv4 only intersects a
    // given regional prefix with probability ~c — which is why two distinct
    // sites almost never see the same malicious scanner (§7.2, Fig 16).
    // Research sweeps cover everything and are seen everywhere. The flow is
    // emitted *targeted* at this vantage's index: each vantage gets its own
    // destination draw, and broadcasting would let one vantage's slice leak
    // into another's space.
    for (std::size_t vi = 0; vi < vantage_geometry.size(); ++vi) {
      const auto* vantage = vantage_geometry[vi];
      if (!actor.benign &&
          !rng.chance(std::min(1.0, actor.ipv4_coverage * 0.5))) {
        continue;
      }
      if (vantage->prefixes().empty()) continue;
      telemetry::FlowRecord f;
      f.src = actor.address;
      // The flow represents the slice of this pass that landed inside this
      // vantage's space, so pick a destination there.
      const auto& prefix = vantage->prefixes()[rng.uniform(
          vantage->prefixes().size())];
      f.dst = prefix.at(rng.uniform(prefix.size()));
      f.src_port = static_cast<std::uint16_t>(rng.uniform_int(32768, 61000));
      f.dst_port = net::kNtpPort;
      f.ttl = kScanTtl;
      // Flow-exporter granularity: a sweep shows up as per-destination
      // flows of a packet or two. The representative flow carries the
      // per-destination view (what the §7.2 forensics keys on), not the
      // whole pass volume — scanning is a negligible share of NTP bytes at
      // a vantage either way.
      f.packets = actor.benign ? 2 : 1;
      if (impairment_.enabled()) {
        f.packets = impairment_.delivered_requests(
            actor.address.value() ^ f.dst.value(), day / 7, f.packets);
        if (f.packets == 0) continue;  // the whole slice died in flight
      }
      f.bytes = f.packets * kProbeWireBytes;
      f.payload_bytes = f.packets * ntp::kMode7RequestBytes;
      f.first = day_start + static_cast<util::SimTime>(
                                rng.uniform(util::kSecondsPerDay / 2));
      f.last = f.first + 3600;
      sink.on_flow(f, static_cast<int>(vi));
    }
  }
}

template <typename BeginServer, typename Emit>
void ScanTraffic::plan_seed_observations(int week, util::Rng& rng,
                                         BeginServer&& begin_server,
                                         Emit&& emit) {
  // Research scanners sweep everything weekly: every responding server's
  // monitor table gains (or refreshes) one probe entry per active scanner.
  // Malicious scanners cover random slices: approximated per server as a
  // Poisson number of distinct one-shot probes.
  const int day = 70 + week * 7;  // sample weeks anchor at 2014-01-10
  const util::SimTime when =
      static_cast<util::SimTime>(day) * util::kSecondsPerDay;
  const double malicious_rate_per_server = [&] {
    double r = 0.0;
    for (const auto& a : actors_) {
      if (a.benign || day < a.first_day || day > a.last_day) continue;
      r += a.ipv4_coverage * a.passes_per_week;
    }
    return r;
  }();
  // This week's active research scanners, in actor order, each with its
  // 1-based position in actors_ (the impairment salt): hoisted out of the
  // per-server loop, which otherwise rescans the whole malicious swarm.
  std::vector<std::pair<int, const ScanActor*>> research;
  for (std::size_t i = 0; i < actors_.size(); ++i) {
    const auto& a = actors_[i];
    if (!a.benign || day < a.first_day || day > a.last_day) continue;
    research.emplace_back(static_cast<int>(i) + 1, &a);
  }

  for (const auto ai : world_.amplifier_indices()) {
    begin_server();
    auto* server = world_.detailed(ai);
    if (server == nullptr) continue;
    for (const auto& [actor_index, actor] : research) {
      const ScanActor& a = *actor;
      const bool mode6 = rng.chance(a.mode6_share);
      // Fates are hash draws, not RNG stream draws: checking them cannot
      // shift the clean stream, and the burned draws below keep an enabled
      // run's stream aligned whether or not this probe got through.
      if (impairment_.enabled() &&
          impairment_.request_fate(ai, week, 0x200 + actor_index) !=
              ImpairmentLayer::Fate::kDelivered) {
        (void)rng.uniform_int(1024, 65535);
        (void)rng.uniform(3600);
        continue;  // this scanner's probe never reached the server
      }
      emit(server, a.address,
           static_cast<std::uint16_t>(rng.uniform_int(1024, 65535)),
           static_cast<std::uint8_t>(mode6 ? ntp::Mode::kControl
                                           : ntp::Mode::kPrivate),
           when - static_cast<util::SimTime>(rng.uniform(3600)));
    }
    const std::uint64_t hits = rng.poisson(malicious_rate_per_server);
    for (std::uint64_t h = 0; h < hits && h < 16; ++h) {
      const auto& a = actors_[rng.uniform(actors_.size())];
      if (a.benign) continue;
      const bool mode6 = rng.chance(a.mode6_share);
      if (impairment_.enabled() &&
          impairment_.request_fate(ai, week, 0x300 + static_cast<int>(h)) !=
              ImpairmentLayer::Fate::kDelivered) {
        (void)rng.uniform_int(1024, 65535);
        (void)rng.uniform(3 * util::kSecondsPerDay);
        continue;
      }
      emit(server, a.address,
           static_cast<std::uint16_t>(rng.uniform_int(1024, 65535)),
           static_cast<std::uint8_t>(mode6 ? ntp::Mode::kControl
                                           : ntp::Mode::kPrivate),
           when - static_cast<util::SimTime>(
                      rng.uniform(3 * util::kSecondsPerDay)));
    }
  }
}

void ScanTraffic::seed_monitor_tables(int week, ShardedExecutor* executor) {
  // A pure (seed, week) substream, tag-disjoint from the per-day streams:
  // the weekly seeding plan no longer depends on how many days ran first.
  util::Rng rng = util::Rng::substream(
      config_.seed, (std::uint64_t{1} << 32) +
                        static_cast<std::uint64_t>(
                            static_cast<std::uint32_t>(week)));
  if (executor == nullptr || executor->jobs() <= 1) {
    plan_seed_observations(
        week, rng, [] {},
        [](ntp::NtpServer* server, net::Ipv4Address address,
           std::uint16_t port, std::uint8_t mode, util::SimTime when) {
          server->monitor().observe(address, port, mode, ntp::kNtpVersion,
                                    when);
        });
    return;
  }

  // Plan/apply split: the RNG plan is drawn sequentially above (identical
  // draw order to the inline path); only the monitor-table writes fan out.
  // Each server's entries live in one contiguous slice and each chunk owns
  // whole servers, so no two workers ever touch the same monitor table and
  // the per-server observe order matches the sequential engine exactly.
  struct Planned {
    ntp::NtpServer* server = nullptr;
    net::Ipv4Address address;
    std::uint16_t port = 0;
    std::uint8_t mode = 0;
    util::SimTime when = 0;
  };
  std::vector<Planned> plan;
  plan.reserve(last_plan_size_);  // weekly plans change size slowly
  std::vector<std::size_t> offsets;
  offsets.reserve(world_.amplifier_indices().size() + 1);
  plan_seed_observations(
      week, rng, [&plan, &offsets] { offsets.push_back(plan.size()); },
      [&plan](ntp::NtpServer* server, net::Ipv4Address address,
              std::uint16_t port, std::uint8_t mode, util::SimTime when) {
        plan.push_back(Planned{server, address, port, mode, when});
      });
  offsets.push_back(plan.size());
  last_plan_size_ = plan.size();

  executor->parallel_for(
      offsets.size() - 1, /*chunk_size=*/256,
      [&plan, &offsets](std::size_t begin, std::size_t end) {
        for (std::size_t i = begin; i < end; ++i) {
          for (std::size_t j = offsets[i]; j < offsets[i + 1]; ++j) {
            const auto& p = plan[j];
            p.server->monitor().observe(p.address, p.port, p.mode,
                                        ntp::kNtpVersion, p.when);
          }
        }
      });
}

}  // namespace gorilla::sim
