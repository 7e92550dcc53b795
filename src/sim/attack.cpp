#include "sim/attack.h"

#include <algorithm>
#include <cmath>
#include <memory>

#include "net/ethernet.h"
#include "sim/scanner.h"
#include "sim/sharded_executor.h"
// Published downward interface (DESIGN.md §3f): attack traffic is reported
// in the telemetry vocabulary (flow records, labels, darknet geometry).
#include "telemetry/darknet.h"  // NOLINT(layer-break)
#include "telemetry/flow.h"     // NOLINT(layer-break)
#include "telemetry/traffic.h"  // NOLINT(layer-break)
#include "util/flat_map.h"

namespace gorilla::sim {

namespace {

/// One spoofed trigger: the plain 48-byte MON_GETLIST_1 request (the small
/// variant attack scripts use — it maximizes the payload amplification
/// ratios Table 5 reports, ~900-1300x for primed tables).
constexpr std::uint64_t kTriggerPayloadBytes = ntp::kMode7RequestBytes;
constexpr std::uint64_t kTriggerWireBytes =
    net::on_wire_bytes_for_udp(kTriggerPayloadBytes);

/// TTL of spoofed trigger packets as seen ~19 hops from the (typically
/// Windows botnet) sender — §7.2's mode TTL of 109.
constexpr std::uint8_t kAttackTtl = 109;

/// Day-local record ids: day in the high bits, per-day sequence below.
constexpr int kIdSequenceBits = 24;

double lerp(double a, double b, double t) noexcept {
  return a + (b - a) * std::clamp(t, 0.0, 1.0);
}

/// The spoofed triggers of `rec` that reach amplifier `amp_index` in
/// `week`: lost ones leave no monitor-table evidence and elicit no
/// response. Pure, so the logged monitor writes recompute what apply()
/// computed.
std::uint64_t triggers_reaching(const ImpairmentLayer& impairment,
                                const AttackRecord& rec,
                                std::uint32_t amp_index, int week) noexcept {
  return impairment.enabled()
             ? impairment.delivered_requests(amp_index, week,
                                             rec.triggers_per_amplifier)
             : rec.triggers_per_amplifier;
}

}  // namespace

/// Mutable worker-side state for one simulated day. Everything here is
/// owned by the shard: its RNG substream, its result, and the bookkeeping
/// that replaces live reads of shared mutable state (monitor sizes).
struct AttackEngine::DayShard {  // LINT-COMPACT
  util::Rng rng;
  DayShardResult result;
  /// Distinct (server, victim) keys observed this day, and per server the
  /// count of them — the shard-local overlay on the snapshot size. Flat
  /// tables: a peak day notes ~32K keys, and a node per key cost as much
  /// as the rest of the shard.
  util::FlatMap64 seen_keys;  ///< value unused
  util::FlatMap64 new_keys;   ///< server index -> distinct keys added

  explicit DayShard(util::Rng day_rng) : rng(day_rng) {}

  /// Records a victim key on a server; returns the estimated distinct-entry
  /// count (snapshot + this shard's additions, current key included).
  std::uint32_t note_key(std::uint32_t server_index, std::uint32_t victim_key,
                         std::uint32_t snapshot_size) {
    const std::uint64_t key =
        (static_cast<std::uint64_t>(server_index) << 32) | victim_key;
    std::uint32_t& added = new_keys.try_emplace(server_index).first;
    if (seen_keys.try_emplace(key).second) ++added;
    return snapshot_size + added;
  }
};

const std::vector<std::pair<std::uint16_t, double>>& attacked_port_mix() {
  // Table 4 of the paper; the sentinel port 0 stands for "random ephemeral"
  // and absorbs the probability mass beyond the top 20.
  static const std::vector<std::pair<std::uint16_t, double>> kMix = {
      {80, 0.362},   {123, 0.238},  {3074, 0.079}, {50557, 0.062},
      {53, 0.025},   {25565, 0.021}, {19, 0.012},  {22, 0.011},
      {5223, 0.007}, {27015, 0.006}, {43594, 0.004}, {9987, 0.004},
      {8080, 0.004}, {6005, 0.003}, {7777, 0.003}, {2052, 0.003},
      {1025, 0.002}, {1026, 0.002}, {88, 0.002},   {90, 0.002},
      {0, 0.148},
  };
  return kMix;
}

AttackEngine::AttackEngine(World& world, const AttackEngineConfig& config,
                           study::EventSink& sink)
    : world_(world),
      config_(config),
      sink_(&sink),
      impairment_(config.impairment),
      rng_(config.seed),
      booter_zipf_(1, 1.0),
      hosting_zipf_(1, 1.0),
      port_sampler_([] {
        std::vector<double> w;
        for (const auto& [_, frac] : attacked_port_mix()) w.push_back(frac);
        return util::WeightedSampler(w);
      }()) {
  for (const auto& [port, _] : attacked_port_mix()) {
    port_values_.push_back(port);
  }
  // Hosting AS list, OVH analogue first (it is the paper's top victim AS).
  const auto& registry = world_.registry();
  hosting_ases_.push_back(registry.named().ovh_analogue);
  hosting_ases_.push_back(registry.named().cloudflare_analogue);
  for (const auto& as_info : registry.ases()) {
    if (as_info.category == net::AsCategory::kHosting &&
        as_info.asn != registry.named().ovh_analogue &&
        as_info.asn != registry.named().cloudflare_analogue) {
      hosting_ases_.push_back(as_info.asn);
    }
  }
  hosting_zipf_ = util::ZipfSampler(hosting_ases_.size(),
                                    config_.hosting_concentration_zipf);

  // The booter market (§5.2): a Zipf-share population of attack services;
  // roughly half run booter-grade (priming) tooling.
  const std::uint32_t n_booters = std::max<std::uint32_t>(
      4, config_.num_booters / std::max<std::uint32_t>(1,
                                                       world_.config().scale));
  booters_.reserve(n_booters);
  for (std::uint32_t b = 0; b < n_booters; ++b) {
    BooterProfile profile;
    profile.id = b;
    profile.primes_amplifiers = rng_.chance(config_.primed_fraction);
    booters_.push_back(std::move(profile));
  }
  attacks_per_booter_.assign(n_booters, 0);
  booter_zipf_ = util::ZipfSampler(n_booters, config_.booter_market_zipf);

  // Sticky cross-site common-victim pool (Fig 15's 291 common targets,
  // scaled): mostly hosting-provider hosts.
  const std::uint64_t common_pool_size = std::max<std::uint64_t>(
      4, 300 / std::max<std::uint32_t>(1, world_.config().scale));
  for (std::uint64_t i = 0; i < common_pool_size; ++i) {
    const auto asn = hosting_ases_[hosting_zipf_.sample(rng_)];
    const auto& info = registry.as_info(asn);
    const auto& block = registry.blocks()[info.block_indices[rng_.uniform(
        info.block_indices.size())]];
    common_victims_.push_back(block.prefix.at(rng_.uniform(block.prefix.size())));
  }
}

double AttackEngine::ntp_attacks_per_day(int day) noexcept {
  // Calibrated to the paper's arc: near-zero before public attack tooling
  // spread in mid-December 2013, explosive growth into the Feb 11-12 peak
  // (the CloudFlare/OVH 400 Gbps window), then decline as remediation bites.
  auto exp_ramp = [](double from, double to, double t) {
    return from * std::pow(to / from, std::clamp(t, 0.0, 1.0));
  };
  if (day < 45) return 20.0;                       // Nov 1 - Dec 15: trickle
  if (day < 70) return exp_ramp(100.0, 4500.0, (day - 45) / 25.0);
  if (day < 103) return exp_ramp(4500.0, 20000.0, (day - 70) / 33.0);
  if (day < 133) return exp_ramp(20000.0, 7000.0, (day - 103) / 30.0);
  return lerp(7000.0, 4500.0, (day - 133) / 48.0);
}

int AttackEngine::week_of_day(int day) noexcept {
  // Day 70 is 2014-01-10, the first ONP sample date.
  const int delta = day - 70;
  return delta >= 0 ? delta / 7 : (delta - 6) / 7;
}

AttackEngine::DayWindowPlan AttackEngine::make_window_plan(int from,
                                                           int to) const {
  DayWindowPlan plan;
  plan.base_week = week_of_day(from);
  const int last_week = week_of_day(std::max(from, to - 1));
  plan.live_pools.resize(
      static_cast<std::size_t>(last_week - plan.base_week) + 1);
  for (int week = plan.base_week; week <= last_week; ++week) {
    auto& pool =
        plan.live_pools[static_cast<std::size_t>(week - plan.base_week)];
    for (const auto ai : world_.amplifier_indices()) {
      if (world_.servers()[ai].monlist_live(week)) pool.push_back(ai);
    }
  }
  // Snapshot each amplifier once per window, on the calling thread: shards
  // estimate non-primed dump sizes from snapshot + their own additions, so
  // the estimate depends only on (window start state, seed, day) — never
  // on what sibling shards are concurrently writing — and they read one
  // compact record per amplifier instead of its NtpServer.
  static_assert(sizeof(ServerSnapshot) == 16, "one snapshot per 16 bytes");
  plan.servers.assign(world_.servers().size(), ServerSnapshot{});
  const World& world = world_;
  for (const auto ai : world_.amplifier_indices()) {
    const auto* server = world.detailed(ai);
    if (server == nullptr) continue;
    const ntp::NtpServerConfig& config = server->config();
    ServerSnapshot& snap = plan.servers[ai];
    snap.address = config.address;
    snap.loop_repeat = config.loop_repeat;
    snap.mode7_responses_per_minute = config.mode7_responses_per_minute;
    snap.monitor_size = static_cast<std::uint16_t>(
        std::min(server->monitor().size(), ntp::kMonlistMaxEntries));
    snap.initial_ttl = config.initial_ttl;
    snap.detailed = true;
  }
  plan.wants_flows = sink_->wants_flows();
  plan.wants_labels = sink_->wants_labels();
  return plan;
}

std::uint32_t AttackEngine::pick_booter(util::Rng& rng) const {
  return static_cast<std::uint32_t>(booter_zipf_.sample(rng));
}

net::Ipv4Address AttackEngine::pick_victim(
    int day, util::Rng& rng, std::vector<net::Ipv4Address>& booter_targets,
    bool& end_host, bool& common_pool) const {
  const auto& registry = world_.registry();
  end_host = false;
  common_pool = false;

  const double u = rng.uniform01();
  if (u < config_.common_victim_rate && !common_victims_.empty()) {
    common_pool = true;
    return common_victims_[rng.uniform(common_victims_.size())];
  }
  if (u < config_.common_victim_rate + config_.merit_victim_rate) {
    const auto& space = registry.named().merit_space;
    return space.at(rng.uniform(space.size()));
  }
  if (u < config_.common_victim_rate + config_.merit_victim_rate +
              config_.frgp_victim_rate) {
    const auto& space = registry.named().frgp_space;
    return space.at(rng.uniform(space.size()));
  }
  if (u < config_.common_victim_rate + config_.merit_victim_rate +
              config_.frgp_victim_rate + config_.ovh_victim_rate) {
    // The OVH-analogue campaign: a few thousand IPs hit repeatedly. The
    // concentrated set is capped by the block size so a small-world block
    // can never be overrun.
    const auto& info = registry.as_info(registry.named().ovh_analogue);
    const auto& block = registry.blocks()[info.block_indices[rng.uniform(
        info.block_indices.size())]];
    return block.prefix.at(
        rng.uniform(std::min<std::uint64_t>(4096, block.prefix.size())));
  }
  if (rng.chance(config_.repeat_victim_rate) && !booter_targets.empty()) {
    return booter_targets[rng.uniform(booter_targets.size())];
  }

  const double end_host_p =
      lerp(config_.end_host_victim_initial, config_.end_host_victim_final,
           static_cast<double>(day) /
               static_cast<double>(config_.horizon_days));
  net::Ipv4Address victim;
  if (rng.chance(end_host_p)) {
    end_host = true;
    victim = registry
                 .random_address(rng,
                                 [](const net::RoutedBlock& b) {
                                   return b.residential;
                                 })
                 .value_or(registry.random_address(rng));
  } else {
    const auto asn = hosting_ases_[hosting_zipf_.sample(rng)];
    const auto& info = registry.as_info(asn);
    const auto& block = registry.blocks()[info.block_indices[rng.uniform(
        info.block_indices.size())]];
    victim = block.prefix.at(rng.uniform(block.prefix.size()));
  }
  // The fresh pick joins the booter's customer-target list (bounded; old
  // feuds get displaced).
  if (booter_targets.size() < 16) {
    booter_targets.push_back(victim);
  } else {
    booter_targets[rng.uniform(booter_targets.size())] = victim;
  }
  return victim;
}

std::uint16_t AttackEngine::pick_port(util::Rng& rng) const {
  const std::uint16_t port = port_values_[port_sampler_.sample(rng)];
  if (port != 0) return port;
  return static_cast<std::uint16_t>(rng.uniform_int(1024, 65535));
}

void AttackEngine::pick_amplifiers(int day, bool common_pool, bool primed,
                                   const std::vector<std::uint32_t>& live_pool,
                                   util::Rng& rng,
                                   std::vector<std::uint32_t>& out) const {
  out.clear();
  const int week = week_of_day(day);
  auto alive = [&](std::uint32_t idx) {
    return world_.servers()[idx].monlist_live(week);
  };
  auto sample_regional = [&](const std::vector<std::uint32_t>& pool,
                             std::size_t want) {
    std::size_t taken = 0;
    for (const auto idx : pool) {
      if (taken >= want) break;
      if (alive(idx) && rng.chance(0.85)) {
        out.push_back(idx);
        ++taken;
      }
    }
  };

  if (common_pool) {
    // Coordinated cross-site reflection: amplifiers at both Merit and FRGP
    // (what makes the Fig 15 victims visible from both vantage points).
    sample_regional(world_.merit_amplifiers(), 40);
    sample_regional(world_.frgp_amplifiers(), 40);
  } else if (rng.chance(config_.regional_reflection_rate)) {
    if (rng.chance(0.5)) {
      sample_regional(world_.merit_amplifiers(), 40);
    } else {
      // The CSU amplifiers were always used together (§7.1).
      sample_regional(world_.csu_amplifiers(), 9);
      sample_regional(world_.frgp_amplifiers(), 20);
    }
  }
  if (!out.empty()) return;

  if (live_pool.empty()) return;
  // Amplifiers per attack shrinks with the pool (§6.3: amplifiers seen per
  // victim fell an order of magnitude).
  const double pool_fraction =
      static_cast<double>(live_pool.size()) /
      static_cast<double>(std::max<std::size_t>(1,
                                                world_.amplifier_indices()
                                                    .size()));
  const double base_k = (4.0 + 56.0 * pool_fraction) *
                        (primed ? config_.primed_amplifier_boost : 1.0);
  const std::size_t k = std::clamp<std::size_t>(
      static_cast<std::size_t>(base_k * rng.lognormal(0.0, 0.6)), 1,
      std::min<std::size_t>(live_pool.size(), 4000));
  for (std::size_t i = 0; i < k; ++i) {
    out.push_back(live_pool[rng.uniform(live_pool.size())]);
  }
}

void AttackEngine::apply(AttackRecord& rec, int day, const DayWindowPlan& plan,
                         DayShard& shard, double min_duration_s) const {
  util::Rng& rng = shard.rng;
  study::EventBuffer& events = shard.result.events;
  // Duration: heavy-tailed lognormal whose median grows (15s -> 40s) while
  // the tail shrinks (95th 6.5h in January -> ~50min by April), §4.3.4.
  const double t = std::clamp((day - 45) / 80.0, 0.0, 1.0);
  const double median = lerp(15.0, 40.0, t);
  const double sigma = lerp(3.6, 2.45, t);
  const double duration = std::max(
      min_duration_s,
      std::clamp(rng.lognormal(std::log(median), sigma), 1.0, 6.5 * 3600.0));

  // Diurnal start: evening-weighted hour (the §7.1 manual-element pattern).
  double hour;
  do {
    hour = rng.uniform_real(0.0, 24.0);
  } while (rng.uniform01() >
           0.5 + 0.45 * std::sin((hour - 14.0) / 24.0 * 6.2831853));
  rec.start = static_cast<util::SimTime>(day) * util::kSecondsPerDay +
              static_cast<util::SimTime>(hour * 3600.0);
  rec.end = rec.start + static_cast<util::SimTime>(duration);

  double pps =
      rec.primed
          ? std::min(config_.trigger_pps_cap,
                     rng.pareto(config_.primed_pps_scale,
                                config_.primed_pps_alpha))
          : std::min(config_.trigger_pps_cap,
                     rng.pareto(config_.trigger_pps_scale,
                                config_.trigger_pps_alpha));
  // Long campaigns run at lower sustained rates (booters time-slice their
  // capacity); this keeps multi-hour attacks from dwarfing the daily total.
  // min_duration_s == 0.0 is the config's literal "no floor" sentinel.
  if (duration > 1200.0 && min_duration_s == 0.0) {  // NOLINT(float-eq)
    pps *= std::sqrt(1200.0 / duration);
  }
  rec.triggers_per_amplifier =
      std::max<std::uint64_t>(1, static_cast<std::uint64_t>(pps * duration));

  // Pass 1: per-amplifier offered volume (bounded by each amplifier's
  // uplink). The monitor-table evidence of the delivered triggers (they
  // arrive regardless of what the victim can absorb) is not written here:
  // consume_day() logs it with the World, rebuilt from the record.
  struct AmpEmission {
    const ServerSnapshot* amp = nullptr;
    std::uint64_t bytes = 0;
    std::uint64_t packets = 0;
    std::uint64_t payload = 0;
    std::uint64_t delivered_triggers = 0;
    double rate_bps = 0.0;
  };
  std::vector<AmpEmission> emissions;
  emissions.reserve(rec.amplifiers.size());
  const int week = week_of_day(day);
  const double response_delivery = impairment_.response_delivery_fraction();
  double peak_bps = 0.0;
  std::uint64_t total_delivered_triggers = 0;
  for (const auto amp_index : rec.amplifiers) {
    const std::uint64_t delivered_triggers =
        triggers_reaching(impairment_, rec, amp_index, week);
    total_delivered_triggers += delivered_triggers;
    if (delivered_triggers == 0) continue;
    const ServerSnapshot& amp = plan.servers[amp_index];
    if (!amp.detailed) continue;

    // Non-primed dumps return however many entries the table holds; the
    // shard estimates that as the window-start snapshot plus the distinct
    // victims it has itself added to this server today.
    const std::uint32_t estimated_size =
        shard.note_key(amp_index, rec.victim.value(), amp.monitor_size);
    const std::size_t entries =
        rec.primed ? ntp::kMonlistMaxEntries
                   : std::min<std::size_t>(ntp::kMonlistMaxEntries,
                                           std::max<std::uint32_t>(
                                               1, estimated_size));
    // A looping mega amplifier cannot emit faster than its uplink; cap its
    // sustained contribution at ~500 Mbps (the paper saw ~50-500 Mbps
    // steady streams from megas, §3.4).
    const std::uint64_t dump_wire = ntp::monlist_dump_wire_bytes(entries);
    const std::uint64_t dump_packets = ntp::monlist_dump_packets(entries);
    std::uint64_t loop = std::uint64_t{amp.loop_repeat} + 1;
    if (loop > 1) {
      const double duration_s =
          static_cast<double>(std::max<util::SimTime>(1, rec.end - rec.start));
      const double budget_bytes = 500e6 / 8.0 * duration_s;
      const double per_loop_bytes =
          static_cast<double>(dump_wire) *
          static_cast<double>(delivered_triggers);
      loop = std::max<std::uint64_t>(
          1, std::min<std::uint64_t>(
                 loop, static_cast<std::uint64_t>(
                           budget_bytes / std::max(1.0, per_loop_bytes))));
    }
    const std::uint64_t per_trigger_wire = dump_wire * loop;
    const std::uint64_t per_trigger_packets = dump_packets * loop;
    const std::uint64_t per_trigger_payload =
        ntp::monlist_dump_udp_bytes(entries) * loop;

    // A mode 7 rate limit (Merit's interim mitigation) answers only a
    // fraction of the trigger stream.
    const std::uint32_t rate_limit = amp.mode7_responses_per_minute;
    const double answered_fraction =
        rate_limit > 0 && pps > 0.0
            ? std::min(1.0, (static_cast<double>(rate_limit) / 60.0) / pps)
            : 1.0;

    // The amplifier's uplink saturates: responses beyond it are dropped at
    // its access link and never reach the victim.
    const double duration_s =
        static_cast<double>(std::max<util::SimTime>(1, rec.end - rec.start));
    const double uplink_budget_bytes =
        config_.amplifier_uplink_bps / 8.0 * duration_s;
    const double offered_bytes =
        static_cast<double>(per_trigger_wire) *
        static_cast<double>(delivered_triggers);
    const double answered_bytes = offered_bytes * answered_fraction;
    const double uplink_fraction =
        answered_bytes > uplink_budget_bytes && answered_bytes > 0.0
            ? uplink_budget_bytes / answered_bytes
            : 1.0;
    const double emit_fraction = answered_fraction * uplink_fraction;

    // Response packets cross the lossy network back to the victim; a 1.0
    // delivery fraction multiplies exactly, so the clean path is unchanged.
    AmpEmission emission;
    emission.amp = &amp;
    emission.delivered_triggers = delivered_triggers;
    emission.bytes = static_cast<std::uint64_t>(offered_bytes * emit_fraction *
                                                response_delivery);
    emission.packets = static_cast<std::uint64_t>(
        static_cast<double>(per_trigger_packets) *
        static_cast<double>(delivered_triggers) * emit_fraction *
        response_delivery);
    emission.payload = static_cast<std::uint64_t>(
        static_cast<double>(per_trigger_payload) *
        static_cast<double>(delivered_triggers) * emit_fraction *
        response_delivery);
    emission.rate_bps =
        std::min(static_cast<double>(per_trigger_wire) * pps *
                     answered_fraction * 8.0,
                 config_.amplifier_uplink_bps) *
        response_delivery;
    peak_bps += emission.rate_bps;
    emissions.push_back(emission);
  }

  // Victim-side saturation: the target's upstream cannot absorb more than
  // ~450 Gbps (the record NTP attacks peaked near 400 Gbps); traffic beyond
  // that is dropped before the victim and never appears in flow data.
  const double victim_scale =
      peak_bps > config_.victim_saturation_bps && peak_bps > 0.0
          ? config_.victim_saturation_bps / peak_bps
          : 1.0;
  rec.peak_bps = std::min(peak_bps, config_.victim_saturation_bps);

  // Pass 2: totals and vantage flows, scaled by victim saturation.
  for (const auto& emission : emissions) {
    const auto amp_bytes = static_cast<std::uint64_t>(
        static_cast<double>(emission.bytes) * victim_scale);
    const auto amp_packets = static_cast<std::uint64_t>(
        static_cast<double>(emission.packets) * victim_scale);
    const auto amp_payload = static_cast<std::uint64_t>(
        static_cast<double>(emission.payload) * victim_scale);
    rec.response_bytes += amp_bytes;
    rec.response_packets += amp_packets;

    // Flows at any vantage that can see them (collectors drop transit).
    if (events.wants_flows()) {
      const auto amp_addr = emission.amp->address;
      telemetry::FlowRecord response;
      response.src = amp_addr;
      response.dst = rec.victim;
      response.src_port = net::kNtpPort;
      response.dst_port = rec.victim_port;
      response.ttl = static_cast<std::uint8_t>(
          emission.amp->initial_ttl > 12 ? emission.amp->initial_ttl - 12
                                         : 1);
      response.packets = amp_packets;
      response.bytes = amp_bytes;
      response.payload_bytes = amp_payload;
      response.first = rec.start;
      response.last = rec.end;

      telemetry::FlowRecord trigger;
      trigger.src = rec.victim;  // spoofed
      trigger.dst = amp_addr;
      trigger.src_port = rec.victim_port;
      trigger.dst_port = net::kNtpPort;
      trigger.ttl = kAttackTtl;
      trigger.packets = emission.delivered_triggers;
      trigger.bytes = kTriggerWireBytes * emission.delivered_triggers;
      trigger.payload_bytes =
          kTriggerPayloadBytes * emission.delivered_triggers;
      trigger.first = rec.start;
      trigger.last = rec.end;

      events.on_flow(response, study::kAllVantages);
      events.on_flow(trigger, study::kAllVantages);
    }
  }

  {
    const double trigger_bytes =
        static_cast<double>(kTriggerWireBytes) *
        static_cast<double>(total_delivered_triggers);
    events.on_global_bytes(day, telemetry::ProtocolClass::kNtp,
                           static_cast<double>(rec.response_bytes) +
                               trigger_bytes);
  }
  if (events.wants_labels() && rec.peak_bps > 0.0) {
    // Arbor-analogue visibility: the vendor feed catches a size-dependent
    // fraction of attack events (small ones are easy to miss, §2.2).
    double visibility = config_.arbor_visibility_small;
    switch (telemetry::classify_size(rec.peak_bps)) {
      case telemetry::SizeClass::kMedium:
        visibility = config_.arbor_visibility_medium;
        break;
      case telemetry::SizeClass::kLarge:
        visibility = config_.arbor_visibility_large;
        break;
      case telemetry::SizeClass::kSmall:
        break;
    }
    if (rng.chance(visibility)) {
      events.on_attack_label(telemetry::LabeledAttack{
          rec.start, telemetry::AttackVector::kNtp, rec.peak_bps});
    }
  }
}

void AttackEngine::emit_background_labels(int day, DayShard& shard) const {
  // Skipping an unwatched label stream also skips its RNG draws — exactly
  // the pre-bus null-pointer behavior, so RNG streams stay aligned.
  if (!shard.result.events.wants_labels()) return;
  util::Rng& rng = shard.rng;
  const std::uint64_t scale = std::max<std::uint32_t>(1, world_.config().scale);
  const std::uint64_t n =
      rng.poisson(config_.background_attacks_per_day /
                  static_cast<double>(scale));
  static constexpr telemetry::AttackVector kVectors[] = {
      telemetry::AttackVector::kDns, telemetry::AttackVector::kSynFlood,
      telemetry::AttackVector::kIcmp, telemetry::AttackVector::kChargen,
      telemetry::AttackVector::kOther};
  static constexpr double kVectorW[] = {0.22, 0.40, 0.13, 0.05, 0.20};
  static const util::WeightedSampler sampler{std::span<const double>(kVectorW)};
  for (std::uint64_t i = 0; i < n; ++i) {
    telemetry::LabeledAttack a;
    a.start = static_cast<util::SimTime>(day) * util::kSecondsPerDay +
              static_cast<util::SimTime>(rng.uniform(util::kSecondsPerDay));
    a.vector = kVectors[sampler.sample(rng)];
    // 90% small / 10% medium / 1% large (§2.2), heavy tail inside each bin.
    const double u = rng.uniform01();
    if (u < 0.89) {
      a.peak_bps = rng.pareto(20e6, 1.2);
      a.peak_bps = std::min(a.peak_bps, 1.9e9);
    } else if (u < 0.99) {
      a.peak_bps = rng.uniform_real(2e9, 20e9);
    } else {
      a.peak_bps = rng.pareto(20e9, 2.0);
      a.peak_bps = std::min(a.peak_bps, 120e9);
    }
    shard.result.events.on_attack_label(a);
  }
}

AttackEngine::DayShardResult AttackEngine::simulate_day(
    int day, const DayWindowPlan& plan) const {
  // The day's RNG is a pure substream of (engine seed, day): days are
  // independent of each other and of how they are batched into windows.
  DayShard shard(util::Rng::substream(config_.seed,
                                      static_cast<std::uint64_t>(
                                          static_cast<std::uint32_t>(day))));
  shard.result.day = day;
  shard.result.events = study::EventBuffer(plan.wants_flows,
                                           plan.wants_labels);
  // Each booter's customer targets picked earlier this day (gamer feuds are
  // sticky). Day-scoped, so each day stays a pure function of (seed, day).
  std::vector<std::vector<net::Ipv4Address>> booter_targets(booters_.size());
  const auto& live_pool = plan.live_pools[static_cast<std::size_t>(
      week_of_day(day) - plan.base_week)];
  util::Rng& rng = shard.rng;

  emit_background_labels(day, shard);

  std::uint64_t seq = 0;
  auto next_record_id = [day, &seq] {
    return (static_cast<std::uint64_t>(static_cast<std::uint32_t>(day))
            << kIdSequenceBits) |
           seq++;
  };

  if (config_.scripted_ovh_event && day >= 101 && day <= 103) {
    // §4.4: the record ~400 Gbps reflection attack on the OVH analogue,
    // February 10-12. Thousands of amplifiers — including, notably, the
    // FRGP ones (§7) — pointed at a small set of hosting IPs for hours.
    AttackRecord rec;
    rec.id = next_record_id();
    const auto& registry = world_.registry();
    const auto& info = registry.as_info(registry.named().ovh_analogue);
    const auto& block = registry.blocks()[info.block_indices[0]];
    rec.victim = block.prefix.at(1 + rng.uniform(64));
    rec.victim_port = 80;
    rec.primed = true;
    // Event magnitude scales with the world so its share of scaled global
    // traffic matches the real event's share of real traffic.
    const std::size_t want = std::min<std::size_t>(
        live_pool.size(),
        std::max<std::size_t>(8, 1200 / std::max<std::uint32_t>(
                                            1, world_.config().scale)));
    for (std::size_t i = 0; i < want; ++i) {
      rec.amplifiers.push_back(live_pool[rng.uniform(live_pool.size())]);
    }
    for (const auto idx : world_.frgp_amplifiers()) {
      if (world_.servers()[idx].monlist_live(week_of_day(day))) {
        rec.amplifiers.push_back(idx);
      }
    }
    if (!rec.amplifiers.empty()) {
      // Stretch the scripted event into a long-running campaign block.
      apply(rec, day, plan, shard, /*min_duration_s=*/8 * 3600.0);
      shard.result.records.push_back(std::move(rec));
      shard.result.scripted_count = shard.result.records.size();
    }
  }

  const std::uint64_t scale = std::max<std::uint32_t>(1, world_.config().scale);
  const std::uint64_t n = rng.poisson(ntp_attacks_per_day(day) /
                                      static_cast<double>(scale));
  shard.result.records.reserve(shard.result.records.size() + n);
  for (std::uint64_t i = 0; i < n; ++i) {
    AttackRecord rec;
    rec.id = next_record_id();
    rec.booter_id = pick_booter(rng);
    bool end_host = false, common_pool = false;
    rec.victim = pick_victim(day, rng, booter_targets[rec.booter_id],
                             end_host, common_pool);
    rec.victim_end_host = end_host;
    rec.victim_port = pick_port(rng);
    // Priming requires booter-grade tooling, which only spreads with the
    // mid-December attack-script releases; before that everything is
    // ad-hoc.
    rec.primed = booters_[rec.booter_id].primes_amplifiers &&
                 rng.chance(std::clamp((day - 45) / 25.0, 0.0, 1.0));
    pick_amplifiers(day, common_pool, rec.primed, live_pool, rng,
                    rec.amplifiers);
    if (rec.amplifiers.empty()) continue;
    apply(rec, day, plan, shard);
    shard.result.records.push_back(std::move(rec));
  }

  return std::move(shard.result);
}

void AttackEngine::consume_day(DayShardResult& result) {
  for (std::size_t i = 0; i < result.records.size(); ++i) {
    const auto& rec = result.records[i];
    ++totals_.ntp_attacks;
    totals_.response_packets += rec.response_packets;
    totals_.response_bytes += rec.response_bytes;
    if (i < result.scripted_count) {
      scripted_events_.push_back(rec);
    } else {
      ++attacks_per_booter_[rec.booter_id];
    }
  }
  // The day's monitor writes are derived from its records, and the World
  // holds them as one pending job until a reader settles it on the apply
  // lanes (DESIGN.md §3d rule 4). Each lane walks every record in order,
  // and each record's amplifiers in order, and writes only the servers on
  // that lane: a server always maps to the same lane and days are logged
  // in ascending order, so each table sees the sequential engine's
  // chronological order. The job owns everything it reads (records, week,
  // impairment), never this engine: a reader may come after it is gone.
  if (!result.records.empty()) {
    auto records = std::make_shared<const std::vector<AttackRecord>>(
        std::move(result.records));
    world_.log_monitor_write([records, week = week_of_day(result.day),
                              impairment = impairment_,
                              world = &world_](std::size_t lane) {
      for (const auto& rec : *records) {
        for (const auto amp_index : rec.amplifiers) {
          if (amp_index % ShardedExecutor::kLanes != lane) continue;
          const std::uint64_t delivered =
              triggers_reaching(impairment, rec, amp_index, week);
          if (delivered == 0) continue;
          if (auto* server = world->detailed(amp_index)) {
            server->monitor().observe_many(
                rec.victim, rec.victim_port,
                static_cast<std::uint8_t>(ntp::Mode::kPrivate),
                ntp::kNtpVersion, delivered, rec.start, rec.end);
          }
        }
      }
    });
  }
  result.events.replay_into(*sink_);
}

std::vector<AttackRecord> AttackEngine::run_day(int day) {
  world_.settle_monitors();
  const DayWindowPlan plan = make_window_plan(day, day + 1);
  DayShardResult result = simulate_day(day, plan);
  std::vector<AttackRecord> records = result.records;
  consume_day(result);
  return records;
}

void AttackEngine::run_days(int from, int to, ShardedExecutor* executor,
                            ScanTraffic* scans,
                            const telemetry::DarknetTelescope* darknet_geometry,
                            const std::vector<telemetry::FlowCollector*>*
                                vantage_geometry) {
  if (to <= from) return;
  // The window's plan snapshots monitor sizes, so earlier windows' writes
  // land first, on this executor's lanes.
  world_.settle_monitors(executor);
  const DayWindowPlan plan = make_window_plan(from, to);
  static const std::vector<telemetry::FlowCollector*> kNoVantages;
  const auto& vantages =
      vantage_geometry != nullptr ? *vantage_geometry : kNoVantages;
  // A null executor runs the same produce/consume pair inline (the K=1
  // path IS the sequential engine — DESIGN.md §3d).
  ShardedExecutor inline_executor(nullptr);
  ShardedExecutor& exec = executor != nullptr ? *executor : inline_executor;
  exec.run_ordered(
      static_cast<std::size_t>(to - from), /*chunk_size=*/1,
      [this, from, &plan, scans, darknet_geometry,
       &vantages](std::size_t begin, std::size_t /*end*/) {
        const int day = from + static_cast<int>(begin);
        DayShardResult result = simulate_day(day, plan);
        if (scans != nullptr) {
          // The day's scan traffic joins the shard, ordered after the
          // attack events — the sequential engines' per-day interleave.
          scans->run_day(day, result.events, darknet_geometry, vantages);
        }
        return result;
      },
      [this](DayShardResult result) { consume_day(result); });
}

}  // namespace gorilla::sim
