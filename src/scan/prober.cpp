#include "scan/prober.h"

#include <cstdlib>
#include <optional>
#include <string>
#include <string_view>

#include "net/packet.h"
#include "ntp/mode6.h"
#include "ntp/sysinfo.h"
// Published downward interface (DESIGN.md §3f): probe observations are
// emitted into the study event vocabulary.
#include "study/events.h"  // NOLINT(layer-break)

namespace gorilla::scan {

namespace {

constexpr std::uint16_t kProbeSourcePort = 57915;  // the port in Table 3a

/// Parses an integer variable value without throwing — garbled replies can
/// turn "stratum=3" into arbitrary bytes, which std::stoi would reject hard.
/// Failure is signaled through the caller-chosen fallback, so the function
/// is total by design rather than optional-returning.
int parse_int_or(std::string_view value, int fallback) {  // NOLINT(parse-optional)
  if (value.empty()) return fallback;
  const std::string text(value);  // strtol wants a terminated string
  char* end = nullptr;
  const long v = std::strtol(text.c_str(), &end, 10);
  if (end == text.c_str()) return fallback;
  if (v < -0x7fffffffL || v > 0x7fffffffL) return fallback;
  return static_cast<int>(v);
}

}  // namespace

Prober::Prober(sim::World& world, net::Ipv4Address source,
               ntp::Implementation probe_impl,
               const sim::ImpairmentConfig& impairment,
               const ProbePolicy& policy)
    : world_(world),
      source_(source),
      probe_impl_(probe_impl),
      impairment_(impairment),
      policy_(policy) {}

void Prober::roll_window(int week) {
  if (week == window_week_) return;
  window_week_ = week;
  responses_used_.clear();
}

bool Prober::consume_rate_budget(std::uint32_t server_index) {
  if (!impairment_.enabled() ||
      impairment_.config().rate_limit_per_window == 0) {
    return false;
  }
  if (!impairment_.is_rate_limiter(server_index)) return false;
  auto& used = responses_used_[server_index];
  if (impairment_.rate_limited(server_index, used)) return true;
  ++used;
  return false;
}

util::SimTime Prober::sample_time(int week) noexcept {
  // Probes land at noon UTC on the week's sample day.
  return static_cast<util::SimTime>(util::onp_sample_day(week)) *
             util::kSecondsPerDay +
         12 * util::kSecondsPerHour;
}

void Prober::apply_due_remediation(int week) {
  if (week <= remediation_applied_week_) return;
  for (const auto ai : world_.amplifier_indices()) {
    const auto& t = world_.servers()[ai];
    if (t.monlist_fix_week >= 0 && t.monlist_fix_week <= week) {
      if (auto* server = world_.detailed(ai)) {
        server->set_monlist_enabled(false);
      }
    }
    if (t.version_fix_week >= 0 && t.version_fix_week <= week) {
      if (auto* server = world_.detailed(ai)) {
        server->set_mode6_enabled(false);
      }
    }
  }
  remediation_applied_week_ = week;
}

MonlistSampleSummary Prober::run_monlist_sample(int week,
                                                const MonlistVisitor& visit) {
  return probe_indices(world_.amplifier_indices(), week, sample_time(week),
                       visit);
}

MonlistSampleSummary Prober::run_monlist_sample(int week,
                                                study::EventSink& sink) {
  sink.on_sample_begin(week, util::date_from_sim_time(sample_time(week)));
  const auto summary = probe_indices(
      world_.amplifier_indices(), week, sample_time(week),
      [week, &sink](const AmplifierObservation& obs) {
        sink.on_probe_observation(week, obs);
      });
  sink.on_monlist_summary(summary);
  sink.on_sample_end(week);
  return summary;
}

MonlistSampleSummary Prober::probe_targets(
    const std::vector<std::uint32_t>& server_indices, int week,
    util::SimTime now, const MonlistVisitor& visit) {
  return probe_indices(server_indices, week, now, visit);
}

net::UdpPacket Prober::make_probe(std::vector<std::uint8_t> request_wire) const {
  net::UdpPacket probe;
  probe.src = source_;
  probe.src_port = kProbeSourcePort;
  probe.dst_port = net::kNtpPort;
  probe.payload = std::move(request_wire);
  return probe;
}

bool Prober::probe_one(std::uint32_t server_index, int week, util::SimTime now,
                       net::UdpPacket& probe, int max_attempts,
                       MonlistSampleSummary& summary,
                       AmplifierObservation& obs) {
  const auto ai = server_index;
  ++summary.probes_sent;
  // Offline / churned-away targets never see the probe.
  if (!world_.servers()[ai].ever_amplifier) return false;
  if (!world_.reachable(ai, week)) return false;

  auto* server = world_.detailed(ai);
  if (server == nullptr) return false;

  // Apply any ntpd restart since the last sample: the monitor table only
  // remembers clients since the restart (§4.2's observation window).
  server->monitor().expire_before(world_.last_restart_before(ai, week, now));

  probe.dst = world_.address_at(ai, week);

  bool observed = false;
  bool was_rate_limited = false;
  bool impairment_blocked = false;
  for (int attempt = 0; attempt < max_attempts; ++attempt) {
    if (attempt > 0) ++summary.retries;
    const util::SimTime when = now + policy_.attempt_offset(attempt);
    probe.timestamp = when;

    const auto fate = impairment_.request_fate(ai, week, attempt);
    if (fate == sim::ImpairmentLayer::Fate::kRequestLost ||
        fate == sim::ImpairmentLayer::Fate::kUnreachable) {
      impairment_blocked = true;  // server never saw it — retry
      continue;
    }

    auto response = server->handle(probe, when);
    if (response.total_packets == 0) {
      impairment_blocked = false;
      break;  // genuine restriction: deterministic, retrying is pointless
    }
    if (fate == sim::ImpairmentLayer::Fate::kSilent) {
      impairment_blocked = true;  // whole reply lost on the return path
      continue;
    }
    if (consume_rate_budget(ai)) {
      was_rate_limited = true;
      impairment_blocked = false;
      // A KoD tells a well-behaved client to stop; silence invites
      // retries that the limiter will keep eating.
      if (impairment_.config().rate_limit_kod) break;
      continue;
    }

    sim::ImpairmentLayer::Damage damage;
    std::uint64_t delivered_packets = response.total_packets;
    std::uint64_t delivered_udp = response.total_udp_payload_bytes;
    std::uint64_t delivered_wire = response.total_on_wire_bytes;
    if (impairment_.enabled()) {
      // The materialized prefix is damaged exactly; the unmaterialized
      // remainder of a mega reply is thinned in aggregate so totals stay
      // deterministic without ever existing in memory. The prefix's
      // pristine size is taken before damage mutates it in place.
      std::uint64_t mat_udp = 0, mat_wire = 0;
      for (const auto& pkt : response.packets) {
        mat_udp += pkt.payload.size();
        mat_wire += pkt.on_wire_bytes();
      }
      const std::uint64_t mat = response.packets.size();
      damage = impairment_.degrade_response(ai, week, attempt,
                                            response.packets);
      const std::uint64_t rem = response.total_packets - mat;
      const std::uint64_t rem_kept =
          impairment_.delivered_responses(ai, week, rem);
      const double rem_frac =
          rem > 0 ? static_cast<double>(rem_kept) /
                        static_cast<double>(rem)
                  : 0.0;
      delivered_packets =
          (mat - damage.packets_dropped) + rem_kept;
      delivered_udp = (mat_udp - damage.udp_bytes_lost) +
                      static_cast<std::uint64_t>(
                          static_cast<double>(
                              response.total_udp_payload_bytes - mat_udp) *
                          rem_frac);
      delivered_wire = (mat_wire - damage.wire_bytes_lost) +
                       static_cast<std::uint64_t>(
                           static_cast<double>(
                               response.total_on_wire_bytes - mat_wire) *
                           rem_frac);
      if (delivered_packets == 0) {
        impairment_blocked = true;  // everything died in transit — retry
        continue;
      }
    }

    // Reassemble the final table run from the surviving packets.
    std::vector<ntp::Mode7Packet> parsed;
    parsed.reserve(response.packets.size());
    for (const auto& pkt : response.packets) {
      if (auto p = ntp::parse_mode7_packet(pkt.payload)) {
        parsed.push_back(std::move(*p));
      }
    }
    auto table = ntp::reassemble_monlist(parsed);
    if (!table || (parsed.size() == 1 &&
                   parsed.front().error != ntp::Mode7Error::kOk)) {
      if (damage.degraded() && parsed.empty()) {
        impairment_blocked = true;  // damage ate the reply — retry
        continue;
      }
      impairment_blocked = false;
      ++summary.error_replies;
      break;  // impl mismatch or refusal: not an amplifier observation
    }

    obs.server_index = ai;
    obs.address = probe.dst;
    obs.response_packets = delivered_packets;
    obs.response_udp_bytes = delivered_udp;
    obs.response_wire_bytes = delivered_wire;
    obs.table = std::move(*table);
    obs.probe_time = when;
    obs.table_partial =
        damage.packets_dropped + damage.packets_truncated > 0;
    obs.attempts = attempt + 1;
    if (obs.table_partial) ++summary.truncated_tables;
    ++summary.responders;
    impairment_blocked = false;
    observed = true;
    break;
  }
  if (was_rate_limited) ++summary.rate_limited;
  if (impairment_blocked) ++summary.probes_lost;
  return observed;
}

MonlistSampleSummary Prober::probe_indices(
    const std::vector<std::uint32_t>& server_indices, int week,
    util::SimTime now, const MonlistVisitor& visit) {
  apply_due_remediation(week);
  roll_window(week);
  MonlistSampleSummary summary;
  summary.week = week;
  summary.date = util::date_from_sim_time(now);

  // One datagram per pass: each target only restamps its destination and
  // send time.
  net::UdpPacket probe = make_probe(ntp::serialize(ntp::make_monlist_request(
      probe_impl_, /*authenticated=*/false)));

  // In a clean network every target gets exactly one packet (the original
  // ONP methodology); retries exist only to ride out impairment.
  const int max_attempts =
      impairment_.enabled() ? policy_.max_retries + 1 : 1;

  // The rate-limit window is the one piece of shared mutable state in a
  // pass (responses_used_); those passes stay on the sequential loop.
  const bool shared_window =
      impairment_.enabled() && impairment_.config().rate_limit_per_window != 0;
  if (executor_ != nullptr && executor_->jobs() > 1 && !shared_window) {
    // Chunks are a fixed size regardless of job count, each target touches
    // only its own server, and chunk results are consumed on this thread in
    // ascending order — so visit order, summary, and every server's monitor
    // table come out bit-identical to the sequential loop.
    struct ChunkResult {
      MonlistSampleSummary partial;
      std::vector<AmplifierObservation> observations;
    };
    constexpr std::size_t kProbeChunk = 512;
    executor_->run_ordered(
        server_indices.size(), kProbeChunk,
        [this, &server_indices, week, now, &probe, max_attempts](
            std::size_t begin, std::size_t end) {
          ChunkResult r;
          AmplifierObservation obs;
          net::UdpPacket chunk_probe = probe;  // one copy per chunk
          for (std::size_t i = begin; i < end; ++i) {
            if (probe_one(server_indices[i], week, now, chunk_probe,
                          max_attempts, r.partial, obs)) {
              r.observations.push_back(std::move(obs));
            }
          }
          return r;
        },
        [&summary, &visit](ChunkResult r) {
          summary.probes_sent += r.partial.probes_sent;
          summary.responders += r.partial.responders;
          summary.error_replies += r.partial.error_replies;
          summary.probes_lost += r.partial.probes_lost;
          summary.retries += r.partial.retries;
          summary.truncated_tables += r.partial.truncated_tables;
          summary.rate_limited += r.partial.rate_limited;
          for (const auto& obs : r.observations) visit(obs);
        });
    return summary;
  }

  AmplifierObservation obs;  // reused across visits
  for (const auto ai : server_indices) {
    if (probe_one(ai, week, now, probe, max_attempts, summary, obs)) {
      visit(obs);
    }
  }
  return summary;
}

VersionSampleSummary Prober::run_version_sample(int vweek,
                                                const VersionVisitor& visit) {
  const int week = vweek + 6;  // version passes began 2014-02-21
  apply_due_remediation(week);
  roll_window(week);
  VersionSampleSummary summary;
  summary.week = vweek;
  summary.date = util::date_from_sim_time(sample_time(week));
  const util::SimTime now = sample_time(week);

  net::UdpPacket probe =
      make_probe(ntp::serialize(ntp::make_version_request(/*sequence=*/1)));

  const int max_attempts =
      impairment_.enabled() ? policy_.max_retries + 1 : 1;

  VersionObservation obs;
  std::vector<ntp::ControlPacket> fragments;  // reused across responders
  const auto& traits = world_.servers();
  for (std::uint32_t i = 0; i < traits.size(); ++i) {
    ++summary.probes_sent;
    if (!world_.responds_version(i, week)) continue;
    ++summary.responders_total;

    auto* server = world_.detailed(i);
    if (server == nullptr) continue;  // population-tier: counted only

    probe.dst = world_.address_at(i, week);

    bool was_rate_limited = false;
    bool impairment_blocked = false;
    for (int attempt = 0; attempt < max_attempts; ++attempt) {
      if (attempt > 0) ++summary.retries;
      const util::SimTime when = now + policy_.attempt_offset(attempt);
      probe.timestamp = when;

      // Decorrelated from the monlist pass's attempts via the salt offset.
      const auto fate = impairment_.request_fate(i, week, attempt + 0x100);
      if (fate == sim::ImpairmentLayer::Fate::kRequestLost ||
          fate == sim::ImpairmentLayer::Fate::kUnreachable) {
        impairment_blocked = true;
        continue;
      }

      auto response = server->handle(probe, when);
      if (response.total_packets == 0) {
        --summary.responders_total;  // restricted after all
        impairment_blocked = false;
        break;
      }
      if (fate == sim::ImpairmentLayer::Fate::kSilent) {
        impairment_blocked = true;
        continue;
      }
      if (consume_rate_budget(i)) {
        was_rate_limited = true;
        impairment_blocked = false;
        if (impairment_.config().rate_limit_kod) break;
        continue;
      }

      sim::ImpairmentLayer::Damage damage;
      if (impairment_.enabled()) {
        damage = impairment_.degrade_response(i, week, attempt + 0x100,
                                              response.packets);
        if (response.packets.empty()) {
          impairment_blocked = true;
          continue;
        }
      }

      fragments.clear();
      for (const auto& pkt : response.packets) {
        if (auto p = ntp::parse_control_packet(pkt.payload)) {
          fragments.push_back(std::move(*p));
        }
      }
      if (fragments.empty() && damage.degraded()) {
        // Nothing survived to parse: reassembling an empty set would
        // record a responder with no identity. Like the monlist pass,
        // treat it as lost in transit and retry.
        impairment_blocked = true;
        continue;
      }
      const auto text = ntp::reassemble_readvar(fragments);
      if (!text) {
        if (damage.degraded()) {
          impairment_blocked = true;  // damage broke the reply — retry
          continue;
        }
        impairment_blocked = false;
        break;
      }

      // The three variables the study reads, first occurrence winning
      // (parse_variable_list's map semantics) without building the map.
      std::optional<std::string_view> system, version, stratum;
      ntp::for_each_variable(
          *text, [&](std::string_view key, std::string_view value) {
            auto* slot = key == "system"    ? &system
                         : key == "version" ? &version
                         : key == "stratum" ? &stratum
                                            : nullptr;
            if (slot != nullptr && !*slot) *slot = value;
            return !(system && version && stratum);
          });

      obs.server_index = i;
      obs.address = probe.dst;
      obs.response_packets = response.total_packets - damage.packets_dropped;
      obs.response_wire_bytes =
          response.total_on_wire_bytes - damage.wire_bytes_lost;
      obs.system.assign(system.value_or(""));
      obs.version.assign(version.value_or(""));
      obs.stratum = stratum ? parse_int_or(*stratum, 0) : 0;
      obs.probe_time = when;
      if (damage.degraded()) ++summary.truncated_tables;
      ++summary.responders_detailed;
      impairment_blocked = false;
      visit(obs);
      break;
    }
    if (was_rate_limited) ++summary.rate_limited;
    if (impairment_blocked) ++summary.probes_lost;
  }
  return summary;
}

}  // namespace gorilla::scan
