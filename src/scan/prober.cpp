#include "scan/prober.h"

#include <bit>
#include <cstdlib>
#include <optional>
#include <ranges>
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

/// Folds a chunk's counters into the pass summary (week and date stay).
void add_counts(MonlistSampleSummary& into, const MonlistSampleSummary& part) {
  into.probes_sent += part.probes_sent;
  into.responders += part.responders;
  into.error_replies += part.error_replies;
  into.probes_lost += part.probes_lost;
  into.retries += part.retries;
  into.truncated_tables += part.truncated_tables;
  into.rate_limited += part.rate_limited;
}

void add_counts(VersionSampleSummary& into, const VersionSampleSummary& part) {
  into.probes_sent += part.probes_sent;
  into.responders_total += part.responders_total;
  into.responders_detailed += part.responders_detailed;
  into.probes_lost += part.probes_lost;
  into.retries += part.retries;
  into.truncated_tables += part.truncated_tables;
  into.rate_limited += part.rate_limited;
}

}  // namespace

/// Every request one version pass delivered, as one lane-major bitset per
/// attempt: bit k of lane L's words stands for server k * kLanes + L, so a
/// lane's settle walks only its own servers and a clean pass costs one bit
/// per server. The rest of each write is the pass's: the prober's source,
/// mode 6 and the attempt's send time. Its send count is the server's
/// loop_repeat + 1, which observe_control() reads at settle: a config
/// changes only through World::detailed(), which settles first.
struct Prober::VersionWrites {
  static constexpr std::size_t kLanes = sim::ShardedExecutor::kLanes;

  explicit VersionWrites(std::size_t servers)
      : lane_words((servers + kLanes * 64 - 1) / (kLanes * 64)) {}

  void add(const Reached& r) {
    if (r.attempt >= by_attempt.size()) by_attempt.resize(r.attempt + 1);
    auto& bits = by_attempt[r.attempt];
    if (bits.empty()) bits.assign(kLanes * lane_words, 0);
    const std::size_t k = r.server / kLanes;
    bits[r.server % kLanes * lane_words + k / 64] |= std::uint64_t{1}
                                                     << (k % 64);
  }

  /// Calls fn(server, attempt) for each of lane `lane`'s requests, one
  /// attempt after the other, so each server sees its requests in send
  /// order.
  template <class Fn>
  void for_each(std::size_t lane, const Fn& fn) const {
    for (std::uint32_t attempt = 0; attempt < by_attempt.size(); ++attempt) {
      const auto& bits = by_attempt[attempt];
      if (bits.empty()) continue;
      for (std::size_t w = 0; w < lane_words; ++w) {
        for (std::uint64_t word = bits[lane * lane_words + w]; word != 0;
             word &= word - 1) {
          const std::size_t k = w * 64 + std::countr_zero(word);
          fn(static_cast<std::uint32_t>(k * kLanes + lane), attempt);
        }
      }
    }
  }

  std::size_t lane_words;  ///< 64-bit words per lane
  std::vector<std::vector<std::uint64_t>> by_attempt;
};

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
  if (impairment_.enabled() &&
      impairment_.config().rate_limit_per_window != 0) {
    responses_used_.assign(world_.servers().size(), 0);
  }
}

bool Prober::consume_rate_budget(std::uint32_t server_index) {
  // True only when the layer is on and sets a window: roll_window sized the
  // slots.
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

MonlistSampleSummary Prober::run_monlist_sample(int week,
                                                const MonlistVisitor& visit) {
  return probe_targets(world_.amplifier_indices(), week, sample_time(week),
                       visit);
}

MonlistSampleSummary Prober::run_monlist_sample(int week,
                                                study::EventSink& sink) {
  sink.on_sample_begin(week, util::date_from_sim_time(sample_time(week)));
  const auto summary = probe_targets(
      world_.amplifier_indices(), week, sample_time(week),
      [week, &sink](const AmplifierObservation& obs) {
        sink.on_probe_observation(week, obs);
      });
  sink.on_monlist_summary(summary);
  sink.on_sample_end(week);
  return summary;
}

net::UdpPacket Prober::make_probe(std::vector<std::uint8_t> request_wire) const {
  net::UdpPacket probe;
  probe.src = source_;
  probe.src_port = kProbeSourcePort;
  probe.dst_port = net::kNtpPort;
  probe.payload = std::move(request_wire);
  return probe;
}

template <class Summary, class Deliver, class ReplyStep>
Prober::Outcome Prober::run_attempts(std::uint32_t server_index, int week,
                                     util::SimTime now, int salt,
                                     net::UdpPacket& probe, Summary& summary,
                                     const Deliver& deliver,
                                     const ReplyStep& reply) {
  probe.dst = world_.address_at(server_index, week);
  // In a clean network every target gets exactly one packet (the original
  // ONP methodology); retries exist only to ride out impairment.
  const int max_attempts =
      impairment_.enabled() ? policy_.max_retries + 1 : 1;
  Outcome outcome = Outcome::kRefused;
  bool was_rate_limited = false;
  for (int attempt = 0; attempt < max_attempts; ++attempt) {
    if (attempt > 0) ++summary.retries;
    probe.timestamp = now + policy_.attempt_offset(attempt);
    const int draw = attempt + salt;

    const auto fate = impairment_.request_fate(server_index, week, draw);
    if (fate == sim::ImpairmentLayer::Fate::kRequestLost ||
        fate == sim::ImpairmentLayer::Fate::kUnreachable) {
      outcome = Outcome::kLost;  // server never saw it — retry
      continue;
    }

    auto response = deliver(attempt, probe);
    if (response.total_packets == 0) {
      // Genuine restriction: deterministic, retrying is pointless.
      outcome = Outcome::kRestricted;
      break;
    }
    if (fate == sim::ImpairmentLayer::Fate::kSilent) {
      outcome = Outcome::kLost;  // whole reply lost on the return path
      continue;
    }
    if (consume_rate_budget(server_index)) {
      was_rate_limited = true;
      outcome = Outcome::kRefused;
      // A KoD tells a well-behaved client to stop; silence invites
      // retries that the limiter will keep eating.
      if (impairment_.config().rate_limit_kod) break;
      continue;
    }

    const auto damage = impairment_.degrade_response(server_index, week, draw,
                                                     response.packets);
    outcome = reply(attempt, probe, response, damage);
    if (outcome != Outcome::kLost) break;
  }
  if (was_rate_limited) ++summary.rate_limited;
  if (outcome == Outcome::kLost) ++summary.probes_lost;
  return outcome;
}

template <class Observation, class Targets, class Summary, class ProbeOne,
          class Visit>
void Prober::probe_indices(const Targets& targets, Summary& summary,
                           ProbeOne probe_one, const Visit& visit,
                           VersionWrites* writes) {
  // Chunks are a fixed size regardless of job count, each target touches
  // only its own server (its monitor table or identity, and its rate-budget
  // slot), and chunk results are consumed on this thread in ascending
  // order — so visit order, summary, logged writes and every server's
  // state come out bit-identical for any job count, inline included.
  struct ChunkResult {
    Summary partial;
    std::vector<Observation> observations;
    std::vector<Reached> reached;
  };
  constexpr std::size_t kProbeChunk = 512;
  sim::ShardedExecutor inline_executor(nullptr);
  sim::ShardedExecutor& exec =
      executor_ != nullptr ? *executor_ : inline_executor;
  exec.run_ordered(
      static_cast<std::size_t>(targets.size()), kProbeChunk,
      [&targets, &probe_one](std::size_t begin, std::size_t end) {
        ChunkResult r;
        Observation obs;
        auto chunk_probe_one = probe_one;  // own datagram and scratch
        for (std::size_t i = begin; i < end; ++i) {
          if (chunk_probe_one(targets[i], r.partial, obs, r.reached)) {
            r.observations.push_back(std::move(obs));
          }
        }
        return r;
      },
      [&summary, &visit, writes](ChunkResult r) {
        add_counts(summary, r.partial);
        if (writes != nullptr) {
          for (const auto& reached : r.reached) writes->add(reached);
        }
        for (const auto& obs : r.observations) visit(obs);
      });
}

MonlistSampleSummary Prober::probe_targets(
    const std::vector<std::uint32_t>& server_indices, int week,
    util::SimTime now, const MonlistVisitor& visit) {
  // The pass dumps tables: pending writes land first, on its executor.
  world_.settle_monitors(executor_);
  world_.release_fixed_monitors(week, executor_);
  roll_window(week);
  MonlistSampleSummary summary;
  summary.week = week;
  summary.date = util::date_from_sim_time(now);

  // One datagram per pass (each target only restamps its destination and
  // send time), and the reply's parsed datagrams, read in place and decoded
  // straight into the observation's table.
  net::UdpPacket probe = make_probe(ntp::serialize(
      ntp::make_monlist_request(probe_impl_, /*authenticated=*/false)));
  auto probe_one = [this, week, now, probe,
                    views = std::vector<ntp::Mode7View>()](
                       std::uint32_t ai, MonlistSampleSummary& partial,
                       AmplifierObservation& obs,
                       std::vector<Reached>& /*reached*/) mutable {
    ++partial.probes_sent;
    // Offline and remediated targets stay silent, their tables untouched.
    if (!world_.responds_monlist(ai, week)) return false;
    auto* server = world_.detailed(ai);
    if (server == nullptr) return false;

    // Apply any ntpd restart since the last sample: the monitor table only
    // remembers clients since the restart (§4.2's observation window).
    server->monitor().expire_before(world_.last_restart_before(ai, week, now));

    const auto reply = [&](int attempt, const net::UdpPacket& sent,
                           const ntp::ResponseSummary& response,
                           const sim::ImpairmentLayer::Damage& damage) {
      std::uint64_t delivered_packets = response.total_packets;
      std::uint64_t delivered_udp = response.total_udp_payload_bytes;
      std::uint64_t delivered_wire = response.total_on_wire_bytes;
      if (impairment_.enabled()) {
        // The materialized prefix arrives damaged exactly: what is left of
        // it plus the damage's exact byte loss is its pristine size. The
        // unmaterialized remainder of a mega reply is thinned in aggregate
        // so totals stay deterministic without ever existing in memory.
        std::uint64_t kept_udp = 0, kept_wire = 0;
        for (const auto& pkt : response.packets) {
          kept_udp += pkt.payload.size();
          kept_wire += pkt.on_wire_bytes();
        }
        const std::uint64_t rem = response.total_packets -
                                  response.packets.size() -
                                  damage.packets_dropped;
        const std::uint64_t rem_kept =
            impairment_.delivered_responses(ai, week, rem);
        const double rem_frac =
            rem > 0 ? static_cast<double>(rem_kept) / static_cast<double>(rem)
                    : 0.0;
        const auto thinned = [rem_frac](std::uint64_t rest) {
          return static_cast<std::uint64_t>(static_cast<double>(rest) *
                                            rem_frac);
        };
        delivered_packets = response.packets.size() + rem_kept;
        delivered_udp = kept_udp + thinned(response.total_udp_payload_bytes -
                                           kept_udp - damage.udp_bytes_lost);
        delivered_wire = kept_wire + thinned(response.total_on_wire_bytes -
                                             kept_wire -
                                             damage.wire_bytes_lost);
        if (delivered_packets == 0) return Outcome::kLost;
      }

      // Reassemble the final table run from the surviving datagrams.
      views.clear();
      for (const auto& pkt : response.packets) {
        if (const auto v = ntp::parse_mode7_view(pkt.payload)) {
          views.push_back(*v);
        }
      }
      if (!ntp::reassemble_monlist_into(views, obs.table) ||
          (views.size() == 1 && views.front().error != ntp::Mode7Error::kOk)) {
        // Damage that ate the whole reply is retried; anything else is an
        // impl mismatch or refusal, not an amplifier observation.
        if (damage.degraded() && views.empty()) return Outcome::kLost;
        ++partial.error_replies;
        return Outcome::kRefused;
      }

      obs.server_index = ai;
      obs.address = sent.dst;
      obs.response_packets = delivered_packets;
      obs.response_udp_bytes = delivered_udp;
      obs.response_wire_bytes = delivered_wire;
      obs.probe_time = sent.timestamp;
      obs.table_partial =
          damage.packets_dropped + damage.packets_truncated > 0;
      obs.attempts = attempt + 1;
      if (obs.table_partial) ++partial.truncated_tables;
      ++partial.responders;
      return Outcome::kAnswered;
    };
    // The probe writes the table it then dumps.
    const auto deliver = [server](int /*attempt*/, const net::UdpPacket& sent) {
      return server->handle(sent, sent.timestamp);
    };
    return run_attempts(ai, week, now, /*salt=*/0, probe, partial, deliver,
                        reply) == Outcome::kAnswered;
  };
  probe_indices<AmplifierObservation>(server_indices, summary,
                                      std::move(probe_one), visit,
                                      /*writes=*/nullptr);
  return summary;
}

VersionSampleSummary Prober::run_version_sample(int vweek,
                                                const VersionVisitor& visit) {
  const int week = vweek + 6;  // version passes began 2014-02-21
  // Settles the World's pending writes only when a table is due: the pass
  // reads no table, so its own writes stay pending.
  world_.release_fixed_monitors(week, executor_);
  roll_window(week);
  const util::SimTime now = sample_time(week);
  VersionSampleSummary summary;
  summary.week = vweek;
  summary.date = util::date_from_sim_time(now);

  // One datagram per pass, its parsed header, and the reply scratch: the
  // parsed fragments (read in place) and the reassembled variable list.
  net::UdpPacket probe =
      make_probe(ntp::serialize(ntp::make_version_request(/*sequence=*/1)));
  const ntp::ControlHeader header = *ntp::parse_control_view(probe.payload);
  auto probe_one = [this, week, now, probe, header,
                    fragments = std::vector<ntp::ControlView>(),
                    text = std::string()](
                       std::uint32_t i, VersionSampleSummary& partial,
                       VersionObservation& obs,
                       std::vector<Reached>& reached) mutable {
    ++partial.probes_sent;
    if (!world_.responds_version(i, week)) return false;
    ++partial.responders_total;
    // Read without settling: earlier passes' writes may still be pending,
    // and only the calling thread settles them.
    const auto* config = world_.server_config(i);
    if (config == nullptr) return false;  // population-tier: counted only

    // handle()'s mode 6 reply, without its monitor write: the request is
    // listed, and the pass logs the write once every chunk has run.
    const auto deliver = [&](int attempt, const net::UdpPacket& sent) {
      reached.push_back({i, static_cast<std::uint32_t>(attempt)});
      return ntp::readvar_reply(*config, sent, header, sent.timestamp);
    };

    const auto reply = [&](int /*attempt*/, const net::UdpPacket& sent,
                           const ntp::ResponseSummary& response,
                           const sim::ImpairmentLayer::Damage& damage) {
      if (impairment_.enabled() && response.packets.empty()) {
        return Outcome::kLost;
      }
      fragments.clear();
      for (const auto& pkt : response.packets) {
        if (const auto v = ntp::parse_control_view(pkt.payload)) {
          fragments.push_back(*v);
        }
      }
      if (fragments.empty() && damage.degraded()) {
        // Nothing survived to parse: reassembling an empty set would record
        // a responder with no identity. Like the monlist pass, treat it as
        // lost in transit and retry.
        return Outcome::kLost;
      }
      if (!ntp::reassemble_readvar_into(fragments, text)) {
        // Damage that broke the reply is retried.
        return damage.degraded() ? Outcome::kLost : Outcome::kRefused;
      }

      // The three variables the study reads, first occurrence winning
      // (parse_variable_list's map semantics) without building the map.
      std::optional<std::string_view> system, version, stratum;
      ntp::for_each_variable(
          text, [&](std::string_view key, std::string_view value) {
            auto* slot = key == "system"    ? &system
                         : key == "version" ? &version
                         : key == "stratum" ? &stratum
                                            : nullptr;
            if (slot != nullptr && !*slot) *slot = value;
            return !(system && version && stratum);
          });

      obs.server_index = i;
      obs.address = sent.dst;
      obs.response_packets = response.total_packets - damage.packets_dropped;
      obs.response_wire_bytes =
          response.total_on_wire_bytes - damage.wire_bytes_lost;
      obs.system.assign(system.value_or(""));
      obs.version.assign(version.value_or(""));
      obs.stratum = stratum ? parse_int_or(*stratum, 0) : 0;
      obs.probe_time = sent.timestamp;
      if (damage.degraded()) ++partial.truncated_tables;
      ++partial.responders_detailed;
      return Outcome::kAnswered;
    };
    // Decorrelated from the monlist pass's attempts via the salt offset.
    const auto outcome = run_attempts(i, week, now, /*salt=*/0x100, probe,
                                      partial, deliver, reply);
    if (outcome == Outcome::kRestricted) --partial.responders_total;
    return outcome == Outcome::kAnswered;
  };
  // Every server is a target, iterated as a range: an index list would
  // cost 4 bytes per server.
  VersionWrites writes(world_.servers().size());
  probe_indices<VersionObservation>(
      std::views::iota(std::uint32_t{0},
                       static_cast<std::uint32_t>(world_.servers().size())),
      summary, std::move(probe_one), visit, &writes);
  // The pass read no table, so its writes join the World's pending log for
  // the first reader to settle (DESIGN.md §3d). The job owns what it
  // reads, never this prober, which may be gone by then.
  if (!writes.by_attempt.empty()) {
    world_.log_monitor_write([writes = std::move(writes), source = source_,
                              now, policy = policy_,
                              world = &world_](std::size_t lane) {
      writes.for_each(lane, [&](std::uint32_t server, std::uint32_t attempt) {
        world->detailed(server)->observe_control(
            source, kProbeSourcePort,
            now + policy.attempt_offset(static_cast<int>(attempt)));
      });
    });
  }
  return summary;
}

}  // namespace gorilla::scan
