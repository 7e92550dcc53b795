// The OpenNTPProject-style Internet-wide prober (§3).
//
// Starting 2014-01-10 the ONP sent every IPv4 address a single
// MON_GETLIST_1 packet each week (and, from 2014-02-21, a single mode 6
// `version` packet), capturing all responses. The prober reproduces exactly
// that: one packet per target per pass, from one fixed source address,
// aggregate-everything-that-comes-back. Samples stream through a visitor so
// a full fifteen-week campaign never holds more than one amplifier's
// response set in memory.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "net/packet.h"
#include "ntp/mode7.h"
#include "sim/impairment.h"
#include "sim/sharded_executor.h"
#include "sim/world.h"
#include "util/time.h"

// The sink is only taken by reference here; prober.cpp includes the study
// event vocabulary (waived).
namespace gorilla::study {
class EventSink;
}  // namespace gorilla::study

namespace gorilla::scan {

/// One amplifier's aggregate response to one weekly monlist probe.
struct AmplifierObservation {
  std::uint32_t server_index = 0;
  net::Ipv4Address address;  ///< address the probe hit that week
  std::uint64_t response_packets = 0;
  std::uint64_t response_udp_bytes = 0;
  std::uint64_t response_wire_bytes = 0;
  /// Final reassembled monlist table (empty for error-only replies).
  std::vector<ntp::MonitorEntry> table;
  /// When the probe was answered (table timestamps are relative to this).
  util::SimTime probe_time = 0;
  /// True when the reply arrived damaged — datagrams dropped or truncated —
  /// so `table` is a partial view of the server's monitor table.
  bool table_partial = false;
  /// Probe attempts consumed for this observation (1 = answered first try).
  int attempts = 1;
};

/// One responder's reply to the weekly version probe.
struct VersionObservation {
  std::uint32_t server_index = 0;
  net::Ipv4Address address;
  std::uint64_t response_packets = 0;
  std::uint64_t response_wire_bytes = 0;
  std::string system;   ///< parsed system= variable
  std::string version;  ///< parsed version= variable
  int stratum = 0;
  util::SimTime probe_time = 0;
};

struct MonlistSampleSummary {
  int week = 0;
  util::Date date;
  std::uint64_t probes_sent = 0;
  std::uint64_t responders = 0;       ///< amplifiers (table replies)
  std::uint64_t error_replies = 0;    ///< tiny impl-mismatch replies
  /// Targets that would have answered but were lost to impairment even
  /// after every retry (distinct from offline/restricted non-responders).
  /// Like `retries`, it counts only targets that answer at this week: a
  /// probe of an offline or remediated target is neither retried nor lost.
  std::uint64_t probes_lost = 0;
  std::uint64_t retries = 0;          ///< extra attempts beyond the first
  /// Responders whose reply arrived with datagrams missing or truncated.
  std::uint64_t truncated_tables = 0;
  /// Probes a rate-limiting server refused (silence or KoD) this window.
  std::uint64_t rate_limited = 0;
};

struct VersionSampleSummary {
  int week = 0;
  util::Date date;
  std::uint64_t probes_sent = 0;
  /// All servers that would answer (population count; includes servers
  /// outside the world's detailed tier).
  std::uint64_t responders_total = 0;
  /// Responders materialized and delivered to the visitor.
  std::uint64_t responders_detailed = 0;
  /// Lost to impairment after all retries; like `retries`, counted only
  /// over servers that answer mode 6 at this week.
  std::uint64_t probes_lost = 0;
  std::uint64_t retries = 0;
  std::uint64_t truncated_tables = 0;  ///< degraded-but-parsed replies
  std::uint64_t rate_limited = 0;
};

/// Retry/timeout/backoff policy for the resilient prober. Retries only ever
/// fire on *impairment* failures — in a clean network every target is probed
/// exactly once, matching the original one-packet-per-target methodology.
struct ProbePolicy {
  /// Seconds waited for a reply before an attempt is declared dead.
  double timeout_s = 5.0;
  /// Extra attempts after the first (total attempts = max_retries + 1).
  int max_retries = 2;
  /// Backoff before retry k is backoff_initial_s * backoff_factor^(k-1).
  double backoff_initial_s = 2.0;
  double backoff_factor = 2.0;

  /// SimTime offset of attempt `k` (0-based) from the pass's probe time.
  [[nodiscard]] util::SimTime attempt_offset(int k) const noexcept {
    double off = 0.0;
    double backoff = backoff_initial_s;
    for (int j = 0; j < k; ++j) {
      off += timeout_s + backoff;
      backoff *= backoff_factor;
    }
    return static_cast<util::SimTime>(off);
  }
};

class Prober {
 public:
  Prober(sim::World& world, net::Ipv4Address source,
         ntp::Implementation probe_impl = ntp::Implementation::kXntpd,
         const sim::ImpairmentConfig& impairment = {},
         const ProbePolicy& policy = {});

  using MonlistVisitor = std::function<void(const AmplifierObservation&)>;
  using VersionVisitor = std::function<void(const VersionObservation&)>;

  /// Runs the weekly monlist pass for sample week `week` (0 = 2014-01-10):
  /// probes every amplifier that responds that week
  /// (World::responds_monlist) and visits each reply.
  MonlistSampleSummary run_monlist_sample(int week,
                                          const MonlistVisitor& visit);

  /// Event-stream form: brackets the pass in on_sample_begin/on_sample_end,
  /// emits each responder as on_probe_observation and the final summary as
  /// on_monlist_summary. Observation order and the returned summary are
  /// identical to the visitor form.
  MonlistSampleSummary run_monlist_sample(int week, study::EventSink& sink);

  /// Runs the weekly version pass for *version* sample week `vweek`
  /// (0 = 2014-02-21, i.e. monlist week 6).
  VersionSampleSummary run_version_sample(int vweek,
                                          const VersionVisitor& visit);

  /// Probes an explicit target set at an arbitrary time — the §3.4
  /// follow-up methodology (twice-daily probes of the ~250K IPs that were
  /// monlist amplifiers in any March sample). `week` selects who responds;
  /// `now` stamps the probes. No index may repeat in one call.
  MonlistSampleSummary probe_targets(
      const std::vector<std::uint32_t>& server_indices, int week,
      util::SimTime now, const MonlistVisitor& visit);

  [[nodiscard]] net::Ipv4Address source() const noexcept { return source_; }

  /// Optional parallel engine for every pass, monlist and version alike,
  /// rate-limited or not. Each target only mutates its own server's state
  /// (a monlist probe's monitor-table bookkeeping, the identity its first
  /// READVAR renders, its rate-budget slot), so fixed-size target chunks
  /// probe independently on workers while the visitor runs on the calling
  /// thread in ascending target order — output is bit-identical for any job
  /// count. Null clears the executor: passes then run the same chunks
  /// inline.
  void set_executor(sim::ShardedExecutor* executor) noexcept {
    executor_ = executor;
  }
  [[nodiscard]] sim::ShardedExecutor* executor() const noexcept {
    return executor_;
  }

  /// SimTime at which week `week`'s monlist pass runs (Fridays, 12:00 UTC).
  [[nodiscard]] static util::SimTime sample_time(int week) noexcept;

  [[nodiscard]] const sim::ImpairmentLayer& impairment() const noexcept {
    return impairment_;
  }
  [[nodiscard]] const ProbePolicy& policy() const noexcept { return policy_; }

 private:
  /// How one probe attempt ended, and so how a target's attempts ended.
  enum class Outcome : std::uint8_t {
    kAnswered,    ///< a reply the pass recorded
    kRefused,     ///< a reply the pass cannot use, or a rate-limit refusal
    kLost,        ///< lost to impairment: worth another attempt
    kRestricted,  ///< the server answers no such request: no retry helps
  };

  /// A request that reached `server` on attempt `attempt` without writing
  /// its monitor table: the version pass's, which it logs instead.
  struct Reached {
    std::uint32_t server;
    std::uint32_t attempt;
  };
  /// The monitor writes one version pass owes, bucketed by apply lane.
  struct VersionWrites;
  /// The pass driver: runs `probe_one(index, summary, obs, reached)` over
  /// `targets` and visits each target it returns true for, in target order.
  /// One `run_ordered` over 512-target chunks (DESIGN.md §3d), on the
  /// executor or inline when none is set; each chunk probes with its own
  /// copy of `probe_one`, which carries the pass's datagram and reply
  /// scratch. A chunk lists in `reached` the requests it did not write;
  /// the calling thread adds them to `writes` in target order (a monlist
  /// pass writes as it probes, lists none and passes null). `targets` must
  /// not repeat an index: a server's state belongs to the one chunk that
  /// probes it.
  template <class Observation, class Targets, class Summary, class ProbeOne,
            class Visit>
  void probe_indices(const Targets& targets, Summary& summary,
                     ProbeOne probe_one, const Visit& visit,
                     VersionWrites* writes);
  /// The attempt loop both passes share: fate (drawn at `attempt + salt`),
  /// `deliver(attempt, probe)` for the server's response, restriction,
  /// silence, rate budget, damage and retry, with `reply(attempt, probe,
  /// response, damage)` deciding kAnswered, kRefused or kLost. Counts
  /// retries, rate_limited and probes_lost; touches only this target's
  /// server (through `deliver`) and its rate-budget slot.
  template <class Summary, class Deliver, class ReplyStep>
  Outcome run_attempts(std::uint32_t server_index, int week, util::SimTime now,
                       int salt, net::UdpPacket& probe, Summary& summary,
                       const Deliver& deliver, const ReplyStep& reply);
  /// The pass's probe datagram carrying `request_wire`, from this prober's
  /// source address and port to the NTP port; destination and time unset.
  [[nodiscard]] net::UdpPacket make_probe(
      std::vector<std::uint8_t> request_wire) const;
  /// Resets the rate-limit window when the pass moves to a new week: sizes
  /// and zeroes `responses_used_` when the impairment sets a window.
  void roll_window(int week);
  /// True when the server's response budget for this window is spent;
  /// consumes one unit otherwise (no-op unless the server rate limits).
  bool consume_rate_budget(std::uint32_t server_index);

  sim::World& world_;
  net::Ipv4Address source_;
  ntp::Implementation probe_impl_;
  sim::ImpairmentLayer impairment_;
  ProbePolicy policy_;
  sim::ShardedExecutor* executor_ = nullptr;
  // Rate-limit window state: responses each limiting server has answered
  // this window (a sample week), one slot per server, empty unless the
  // impairment sets a window. The prober tracks this client-side the way
  // the real ONP would infer it — the oracle itself is stateless. A slot is
  // written only by the chunk that probes its server.
  int window_week_ = -1 << 30;
  std::vector<std::uint32_t> responses_used_;
};

}  // namespace gorilla::scan
