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
#include <unordered_map>
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
  std::uint64_t probes_lost = 0;    ///< lost to impairment after all retries
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

  /// Runs the weekly monlist pass for sample week `week` (0 = 2014-01-10).
  /// Applies due remediation to the detailed tier first; visits every
  /// responding amplifier. Weeks must be probed in non-decreasing order.
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
  /// monlist amplifiers in any March sample). `week` selects the
  /// remediation state; `now` stamps the probes. Weeks must be
  /// non-decreasing across calls.
  MonlistSampleSummary probe_targets(
      const std::vector<std::uint32_t>& server_indices, int week,
      util::SimTime now, const MonlistVisitor& visit);

  [[nodiscard]] net::Ipv4Address source() const noexcept { return source_; }

  /// Optional parallel engine for the per-target monlist loop. Each target
  /// only mutates its own server's state (monitor-table bookkeeping), so
  /// fixed-size target chunks probe independently on workers while the
  /// visitor runs on the calling thread in ascending target order — output
  /// is bit-identical for any job count. Passes that need the shared
  /// rate-limit window (impairment with rate_limit_per_window > 0) fall
  /// back to the sequential loop automatically. Null clears the executor.
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
  void apply_due_remediation(int week);
  MonlistSampleSummary probe_indices(
      const std::vector<std::uint32_t>& server_indices, int week,
      util::SimTime now, const MonlistVisitor& visit);
  /// Probes one target; fills `obs` and returns true when it responded with
  /// a table. Counter side effects land in `summary`; server-state side
  /// effects touch only this target's server, which is what makes chunked
  /// parallel probing safe.
  /// `probe` is the pass's request datagram; probe_one() restamps its
  /// destination and send time for this target.
  bool probe_one(std::uint32_t server_index, int week, util::SimTime now,
                 net::UdpPacket& probe, int max_attempts,
                 MonlistSampleSummary& summary, AmplifierObservation& obs);
  /// The pass's probe datagram carrying `request_wire`, from this prober's
  /// source address and port to the NTP port; destination and time unset.
  [[nodiscard]] net::UdpPacket make_probe(
      std::vector<std::uint8_t> request_wire) const;
  /// Resets the rate-limit window when the pass moves to a new week.
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
  int remediation_applied_week_ = -1;
  // Rate-limit window state: responses each limiting server has answered
  // this window (a sample week). The prober tracks this client-side the way
  // the real ONP would infer it — the oracle itself is stateless.
  int window_week_ = -1 << 30;
  std::unordered_map<std::uint32_t, std::uint32_t> responses_used_;
};

}  // namespace gorilla::scan
