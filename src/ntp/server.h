// A simulated ntpd instance.
//
// Each server owns a monitor (MRU) table, an identity (its READVAR reply
// text, rendered at the first READVAR that needs it, and its stratum), and
// a restriction configuration.
// It answers:
//   - mode 3 client queries with a mode 4 time packet,
//   - mode 7 MON_GETLIST_1 with its monitor table (unless `noquery`),
//   - mode 6 READVAR with fragments cut from its identity text.
// handle() records every request in the monitor table and then replies. A
// mode 6 request's write (observe_control) and reply (readvar_reply) are
// also reachable apart: the prober's version pass takes only the reply and
// logs the write with sim::World, whose first table reader settles it
// (DESIGN.md §3d).
// Two fault knobs model the paper's §3.4 mega amplifiers: a response-loop
// repeat count (routing/switching-loop analogue that re-triggers the whole
// dump) applied to mode 7 and mode 6 responses.
//
// Responses are returned as a summary carrying exact aggregate byte/packet
// totals plus a bounded materialized prefix-of-the-final-dumps, so a 136 GB
// mega reply never has to exist in memory while its totals stay exact.
#pragma once

#include <cstdint>
#include <vector>

#include "net/packet.h"
#include "ntp/mode6.h"
#include "ntp/mode7.h"
#include "ntp/monlist.h"
#include "ntp/ntp_packet.h"
#include "ntp/sysinfo.h"

namespace gorilla::ntp {

// One per detailed server (hundreds of thousands at --scale 40): flat
// members only (DESIGN.md §3g).
struct NtpServerConfig {  // LINT-COMPACT
  net::Ipv4Address address;
  /// Implementation number this ntpd answers mode 7 queries for; requests
  /// carrying the other number get a tiny IMPL error — the scan blind spot
  /// discussed in §3's limitations.
  Implementation accepted_impl = Implementation::kXntpd;
  /// False once `restrict noquery` (or a filter) is in place: mode 7 dropped.
  bool monlist_enabled = true;
  /// False when mode 6 is also restricted.
  bool mode6_enabled = true;
  /// READVAR reply text and stratum. Hand-built servers pass the text in
  /// with SystemVariables{...}.identity(); sim::World passes its draw
  /// (ntp::IdentityDraw), which renders at the first READVAR.
  ServerIdentity identity;
  /// Extra times the full response sequence repeats (0 = healthy). A value
  /// of n means the dump is sent n+1 times — the §3.4 loop fault.
  std::uint32_t loop_repeat = 0;
  /// Initial IP TTL for responses (by OS: 255 cisco, 128 windows, 64 unix).
  std::uint8_t initial_ttl = 64;
  /// Upstream peer associations reported to REQ_PEER_LIST (`showpeers`).
  std::vector<PeerListEntry> peers;
  /// Alternative mitigation to `noquery`: rate-limit mode 7 responses to at
  /// most this many per minute (0 = unlimited). Excess requests are still
  /// monitored but answered with silence — the "traffic rate limits" Merit
  /// deployed during the early attack weeks (§7.1).
  std::uint32_t mode7_responses_per_minute = 0;
  /// When rate-limited, send a Kiss-of-Death "RATE" packet (48 bytes,
  /// stratum 0) instead of pure silence — later ntpd's `limited kod`
  /// behaviour. Well-behaved clients back off; attackers ignore it, but a
  /// KoD is 48 bytes where a dump is kilobytes, so the amplification is
  /// gone either way.
  bool kod_on_rate_limit = false;
};

/// Exact accounting of one request's response, with bounded materialization.
struct ResponseSummary {
  /// Materialized response datagrams (the *final* dumps when looping, so
  /// reassembly of the last table run stays faithful). May be a subset.
  std::vector<net::UdpPacket> packets;
  std::uint64_t total_packets = 0;
  std::uint64_t total_udp_payload_bytes = 0;
  std::uint64_t total_on_wire_bytes = 0;
  /// True when `packets` holds fewer than total_packets datagrams.
  bool truncated = false;
};

class NtpServer {  // LINT-COMPACT
 public:
  /// A server with an empty monitor table of ntpd's 600-slot capacity;
  /// the table owns no storage until its first write (DESIGN.md §3g).
  explicit NtpServer(NtpServerConfig config) : config_(std::move(config)) {}

  /// Handles one datagram addressed to this server at time `now`. Every
  /// request — even a dropped one — is recorded in the monitor table, which
  /// is what turns amplifiers into attack witnesses. A mode 6 request is
  /// observe_control() and then readvar_reply(); the prober's version pass
  /// makes the same write later, through the World's pending monitor log.
  ResponseSummary handle(const net::UdpPacket& request, util::SimTime now,
                         std::size_t materialize_cap = 4096);

  /// The monitor write a mode 6 request from `src`:`src_port` at `now`
  /// makes: one observation per send of the (possibly looping) reply.
  void observe_control(net::Ipv4Address src, std::uint16_t src_port,
                       util::SimTime now);

  [[nodiscard]] const NtpServerConfig& config() const noexcept {
    return config_;
  }
  /// The READVAR text this server replies with, rendered on first use.
  [[nodiscard]] const std::string& readvar() const {
    return config_.identity.readvar();
  }
  [[nodiscard]] MonitorTable& monitor() noexcept { return monitor_; }
  [[nodiscard]] const MonitorTable& monitor() const noexcept {
    return monitor_;
  }

  /// Remediation hooks (§6): disable the amplification vectors.
  void set_monlist_enabled(bool enabled) noexcept {
    config_.monlist_enabled = enabled;
  }
  void set_mode6_enabled(bool enabled) noexcept {
    config_.mode6_enabled = enabled;
  }
  void set_loop_repeat(std::uint32_t repeat) noexcept {
    config_.loop_repeat = repeat;
  }
  void set_mode7_rate_limit(std::uint32_t responses_per_minute) noexcept {
    config_.mode7_responses_per_minute = responses_per_minute;
  }

 private:
  ResponseSummary respond_time(const net::UdpPacket& request,
                               util::SimTime now);
  ResponseSummary respond_monlist(const net::UdpPacket& request,
                                  const Mode7View& parsed, util::SimTime now,
                                  std::size_t materialize_cap);
  ResponseSummary respond_peer_list(const net::UdpPacket& request,
                                    util::SimTime now);
  /// Token-bucket check for the mode 7 rate limiter; true = may respond.
  bool mode7_rate_allows(util::SimTime now);
  NtpServerConfig config_;
  MonitorTable monitor_;
  // Rate-limiter window state (minute bucket start + responses used).
  util::SimTime rate_window_start_ = 0;
  std::uint32_t rate_window_used_ = 0;
};

/// The reply a server configured as `config` sends to the mode 6 request
/// `request` (header `parsed`) at `now`, without the monitor write:
/// fragments cut from the identity text, which renders here at its first
/// READVAR, sent loop_repeat + 1 times. Empty when mode 6 is restricted or
/// the opcode is not READVAR. Touches nothing but the identity's text
/// cache, so a reader that owns the server may call it while the server's
/// monitor writes are still pending.
[[nodiscard]] ResponseSummary readvar_reply(const NtpServerConfig& config,
                                            const net::UdpPacket& request,
                                            const ControlHeader& parsed,
                                            util::SimTime now,
                                            std::size_t materialize_cap = 4096);

}  // namespace gorilla::ntp
