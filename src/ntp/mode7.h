// NTP mode 7 (private) packets — the `monlist` vector.
//
// This mirrors ntpd's ntp_request.h wire format:
//   byte 0: R | M | VN(3) | mode(3)=7
//   byte 1: A | sequence(7)
//   byte 2: implementation number (IMPL_XNTPD=3, IMPL_XNTPD_OLD=2)
//   byte 3: request code (MON_GETLIST=20, MON_GETLIST_1=42)
//   bytes 4-5: err(4) | nitems(12)
//   bytes 6-7: mbz(4) | item size(12)
//   data: nitems * item_size bytes (<= 500 per datagram)
// Requests carry a 40-byte zeroed data area plus a 24-byte authentication
// tail (192-byte datagrams in the wild are the authenticated variant; the
// plain ntpdc query is 48+ bytes). Responses chain via the M (more) bit and
// 7-bit sequence numbers. MON_GETLIST_1 items are 72 bytes each, at most 6
// per datagram, and the table is capped at 600 entries — the geometry every
// BAF number in §3 follows from.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "net/ipv4.h"
#include "ntp/ntp_packet.h"

namespace gorilla::ntp {

/// Implementation numbers (ntpd ntp_request.h). The ONP scans used a single
/// implementation value; servers answering only the other one are missed —
/// the §3 under-count we also model.
enum class Implementation : std::uint8_t {
  kUniv = 0,
  kXntpdOld = 2,
  kXntpd = 3,
};

/// Request codes (subset relevant to the study).
enum class RequestCode : std::uint8_t {
  kPeerList = 0,       ///< REQ_PEER_LIST — `showpeers`, a low-BAF sibling
  kMonGetList = 20,    ///< legacy 32-byte items
  kMonGetList1 = 42,   ///< 72-byte info_monitor_1 items (what attackers use)
};

/// Mode 7 error codes (err field).
enum class Mode7Error : std::uint8_t {
  kOk = 0,
  kImplMismatch = 1,
  kReqUnknown = 2,
  kFormat = 3,
  kNoData = 4,
  kAuthFail = 7,
};

inline constexpr std::size_t kMode7HeaderBytes = 8;
inline constexpr std::size_t kMode7MaxDataBytes = 500;
inline constexpr std::size_t kMonitorItemBytes = 72;   // info_monitor_1
/// Legacy MON_GETLIST (code 20) items: the pre-info_monitor_1 layout that
/// older ntpd builds answer with — no daddr/v6 fields, 32 bytes each.
inline constexpr std::size_t kLegacyMonitorItemBytes = 32;
inline constexpr std::size_t kLegacyMonitorItemsPerPacket =
    kMode7MaxDataBytes / kLegacyMonitorItemBytes;  // 15
inline constexpr std::size_t kPeerListItemBytes = 32;  // info_peer_list
inline constexpr std::size_t kPeerItemsPerPacket =
    kMode7MaxDataBytes / kPeerListItemBytes;  // 15
/// floor(500 / 72) = 6 items per response datagram.
inline constexpr std::size_t kMonitorItemsPerPacket =
    kMode7MaxDataBytes / kMonitorItemBytes;
/// 600-entry table cap -> 100 datagrams max for a full monlist dump.
inline constexpr std::size_t kMonlistMaxEntries = 600;

/// Size of the plain (unauthenticated) ntpdc request datagram: 8-byte header
/// + 40-byte zero data area.
inline constexpr std::size_t kMode7RequestBytes = 48;
/// Size of the authenticated request variant seen in attack traffic.
inline constexpr std::size_t kMode7AuthRequestBytes = 192;

/// One reassembled monitor-table entry (info_monitor_1). Field names follow
/// ntpdc's monlist column semantics used throughout §4.
struct MonitorEntry {
  net::Ipv4Address address;          ///< remote address (client or victim)
  net::Ipv4Address local_address;    ///< daddr: local side
  std::uint32_t avg_interval = 0;    ///< avg seconds between packets
  std::uint32_t last_seen = 0;       ///< seconds since last packet
  std::uint32_t restr = 0;           ///< restrict flags
  std::uint32_t count = 0;           ///< packets received from this client
  std::uint16_t port = 0;            ///< source port of last packet
  std::uint8_t mode = 0;             ///< NTP mode of last packet
  std::uint8_t version = 0;          ///< NTP version of last packet
};

/// The 8-byte mode 7 header, decoded: everything a packet says about
/// itself except its data area.
struct Mode7Header {
  bool response = false;
  bool more = false;
  std::uint8_t sequence = 0;  ///< 7-bit
  bool auth = false;
  Implementation implementation = Implementation::kXntpd;
  RequestCode request = RequestCode::kMonGetList1;
  Mode7Error error = Mode7Error::kOk;
  std::uint16_t item_count = 0;
  std::uint16_t item_size = 0;
};

/// A mode 7 packet whose data area is borrowed from the buffer it was
/// parsed from (parse_mode7_view): valid only while that buffer lives and
/// is not modified. The prober reads replies through views, in place.
struct Mode7View : Mode7Header {
  std::span<const std::uint8_t> data;
};

/// A mode 7 packet (request or response) that owns its data area.
struct Mode7Packet : Mode7Header {
  std::vector<std::uint8_t> data;

  /// This packet as a view of its own data area.
  [[nodiscard]] Mode7View view() const noexcept { return {*this, data}; }
};

[[nodiscard]] std::vector<std::uint8_t> serialize(const Mode7Packet& p);

/// Parses a mode 7 packet in place; nullopt on non-mode-7 input, a header
/// shorter than 8 bytes, or declared data the datagram does not carry or
/// the protocol does not allow (> 500 bytes). The one mode 7 decoder.
[[nodiscard]] std::optional<Mode7View> parse_mode7_view(
    std::span<const std::uint8_t> raw);

/// parse_mode7_view() with the data area copied out.
[[nodiscard]] std::optional<Mode7Packet> parse_mode7_packet(
    std::span<const std::uint8_t> raw);

/// Builds the single monlist request datagram exactly as sent by ntpdc (and
/// by the ONP scanner): MON_GETLIST_1 with the chosen implementation value.
[[nodiscard]] Mode7Packet make_monlist_request(
    Implementation impl = Implementation::kXntpd,
    bool authenticated = false);

/// Serializes monitor entries into a chained sequence of response datagrams
/// (<=6 items each, M bit set on all but the last, sequence 0,1,2,...).
[[nodiscard]] std::vector<Mode7Packet> make_monlist_response(
    std::span<const MonitorEntry> entries, Implementation impl);

/// Wire bytes of datagram `index` (< monlist_dump_packets(entries.size()))
/// of the monlist dump of `entries`:
/// serialize(make_monlist_response(entries, impl)[index]), written straight
/// from the entries without materializing a Mode7Packet.
[[nodiscard]] std::vector<std::uint8_t> serialize_monlist_packet(
    std::span<const MonitorEntry> entries, std::size_t index,
    Implementation impl);

/// Legacy MON_GETLIST (code 20) response: 32-byte items, <=15 per datagram.
/// Port/version/daddr detail is lost in this layout — which is why the
/// legacy command both amplifies less and witnesses less.
[[nodiscard]] std::vector<Mode7Packet> make_legacy_monlist_response(
    std::span<const MonitorEntry> entries, Implementation impl);

/// Decodes legacy 32-byte items (port defaults to 0, daddr absent).
[[nodiscard]] std::vector<MonitorEntry> decode_legacy_items(
    const Mode7Packet& p);

/// Builds a single error response (e.g. implementation mismatch).
[[nodiscard]] Mode7Packet make_mode7_error(Mode7Error err, Implementation impl,
                                           RequestCode request);

/// One peer association as REQ_PEER_LIST reports it.
struct PeerListEntry {
  net::Ipv4Address address;
  std::uint16_t port = 123;
  std::uint8_t hmode = 3;  ///< association mode
  std::uint8_t flags = 0;
};

/// Builds the `showpeers` request datagram.
[[nodiscard]] Mode7Packet make_peer_list_request(
    Implementation impl = Implementation::kXntpd);

/// Serializes peers into chained response datagrams (<=15 items each).
[[nodiscard]] std::vector<Mode7Packet> make_peer_list_response(
    std::span<const PeerListEntry> peers, Implementation impl);

/// Decodes REQ_PEER_LIST items from one response packet.
[[nodiscard]] std::vector<PeerListEntry> decode_peer_items(
    const Mode7Packet& p);

/// Decodes the MON_GETLIST_1 items carried by one response packet: at most
/// item_count, and only whole items the data area holds; none when the
/// item size is not 72.
[[nodiscard]] std::vector<MonitorEntry> decode_items(const Mode7Packet& p);

/// Exact UDP payload bytes of a full monlist dump carrying `entries` table
/// entries (ceil(n/6) datagrams of 8-byte header + 72-byte items; an empty
/// table still elicits one 8-byte NoData reply). Used by the attack model to
/// account for response volume without materializing packets.
[[nodiscard]] std::uint64_t monlist_dump_udp_bytes(std::size_t entries) noexcept;

/// Matching on-wire byte count (Ethernet min-frame + preamble + IPG model).
[[nodiscard]] std::uint64_t monlist_dump_wire_bytes(std::size_t entries) noexcept;

/// Number of datagrams in a dump of `entries` entries (>= 1).
[[nodiscard]] std::uint64_t monlist_dump_packets(std::size_t entries) noexcept;

/// Reassembles a full monlist table from response packets into `table`
/// (cleared first): keeps the MON_GETLIST_1 responses without error,
/// starts a new run at each sequence reset (sequence <= previous) and
/// decodes the *final* run, which is how §3.4 handles mega-amplifier
/// repeats; at most kMonlistMaxEntries entries. Returns false (table empty)
/// when no packet is a monlist response.
bool reassemble_monlist_into(std::span<const Mode7View> packets,
                             std::vector<MonitorEntry>& table);

/// reassemble_monlist_into() over owning packets, returning the table;
/// nullopt when the packets are not a monlist response.
[[nodiscard]] std::optional<std::vector<MonitorEntry>> reassemble_monlist(
    std::span<const Mode7Packet> packets);

}  // namespace gorilla::ntp
