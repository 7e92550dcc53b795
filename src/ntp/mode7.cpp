#include "ntp/mode7.h"

#include <algorithm>

#include "net/ethernet.h"
#include "util/bytes.h"

namespace gorilla::ntp {

namespace {

/// Writes the 8-byte mode 7 header.
void write_header(util::ByteWriter& w, const Mode7Header& h) {
  // In mode 7 the top two bits are repurposed: R (response) and M (more).
  w.u8(static_cast<std::uint8_t>((h.response ? 0x80 : 0) |
                                 (h.more ? 0x40 : 0) |
                                 (kNtpVersion << 3) |
                                 static_cast<std::uint8_t>(Mode::kPrivate)));
  w.u8(static_cast<std::uint8_t>((h.auth ? 0x80 : 0) | (h.sequence & 0x7f)));
  w.u8(static_cast<std::uint8_t>(h.implementation));
  w.u8(static_cast<std::uint8_t>(h.request));
  w.u16be(static_cast<std::uint16_t>(
      (static_cast<std::uint16_t>(h.error) << 12) | (h.item_count & 0x0fff)));
  w.u16be(static_cast<std::uint16_t>(h.item_size & 0x0fff));
}

}  // namespace

std::vector<std::uint8_t> serialize(const Mode7Packet& p) {
  std::vector<std::uint8_t> out;
  out.reserve(kMode7HeaderBytes + p.data.size());
  util::ByteWriter w(out);
  write_header(w, p);
  w.bytes(p.data);
  return out;
}

std::optional<Mode7View> parse_mode7_view(std::span<const std::uint8_t> raw) {
  util::ByteReader r(raw);
  const std::uint8_t b0 = r.u8();
  if (r.truncated() ||
      (b0 & 0x7) != static_cast<std::uint8_t>(Mode::kPrivate)) {
    return std::nullopt;
  }
  Mode7View p;
  p.response = b0 & 0x80;
  p.more = b0 & 0x40;
  const std::uint8_t b1 = r.u8();
  p.auth = b1 & 0x80;
  p.sequence = b1 & 0x7f;
  p.implementation = static_cast<Implementation>(r.u8());
  p.request = static_cast<RequestCode>(r.u8());
  const std::uint16_t err_nitems = r.u16be();
  p.error = static_cast<Mode7Error>(err_nitems >> 12);
  p.item_count = err_nitems & 0x0fff;
  p.item_size = r.u16be() & 0x0fff;
  if (!r.ok()) return std::nullopt;  // shorter than the 8-byte header
  const std::size_t declared =
      static_cast<std::size_t>(p.item_count) * p.item_size;
  // A header may lie in either direction: declare more data than the
  // datagram carries (truncated in flight, or a crafted over-read) or more
  // than the protocol's 500-byte data area allows. Reject both.
  if (declared > kMode7MaxDataBytes) return std::nullopt;
  p.data = r.take(declared);
  if (!r.ok()) return std::nullopt;
  return p;
}

std::optional<Mode7Packet> parse_mode7_packet(
    std::span<const std::uint8_t> raw) {
  const auto view = parse_mode7_view(raw);
  if (!view) return std::nullopt;
  Mode7Packet p;
  static_cast<Mode7Header&>(p) = *view;
  p.data.assign(view->data.begin(), view->data.end());
  return p;
}

Mode7Packet make_monlist_request(Implementation impl, bool authenticated) {
  Mode7Packet p;
  p.response = false;
  p.more = false;
  p.sequence = 0;
  p.auth = authenticated;
  p.implementation = impl;
  p.request = RequestCode::kMonGetList1;
  p.error = Mode7Error::kOk;
  p.item_count = 0;
  p.item_size = 0;
  // Zeroed data area: 40 bytes plain, or 40 + 144-byte auth tail for the
  // authenticated variant (total datagram 48 or 192 bytes).
  const std::size_t data_bytes =
      (authenticated ? kMode7AuthRequestBytes : kMode7RequestBytes) -
      kMode7HeaderBytes;
  p.data.assign(data_bytes, 0);
  return p;
}

namespace {

void encode_item(util::ByteWriter& w, const MonitorEntry& e) {
  w.u32be(e.avg_interval);
  w.u32be(e.last_seen);
  w.u32be(e.restr);
  w.u32be(e.count);
  w.u32be(e.address.value());
  w.u32be(e.local_address.value());
  w.u32be(0);  // flags
  w.u16be(e.port);
  w.u8(e.mode);
  w.u8(e.version);
  w.u32be(0);     // v6_flag
  w.u32be(0);     // unused1 (alignment)
  w.fill(32, 0);  // addr6 + daddr6
}

MonitorEntry decode_item(std::span<const std::uint8_t> item) {
  util::ByteReader r(item);
  MonitorEntry e;
  e.avg_interval = r.u32be();
  e.last_seen = r.u32be();
  e.restr = r.u32be();
  e.count = r.u32be();
  e.address = net::Ipv4Address{r.u32be()};
  e.local_address = net::Ipv4Address{r.u32be()};
  r.skip(4);  // flags
  e.port = r.u16be();
  e.mode = r.u8();
  e.version = r.u8();
  return e;
}

/// Appends the items `p` carries to `out`, stopping once `out` holds
/// `limit` entries. Bounded by the bytes actually present, whatever the
/// header claims (a hand-built packet may claim more).
void append_items(const Mode7View& p, std::vector<MonitorEntry>& out,
                  std::size_t limit) {
  if (p.item_size != kMonitorItemBytes) return;
  std::size_t n =
      std::min<std::size_t>(p.item_count, p.data.size() / kMonitorItemBytes);
  n = std::min(n, limit - std::min(limit, out.size()));
  for (std::size_t i = 0; i < n; ++i) {
    out.push_back(decode_item(
        p.data.subspan(i * kMonitorItemBytes, kMonitorItemBytes)));
  }
}

/// Header of datagram `index` of a monlist dump of `entries` entries, and
/// the first entry it carries (it carries header.item_count of them).
struct MonlistSlice {
  Mode7Header header;
  std::size_t first = 0;
};

MonlistSlice monlist_slice(std::size_t entries, std::size_t index,
                           Implementation impl) {
  const std::size_t n = std::min(entries, kMonlistMaxEntries);
  MonlistSlice s;
  s.first = index * kMonitorItemsPerPacket;
  s.header.response = true;
  s.header.more = index + 1 < monlist_dump_packets(n);
  s.header.sequence = static_cast<std::uint8_t>(index & 0x7f);
  s.header.implementation = impl;
  s.header.request = RequestCode::kMonGetList1;
  s.header.error = n == 0 ? Mode7Error::kNoData : Mode7Error::kOk;
  s.header.item_count = static_cast<std::uint16_t>(
      std::min(kMonitorItemsPerPacket, n - std::min(n, s.first)));
  s.header.item_size = kMonitorItemBytes;
  return s;
}

}  // namespace

std::vector<Mode7Packet> make_monlist_response(
    std::span<const MonitorEntry> entries, Implementation impl) {
  const std::size_t num_packets = monlist_dump_packets(entries.size());
  std::vector<Mode7Packet> packets(num_packets);
  for (std::size_t pkt = 0; pkt < num_packets; ++pkt) {
    const auto [header, first] = monlist_slice(entries.size(), pkt, impl);
    Mode7Packet& p = packets[pkt];
    static_cast<Mode7Header&>(p) = header;
    p.data.reserve(header.item_count * kMonitorItemBytes);
    util::ByteWriter w(p.data);
    for (std::size_t i = 0; i < header.item_count; ++i) {
      encode_item(w, entries[first + i]);
    }
  }
  return packets;
}

std::vector<std::uint8_t> serialize_monlist_packet(
    std::span<const MonitorEntry> entries, std::size_t index,
    Implementation impl) {
  const auto [header, first] = monlist_slice(entries.size(), index, impl);
  std::vector<std::uint8_t> out;
  out.reserve(kMode7HeaderBytes + header.item_count * kMonitorItemBytes);
  util::ByteWriter w(out);
  write_header(w, header);
  for (std::size_t i = 0; i < header.item_count; ++i) {
    encode_item(w, entries[first + i]);
  }
  return out;
}

namespace {

void encode_legacy_item(std::vector<std::uint8_t>& out,
                        const MonitorEntry& e) {
  // struct info_monitor (pre-_1): lasttime, firsttime, restr, count, addr,
  // mode+version packed, filler — 32 bytes.
  util::ByteWriter w(out);
  w.u32be(e.avg_interval);
  w.u32be(e.last_seen);
  w.u32be(e.restr);
  w.u32be(e.count);
  w.u32be(e.address.value());
  w.u8(e.mode);
  w.u8(e.version);
  w.u16be(0);  // filler
  w.u32be(0);  // v6_flag
  w.u32be(0);  // unused
}

}  // namespace

std::vector<Mode7Packet> make_legacy_monlist_response(
    std::span<const MonitorEntry> entries, Implementation impl) {
  std::vector<Mode7Packet> packets;
  const std::size_t n = std::min(entries.size(), kMonlistMaxEntries);
  const std::size_t per = kLegacyMonitorItemsPerPacket;
  const std::size_t num_packets = n == 0 ? 1 : (n + per - 1) / per;
  packets.reserve(num_packets);
  for (std::size_t pkt = 0; pkt < num_packets; ++pkt) {
    const std::size_t first = pkt * per;
    const std::size_t count = std::min(per, n - std::min(n, first));
    Mode7Packet p;
    p.response = true;
    p.more = pkt + 1 < num_packets;
    p.sequence = static_cast<std::uint8_t>(pkt & 0x7f);
    p.implementation = impl;
    p.request = RequestCode::kMonGetList;
    p.error = n == 0 ? Mode7Error::kNoData : Mode7Error::kOk;
    p.item_count = static_cast<std::uint16_t>(count);
    p.item_size = kLegacyMonitorItemBytes;
    p.data.reserve(count * kLegacyMonitorItemBytes);
    for (std::size_t i = 0; i < count; ++i) {
      encode_legacy_item(p.data, entries[first + i]);
    }
    packets.push_back(std::move(p));
  }
  return packets;
}

std::vector<MonitorEntry> decode_legacy_items(const Mode7Packet& p) {
  std::vector<MonitorEntry> entries;
  if (p.item_size != kLegacyMonitorItemBytes) return entries;
  // A hand-built packet can claim more items than its data holds; decode
  // only the items the payload actually carries.
  const std::size_t n = std::min<std::size_t>(
      p.item_count, p.data.size() / kLegacyMonitorItemBytes);
  entries.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    const auto item = std::span<const std::uint8_t>(p.data).subspan(
        i * kLegacyMonitorItemBytes, kLegacyMonitorItemBytes);
    util::ByteReader r(item);
    MonitorEntry e;
    e.avg_interval = r.u32be();
    e.last_seen = r.u32be();
    e.restr = r.u32be();
    e.count = r.u32be();
    e.address = net::Ipv4Address{r.u32be()};
    e.mode = r.u8();
    e.version = r.u8();
    entries.push_back(e);
  }
  return entries;
}

Mode7Packet make_mode7_error(Mode7Error err, Implementation impl,
                             RequestCode request) {
  Mode7Packet p;
  p.response = true;
  p.implementation = impl;
  p.request = request;
  p.error = err;
  return p;
}

std::vector<MonitorEntry> decode_items(const Mode7Packet& p) {
  std::vector<MonitorEntry> entries;
  append_items(p.view(), entries, p.item_count);
  return entries;
}

std::uint64_t monlist_dump_packets(std::size_t entries) noexcept {
  const std::size_t n = std::min(entries, kMonlistMaxEntries);
  return n == 0 ? 1
                : (n + kMonitorItemsPerPacket - 1) / kMonitorItemsPerPacket;
}

std::uint64_t monlist_dump_udp_bytes(std::size_t entries) noexcept {
  const std::size_t n = std::min(entries, kMonlistMaxEntries);
  return monlist_dump_packets(n) * kMode7HeaderBytes + n * kMonitorItemBytes;
}

std::uint64_t monlist_dump_wire_bytes(std::size_t entries) noexcept {
  const std::size_t n = std::min(entries, kMonlistMaxEntries);
  if (n == 0) return net::on_wire_bytes_for_udp(kMode7HeaderBytes);
  std::uint64_t total = 0;
  const std::uint64_t full = n / kMonitorItemsPerPacket;
  total += full * net::on_wire_bytes_for_udp(
                      kMode7HeaderBytes +
                      kMonitorItemsPerPacket * kMonitorItemBytes);
  const std::size_t rem = n % kMonitorItemsPerPacket;
  if (rem != 0) {
    total += net::on_wire_bytes_for_udp(kMode7HeaderBytes +
                                        rem * kMonitorItemBytes);
  }
  return total;
}

Mode7Packet make_peer_list_request(Implementation impl) {
  Mode7Packet p = make_monlist_request(impl);
  p.request = RequestCode::kPeerList;
  return p;
}

namespace {

void encode_peer_item(std::vector<std::uint8_t>& out,
                      const PeerListEntry& e) {
  util::ByteWriter w(out);
  w.u32be(e.address.value());
  w.u16be(e.port);
  w.u8(e.hmode);
  w.u8(e.flags);
  w.u32be(0);     // v6_flag
  w.u32be(0);     // unused1
  w.fill(16, 0);  // addr6
}

}  // namespace

std::vector<Mode7Packet> make_peer_list_response(
    std::span<const PeerListEntry> peers, Implementation impl) {
  std::vector<Mode7Packet> packets;
  const std::size_t num_packets =
      peers.empty() ? 1
                    : (peers.size() + kPeerItemsPerPacket - 1) /
                          kPeerItemsPerPacket;
  for (std::size_t pkt = 0; pkt < num_packets; ++pkt) {
    const std::size_t first = pkt * kPeerItemsPerPacket;
    const std::size_t count = std::min(kPeerItemsPerPacket,
                                       peers.size() -
                                           std::min(peers.size(), first));
    Mode7Packet p;
    p.response = true;
    p.more = pkt + 1 < num_packets;
    p.sequence = static_cast<std::uint8_t>(pkt & 0x7f);
    p.implementation = impl;
    p.request = RequestCode::kPeerList;
    p.error = peers.empty() ? Mode7Error::kNoData : Mode7Error::kOk;
    p.item_count = static_cast<std::uint16_t>(count);
    p.item_size = kPeerListItemBytes;
    p.data.reserve(count * kPeerListItemBytes);
    for (std::size_t i = 0; i < count; ++i) {
      encode_peer_item(p.data, peers[first + i]);
    }
    packets.push_back(std::move(p));
  }
  return packets;
}

std::vector<PeerListEntry> decode_peer_items(const Mode7Packet& p) {
  std::vector<PeerListEntry> peers;
  if (p.item_size != kPeerListItemBytes) return peers;
  const std::size_t n =
      std::min<std::size_t>(p.item_count, p.data.size() / kPeerListItemBytes);
  for (std::size_t i = 0; i < n; ++i) {
    const auto item = std::span<const std::uint8_t>(p.data).subspan(
        i * kPeerListItemBytes, kPeerListItemBytes);
    util::ByteReader r(item);
    PeerListEntry e;
    e.address = net::Ipv4Address{r.u32be()};
    e.port = r.u16be();
    e.hmode = r.u8();
    e.flags = r.u8();
    peers.push_back(e);
  }
  return peers;
}

bool reassemble_monlist_into(std::span<const Mode7View> packets,
                             std::vector<MonitorEntry>& table) {
  // Keep only monlist responses; a new run starts at each sequence reset
  // (sequence <= previous), and the final run is decoded — matching the
  // paper's "use the final table received" rule for mega amplifiers.
  const auto is_table = [](const Mode7View& p) {
    return p.response && p.request == RequestCode::kMonGetList1 &&
           p.error == Mode7Error::kOk;
  };
  table.clear();
  std::size_t run_start = packets.size();
  std::size_t run_items = 0;
  const Mode7View* previous = nullptr;
  for (std::size_t i = 0; i < packets.size(); ++i) {
    const Mode7View& p = packets[i];
    if (!is_table(p)) continue;
    if (previous == nullptr || p.sequence <= previous->sequence) {
      run_start = i;
      run_items = 0;
    }
    run_items += p.item_count;
    previous = &p;
  }
  if (previous == nullptr) return false;
  // No real monitor table exceeds the 600-entry cap; a reassembly that would
  // is replayed/forged garbage. Keep the protocol invariant for consumers.
  table.reserve(std::min(run_items, kMonlistMaxEntries));
  for (std::size_t i = run_start; i < packets.size(); ++i) {
    if (is_table(packets[i])) {
      append_items(packets[i], table, kMonlistMaxEntries);
    }
  }
  return true;
}

std::optional<std::vector<MonitorEntry>> reassemble_monlist(
    std::span<const Mode7Packet> packets) {
  std::vector<Mode7View> views;
  views.reserve(packets.size());
  for (const auto& p : packets) views.push_back(p.view());
  std::vector<MonitorEntry> table;
  if (!reassemble_monlist_into(views, table)) return std::nullopt;
  return table;
}

}  // namespace gorilla::ntp
