#include "ntp/mode7.h"

#include <gtest/gtest.h>

#include "net/ethernet.h"

namespace gorilla::ntp {
namespace {

MonitorEntry entry(std::uint32_t ip, std::uint16_t port, std::uint8_t mode,
                   std::uint32_t count, std::uint32_t avg_int,
                   std::uint32_t last_seen) {
  MonitorEntry e;
  e.address = net::Ipv4Address{ip};
  e.local_address = net::Ipv4Address{0x0a000001};
  e.port = port;
  e.mode = mode;
  e.version = 2;
  e.count = count;
  e.avg_interval = avg_int;
  e.last_seen = last_seen;
  return e;
}

std::vector<MonitorEntry> make_entries(std::size_t n) {
  std::vector<MonitorEntry> entries;
  for (std::size_t i = 0; i < n; ++i) {
    entries.push_back(entry(0x01000000u + static_cast<std::uint32_t>(i),
                            static_cast<std::uint16_t>(1024 + i), 7,
                            static_cast<std::uint32_t>(i + 1), 60, 10));
  }
  return entries;
}

TEST(Mode7GeometryTest, PaperConstants) {
  EXPECT_EQ(kMonitorItemBytes, 72u);        // info_monitor_1
  EXPECT_EQ(kMonitorItemsPerPacket, 6u);    // floor(500/72)
  EXPECT_EQ(kMonlistMaxEntries, 600u);      // table cap
  EXPECT_EQ(kMode7RequestBytes, 48u);
  EXPECT_EQ(kMode7AuthRequestBytes, 192u);
}

TEST(Mode7RequestTest, PlainRequestIs48Bytes) {
  const auto wire = serialize(make_monlist_request());
  EXPECT_EQ(wire.size(), kMode7RequestBytes);
}

TEST(Mode7RequestTest, AuthRequestIs192Bytes) {
  const auto wire = serialize(
      make_monlist_request(Implementation::kXntpd, /*authenticated=*/true));
  EXPECT_EQ(wire.size(), kMode7AuthRequestBytes);
}

TEST(Mode7RequestTest, RoundTrip) {
  const auto req = make_monlist_request(Implementation::kXntpdOld);
  const auto parsed = parse_mode7_packet(serialize(req));
  ASSERT_TRUE(parsed);
  EXPECT_FALSE(parsed->response);
  EXPECT_FALSE(parsed->more);
  EXPECT_EQ(parsed->implementation, Implementation::kXntpdOld);
  EXPECT_EQ(parsed->request, RequestCode::kMonGetList1);
  EXPECT_EQ(parsed->error, Mode7Error::kOk);
  EXPECT_EQ(parsed->item_count, 0);
}

TEST(Mode7ParseTest, RejectsNonPrivateMode) {
  auto wire = serialize(make_monlist_request());
  wire[0] = make_li_vn_mode(0, 2, Mode::kControl);
  EXPECT_FALSE(parse_mode7_packet(wire));
}

TEST(Mode7ParseTest, RejectsTruncatedItems) {
  const auto packets = make_monlist_response(make_entries(3),
                                             Implementation::kXntpd);
  auto wire = serialize(packets[0]);
  wire.resize(wire.size() - 10);  // chop into the last item
  EXPECT_FALSE(parse_mode7_packet(wire));
}

TEST(Mode7ParseTest, RejectsShortHeader) {
  const std::vector<std::uint8_t> wire = {0x97, 0x00, 0x03};
  EXPECT_FALSE(parse_mode7_packet(wire));
}

TEST(MonlistResponseTest, EmptyTableOneNoDataPacket) {
  const auto packets = make_monlist_response({}, Implementation::kXntpd);
  ASSERT_EQ(packets.size(), 1u);
  EXPECT_EQ(packets[0].error, Mode7Error::kNoData);
  EXPECT_EQ(packets[0].item_count, 0);
  EXPECT_FALSE(packets[0].more);
}

TEST(MonlistResponseTest, SixEntriesFitOnePacket) {
  const auto packets = make_monlist_response(make_entries(6),
                                             Implementation::kXntpd);
  ASSERT_EQ(packets.size(), 1u);
  EXPECT_EQ(packets[0].item_count, 6);
  EXPECT_FALSE(packets[0].more);
  EXPECT_EQ(serialize(packets[0]).size(),
            kMode7HeaderBytes + 6 * kMonitorItemBytes);
}

TEST(MonlistResponseTest, SevenEntriesSpillToSecondPacket) {
  const auto packets = make_monlist_response(make_entries(7),
                                             Implementation::kXntpd);
  ASSERT_EQ(packets.size(), 2u);
  EXPECT_EQ(packets[0].item_count, 6);
  EXPECT_TRUE(packets[0].more);
  EXPECT_EQ(packets[0].sequence, 0);
  EXPECT_EQ(packets[1].item_count, 1);
  EXPECT_FALSE(packets[1].more);
  EXPECT_EQ(packets[1].sequence, 1);
}

TEST(MonlistResponseTest, FullTableIsHundredPackets) {
  const auto packets = make_monlist_response(make_entries(600),
                                             Implementation::kXntpd);
  EXPECT_EQ(packets.size(), 100u);
  EXPECT_TRUE(packets[98].more);
  EXPECT_FALSE(packets[99].more);
}

TEST(MonlistResponseTest, TableCappedAt600) {
  const auto packets = make_monlist_response(make_entries(900),
                                             Implementation::kXntpd);
  std::size_t total_items = 0;
  for (const auto& p : packets) total_items += p.item_count;
  EXPECT_EQ(total_items, 600u);
}

TEST(MonlistResponseTest, ItemRoundTrip) {
  const auto original = entry(0xc0a80101u, 59436, 7, 3358227026u, 0, 0);
  const auto packets = make_monlist_response(std::vector{original},
                                             Implementation::kXntpd);
  const auto parsed = parse_mode7_packet(serialize(packets[0]));
  ASSERT_TRUE(parsed);
  const auto items = decode_items(*parsed);
  ASSERT_EQ(items.size(), 1u);
  EXPECT_EQ(items[0].address, original.address);
  EXPECT_EQ(items[0].port, original.port);
  EXPECT_EQ(items[0].mode, original.mode);
  EXPECT_EQ(items[0].count, original.count);  // >3e9 survives (Table 3b)
  EXPECT_EQ(items[0].avg_interval, original.avg_interval);
  EXPECT_EQ(items[0].last_seen, original.last_seen);
}

TEST(MonlistResponseTest, ReassembleAcrossPackets) {
  const auto entries = make_entries(20);
  const auto packets = make_monlist_response(entries, Implementation::kXntpd);
  const auto table = reassemble_monlist(packets);
  ASSERT_TRUE(table);
  ASSERT_EQ(table->size(), entries.size());
  for (std::size_t i = 0; i < entries.size(); ++i) {
    EXPECT_EQ((*table)[i].address, entries[i].address);
  }
}

TEST(MonlistResponseTest, ReassembleKeepsFinalRepeatedRun) {
  // Mega amplifiers resend the table; the analysis keeps the last run.
  const auto run1 = make_monlist_response(make_entries(8),
                                          Implementation::kXntpd);
  auto entries2 = make_entries(8);
  entries2[0].count = 999;  // the final run differs
  const auto run2 = make_monlist_response(entries2, Implementation::kXntpd);
  std::vector<Mode7Packet> combined = run1;
  combined.insert(combined.end(), run2.begin(), run2.end());
  const auto table = reassemble_monlist(combined);
  ASSERT_TRUE(table);
  ASSERT_EQ(table->size(), 8u);
  EXPECT_EQ((*table)[0].count, 999u);
}

TEST(MonlistResponseTest, ReassembleRejectsNonMonlist) {
  std::vector<Mode7Packet> packets = {make_monlist_request()};
  EXPECT_FALSE(reassemble_monlist(packets));
}

TEST(ErrorResponseTest, TinyAndCarriesCode) {
  const auto err = make_mode7_error(Mode7Error::kImplMismatch,
                                    Implementation::kXntpd,
                                    RequestCode::kMonGetList1);
  const auto wire = serialize(err);
  EXPECT_EQ(wire.size(), kMode7HeaderBytes);
  const auto parsed = parse_mode7_packet(wire);
  ASSERT_TRUE(parsed);
  EXPECT_TRUE(parsed->response);
  EXPECT_EQ(parsed->error, Mode7Error::kImplMismatch);
}

TEST(DumpSizeTest, PacketsFormula) {
  EXPECT_EQ(monlist_dump_packets(0), 1u);
  EXPECT_EQ(monlist_dump_packets(1), 1u);
  EXPECT_EQ(monlist_dump_packets(6), 1u);
  EXPECT_EQ(monlist_dump_packets(7), 2u);
  EXPECT_EQ(monlist_dump_packets(600), 100u);
  EXPECT_EQ(monlist_dump_packets(10000), 100u);  // capped
}

TEST(DumpSizeTest, UdpBytesFormula) {
  EXPECT_EQ(monlist_dump_udp_bytes(6), 8 + 6 * 72u);
  EXPECT_EQ(monlist_dump_udp_bytes(600), 100 * 8 + 600 * 72u);
}

TEST(DumpSizeTest, WireBytesMatchMaterializedPackets) {
  for (const std::size_t n : {0u, 1u, 5u, 6u, 7u, 13u, 600u}) {
    const auto packets = make_monlist_response(make_entries(n),
                                               Implementation::kXntpd);
    std::uint64_t wire = 0;
    for (const auto& p : packets) {
      wire += net::on_wire_bytes_for_udp(serialize(p).size());
    }
    EXPECT_EQ(monlist_dump_wire_bytes(n), wire) << "n=" << n;
  }
}

TEST(DumpSizeTest, FullDumpUnder50KB) {
  // §3.4: "The expected maximum amount of data returned for a query is
  // under 50K"; the wire-format model must agree.
  EXPECT_LT(monlist_dump_wire_bytes(600), 52'000u);
  EXPECT_GT(monlist_dump_wire_bytes(600), 45'000u);
}

// Parameterized sweep: every table size round-trips through serialize ->
// parse -> reassemble with content intact.
class MonlistSizeSweep : public ::testing::TestWithParam<std::size_t> {};

TEST_P(MonlistSizeSweep, WireRoundTrip) {
  const auto entries = make_entries(GetParam());
  const auto packets = make_monlist_response(entries, Implementation::kXntpd);
  std::vector<Mode7Packet> reparsed;
  for (const auto& p : packets) {
    const auto q = parse_mode7_packet(serialize(p));
    ASSERT_TRUE(q);
    reparsed.push_back(*q);
  }
  const auto table = reassemble_monlist(reparsed);
  ASSERT_TRUE(table);
  ASSERT_EQ(table->size(), std::min<std::size_t>(GetParam(), 600));
  for (std::size_t i = 0; i < table->size(); ++i) {
    EXPECT_EQ((*table)[i].address, entries[i].address);
    EXPECT_EQ((*table)[i].count, entries[i].count);
  }
}

// The server writes each datagram straight from its dump; the bytes must be
// exactly those of the packet path, header and items, for every geometry
// edge: the empty NoData reply, one partial datagram, exactly one full one,
// one item over, and the 600-entry cap from below, at and above.
TEST(MonlistDirectSerializeTest, MatchesPacketPathByteForByte) {
  for (const std::size_t n : {0u, 1u, 6u, 7u, 599u, 600u, 601u}) {
    const auto entries = make_entries(n);
    for (const auto impl : {Implementation::kXntpd, Implementation::kXntpdOld}) {
      const auto packets = make_monlist_response(entries, impl);
      ASSERT_EQ(packets.size(), monlist_dump_packets(n)) << "n=" << n;
      for (std::size_t k = 0; k < packets.size(); ++k) {
        EXPECT_EQ(serialize_monlist_packet(entries, k, impl),
                  serialize(packets[k]))
            << "n=" << n << " impl=" << static_cast<int>(impl) << " k=" << k;
      }
    }
  }
}

TEST(Mode7ViewTest, ParsesInPlaceAndDecodesLikeThePacket) {
  const auto entries = make_entries(4);
  const auto wire = serialize_monlist_packet(entries, 0, Implementation::kXntpd);
  const auto view = parse_mode7_view(wire);
  ASSERT_TRUE(view);
  EXPECT_TRUE(view->response);
  EXPECT_EQ(view->item_count, 4);
  // The data area is the datagram's own bytes, not a copy.
  EXPECT_EQ(view->data.data(), wire.data() + kMode7HeaderBytes);
  EXPECT_EQ(view->data.size(), 4 * kMonitorItemBytes);
  std::vector<MonitorEntry> from_view;
  ASSERT_TRUE(reassemble_monlist_into(std::span(&*view, 1), from_view));
  const auto from_packet = decode_items(*parse_mode7_packet(wire));
  ASSERT_EQ(from_view.size(), 4u);
  ASSERT_EQ(from_packet.size(), 4u);
  for (std::size_t i = 0; i < 4; ++i) {
    EXPECT_EQ(from_view[i].address, entries[i].address);
    EXPECT_EQ(from_view[i].port, from_packet[i].port);
    EXPECT_EQ(from_view[i].count, from_packet[i].count);
  }
}

TEST(Mode7ViewTest, ReassembleIntoReusesTheCallersTable) {
  const auto run = make_monlist_response(make_entries(13),
                                         Implementation::kXntpd);
  std::vector<Mode7View> views;
  for (const auto& p : run) views.push_back(p.view());
  std::vector<MonitorEntry> table(50);  // stale contents are replaced
  ASSERT_TRUE(reassemble_monlist_into(views, table));
  EXPECT_EQ(table.size(), 13u);
  EXPECT_EQ(table.front().address, make_entries(1).front().address);

  const auto refusal = make_mode7_error(Mode7Error::kImplMismatch,
                                        Implementation::kXntpd,
                                        RequestCode::kMonGetList1);
  const std::vector<Mode7View> refused{refusal.view()};
  EXPECT_FALSE(reassemble_monlist_into(refused, table));
  EXPECT_TRUE(table.empty());
}

INSTANTIATE_TEST_SUITE_P(Sizes, MonlistSizeSweep,
                         ::testing::Values(1, 2, 5, 6, 7, 11, 12, 59, 60, 100,
                                           599, 600, 601, 750));

}  // namespace
}  // namespace gorilla::ntp
