// Tests for the legacy MON_GETLIST (code 20) path — the pre-info_monitor_1
// layout older ntpd builds answer with (§3's implementation-variant
// discussion).
#include <gtest/gtest.h>

#include "net/ethernet.h"
#include "ntp/mode7.h"
#include "ntp/server.h"

namespace gorilla::ntp {
namespace {

std::vector<MonitorEntry> make_entries(std::size_t n) {
  std::vector<MonitorEntry> entries;
  for (std::size_t i = 0; i < n; ++i) {
    MonitorEntry e;
    e.address = net::Ipv4Address{0x01000000u + static_cast<std::uint32_t>(i)};
    e.count = static_cast<std::uint32_t>(i * 3 + 1);
    e.avg_interval = static_cast<std::uint32_t>(i);
    e.last_seen = static_cast<std::uint32_t>(i * 2);
    e.mode = 7;
    e.version = 2;
    entries.push_back(e);
  }
  return entries;
}

TEST(LegacyMonlistTest, GeometryConstants) {
  EXPECT_EQ(kLegacyMonitorItemBytes, 32u);
  EXPECT_EQ(kLegacyMonitorItemsPerPacket, 15u);
}

TEST(LegacyMonlistTest, FifteenItemsPerPacket) {
  const auto packets = make_legacy_monlist_response(make_entries(16),
                                                    Implementation::kXntpdOld);
  ASSERT_EQ(packets.size(), 2u);
  EXPECT_EQ(packets[0].item_count, 15);
  EXPECT_EQ(packets[0].item_size, kLegacyMonitorItemBytes);
  EXPECT_EQ(packets[0].request, RequestCode::kMonGetList);
  EXPECT_TRUE(packets[0].more);
  EXPECT_EQ(packets[1].item_count, 1);
}

TEST(LegacyMonlistTest, RoundTripPreservesCoreFields) {
  const auto entries = make_entries(7);
  const auto packets = make_legacy_monlist_response(entries,
                                                    Implementation::kXntpdOld);
  const auto parsed = parse_mode7_packet(serialize(packets[0]));
  ASSERT_TRUE(parsed);
  const auto decoded = decode_legacy_items(*parsed);
  ASSERT_EQ(decoded.size(), entries.size());
  for (std::size_t i = 0; i < entries.size(); ++i) {
    EXPECT_EQ(decoded[i].address, entries[i].address);
    EXPECT_EQ(decoded[i].count, entries[i].count);
    EXPECT_EQ(decoded[i].avg_interval, entries[i].avg_interval);
    EXPECT_EQ(decoded[i].last_seen, entries[i].last_seen);
    EXPECT_EQ(decoded[i].mode, entries[i].mode);
    // The legacy layout carries no source port.
    EXPECT_EQ(decoded[i].port, 0);
  }
}

TEST(LegacyMonlistTest, LowerAmplificationThanModern) {
  // 600 entries: modern = 100 datagrams of 440B data; legacy = 40 datagrams
  // of 480B — the legacy command amplifies noticeably less.
  const auto entries = make_entries(600);
  const auto modern = make_monlist_response(entries, Implementation::kXntpd);
  const auto legacy = make_legacy_monlist_response(entries,
                                                   Implementation::kXntpd);
  EXPECT_EQ(modern.size(), 100u);
  EXPECT_EQ(legacy.size(), 40u);
  std::uint64_t modern_bytes = 0, legacy_bytes = 0;
  for (const auto& p : modern) modern_bytes += serialize(p).size();
  for (const auto& p : legacy) legacy_bytes += serialize(p).size();
  EXPECT_LT(legacy_bytes, modern_bytes / 2);
}

TEST(LegacyMonlistTest, ServerAnswersLegacyRequestCode) {
  NtpServerConfig cfg;
  cfg.address = net::Ipv4Address(10, 0, 0, 1);
  NtpServer server(cfg);
  for (std::uint32_t i = 0; i < 20; ++i) {
    server.monitor().observe(net::Ipv4Address{0x20000000u + i}, 123, 3, 4,
                             100 + i);
  }
  auto request = make_monlist_request();
  request.request = RequestCode::kMonGetList;
  net::UdpPacket probe;
  probe.src = net::Ipv4Address(20, 0, 0, 2);
  probe.dst = cfg.address;
  probe.src_port = 40000;
  probe.dst_port = net::kNtpPort;
  probe.payload = serialize(request);
  const auto response = server.handle(probe, 1000);
  ASSERT_FALSE(response.packets.empty());
  const auto parsed = parse_mode7_packet(response.packets[0].payload);
  ASSERT_TRUE(parsed);
  EXPECT_EQ(parsed->request, RequestCode::kMonGetList);
  EXPECT_EQ(parsed->item_size, kLegacyMonitorItemBytes);
  const auto items = decode_legacy_items(*parsed);
  ASSERT_FALSE(items.empty());
  EXPECT_EQ(items[0].address, probe.src);  // the probe itself, most recent
}

TEST(LegacyMonlistTest, EmptyTableNoDataReply) {
  const auto packets =
      make_legacy_monlist_response({}, Implementation::kXntpdOld);
  ASSERT_EQ(packets.size(), 1u);
  EXPECT_EQ(packets[0].error, Mode7Error::kNoData);
}

}  // namespace
}  // namespace gorilla::ntp
