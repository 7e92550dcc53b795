#include "ntp/server.h"

#include <gtest/gtest.h>

#include "net/ethernet.h"

namespace gorilla::ntp {
namespace {

constexpr net::Ipv4Address kServerAddr{0x0a000001};
constexpr net::Ipv4Address kClientAddr{0x14000002};

NtpServerConfig base_config() {
  NtpServerConfig cfg;
  cfg.address = kServerAddr;
  SystemVariables vars;
  vars.version = "ntpd 4.2.6p5@1.2349-o Tue May 10 2011";
  vars.system = "Linux/2.6.32";
  vars.stratum = 2;
  cfg.identity = vars.identity();
  return cfg;
}

net::UdpPacket make_packet(std::vector<std::uint8_t> payload,
                           std::uint16_t sport = 40000) {
  net::UdpPacket p;
  p.src = kClientAddr;
  p.dst = kServerAddr;
  p.src_port = sport;
  p.dst_port = net::kNtpPort;
  p.timestamp = 1000;
  p.payload = std::move(payload);
  return p;
}

net::UdpPacket monlist_probe(Implementation impl = Implementation::kXntpd) {
  return make_packet(serialize(make_monlist_request(impl)));
}

net::UdpPacket version_probe() {
  return make_packet(serialize(make_version_request(1)));
}

net::UdpPacket time_query() {
  TimePacket q;
  q.mode = Mode::kClient;
  q.transmit_ts = 0xabcdef;
  return make_packet(serialize(q));
}

TEST(NtpServerTest, AnswersTimeQueryWithMode4) {
  NtpServer server(base_config());
  const auto resp = server.handle(time_query(), 1000);
  ASSERT_EQ(resp.packets.size(), 1u);
  EXPECT_EQ(resp.total_packets, 1u);
  const auto reply = parse_time_packet(resp.packets[0].payload);
  ASSERT_TRUE(reply);
  EXPECT_EQ(reply->mode, Mode::kServer);
  EXPECT_EQ(reply->stratum, 2);
  EXPECT_EQ(reply->origin_ts, 0xabcdefu);  // echoes client transmit
  EXPECT_EQ(resp.packets[0].src, kServerAddr);
  EXPECT_EQ(resp.packets[0].dst, kClientAddr);
  EXPECT_EQ(resp.packets[0].src_port, net::kNtpPort);
  EXPECT_EQ(resp.packets[0].dst_port, 40000);
}

TEST(NtpServerTest, UnsynchronizedServerReportsLeapAndStratum16) {
  auto cfg = base_config();
  cfg.identity.stratum = kStratumUnsynchronized;
  NtpServer server(cfg);
  const auto resp = server.handle(time_query(), 1000);
  const auto reply = parse_time_packet(resp.packets[0].payload);
  ASSERT_TRUE(reply);
  EXPECT_EQ(reply->stratum, 16);
  EXPECT_EQ(reply->leap, 3);
}

TEST(NtpServerTest, TimeQueryIsMonitored) {
  NtpServer server(base_config());
  server.handle(time_query(), 1000);
  const auto slot = server.monitor().find(kClientAddr);
  ASSERT_TRUE(slot.has_value());
  EXPECT_EQ(slot->mode, 3);
}

TEST(NtpServerTest, MonlistOnEmptyTableReturnsNoData) {
  NtpServer server(base_config());
  const auto resp = server.handle(monlist_probe(), 1000);
  // The probe itself is recorded first, so the dump carries one entry:
  // the prober (exactly the paper's Table 3a shape).
  ASSERT_EQ(resp.packets.size(), 1u);
  const auto parsed = parse_mode7_packet(resp.packets[0].payload);
  ASSERT_TRUE(parsed);
  EXPECT_EQ(parsed->item_count, 1);
  const auto items = decode_items(*parsed);
  ASSERT_EQ(items.size(), 1u);
  EXPECT_EQ(items[0].address, kClientAddr);
  EXPECT_EQ(items[0].mode, 7);
  EXPECT_EQ(items[0].last_seen, 0u);
}

TEST(NtpServerTest, MonlistDumpsPriorClients) {
  NtpServer server(base_config());
  for (std::uint32_t i = 0; i < 10; ++i) {
    server.monitor().observe(net::Ipv4Address{0x15000000u + i}, 123, 3, 4,
                             500 + i);
  }
  const auto resp = server.handle(monlist_probe(), 1000);
  std::vector<Mode7Packet> parsed;
  for (const auto& pkt : resp.packets) {
    parsed.push_back(*parse_mode7_packet(pkt.payload));
  }
  const auto table = reassemble_monlist(parsed);
  ASSERT_TRUE(table);
  EXPECT_EQ(table->size(), 11u);  // 10 clients + the probe
}

TEST(NtpServerTest, NoQueryServerStaysSilentButRecords) {
  auto cfg = base_config();
  cfg.monlist_enabled = false;
  NtpServer server(cfg);
  const auto resp = server.handle(monlist_probe(), 1000);
  EXPECT_EQ(resp.total_packets, 0u);
  EXPECT_TRUE(resp.packets.empty());
  // But the probe was still monitored — remediated servers keep witnessing.
  EXPECT_TRUE(server.monitor().find(kClientAddr).has_value());
}

TEST(NtpServerTest, ImplementationMismatchGetsTinyError) {
  auto cfg = base_config();
  cfg.accepted_impl = Implementation::kXntpdOld;
  NtpServer server(cfg);
  const auto resp = server.handle(monlist_probe(Implementation::kXntpd), 1000);
  ASSERT_EQ(resp.packets.size(), 1u);
  const auto parsed = parse_mode7_packet(resp.packets[0].payload);
  ASSERT_TRUE(parsed);
  EXPECT_EQ(parsed->error, Mode7Error::kImplMismatch);
  EXPECT_EQ(parsed->item_count, 0);
  EXPECT_EQ(resp.total_on_wire_bytes, net::kMinOnWireBytes);  // no amplification
}

TEST(NtpServerTest, UnivImplementationAccepted) {
  NtpServer server(base_config());
  const auto resp = server.handle(monlist_probe(Implementation::kUniv), 1000);
  ASSERT_GE(resp.packets.size(), 1u);
  const auto parsed = parse_mode7_packet(resp.packets[0].payload);
  ASSERT_TRUE(parsed);
  EXPECT_EQ(parsed->error, Mode7Error::kOk);
}

TEST(NtpServerTest, VersionProbeReturnsSystemVariables) {
  NtpServer server(base_config());
  const auto resp = server.handle(version_probe(), 1000);
  ASSERT_GE(resp.packets.size(), 1u);
  std::vector<ControlPacket> fragments;
  for (const auto& pkt : resp.packets) {
    fragments.push_back(*parse_control_packet(pkt.payload));
  }
  const auto text = reassemble_readvar(fragments);
  ASSERT_TRUE(text);
  const auto vars = parse_variable_list(*text);
  EXPECT_EQ(vars.at("system"), "Linux/2.6.32");
  EXPECT_EQ(vars.at("stratum"), "2");
}

TEST(NtpServerTest, Mode6DisabledStaysSilent) {
  auto cfg = base_config();
  cfg.mode6_enabled = false;
  NtpServer server(cfg);
  const auto resp = server.handle(version_probe(), 1000);
  EXPECT_EQ(resp.total_packets, 0u);
}

TEST(NtpServerTest, ResponsesNeverAnswered) {
  // A mode 7 *response* packet must not trigger a reply (loop protection).
  NtpServer server(base_config());
  auto resp_pkt = make_monlist_request();
  resp_pkt.response = true;
  const auto resp = server.handle(make_packet(serialize(resp_pkt)), 1000);
  EXPECT_EQ(resp.total_packets, 0u);
}

TEST(NtpServerTest, EmptyPayloadIgnored) {
  NtpServer server(base_config());
  const auto resp = server.handle(make_packet({}), 1000);
  EXPECT_EQ(resp.total_packets, 0u);
}

TEST(NtpServerTest, AmplificationFactorForPrimedTable) {
  // A primed (600-entry) table must amplify a 48-byte query by hundreds
  // on the wire — the §3.2 headline behaviour.
  NtpServer server(base_config());
  for (std::uint32_t i = 0; i < 700; ++i) {
    server.monitor().observe(net::Ipv4Address{0x20000000u + i}, 123, 3, 4,
                             900);
  }
  const auto resp = server.handle(monlist_probe(), 1000);
  EXPECT_EQ(resp.total_packets, 100u);
  const double baf = static_cast<double>(resp.total_on_wire_bytes) / 84.0;
  EXPECT_GT(baf, 400.0);
  EXPECT_LT(baf, 700.0);
}

TEST(NtpServerTest, MegaLoopMultipliesTotalsExactly) {
  auto cfg = base_config();
  cfg.loop_repeat = 4;  // dump sent 5 times
  NtpServer server(cfg);
  const auto resp = server.handle(monlist_probe(), 1000);
  // Each dump: one packet (just the probe entry), repeated 5 times.
  EXPECT_EQ(resp.total_packets, 5u);
  EXPECT_EQ(resp.packets.size(), 5u);
  EXPECT_FALSE(resp.truncated);
  // The probe's count reflects all loop deliveries.
  EXPECT_EQ(server.monitor().find(kClientAddr)->count, 5u);
}

TEST(NtpServerTest, HugeLoopTruncatesMaterializationButNotTotals) {
  auto cfg = base_config();
  cfg.loop_repeat = 1'000'000;
  NtpServer server(cfg);
  const auto resp = server.handle(monlist_probe(), 1000, /*cap=*/100);
  EXPECT_EQ(resp.total_packets, 1'000'001u);
  EXPECT_LE(resp.packets.size(), 100u);
  EXPECT_TRUE(resp.truncated);
  // A single small probe elicits >100MB on the wire: the mega jackpot.
  EXPECT_GT(resp.total_on_wire_bytes, 100'000'000u);
}

TEST(NtpServerTest, LoopAppliesToVersionResponsesToo) {
  auto cfg = base_config();
  cfg.loop_repeat = 2;
  NtpServer server(cfg);
  const auto resp = server.handle(version_probe(), 1000);
  EXPECT_EQ(resp.total_packets, 3u);
}

TEST(NtpServerTest, RemediationHooksTakeEffect) {
  NtpServer server(base_config());
  EXPECT_GT(server.handle(monlist_probe(), 1000).total_packets, 0u);
  server.set_monlist_enabled(false);
  EXPECT_EQ(server.handle(monlist_probe(), 2000).total_packets, 0u);
  server.set_mode6_enabled(false);
  EXPECT_EQ(server.handle(version_probe(), 3000).total_packets, 0u);
}

TEST(NtpServerTest, ReplyTtlMatchesConfig) {
  auto cfg = base_config();
  cfg.initial_ttl = 255;
  NtpServer server(cfg);
  const auto resp = server.handle(time_query(), 1000);
  EXPECT_EQ(resp.packets[0].ttl, 255);
}

TEST(NtpServerTest, SpoofedSourceGetsReflectedTraffic) {
  // The essence of the attack: replies go to the packet's (spoofed) source.
  NtpServer server(base_config());
  auto probe = monlist_probe();
  probe.src = net::Ipv4Address(66, 66, 66, 66);  // the victim
  const auto resp = server.handle(probe, 1000);
  for (const auto& pkt : resp.packets) {
    EXPECT_EQ(pkt.dst, net::Ipv4Address(66, 66, 66, 66));
  }
}

}  // namespace
}  // namespace gorilla::ntp
