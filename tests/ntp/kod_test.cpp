// Kiss-of-Death behaviour: rate-limited servers can answer with a 48-byte
// "RATE" packet; clients recognize it and never mistake it for time.
#include <gtest/gtest.h>

#include "net/ethernet.h"
#include "ntp/client.h"
#include "ntp/server.h"

namespace gorilla::ntp {
namespace {

NtpServerConfig kod_config() {
  NtpServerConfig cfg;
  cfg.address = net::Ipv4Address(10, 0, 0, 1);
  cfg.mode7_responses_per_minute = 1;
  cfg.kod_on_rate_limit = true;
  return cfg;
}

net::UdpPacket monlist_probe(const NtpServerConfig& cfg) {
  net::UdpPacket probe;
  probe.src = net::Ipv4Address(20, 0, 0, 2);
  probe.dst = cfg.address;
  probe.src_port = 40000;
  probe.dst_port = net::kNtpPort;
  probe.payload = serialize(make_monlist_request());
  return probe;
}

TEST(KodTest, RateLimitedServerSendsRatePacket) {
  auto cfg = kod_config();
  NtpServer server(cfg);
  const auto probe = monlist_probe(cfg);
  // First request within the minute is answered normally.
  const auto first = server.handle(probe, 60);
  ASSERT_GT(first.total_packets, 0u);
  EXPECT_TRUE(parse_mode7_packet(first.packets[0].payload).has_value());
  // Second is rate-limited: a single 48-byte KoD, not a dump.
  const auto second = server.handle(probe, 61);
  ASSERT_EQ(second.packets.size(), 1u);
  const auto kod = parse_time_packet(second.packets[0].payload);
  ASSERT_TRUE(kod);
  EXPECT_EQ(kod->stratum, 0);
  EXPECT_EQ(kod->reference_id, kKissRate);
  EXPECT_EQ(second.packets[0].payload.size(), kTimePacketBytes);
}

TEST(KodTest, KodCarriesNoAmplification) {
  auto cfg = kod_config();
  NtpServer server(cfg);
  for (std::uint32_t i = 0; i < 700; ++i) {
    server.monitor().observe(net::Ipv4Address{0x30000000u + i}, 123, 3, 4,
                             50);
  }
  const auto probe = monlist_probe(cfg);
  (void)server.handle(probe, 60);  // consume the budget
  const auto limited = server.handle(probe, 61);
  // 48-byte reply to a 48-byte query: on-wire BAF ~1.
  EXPECT_LE(limited.total_on_wire_bytes, 120u);
}

TEST(KodTest, SilentModeWhenKodDisabled) {
  auto cfg = kod_config();
  cfg.kod_on_rate_limit = false;
  NtpServer server(cfg);
  const auto probe = monlist_probe(cfg);
  (void)server.handle(probe, 60);
  EXPECT_EQ(server.handle(probe, 61).total_packets, 0u);
}

TEST(KodTest, ClientRecognizesRateKiss) {
  NtpClient client;
  (void)client.make_request(100);
  TimePacket kod;
  kod.mode = Mode::kServer;
  kod.stratum = 0;
  kod.leap = 3;
  kod.reference_id = kKissRate;
  kod.origin_ts = to_ntp_timestamp(100);
  EXPECT_FALSE(client.process_reply(kod, 101));
  EXPECT_EQ(client.last_error(), ReplyError::kKissOfDeath);
  EXPECT_EQ(client.samples_recorded(), 0u);
}

TEST(KodTest, ClientRecognizesDenyKiss) {
  NtpClient client;
  (void)client.make_request(200);
  TimePacket kod;
  kod.mode = Mode::kServer;
  kod.stratum = 0;
  kod.reference_id = kKissDeny;
  kod.origin_ts = to_ntp_timestamp(200);
  EXPECT_FALSE(client.process_reply(kod, 201));
  EXPECT_EQ(client.last_error(), ReplyError::kKissOfDeath);
}

TEST(KodTest, PlainStratumZeroIsUnsynchronizedNotKiss) {
  NtpClient client;
  (void)client.make_request(300);
  TimePacket reply;
  reply.mode = Mode::kServer;
  reply.stratum = 0;
  reply.reference_id = 0;
  reply.origin_ts = to_ntp_timestamp(300);
  EXPECT_FALSE(client.process_reply(reply, 301));
  EXPECT_EQ(client.last_error(), ReplyError::kUnsynchronized);
}

}  // namespace
}  // namespace gorilla::ntp
