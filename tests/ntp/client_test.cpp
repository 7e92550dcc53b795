#include "client.h"

#include <gtest/gtest.h>

#include "net/packet.h"
#include "ntp/server.h"

namespace gorilla::ntp {
namespace {

constexpr net::Ipv4Address kServerAddr{0x0a000001};
constexpr net::Ipv4Address kClientAddr{0x14000002};

NtpServer make_server(int stratum = 2) {
  NtpServerConfig cfg;
  cfg.address = kServerAddr;
  cfg.identity.stratum = stratum;
  return NtpServer(cfg);
}

/// Runs one full client<->server exchange. The client clock is
/// `client_skew` seconds ahead of true time; network delay is one-way
/// `owd` seconds each direction.
std::optional<ClockSample> exchange(NtpClient& client, NtpServer& server,
                                    util::SimTime true_now,
                                    util::SimTime client_skew,
                                    util::SimTime owd = 0) {
  const util::SimTime local_send = true_now + client_skew;
  net::UdpPacket request;
  request.src = kClientAddr;
  request.dst = kServerAddr;
  request.src_port = 40000;
  request.dst_port = net::kNtpPort;
  request.payload = serialize(client.make_request(local_send));
  const auto response = server.handle(request, true_now + owd);
  if (response.packets.empty()) return std::nullopt;
  const auto reply = parse_time_packet(response.packets[0].payload);
  if (!reply) return std::nullopt;
  const util::SimTime local_recv = true_now + 2 * owd + client_skew;
  return client.process_reply(*reply, local_recv);
}

TEST(NtpTimestampTest, RoundTrip) {
  EXPECT_EQ(from_ntp_timestamp(to_ntp_timestamp(0)), 0.0);
  EXPECT_EQ(from_ntp_timestamp(to_ntp_timestamp(12345)), 12345.0);
  // Fractional part decodes.
  const std::uint64_t half = to_ntp_timestamp(10) | 0x80000000u;
  EXPECT_DOUBLE_EQ(from_ntp_timestamp(half), 10.5);
}

TEST(NtpClientTest, SynchronizedClientMeasuresZeroOffset) {
  auto server = make_server();
  NtpClient client;
  const auto sample = exchange(client, server, 1000, /*skew=*/0);
  ASSERT_TRUE(sample);
  EXPECT_DOUBLE_EQ(sample->offset, 0.0);
  EXPECT_DOUBLE_EQ(sample->delay, 0.0);
  EXPECT_EQ(sample->stratum, 2);
}

TEST(NtpClientTest, MeasuresClockSkew) {
  auto server = make_server();
  NtpClient client;
  // Client clock is 25 seconds fast: offset should be -25.
  const auto sample = exchange(client, server, 5000, /*skew=*/25);
  ASSERT_TRUE(sample);
  EXPECT_NEAR(sample->offset, -25.0, 1e-9);
}

TEST(NtpClientTest, SymmetricDelayDoesNotBiasOffset) {
  auto server = make_server();
  NtpClient client;
  const auto sample = exchange(client, server, 5000, /*skew=*/-40,
                               /*owd=*/3);
  ASSERT_TRUE(sample);
  EXPECT_NEAR(sample->offset, 40.0, 1e-9);
  EXPECT_NEAR(sample->delay, 6.0, 1e-9);
}

TEST(NtpClientTest, RejectsUnsynchronizedServer) {
  // §3.3: a fifth of the NTP population reports stratum 16 — useless to
  // clients even though it happily answers.
  auto server = make_server(kStratumUnsynchronized);
  NtpClient client;
  const auto sample = exchange(client, server, 1000, 0);
  EXPECT_FALSE(sample);
  EXPECT_EQ(client.last_error(), ReplyError::kUnsynchronized);
  EXPECT_EQ(client.samples_recorded(), 0u);
}

TEST(NtpClientTest, RejectsBogusOrigin) {
  NtpClient client;
  (void)client.make_request(100);
  TimePacket forged;
  forged.mode = Mode::kServer;
  forged.stratum = 2;
  forged.origin_ts = to_ntp_timestamp(99);  // not our transmit time
  forged.receive_ts = to_ntp_timestamp(100);
  forged.transmit_ts = to_ntp_timestamp(100);
  EXPECT_FALSE(client.process_reply(forged, 101));
  EXPECT_EQ(client.last_error(), ReplyError::kBogusOrigin);
}

TEST(NtpClientTest, RejectsReplayOfConsumedReply) {
  auto server = make_server();
  NtpClient client;
  const util::SimTime local_send = 1000;
  const auto request_pkt = client.make_request(local_send);
  net::UdpPacket request;
  request.src = kClientAddr;
  request.dst = kServerAddr;
  request.src_port = 40000;
  request.dst_port = net::kNtpPort;
  request.payload = serialize(request_pkt);
  const auto response = server.handle(request, 1000);
  const auto reply = parse_time_packet(response.packets[0].payload);
  ASSERT_TRUE(client.process_reply(*reply, 1001));
  // Replaying the same reply must fail — the origin was consumed.
  EXPECT_FALSE(client.process_reply(*reply, 1002));
  EXPECT_EQ(client.last_error(), ReplyError::kBogusOrigin);
}

TEST(NtpClientTest, RejectsNonServerModes) {
  NtpClient client;
  (void)client.make_request(100);
  TimePacket broadcast;
  broadcast.mode = Mode::kBroadcast;
  EXPECT_FALSE(client.process_reply(broadcast, 101));
  EXPECT_EQ(client.last_error(), ReplyError::kNotServerMode);
}

TEST(NtpClientTest, ClockFilterPrefersMinimumDelay) {
  auto server = make_server();
  NtpClient client;
  // Several exchanges with varying (symmetric) delay; the best sample is
  // the minimum-delay one, whose offset estimate is also the cleanest.
  for (util::SimTime owd : {5, 1, 9, 3}) {
    ASSERT_TRUE(exchange(client, server, 1000 + owd * 100, /*skew=*/7, owd));
  }
  const auto best = client.best_sample();
  ASSERT_TRUE(best);
  EXPECT_NEAR(best->delay, 2.0, 1e-9);  // owd=1 round trip
  EXPECT_NEAR(best->offset, -7.0, 1e-9);
}

TEST(NtpClientTest, FilterHoldsEightSamples) {
  auto server = make_server();
  NtpClient client;
  for (int i = 0; i < 20; ++i) {
    ASSERT_TRUE(exchange(client, server, 1000 + i * 64, 0));
  }
  EXPECT_EQ(client.samples_recorded(), 8u);
}

}  // namespace
}  // namespace gorilla::ntp
