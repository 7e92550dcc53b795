#include <gtest/gtest.h>

#include "net/ethernet.h"
#include "ntp/mode7.h"
#include "ntp/server.h"

namespace gorilla::ntp {
namespace {

std::vector<PeerListEntry> make_peers(std::size_t n) {
  std::vector<PeerListEntry> peers;
  for (std::size_t i = 0; i < n; ++i) {
    PeerListEntry e;
    e.address = net::Ipv4Address{0x80000000u + static_cast<std::uint32_t>(i)};
    e.port = 123;
    e.hmode = 3;
    e.flags = static_cast<std::uint8_t>(i & 0xff);
    peers.push_back(e);
  }
  return peers;
}

TEST(PeerListTest, GeometryConstants) {
  EXPECT_EQ(kPeerListItemBytes, 32u);
  EXPECT_EQ(kPeerItemsPerPacket, 15u);
}

TEST(PeerListTest, RequestShape) {
  const auto req = make_peer_list_request();
  EXPECT_EQ(req.request, RequestCode::kPeerList);
  EXPECT_FALSE(req.response);
  EXPECT_EQ(serialize(req).size(), kMode7RequestBytes);
}

TEST(PeerListTest, EmptyPeerSetOneNoDataPacket) {
  const auto packets = make_peer_list_response({}, Implementation::kXntpd);
  ASSERT_EQ(packets.size(), 1u);
  EXPECT_EQ(packets[0].error, Mode7Error::kNoData);
  EXPECT_EQ(packets[0].item_count, 0);
}

TEST(PeerListTest, RoundTripThroughWire) {
  const auto peers = make_peers(4);
  const auto packets = make_peer_list_response(peers, Implementation::kXntpd);
  ASSERT_EQ(packets.size(), 1u);
  const auto parsed = parse_mode7_packet(serialize(packets[0]));
  ASSERT_TRUE(parsed);
  const auto decoded = decode_peer_items(*parsed);
  ASSERT_EQ(decoded.size(), peers.size());
  for (std::size_t i = 0; i < peers.size(); ++i) {
    EXPECT_EQ(decoded[i].address, peers[i].address);
    EXPECT_EQ(decoded[i].port, peers[i].port);
    EXPECT_EQ(decoded[i].hmode, peers[i].hmode);
    EXPECT_EQ(decoded[i].flags, peers[i].flags);
  }
}

TEST(PeerListTest, SixteenPeersSpillToSecondPacket) {
  const auto packets = make_peer_list_response(make_peers(16),
                                               Implementation::kXntpd);
  ASSERT_EQ(packets.size(), 2u);
  EXPECT_EQ(packets[0].item_count, 15);
  EXPECT_TRUE(packets[0].more);
  EXPECT_EQ(packets[1].item_count, 1);
  EXPECT_FALSE(packets[1].more);
}

class ServerPeerListTest : public ::testing::Test {
 protected:
  NtpServer make_server(std::vector<PeerListEntry> peers) {
    NtpServerConfig cfg;
    cfg.address = net::Ipv4Address(10, 0, 0, 1);
    cfg.peers = std::move(peers);
    return NtpServer(cfg);
  }

  net::UdpPacket request() {
    net::UdpPacket p;
    p.src = net::Ipv4Address(20, 0, 0, 2);
    p.dst = net::Ipv4Address(10, 0, 0, 1);
    p.src_port = 40000;
    p.dst_port = net::kNtpPort;
    p.payload = serialize(make_peer_list_request());
    return p;
  }
};

TEST_F(ServerPeerListTest, ServerAnswersShowpeers) {
  auto server = make_server(make_peers(4));
  const auto resp = server.handle(request(), 1000);
  ASSERT_EQ(resp.packets.size(), 1u);
  const auto parsed = parse_mode7_packet(resp.packets[0].payload);
  ASSERT_TRUE(parsed);
  EXPECT_EQ(decode_peer_items(*parsed).size(), 4u);
}

TEST_F(ServerPeerListTest, ShowpeersBafIsLow) {
  // §3.3: non-monlist commands have much lower amplification — a 4-peer
  // showpeers reply is a single small datagram.
  auto server = make_server(make_peers(4));
  const auto resp = server.handle(request(), 1000);
  const double baf =
      static_cast<double>(resp.total_on_wire_bytes) / 84.0;
  EXPECT_LT(baf, 3.0);
}

TEST_F(ServerPeerListTest, NoQuerySilencesShowpeersToo) {
  auto server = make_server(make_peers(4));
  server.set_monlist_enabled(false);
  EXPECT_EQ(server.handle(request(), 1000).total_packets, 0u);
}

TEST(ServerRateLimitTest, LimitsMode7ResponsesPerMinute) {
  NtpServerConfig cfg;
  cfg.address = net::Ipv4Address(10, 0, 0, 1);
  cfg.mode7_responses_per_minute = 3;
  NtpServer server(cfg);
  net::UdpPacket probe;
  probe.src = net::Ipv4Address(20, 0, 0, 2);
  probe.dst = cfg.address;
  probe.src_port = 40000;
  probe.dst_port = net::kNtpPort;
  probe.payload = serialize(make_monlist_request());

  int answered = 0;
  for (int i = 0; i < 10; ++i) {
    if (server.handle(probe, 120 + i).total_packets > 0) ++answered;
  }
  EXPECT_EQ(answered, 3);
  // The silenced requests were still monitored (witnessing continues).
  EXPECT_EQ(server.monitor().find(probe.src)->count, 10u);
  // A fresh minute refills the budget.
  EXPECT_GT(server.handle(probe, 300).total_packets, 0u);
}

TEST(ServerRateLimitTest, ZeroMeansUnlimited) {
  NtpServerConfig cfg;
  cfg.address = net::Ipv4Address(10, 0, 0, 1);
  NtpServer server(cfg);
  net::UdpPacket probe;
  probe.src = net::Ipv4Address(20, 0, 0, 2);
  probe.dst = cfg.address;
  probe.src_port = 40000;
  probe.dst_port = net::kNtpPort;
  probe.payload = serialize(make_monlist_request());
  for (int i = 0; i < 50; ++i) {
    EXPECT_GT(server.handle(probe, 100 + i).total_packets, 0u);
  }
}

TEST(ServerRateLimitTest, RateLimitCutsAttackVolume) {
  // The mitigation the paper credits at Merit: rate limits blunt the
  // amplification without fully disabling the service.
  NtpServerConfig cfg;
  cfg.address = net::Ipv4Address(10, 0, 0, 1);
  NtpServer open_server(cfg);
  cfg.mode7_responses_per_minute = 10;
  NtpServer limited_server(cfg);

  net::UdpPacket probe;
  probe.src = net::Ipv4Address(66, 0, 0, 1);  // spoofed victim
  probe.dst = cfg.address;
  probe.src_port = 80;
  probe.dst_port = net::kNtpPort;
  probe.payload = serialize(make_monlist_request());

  std::uint64_t open_bytes = 0, limited_bytes = 0;
  for (int i = 0; i < 600; ++i) {  // one minute at 10 pps
    open_bytes += open_server.handle(probe, 60 + i / 10).total_on_wire_bytes;
    limited_bytes +=
        limited_server.handle(probe, 60 + i / 10).total_on_wire_bytes;
  }
  EXPECT_LT(limited_bytes, open_bytes / 5);
  EXPECT_GT(limited_bytes, 0u);
}

}  // namespace
}  // namespace gorilla::ntp
