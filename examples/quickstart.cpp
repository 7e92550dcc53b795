// Quickstart: the core loop of the library in about a hundred lines.
//
//   1. Stand up one simulated ntpd with an open monitor list.
//   2. Let a few clients (and one spoofing attacker) talk to it.
//   3. Probe it exactly as the OpenNTPProject did — one MON_GETLIST_1
//      packet — and reassemble the reply.
//   4. Classify every table entry with the paper's §4.2 filter and compute
//      the amplifier's on-wire bandwidth amplification factor.
//
// Build & run:  ./build/examples/quickstart   (it takes no arguments; any
// argument is refused with one stderr line and exit 2)
#include <cstdio>

#include "core/amplifiers.h"
#include "core/monlist_analysis.h"
#include "ntp/server.h"
#include "util/format.h"

using namespace gorilla;

int main(int argc, char** argv) {
  if (argc > 1) {
    std::fprintf(stderr, "quickstart: unknown argument '%s'\n", argv[1]);
    return 2;
  }

  // 1. One ntpd at 10.1.2.3 with monlist enabled (the vulnerable default
  //    of pre-4.2.7 ntpd).
  ntp::NtpServerConfig config;
  config.address = net::Ipv4Address(10, 1, 2, 3);
  ntp::SystemVariables identity;
  identity.system = "Linux/2.6.32";
  identity.version = "ntpd 4.2.4p8@1.1612 Sat Feb 20 2010";
  identity.stratum = 3;
  config.identity = identity.identity();
  ntp::NtpServer server(config);

  const util::SimTime now = 3 * util::kSecondsPerDay;

  // 2a. Two ordinary clients sync time (mode 3) over a few hours.
  server.monitor().observe_many(net::Ipv4Address(192, 0, 2, 10), 123, 3, 4,
                                /*packets=*/20, now - 5 * 3600, now - 120);
  server.monitor().observe_many(net::Ipv4Address(192, 0, 2, 77), 40123, 3, 4,
                                12, now - 4 * 3600, now - 900);

  // 2b. An attacker floods the server with spoofed MON_GETLIST_1 requests
  //     whose source is the victim: 200 packets/s for five minutes.
  const net::Ipv4Address victim(203, 0, 113, 55);
  server.monitor().observe_many(victim, /*port=*/80, /*mode=*/7, 2,
                                200 * 300, now - 360, now - 60);

  // 3. The weekly ONP-style probe: one 48-byte packet.
  net::UdpPacket probe;
  probe.src = net::Ipv4Address(198, 51, 100, 7);
  probe.dst = config.address;
  probe.src_port = 57915;
  probe.dst_port = net::kNtpPort;
  probe.timestamp = now;
  probe.payload = ntp::serialize(ntp::make_monlist_request());

  const auto response = server.handle(probe, now);
  std::printf("probe: %zu bytes on the wire -> reply: %llu packets, %s\n\n",
              static_cast<std::size_t>(probe.on_wire_bytes()),
              static_cast<unsigned long long>(response.total_packets),
              util::bytes_str(static_cast<double>(
                  response.total_on_wire_bytes)).c_str());

  std::vector<ntp::Mode7Packet> parsed;
  for (const auto& pkt : response.packets) {
    parsed.push_back(*ntp::parse_mode7_packet(pkt.payload));
  }
  const auto table = ntp::reassemble_monlist(parsed);

  // 4. Read the table the way §4 does.
  util::TextTable out({"client", "port", "count", "mode", "interarrival",
                       "last seen", "classified as"});
  for (const auto& e : *table) {
    const char* label = "";
    switch (core::classify_client(e)) {
      case core::ClientClass::kNonVictim: label = "normal client"; break;
      case core::ClientClass::kScannerOrLowVolume: label = "scanner"; break;
      case core::ClientClass::kVictim: label = "DDoS VICTIM"; break;
    }
    out.add_row({net::to_string(e.address), std::to_string(e.port),
                 std::to_string(e.count),
                 std::to_string(static_cast<int>(e.mode)),
                 std::to_string(e.avg_interval),
                 std::to_string(e.last_seen), label});
  }
  std::printf("%s\n", out.to_string().c_str());

  const double baf = static_cast<double>(response.total_on_wire_bytes) /
                     core::kBafDenominatorBytes;
  std::printf("on-wire BAF of this amplifier: %.1fx (84-byte query model)\n",
              baf);

  // The derived attack record for the victim entry.
  for (const auto& e : *table) {
    if (const auto attack = core::derive_attack(e, now, config.address)) {
      std::printf(
          "derived attack: victim %s port %u — %llu spoofed packets, "
          "~%llds, ended %llds before the probe\n",
          net::to_string(attack->victim).c_str(), attack->victim_port,
          static_cast<unsigned long long>(attack->packets),
          static_cast<long long>(attack->duration),
          static_cast<long long>(now - attack->end_time));
    }
  }
  return 0;
}
