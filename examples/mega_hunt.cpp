// Mega-amplifier hunt: find the boxes that answer one 48-byte probe with
// megabytes (§3.4), keep packet-level evidence, and hand the operator a
// forensic bundle — an ntpdc-format table dump plus a pcap any tcpdump or
// Wireshark can open.
//
// Usage: ./build/examples/mega_hunt [--scale N] [--pcap FILE]
#include <algorithm>
#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "example_args.h"
#include "net/pcap.h"
#include "ntp/ntpdc.h"
#include "scan/prober.h"
#include "sim/attack.h"
#include "study/bus.h"
#include "util/format.h"

using namespace gorilla;

int main(int argc, char** argv) {
  sim::WorldConfig wcfg;
  const auto args = examples::read_example_args(
      argc, argv, {200, 0, "/tmp/gorilla_mega_hunt.pcap"},
      examples::kScale | examples::kPcap);
  wcfg.scale = args.scale;
  const std::string& pcap_path = args.pcap;
  sim::World world(wcfg);

  // Some attack history so tables are interesting.
  study::EventBus no_sinks;
  sim::AttackEngine attacks(world, sim::AttackEngineConfig{}, no_sinks);
  for (int day = 95; day < 99; ++day) attacks.run_day(day);

  // Sweep the amplifier pool once and rank by response bytes.
  scan::Prober prober(world, net::Ipv4Address(198, 51, 100, 7));
  struct Hit {
    std::uint32_t server = 0;
    net::Ipv4Address address;
    std::uint64_t wire_bytes = 0;
    std::uint64_t packets = 0;
  };
  std::vector<Hit> hits;
  prober.run_monlist_sample(4, [&](const scan::AmplifierObservation& obs) {
    hits.push_back(Hit{obs.server_index, obs.address,
                       obs.response_wire_bytes, obs.response_packets});
  });
  std::sort(hits.begin(), hits.end(),
            [](const Hit& a, const Hit& b) {
              return a.wire_bytes > b.wire_bytes;
            });

  std::printf("swept %zu responding amplifiers; top repliers:\n\n",
              hits.size());
  util::TextTable table({"amplifier", "reply packets", "reply bytes",
                         "on-wire BAF"});
  for (std::size_t i = 0; i < hits.size() && i < 8; ++i) {
    table.add_row({net::to_string(hits[i].address),
                   std::to_string(hits[i].packets),
                   util::bytes_str(static_cast<double>(hits[i].wire_bytes)),
                   util::fixed(static_cast<double>(hits[i].wire_bytes) / 84.0,
                               0)});
  }
  std::printf("%s\n", table.to_string().c_str());

  if (hits.empty()) return 0;
  const auto& worst = hits.front();
  std::printf("worst offender %s replied with %s to one 48-byte probe —\n"
              "%s mega territory. Collecting evidence...\n\n",
              net::to_string(worst.address).c_str(),
              util::bytes_str(static_cast<double>(worst.wire_bytes)).c_str(),
              worst.wire_bytes > 100000 ? "§3.4" : "not quite");

  // Re-probe the worst offender, capturing packets to a pcap.
  auto* server = world.detailed(worst.server);
  net::UdpPacket probe;
  probe.src = net::Ipv4Address(198, 51, 100, 7);
  probe.dst = worst.address;
  probe.src_port = 57915;
  probe.dst_port = net::kNtpPort;
  probe.timestamp = scan::Prober::sample_time(4) + 3600;
  probe.payload = ntp::serialize(ntp::make_monlist_request());

  std::ofstream pcap_file(pcap_path, std::ios::binary);
  net::PcapWriter pcap(pcap_file);
  pcap.write(probe);
  const auto response = server->handle(probe, probe.timestamp);
  for (const auto& pkt : response.packets) {
    pcap.write(pkt);
  }
  // The writer's ok() is sticky; a full disk or unwritable path must fail
  // the process, not silently drop the evidence file.
  pcap_file.flush();
  if (!pcap.ok() || !pcap_file.good()) {
    std::fprintf(stderr, "FAILED to write evidence pcap: %s\n",
                 pcap_path.c_str());
    return 1;
  }
  std::printf("evidence pcap: %s (%llu packets%s)\n", pcap_path.c_str(),
              static_cast<unsigned long long>(pcap.packets_written()),
              response.truncated ? ", reply truncated to cap" : "");

  // And the human-readable table, exactly as ntpdc would print it.
  std::vector<ntp::Mode7Packet> parsed;
  for (const auto& pkt : response.packets) {
    if (auto p = ntp::parse_mode7_packet(pkt.payload)) {
      parsed.push_back(std::move(*p));
    }
  }
  if (const auto tbl = ntp::reassemble_monlist(parsed)) {
    std::vector<ntp::MonitorEntry> head(
        tbl->begin(), tbl->begin() + std::min<std::size_t>(10, tbl->size()));
    std::printf("\nntpdc -c monlist %s   (first %zu of %zu entries)\n%s",
                net::to_string(worst.address).c_str(), head.size(),
                tbl->size(), ntp::render_monlist(head).c_str());
  }
  return 0;
}
