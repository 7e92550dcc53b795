// Micro/meso performance benchmarks (google-benchmark) over the hot
// kernels the reproduction pipeline leans on: prefix-trie lookups, mode 6/7
// wire (de)serialization, monitor-table updates, checksum, the GORCOLv3
// artifact codec (varint kernel, delta transform, block codec), a full
// single-amplifier probe round trip, and the weekly layers (monlist pass,
// version pass, monitor seeding at --jobs 4).
#include <benchmark/benchmark.h>

#include "net/packet.h"
#include "net/prefix_trie.h"
#include "net/registry.h"
#include "ntp/mode6.h"
#include "ntp/mode7.h"
#include "ntp/monlist.h"
#include "ntp/server.h"
#include "ntp/sysinfo.h"
#include "scan/prober.h"
#include "sim/attack.h"
#include "sim/scanner.h"
#include "sim/sharded_executor.h"
#include "sim/world.h"
#include "study/bus.h"
#include "util/block_codec.h"
#include "util/bytes.h"
#include "util/columnar.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace gorilla {
namespace {

void BM_PrefixTrieLookup(benchmark::State& state) {
  util::Rng rng(1);
  net::PrefixTrie<std::uint32_t> trie;
  for (std::uint32_t i = 0; i < static_cast<std::uint32_t>(state.range(0));
       ++i) {
    trie.insert(net::Prefix(net::Ipv4Address{
                                static_cast<std::uint32_t>(rng.next())},
                            static_cast<int>(rng.uniform_int(12, 24))),
                i);
  }
  std::uint64_t x = 12345;
  for (auto _ : state) {
    x = x * 6364136223846793005ULL + 1;
    benchmark::DoNotOptimize(
        trie.lookup(net::Ipv4Address{static_cast<std::uint32_t>(x >> 32)}));
  }
}
BENCHMARK(BM_PrefixTrieLookup)->Arg(1000)->Arg(100000);

void BM_RegistryAsnLookup(benchmark::State& state) {
  net::RegistryConfig cfg;
  cfg.num_ases = 5000;
  const net::Registry registry(cfg);
  util::Rng rng(2);
  for (auto _ : state) {
    benchmark::DoNotOptimize(registry.asn_of(registry.random_address(rng)));
  }
}
BENCHMARK(BM_RegistryAsnLookup);

void BM_MonlistSerialize(benchmark::State& state) {
  std::vector<ntp::MonitorEntry> entries(
      static_cast<std::size_t>(state.range(0)));
  for (std::size_t i = 0; i < entries.size(); ++i) {
    entries[i].address = net::Ipv4Address{static_cast<std::uint32_t>(i + 1)};
    entries[i].count = static_cast<std::uint32_t>(i * 7);
  }
  for (auto _ : state) {
    const auto packets =
        ntp::make_monlist_response(entries, ntp::Implementation::kXntpd);
    std::size_t bytes = 0;
    for (const auto& p : packets) bytes += ntp::serialize(p).size();
    benchmark::DoNotOptimize(bytes);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_MonlistSerialize)->Arg(6)->Arg(60)->Arg(600);

void BM_MonlistParseReassemble(benchmark::State& state) {
  std::vector<ntp::MonitorEntry> entries(600);
  for (std::size_t i = 0; i < entries.size(); ++i) {
    entries[i].address = net::Ipv4Address{static_cast<std::uint32_t>(i + 1)};
  }
  std::vector<std::vector<std::uint8_t>> wire;
  for (const auto& p :
       ntp::make_monlist_response(entries, ntp::Implementation::kXntpd)) {
    wire.push_back(ntp::serialize(p));
  }
  for (auto _ : state) {
    std::vector<ntp::Mode7Packet> parsed;
    parsed.reserve(wire.size());
    for (const auto& w : wire) {
      parsed.push_back(*ntp::parse_mode7_packet(w));
    }
    benchmark::DoNotOptimize(ntp::reassemble_monlist(parsed));
  }
  state.SetItemsProcessed(state.iterations() * 600);
}
BENCHMARK(BM_MonlistParseReassemble);

void BM_MonitorObserve(benchmark::State& state) {
  ntp::MonitorTable table;
  std::uint64_t x = 99;
  util::SimTime now = 0;
  for (auto _ : state) {
    x = x * 6364136223846793005ULL + 1;
    table.observe(net::Ipv4Address{static_cast<std::uint32_t>(
                      (x >> 32) % static_cast<std::uint32_t>(state.range(0)))},
                  123, 3, 4, ++now);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_MonitorObserve)->Arg(100)->Arg(10000);

void BM_MonlistDump(benchmark::State& state) {
  // dump() is the §4 victimology hot loop: every weekly probe renders every
  // responding amplifier's table. Populate with distinct last_seen values
  // (the common case — the recency list is already totally ordered, so the
  // tie-break sort never fires) and measure the render.
  ntp::MonitorTable table;
  const auto n = static_cast<std::uint32_t>(state.range(0));
  for (std::uint32_t i = 0; i < n; ++i) {
    table.observe(net::Ipv4Address{0x0a000000u + i}, 123, 7, 2,
                  static_cast<util::SimTime>(i + 1));
  }
  const net::Ipv4Address local(10, 0, 0, 1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(table.dump(100000, local));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_MonlistDump)->Arg(6)->Arg(60)->Arg(600);

void BM_ReadvarRoundTrip(benchmark::State& state) {
  // A server holding a world-drawn identity (a full ntpd install, two
  // fragments): the version probe's reply is cut from the stored text,
  // then parsed and reassembled as the prober does.
  util::Rng rng(3);
  ntp::NtpServerConfig cfg;
  cfg.address = net::Ipv4Address(10, 0, 0, 1);
  do {
    cfg.identity = ntp::make_system_variables("linux", 2012, 2, rng);
  } while (cfg.identity.readvar.size() <= ntp::kControlMaxDataBytes);
  ntp::NtpServer server(cfg);
  net::UdpPacket probe;
  probe.src = net::Ipv4Address(198, 51, 100, 7);
  probe.dst = cfg.address;
  probe.src_port = 57915;
  probe.dst_port = net::kNtpPort;
  probe.payload = ntp::serialize(ntp::make_version_request());
  std::vector<ntp::ControlPacket> parsed;
  util::SimTime now = 1000000;
  for (auto _ : state) {
    const auto response = server.handle(probe, ++now);
    parsed.clear();
    for (const auto& pkt : response.packets) {
      parsed.push_back(*ntp::parse_control_packet(pkt.payload));
    }
    benchmark::DoNotOptimize(ntp::reassemble_readvar(parsed));
  }
}
BENCHMARK(BM_ReadvarRoundTrip);

void BM_InternetChecksum(benchmark::State& state) {
  std::vector<std::uint8_t> data(static_cast<std::size_t>(state.range(0)));
  for (std::size_t i = 0; i < data.size(); ++i) {
    data[i] = static_cast<std::uint8_t>(i * 31);
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(net::internet_checksum(data));
  }
  state.SetBytesProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_InternetChecksum)->Arg(64)->Arg(1500);

// --- GORCOLv3 artifact codec kernels (BM_ColumnarCodec family): the
// varint decode kernel, the delta transform, and the block codec that
// together set record/replay artifact throughput.

void BM_ColumnarCodecVarintDecode(benchmark::State& state) {
  // A realistic column: zigzagged small deltas with the occasional big
  // outlier, decoded back with the shared unrolled kernel.
  util::ColumnWriter w;
  const auto n = static_cast<std::uint64_t>(state.range(0));
  util::Rng rng(3);
  for (std::uint64_t i = 0; i < n; ++i) {
    w.put_varint(rng.next() % (i % 97 == 0 ? (1ull << 40) : 1000));
  }
  const std::vector<std::uint8_t>& buf = w.buffer();
  for (auto _ : state) {
    std::size_t pos = 0;
    std::uint64_t sum = 0;
    while (pos < buf.size()) {
      std::uint64_t v = 0;
      const int used = util::decode_varint(buf, pos, v);
      if (used == 0) break;
      pos += static_cast<std::size_t>(used);
      sum += v;
    }
    benchmark::DoNotOptimize(sum);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(n));
  state.SetBytesProcessed(state.iterations() *
                          static_cast<std::int64_t>(buf.size()));
}
BENCHMARK(BM_ColumnarCodecVarintDecode)->Arg(100000);

void BM_ColumnarCodecDeltaTransform(benchmark::State& state) {
  // The v3 encode-side transform on a monotone address column: delta +
  // zigzag + varint append.
  const auto n = static_cast<std::uint64_t>(state.range(0));
  std::vector<std::int64_t> addresses(n);
  util::Rng rng(4);
  std::int64_t cursor = 0;
  for (auto& a : addresses) {
    cursor += static_cast<std::int64_t>(rng.next() % 4096);
    a = cursor;
  }
  for (auto _ : state) {
    util::ColumnWriter w;
    std::int64_t prev = 0;
    for (const std::int64_t a : addresses) {
      w.put_zigzag(a - prev);
      prev = a;
    }
    benchmark::DoNotOptimize(w.size());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(n));
}
BENCHMARK(BM_ColumnarCodecDeltaTransform)->Arg(100000);

void BM_ColumnarCodecBlockCompress(benchmark::State& state) {
  // Delta-transformed column bytes (what v3 actually feeds the codec).
  util::ColumnWriter w;
  util::Rng rng(5);
  for (int i = 0; i < state.range(0); ++i) {
    w.put_zigzag(static_cast<std::int64_t>(rng.next() % 64) - 32);
  }
  const std::vector<std::uint8_t>& raw = w.buffer();
  for (auto _ : state) {
    benchmark::DoNotOptimize(util::block_compress(raw).size());
  }
  state.SetBytesProcessed(state.iterations() *
                          static_cast<std::int64_t>(raw.size()));
}
BENCHMARK(BM_ColumnarCodecBlockCompress)->Arg(300000);

void BM_ColumnarCodecBlockDecompress(benchmark::State& state) {
  util::ColumnWriter w;
  util::Rng rng(6);
  for (int i = 0; i < state.range(0); ++i) {
    w.put_zigzag(static_cast<std::int64_t>(rng.next() % 64) - 32);
  }
  const std::vector<std::uint8_t> stored = util::block_compress(w.buffer());
  std::vector<std::uint8_t> out;
  for (auto _ : state) {
    out.clear();
    benchmark::DoNotOptimize(util::block_decompress(stored, out));
  }
  state.SetBytesProcessed(state.iterations() *
                          static_cast<std::int64_t>(out.size()));
}
BENCHMARK(BM_ColumnarCodecBlockDecompress)->Arg(300000);

void BM_ServerProbeRoundTrip(benchmark::State& state) {
  ntp::NtpServerConfig cfg;
  cfg.address = net::Ipv4Address(10, 0, 0, 1);
  ntp::NtpServer server(cfg);
  for (std::uint32_t i = 0; i < static_cast<std::uint32_t>(state.range(0));
       ++i) {
    server.monitor().observe(net::Ipv4Address{0x14000000u + i}, 123, 3, 4,
                             i);
  }
  net::UdpPacket probe;
  probe.src = net::Ipv4Address(198, 51, 100, 7);
  probe.dst = cfg.address;
  probe.src_port = 57915;
  probe.dst_port = net::kNtpPort;
  probe.payload = ntp::serialize(ntp::make_monlist_request());
  util::SimTime now = 1000000;
  for (auto _ : state) {
    benchmark::DoNotOptimize(server.handle(probe, ++now));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ServerProbeRoundTrip)->Arg(5)->Arg(600);

// --- Meso benchmarks: the macro paths the study pipeline spends its time
// in (small worlds so a full google-benchmark repetition loop stays sane).

void BM_WorldBuild(benchmark::State& state) {
  for (auto _ : state) {
    sim::WorldConfig cfg;
    cfg.scale = static_cast<std::uint32_t>(state.range(0));
    cfg.registry.num_ases = 2000;
    sim::World world(cfg);
    benchmark::DoNotOptimize(world.servers().size());
  }
}
BENCHMARK(BM_WorldBuild)->Arg(400)->Arg(100)->Unit(benchmark::kMillisecond);

void BM_AttackDay(benchmark::State& state) {
  sim::WorldConfig cfg;
  cfg.scale = 200;
  cfg.registry.num_ases = 2000;
  sim::World world(cfg);
  study::EventBus no_sinks;
  sim::AttackEngine attacks(world, sim::AttackEngineConfig{}, no_sinks);
  int day = 95;
  for (auto _ : state) {
    benchmark::DoNotOptimize(attacks.run_day(day).size());
    if (++day > 130) day = 95;  // stay in the busy window
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_AttackDay)->Unit(benchmark::kMillisecond);

void BM_WeeklyMonlistSample(benchmark::State& state) {
  sim::WorldConfig cfg;
  cfg.scale = 400;
  cfg.registry.num_ases = 2000;
  sim::World world(cfg);
  scan::Prober prober(world, net::Ipv4Address(198, 51, 100, 7));
  for (auto _ : state) {
    std::uint64_t responders =
        prober
            .run_monlist_sample(0,
                                [](const scan::AmplifierObservation&) {})
            .responders;
    benchmark::DoNotOptimize(responders);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(
                              world.amplifier_indices().size()));
}
BENCHMARK(BM_WeeklyMonlistSample)->Unit(benchmark::kMillisecond);

void BM_WeeklyVersionSample(benchmark::State& state) {
  // The serial mode 6 pass: per responder, one READVAR round trip through
  // the server (fragments cut from its stored identity text) and the
  // prober's reassembly and three-variable read.
  sim::WorldConfig cfg;
  cfg.scale = 400;
  cfg.registry.num_ases = 2000;
  sim::World world(cfg);
  scan::Prober prober(world, net::Ipv4Address(198, 51, 100, 7));
  std::uint64_t responders = 0;
  for (auto _ : state) {
    responders =
        prober.run_version_sample(0, [](const scan::VersionObservation&) {})
            .responders_detailed;
    benchmark::DoNotOptimize(responders);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(responders));
}
BENCHMARK(BM_WeeklyVersionSample)->Unit(benchmark::kMillisecond);

void BM_SeedMonitorTables(benchmark::State& state) {
  // One week's monitor seeding at --jobs N (plan on the calling thread,
  // apply fanned out over the shared world arena); the 1-job run is the
  // inline path, so the pair reads as the fan-out's scaling. Tables are
  // emptied between iterations, as the probe-time restart expiry mostly
  // does, so every iteration regrows them from the arena.
  sim::WorldConfig cfg;
  cfg.scale = 100;
  cfg.registry.num_ases = 2000;
  sim::World world(cfg);
  sim::ScanTraffic scans(world, sim::ScanTrafficConfig{});
  util::ThreadPool pool(static_cast<int>(state.range(0)));
  sim::ShardedExecutor executor(&pool);
  for (auto _ : state) {
    scans.seed_monitor_tables(8, &executor);
    state.PauseTiming();
    for (const auto ai : world.amplifier_indices()) {
      if (auto* server = world.detailed(ai)) server->monitor().clear();
    }
    state.ResumeTiming();
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(
                              world.amplifier_indices().size()));
}
BENCHMARK(BM_SeedMonitorTables)
    ->Arg(1)
    ->Arg(4)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

}  // namespace
}  // namespace gorilla

BENCHMARK_MAIN();
