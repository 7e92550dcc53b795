// Micro/meso performance benchmarks (google-benchmark) over the hot
// kernels the reproduction pipeline leans on: prefix-trie lookups, mode 6/7
// wire (de)serialization, monitor-table updates, checksum, the GORCOLv3
// artifact codec (varint kernel, delta transform, CRC-32, block codec), a
// full single-amplifier probe round trip, and the weekly layers (monlist pass,
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
#include "util/crc32.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace gorilla {
namespace {

void BM_PrefixTrieLookup(benchmark::State& state) {
  util::Rng rng(1);
  net::PrefixTrie<std::uint32_t> trie;
  for (std::uint32_t i = 0; i < static_cast<std::uint32_t>(state.range(0));
       ++i) {
    const auto length = static_cast<int>(rng.uniform_int(12, 24));
    const net::Ipv4Address base{static_cast<std::uint32_t>(rng.next())};
    trie.insert(net::Prefix(base, length), i);
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

std::vector<ntp::MonitorEntry> make_bench_entries(std::size_t n) {
  std::vector<ntp::MonitorEntry> entries(n);
  for (std::size_t i = 0; i < entries.size(); ++i) {
    entries[i].address = net::Ipv4Address{static_cast<std::uint32_t>(i + 1)};
    entries[i].count = static_cast<std::uint32_t>(i * 7);
  }
  return entries;
}

// Arg 0: table entries. Arg 1: 0 serializes via Mode7Packet
// (make_monlist_response + serialize), 1 writes each datagram straight from
// the entries (serialize_monlist_packet) as the server does.
void BM_MonlistSerialize(benchmark::State& state) {
  const auto entries =
      make_bench_entries(static_cast<std::size_t>(state.range(0)));
  const bool direct = state.range(1) != 0;
  for (auto _ : state) {
    std::size_t bytes = 0;
    if (direct) {
      const std::uint64_t n = ntp::monlist_dump_packets(entries.size());
      for (std::size_t k = 0; k < n; ++k) {
        bytes += ntp::serialize_monlist_packet(entries, k,
                                               ntp::Implementation::kXntpd)
                     .size();
      }
    } else {
      for (const auto& p :
           ntp::make_monlist_response(entries, ntp::Implementation::kXntpd)) {
        bytes += ntp::serialize(p).size();
      }
    }
    benchmark::DoNotOptimize(bytes);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_MonlistSerialize)
    ->ArgsProduct({{6, 60, 600}, {0, 1}})
    ->ArgNames({"entries", "direct"});

// The prober's read side: each datagram parsed in place and the final run
// decoded straight into one reused table.
void BM_MonlistParseReassemble(benchmark::State& state) {
  const auto entries = make_bench_entries(600);
  std::vector<std::vector<std::uint8_t>> wire;
  const std::uint64_t n = ntp::monlist_dump_packets(entries.size());
  for (std::size_t k = 0; k < n; ++k) {
    wire.push_back(
        ntp::serialize_monlist_packet(entries, k, ntp::Implementation::kXntpd));
  }
  std::vector<ntp::Mode7View> views;
  std::vector<ntp::MonitorEntry> table;
  for (auto _ : state) {
    views.clear();
    for (const auto& w : wire) views.push_back(*ntp::parse_mode7_view(w));
    benchmark::DoNotOptimize(ntp::reassemble_monlist_into(views, table));
    benchmark::DoNotOptimize(table.data());
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
  // then parsed in place and reassembled into one reused buffer as the
  // prober does.
  util::Rng rng(3);
  ntp::NtpServerConfig cfg;
  cfg.address = net::Ipv4Address(10, 0, 0, 1);
  std::string text;
  do {
    text = ntp::make_system_variables("linux", 2012, 2, rng);
  } while (text.size() <= ntp::kControlMaxDataBytes);
  cfg.identity = ntp::ServerIdentity(std::move(text), 2);
  ntp::NtpServer server(cfg);
  net::UdpPacket probe;
  probe.src = net::Ipv4Address(198, 51, 100, 7);
  probe.dst = cfg.address;
  probe.src_port = 57915;
  probe.dst_port = net::kNtpPort;
  probe.payload = ntp::serialize(ntp::make_version_request());
  std::vector<ntp::ControlView> parsed;
  std::string reply;
  util::SimTime now = 1000000;
  for (auto _ : state) {
    const auto response = server.handle(probe, ++now);
    parsed.clear();
    for (const auto& pkt : response.packets) {
      parsed.push_back(*ntp::parse_control_view(pkt.payload));
    }
    benchmark::DoNotOptimize(ntp::reassemble_readvar_into(parsed, reply));
    benchmark::DoNotOptimize(reply.data());
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

// --- GORCOLv3 artifact codec kernels (BM_ColumnarCodec family plus
// BM_Crc32): the varint decode kernel, the delta transform, the checksum
// and the block codec that together set record/replay artifact throughput.

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

void BM_Crc32(benchmark::State& state) {
  // The section and block checksum: every stored byte passes through it
  // twice on save and twice on load.
  std::vector<std::uint8_t> data(static_cast<std::size_t>(state.range(0)));
  util::Rng rng(8);
  for (auto& b : data) b = static_cast<std::uint8_t>(rng.next());
  for (auto _ : state) {
    benchmark::DoNotOptimize(util::crc32(data));
  }
  state.SetBytesProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_Crc32)->Arg(64 * 1024);

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
  // The world every run sets up first, built as bench::StudyPipeline builds
  // it: default registry, seed 1, the argument as --scale (40 is the study
  // shape's default).
  for (auto _ : state) {
    sim::WorldConfig cfg;
    cfg.scale = static_cast<std::uint32_t>(state.range(0));
    cfg.seed = 1;
    sim::World world(cfg);
    benchmark::DoNotOptimize(world.servers().size());
  }
}
BENCHMARK(BM_WorldBuild)
    ->Arg(400)
    ->Arg(100)
    ->Arg(40)
    ->Unit(benchmark::kMillisecond);

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
  // The serial mode 6 pass: per responder, one READVAR reply (fragments
  // cut from its stored identity text) and the prober's reassembly and
  // three-variable read. Each pass logs its monitor writes with the World,
  // a bit per server, and nothing here settles them.
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
  // One week's monitor seeding at --jobs N (plan drawn on the calling
  // thread, each 256-server chunk applied on an apply lane as soon as it is
  // drawn); the 1-job run applies each chunk inline through the same path,
  // so the pair reads as the lanes' scaling. Tables are
  // emptied between iterations, as the probe-time restart expiry mostly
  // does, so every iteration regrows their vectors from the heap.
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
