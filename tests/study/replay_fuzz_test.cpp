// Replay mutation fuzz. A small recording's block bodies are mutated and
// each block's CRC re-sealed (save() re-seals the section CRCs), so the
// damage passes both checksums and reaches the block decoder, the
// streaming readers and the column decoders. Each case replays into an
// event log, the §3/§4 analyses (census and victims over a small World's
// registry and PBL) and the collectors, so damaged tables and addresses
// also reach the analyses' folds. Every case must end in a refusal or a
// replay result, never a crash: the asan-ubsan preset runs it
// instrumented. Where every block still decodes, the streaming replay
// must dispatch exactly the events, and render exactly the analyses and
// collectors, that a replay of the same archive with its sections inflated
// to raw does. Fixed seed, bounded case count.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "core/amplifiers.h"
#include "core/victims.h"
#include "scan/prober.h"
#include "sim/world.h"
#include "study/analysis_sink.h"
#include "study/bus.h"
#include "study/collector_sink.h"
#include "study/events.h"
#include "study/recorder.h"
#include "telemetry/darknet.h"
#include "telemetry/flow.h"
#include "telemetry/traffic.h"
#include "util/block_codec.h"
#include "util/bytes.h"
#include "util/columnar.h"
#include "util/crc32.h"
#include "util/rng.h"

namespace gorilla::study {
namespace {

constexpr std::uint64_t kFuzzSeed = 20140113;
constexpr int kCases = 160;

StudyHeader fuzz_header() {
  StudyHeader h;
  h.scale = 400;
  h.seed = 7;
  h.quick = true;
  h.with_vantages = true;
  h.with_darknet = true;
  h.param_a = 2;
  return h;
}

/// Two weekly samples of 900 observations with 24-entry tables, between
/// days of global bytes, labels, flows and darknet scans: the monitor-table
/// columns span two or more 64 KiB blocks.
void emit_recording(EventSink& sink) {
  util::Rng rng(kFuzzSeed);
  for (int week = 0; week < 2; ++week) {
    for (int day = 7 * week; day < 7 * week + 7; ++day) {
      sink.on_global_bytes(day, telemetry::ProtocolClass::kNtp,
                           1.0e9 * (day + 1));
      telemetry::LabeledAttack label;
      label.start = day * 86400 + 3600;
      label.vector = telemetry::AttackVector::kNtp;
      label.peak_bps = 2.5e9 * (day + 1);
      sink.on_attack_label(label);
      for (int f = 0; f < 20; ++f) {
        telemetry::FlowRecord flow;
        flow.src = net::Ipv4Address(static_cast<std::uint32_t>(rng.next()));
        flow.dst = net::Ipv4Address(0xc6336400u + static_cast<std::uint32_t>(f));
        flow.src_port = 123;
        flow.dst_port = static_cast<std::uint16_t>(1024 + f);
        flow.packets = 1 + rng.next() % 500;
        flow.bytes = 468 * flow.packets;
        flow.payload_bytes = 440 * flow.packets;
        flow.first = day * 86400 + f * 60;
        flow.last = flow.first + 30;
        sink.on_flow(flow, f % 3);
      }
      sink.on_darknet_scan(net::Ipv4Address(0x0a0a0000u + static_cast<std::uint32_t>(day)),
                           day, 100 + static_cast<std::uint64_t>(day), day % 2 == 0);
    }
    const util::Date date{2014, 1, 10 + 7 * week};
    sink.on_sample_begin(week, date);
    for (std::uint32_t s = 0; s < 900; ++s) {
      scan::AmplifierObservation obs;
      obs.server_index = s * 5 + static_cast<std::uint32_t>(week);
      obs.address = net::Ipv4Address(0x0b000000u + s * 613);
      obs.response_packets = 1 + s % 90;
      obs.response_udp_bytes = 440 * obs.response_packets;
      obs.response_wire_bytes = 482 * obs.response_packets;
      obs.probe_time = (70 + 7 * week) * 86400 + s;
      obs.table_partial = s % 17 == 0;
      obs.attempts = 1 + static_cast<int>(s % 3);
      for (std::uint32_t i = 0; i < 24; ++i) {
        ntp::MonitorEntry entry;
        // 512 victim candidates spread over the address space, so victims
        // recur across amplifiers and samples.
        entry.address = net::Ipv4Address(
            static_cast<std::uint32_t>(rng.next() % 512) * 8388593u);
        entry.local_address = obs.address;
        entry.avg_interval = static_cast<std::uint32_t>(rng.next() % 5000);
        entry.last_seen = i * 60 + s % 60;
        entry.restr = i % 4;
        entry.count = 1 + static_cast<std::uint32_t>(rng.next() % 100000);
        entry.port = static_cast<std::uint16_t>(rng.next());
        entry.mode = static_cast<std::uint8_t>(i % 2 == 0 ? 7 : 3);
        entry.version = 2;
        obs.table.push_back(entry);
      }
      sink.on_probe_observation(week, obs);
    }
    scan::MonlistSampleSummary summary;
    summary.week = week;
    summary.date = date;
    summary.probes_sent = 5000;
    summary.responders = 900;
    sink.on_monlist_summary(summary);
    sink.on_sample_end(week);
  }
}

/// Every cell of every event, in dispatch order.
struct EventLog final : EventSink {
  std::vector<std::uint64_t> cells;

  [[nodiscard]] bool wants_flows() const override { return true; }
  [[nodiscard]] bool wants_labels() const override { return true; }

  template <class... T>
  void put(T... v) {
    (cells.push_back(static_cast<std::uint64_t>(v)), ...);
  }
  void on_global_bytes(int day, telemetry::ProtocolClass p,
                       double bytes) override {
    put(1, day, p, std::bit_cast<std::uint64_t>(bytes));
  }
  void on_attack_label(const telemetry::LabeledAttack& a) override {
    put(2, a.start, a.vector, std::bit_cast<std::uint64_t>(a.peak_bps));
  }
  void on_flow(const telemetry::FlowRecord& f, int vantage) override {
    put(3, vantage, f.src.value(), f.dst.value(), f.src_port, f.dst_port,
        f.protocol, f.ttl, f.packets, f.bytes, f.payload_bytes, f.first,
        f.last);
  }
  void on_darknet_scan(net::Ipv4Address scanner, int day,
                       std::uint64_t packets, bool benign) override {
    put(4, scanner.value(), day, packets, benign);
  }
  void on_sample_begin(int week, const util::Date& d) override {
    put(5, week, d.year, d.month, d.day);
  }
  void on_probe_observation(int week,
                            const scan::AmplifierObservation& o) override {
    put(6, week, o.server_index, o.address.value(), o.response_packets,
        o.response_udp_bytes, o.response_wire_bytes, o.probe_time,
        o.table_partial, o.attempts, o.table.size());
    for (const auto& e : o.table) {
      put(e.address.value(), e.local_address.value(), e.avg_interval,
          e.last_seen, e.restr, e.count, e.port, e.mode, e.version);
    }
  }
  void on_monlist_summary(const scan::MonlistSampleSummary& s) override {
    put(7, s.week, s.date.year, s.date.month, s.date.day, s.probes_sent,
        s.responders, s.error_replies, s.probes_lost, s.retries,
        s.truncated_tables, s.rate_limited);
  }
  void on_sample_end(int week) override { put(8, week); }
};

/// Days the recording's collector events cover.
constexpr int kRecordedDays = 14;

/// The world whose registry and PBL the analyses attribute addresses with.
/// 6000 ASes (scale 400 would auto-size 900) allocate past 11.0.0.0/12,
/// where the recording's amplifiers sit.
const sim::World& fuzz_world() {
  static const sim::World world = [] {
    sim::WorldConfig cfg;
    cfg.scale = 400;
    cfg.registry.num_ases = 6000;
    return sim::World(cfg);
  }();
  return world;
}

/// One replay's subscribers: the event log, the census and victim analyses
/// and the collectors, in that dispatch order.
struct Fanout {
  Fanout()
      : census(fuzz_world().registry(), fuzz_world().pbl()),
        victims(fuzz_world().registry(), fuzz_world().pbl()),
        global(kRecordedDays, 1.0e12),
        merit("Merit", {fuzz_world().registry().named().merit_space}),
        frgp("FRGP", {fuzz_world().registry().named().frgp_space}),
        csu("CSU", {fuzz_world().registry().named().csu_space}),
        darknet(telemetry::DarknetConfig{}) {
    analyses.census = &census;
    analyses.victims = &victims;
    analyses.summaries = &summaries;
    collectors.global = &global;
    collectors.labels = &labels;
    collectors.vantages = {&merit, &frgp, &csu};
    collectors.darknet = &darknet;
    bus.subscribe(&log);
    bus.subscribe(&analyses);
    bus.subscribe(&collectors);
  }
  Fanout(const Fanout&) = delete;
  Fanout& operator=(const Fanout&) = delete;

  bool replay(const Replayer& replayer) { return replayer.replay(bus); }

  /// Every closed census and victim row and accumulated view, exactly,
  /// except the hourly attack series (see expect_same_outputs).
  [[nodiscard]] std::string analyses_text() const {
    std::ostringstream out;
    out.precision(17);
    for (const auto& r : census.rows()) {
      out << r.week << ' ' << r.ips << ' ' << r.slash24s << ' '
          << r.routed_blocks << ' ' << r.asns << ' ' << r.end_hosts << ' '
          << r.ips_per_block << ' ' << r.baf.q1 << ' ' << r.baf.median << ' '
          << r.baf.q3 << ' ' << r.bytes_p95 << ' ' << r.mega_count << ' '
          << r.partial_tables;
      for (const auto n : r.by_continent) out << ' ' << n;
      out << '\n';
    }
    out << census.unique_ips() << ' ' << census.first_sample_fraction() << ' '
        << census.seen_once_fraction() << '\n';
    for (const auto& [addr, bytes] : census.mega_roster()) {
      out << addr.value() << '@' << bytes << ' ';
    }
    for (const auto& r : victims.rows()) {
      out << r.week << ' ' << r.ips << ' ' << r.routed_blocks << ' ' << r.asns
          << ' ' << r.end_hosts << ' ' << r.packets_mean << ' '
          << r.packets_median << ' ' << r.packets_p95 << ' '
          << r.amplifiers_per_victim << ' ' << r.median_window_seconds << ' '
          << r.scanner_mode6_share << ' ' << r.victim_mode6_share << '\n';
    }
    out << victims.unique_victims() << ' ' << victims.total_packets() << '\n';
    for (const auto& [port, share] : victims.top_ports(8)) {
      out << port << '=' << share << ' ';
    }
    for (const auto& [asn, packets] : victims.top_victim_ases(8)) {
      out << asn << ':' << packets << ' ';
    }
    for (const auto& [asn, packets] : victims.amplifier_as_breakdown()) {
      out << asn << '~' << packets << ' ';
    }
    for (const auto& [median, p95] : victims.duration_median_p95_by_sample()) {
      out << median << '/' << p95 << ' ';
    }
    return out.str();
  }

  [[nodiscard]] std::string collectors_text() const {
    std::ostringstream out;
    out.precision(17);
    for (int day = 0; day < kRecordedDays; ++day) {
      out << global.bytes(day, telemetry::ProtocolClass::kNtp) << ' ';
    }
    for (const auto& a : labels.attacks()) out << a.start << ' ' << a.peak_bps;
    for (const auto* v : {&merit, &frgp, &csu}) {
      out << ' ' << v->flows().size() << ' '
          << v->total_bytes([](const telemetry::FlowRecord&) { return true; });
    }
    out << ' ' << darknet.total_packets() << ' ' << darknet.scanners().size();
    return out.str();
  }

  EventLog log;
  core::AmplifierCensus census;
  core::VictimAnalysis victims;
  std::vector<scan::MonlistSampleSummary> summaries;
  AnalysisSink analyses;
  telemetry::GlobalTrafficCollector global;
  telemetry::AttackLabelStore labels;
  telemetry::FlowCollector merit, frgp, csu;
  telemetry::DarknetTelescope darknet;
  CollectorSink collectors;
  EventBus bus;
};

/// Two replays dispatched the same events and left the analyses and
/// collectors with the same outputs. The hourly attack series, the largest
/// one, is compared as a map rather than rendered.
void expect_same_outputs(const Fanout& a, const Fanout& b) {
  EXPECT_EQ(a.log.cells, b.log.cells);
  EXPECT_EQ(a.analyses_text(), b.analyses_text());
  EXPECT_TRUE(a.victims.attacks_per_hour() == b.victims.attacks_per_hour());
  EXPECT_EQ(a.collectors_text(), b.collectors_text());
}

/// Where each block frame of a block stream starts.
std::vector<std::size_t> frame_offsets(const std::vector<std::uint8_t>& stored) {
  std::vector<std::size_t> at;
  for (std::size_t off = 0; off < stored.size();) {
    at.push_back(off);
    off += util::kBlockHeaderSize + *util::load_u32le(stored, off + 4);
  }
  return at;
}

/// The archive with every block section inflated to a raw one; nullopt
/// when a block does not decode.
std::optional<util::ColumnArchive> inflated(const util::ColumnArchive& a) {
  util::ColumnArchive raw;
  raw.header = a.header;
  for (const auto& section : a.sections) {
    std::vector<std::uint8_t> bytes = section.bytes;
    if (section.storage == util::ColumnArchive::SectionStorage::kBlocks) {
      bytes.clear();
      if (!util::block_decompress(section.bytes, bytes)) return std::nullopt;
    }
    raw.sections.emplace_back(section.name, std::move(bytes));
  }
  return raw;
}

/// The recording as a loaded artifact: every section of 64 bytes or more
/// is a block stream after the save.
util::ColumnArchive loaded_recording() {
  Recorder recorder(fuzz_header());
  emit_recording(recorder);
  std::stringstream file;
  EXPECT_TRUE(recorder.to_archive().save(file));
  auto loaded = util::ColumnArchive::load(file);
  EXPECT_TRUE(loaded.has_value());
  return std::move(*loaded);
}

TEST(ReplayFuzzTest, MutatedBlockBodiesReplayOrRefuseNeverCrash) {
  const util::ColumnArchive base = loaded_recording();
  std::vector<std::size_t> block_sections;
  std::size_t multi_block = 0;
  for (std::size_t i = 0; i < base.sections.size(); ++i) {
    const auto& section = base.sections[i];
    if (section.storage != util::ColumnArchive::SectionStorage::kBlocks) {
      continue;
    }
    block_sections.push_back(i);
    if (frame_offsets(section.bytes).size() > 1) ++multi_block;
  }
  ASSERT_GE(block_sections.size(), 12u);
  ASSERT_GE(multi_block, 3u);

  // The intact recording replays the same both ways, and its tables reach
  // the analyses: attributed victims and amplifiers, and scanner entries.
  Replayer intact;
  ASSERT_TRUE(intact.load_archive(base));
  Fanout intact_out;
  ASSERT_TRUE(intact_out.replay(intact));
  Replayer intact_flat;
  ASSERT_TRUE(intact_flat.load_archive(*inflated(base)));
  Fanout intact_flat_out;
  ASSERT_TRUE(intact_flat_out.replay(intact_flat));
  expect_same_outputs(intact_flat_out, intact_out);
  ASSERT_EQ(intact_out.census.rows().size(), 2u);
  EXPECT_GT(intact_out.census.rows()[0].routed_blocks, 0u);
  EXPECT_GT(intact_out.victims.rows()[0].routed_blocks, 0u);
  EXPECT_GT(intact_out.victims.amplifier_as_count(), 0u);
  EXPECT_GT(intact_out.victims.unique_victims(), 0u);

  util::Rng rng(kFuzzSeed);
  int replayed = 0, refused = 0, compared = 0, failed = 0;
  for (int c = 0; c < kCases; ++c) {
    util::ColumnArchive mutant = base;
    auto& section =
        mutant.sections[block_sections[rng.next() % block_sections.size()]];
    auto& stored = section.bytes;
    const std::vector<std::size_t> frames = frame_offsets(stored);
    const std::size_t at = frames[rng.next() % frames.size()];
    const std::size_t body_len = *util::load_u32le(stored, at + 4);
    const auto body = std::span<std::uint8_t>(stored).subspan(
        at + util::kBlockHeaderSize, body_len);
    const int flips = 1 + static_cast<int>(rng.next() % 4);
    for (int f = 0; f < flips; ++f) {
      std::uint8_t& byte = body[rng.next() % body.size()];
      byte = rng.next() % 2 == 0
                 ? static_cast<std::uint8_t>(byte ^ (1u << (rng.next() % 8)))
                 : static_cast<std::uint8_t>(rng.next());
    }
    std::vector<std::uint8_t> crc;
    util::ByteWriter(crc).u32le(util::crc32(body));
    std::copy(crc.begin(), crc.end(),
              stored.begin() + static_cast<std::ptrdiff_t>(at + 8));
    SCOPED_TRACE(testing::Message() << "case " << c << " section "
                                    << section.name << " block at " << at);

    std::stringstream file;
    ASSERT_TRUE(mutant.save(file));
    Replayer replayer;
    auto loaded = util::ColumnArchive::load(file);
    if (!loaded || !replayer.load_archive(std::move(*loaded))) {
      ++refused;
      continue;
    }
    Fanout streamed;
    const bool streamed_ok = streamed.replay(replayer);
    ++replayed;
    if (!streamed_ok) ++failed;

    const auto raw = inflated(mutant);
    if (!raw) {
      EXPECT_FALSE(streamed_ok);  // the damaged block is always reached
      continue;
    }
    Replayer flat;
    ASSERT_TRUE(flat.load_archive(*raw));
    Fanout flat_out;
    EXPECT_EQ(flat_out.replay(flat), streamed_ok);
    expect_same_outputs(flat_out, streamed);
    ++compared;
  }
  // Every mutant passes the checksums, and the mix is not degenerate: some
  // mutants still decode and are compared, some fail their replay.
  EXPECT_EQ(refused, 0);
  EXPECT_EQ(replayed, kCases);
  EXPECT_GT(compared, 0);
  EXPECT_GT(failed, 0);
}

TEST(ReplayFuzzTest, WeekCapStopsWithReadAheadsInFlight) {
  // replay(sink, 1) returns early with every column's next block still
  // being decoded; the readers wait for them before the archive goes.
  auto replayer = std::make_unique<Replayer>();
  ASSERT_TRUE(replayer->load_archive(loaded_recording()));
  EventLog first_week;
  ASSERT_TRUE(replayer->replay(first_week, 1));
  replayer.reset();
  EXPECT_EQ(first_week.cells.back(), 0u);  // on_sample_end(0)
}

}  // namespace
}  // namespace gorilla::study
