// Replay-backend equivalence suite (ROADMAP "Multi-backend replay"):
// a DetectorSink fed by the live EventBus renders byte-identically to one
// fed by a replayed artifact (for any --jobs), the bus fans the full
// ordered stream out to every subscriber, and a PcapExportSink capture
// round-trips through net::PcapReader + ntp::reassemble_monlist back to
// the exact monitor table it witnessed.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <sstream>
#include <string>
#include <vector>

#include "common.h"
#include "core/monlist_analysis.h"
#include "net/pcap.h"
#include "ntp/mode7.h"
#include "scan/prober.h"
#include "study/bus.h"
#include "study/detector_sink.h"
#include "study/pcap_export_sink.h"
#include "study/recorder.h"
#include "util/time.h"

namespace gorilla::study {
namespace {

/// The detector configuration gorilla_replay derives from a recording's
/// header: its window is the harness's attack_days(), a pure function of
/// the header, so live and replay configure identical sinks.
DetectorSinkConfig detector_config(const StudyHeader& shape) {
  const bench::DayWindow days = bench::attack_days(shape);
  DetectorSinkConfig cfg;
  cfg.window_start =
      static_cast<util::SimTime>(days.from) * util::kSecondsPerDay;
  cfg.window_end = static_cast<util::SimTime>(days.to) * util::kSecondsPerDay;
  cfg.bucket_seconds = 300;
  cfg.detector.floor_bps = 5e6;
  return cfg;
}

TEST(ReplayBackendsTest, LiveBusAndReplayedArtifactRenderByteIdentically) {
  const std::string path = testing::TempDir() + "replay_backends_live.study";

  bench::Options opt;
  opt.scale = 400;
  opt.quick = true;
  opt.record = path;

  std::string live_render;
  {
    bench::StudyPipeline pipeline(opt);
    DetectorSink live(detector_config(pipeline.shape()));
    pipeline.extra_sinks.push_back(&live);
    pipeline.run();
    live.finish();
    live_render = live.render();
    // The quick study at this scale must actually exercise the detector —
    // an empty report would make byte-equality vacuous.
    EXPECT_GT(live.flows_binned(), 0u);
  }
  EXPECT_NE(live_render.find("attack "), std::string::npos);

  Replayer replayer;
  ASSERT_TRUE(replayer.load(path));
  DetectorSink replayed(detector_config(replayer.header()));
  ASSERT_TRUE(replayer.replay(replayed));
  replayed.finish();
  EXPECT_EQ(replayed.render(), live_render);

  // The identity holds under the sharded engine too: a --jobs 3 live run
  // drives the same event order through the bus.
  bench::Options sharded = opt;
  sharded.record.clear();
  sharded.jobs = 3;
  {
    bench::StudyPipeline pipeline(sharded);
    DetectorSink live_sharded(detector_config(pipeline.shape()));
    pipeline.extra_sinks.push_back(&live_sharded);
    pipeline.run();
    live_sharded.finish();
    EXPECT_EQ(live_sharded.render(), live_render);
  }

  std::remove(path.c_str());
}

/// Journals every delivered event as one line, for order equality across
/// fan-out subscribers.
struct JournalSink final : EventSink {
  std::vector<std::string> lines;
  [[nodiscard]] bool wants_flows() const override { return true; }
  [[nodiscard]] bool wants_labels() const override { return true; }
  void on_global_bytes(int day, telemetry::ProtocolClass p,
                       double bytes) override {
    lines.push_back("global " + std::to_string(day) + " " +
                    std::to_string(static_cast<int>(p)) + " " +
                    std::to_string(bytes));
  }
  void on_attack_label(const telemetry::LabeledAttack& label) override {
    lines.push_back("label " + std::to_string(label.start) + " " +
                    std::to_string(label.peak_bps));
  }
  void on_flow(const telemetry::FlowRecord& flow, int vantage) override {
    lines.push_back("flow " + std::to_string(vantage) + " " +
                    std::to_string(flow.src.value()) + " " +
                    std::to_string(flow.bytes));
  }
  void on_sample_begin(int week, const util::Date& date) override {
    lines.push_back("begin " + std::to_string(week) + " " +
                    std::to_string(date.day));
  }
  void on_probe_observation(int week,
                            const scan::AmplifierObservation& obs) override {
    lines.push_back("obs " + std::to_string(week) + " " +
                    std::to_string(obs.server_index) + " " +
                    std::to_string(obs.table.size()));
  }
  void on_monlist_summary(const scan::MonlistSampleSummary& summary) override {
    lines.push_back("sum " + std::to_string(summary.week));
  }
  void on_sample_end(int week) override {
    lines.push_back("end " + std::to_string(week));
  }
};

void emit_synthetic_week(EventSink& sink, int week) {
  sink.on_global_bytes(week * 7, telemetry::ProtocolClass::kNtp,
                       2.5e9 * (week + 1));
  telemetry::LabeledAttack label;
  label.start = static_cast<util::SimTime>(week) * util::kSecondsPerDay;
  label.vector = telemetry::AttackVector::kNtp;
  label.peak_bps = 1e9 + week;
  sink.on_attack_label(label);

  telemetry::FlowRecord flow;
  flow.src = net::Ipv4Address(192, 0, 2, static_cast<std::uint8_t>(week + 1));
  flow.dst = net::Ipv4Address(198, 51, 100, 9);
  flow.src_port = 123;
  flow.bytes = 9000u + static_cast<std::uint64_t>(week);
  sink.on_flow(flow, kAllVantages);

  sink.on_sample_begin(week, util::Date{2013, 11, 1 + week});
  scan::AmplifierObservation obs;
  obs.server_index = 7u + static_cast<std::uint32_t>(week);
  obs.address = net::Ipv4Address(203, 0, 113, static_cast<std::uint8_t>(week));
  sink.on_probe_observation(week, obs);
  scan::MonlistSampleSummary summary;
  summary.week = week;
  sink.on_monlist_summary(summary);
  sink.on_sample_end(week);
}

TEST(ReplayBackendsTest, BusFansFullOrderedStreamToEverySubscriber) {
  // N heterogeneous subscribers (journals + a recorder) each see the whole
  // stream in emission order; replaying the recorder's artifact into a
  // fresh journal reproduces the same lines — so any sink mix behind the
  // bus can be re-driven from the artifact with no fidelity loss.
  EventBus bus;
  JournalSink first, second, third;
  StudyHeader header;
  header.kind = 0;
  header.scale = 77;
  header.quick = true;
  header.param_a = 4;
  Recorder recorder(header);
  bus.subscribe(&first);
  bus.subscribe(&recorder);
  bus.subscribe(&second);
  bus.subscribe(&third);

  for (int w = 0; w < 4; ++w) emit_synthetic_week(bus, w);

  ASSERT_FALSE(first.lines.empty());
  EXPECT_EQ(first.lines.size(), 4u * 7u);
  EXPECT_EQ(second.lines, first.lines);
  EXPECT_EQ(third.lines, first.lines);

  Replayer replayer;
  ASSERT_TRUE(replayer.load_archive(recorder.to_archive()));
  JournalSink from_artifact;
  ASSERT_TRUE(replayer.replay(from_artifact));
  EXPECT_EQ(from_artifact.lines, first.lines);
}

scan::AmplifierObservation victim_observation() {
  scan::AmplifierObservation obs;
  obs.address = net::Ipv4Address(203, 0, 113, 50);
  obs.probe_time = 1'000'000;
  for (std::uint32_t i = 0; i < 8; ++i) {
    ntp::MonitorEntry entry;  // §4.2 victim: mode 7, count >= 3, <= 1h gaps
    entry.address = net::Ipv4Address(198, 51, 100, static_cast<std::uint8_t>(i));
    entry.local_address = obs.address;
    entry.count = 50 + i;
    entry.avg_interval = 60;
    entry.last_seen = 100;
    entry.port = static_cast<std::uint16_t>(4000 + i);
    entry.mode = 7;
    entry.version = 2;
    obs.table.push_back(entry);
  }
  ntp::MonitorEntry bystander;  // ordinary client: never drives an exchange
  bystander.address = net::Ipv4Address(198, 51, 100, 200);
  bystander.count = 1000;
  bystander.mode = 3;
  obs.table.push_back(bystander);
  return obs;
}

TEST(ReplayBackendsTest, PcapExportRoundTripsThroughReaderAndReassembly) {
  std::ostringstream bytes;
  PcapExportSinkConfig cfg;
  cfg.windows = {{0, 2'000'000}};
  PcapExportSink sink(bytes, cfg);

  const auto obs = victim_observation();
  sink.on_probe_observation(0, obs);
  ASSERT_TRUE(sink.ok());
  // 8 victims -> 8 exchanges; the 9-entry table chains into 2 response
  // datagrams (<=6 items each), so each exchange is 1 request + 2 responses.
  EXPECT_EQ(sink.exchanges_written(), 8u);
  EXPECT_EQ(sink.packets_written(), 8u * 3u);

  std::istringstream in(bytes.str());
  net::PcapReader reader(in);
  ASSERT_TRUE(reader.valid());
  std::size_t requests = 0;
  std::vector<ntp::Mode7Packet> responses;
  while (const auto packet = reader.next()) {
    const auto parsed = ntp::parse_mode7_packet(packet->payload);
    ASSERT_TRUE(parsed.has_value());
    if (!parsed->response) {
      // The spoofed trigger: victim -> amplifier:123, MON_GETLIST_1.
      EXPECT_EQ(parsed->request, ntp::RequestCode::kMonGetList1);
      EXPECT_EQ(packet->dst, obs.address);
      EXPECT_EQ(packet->dst_port, net::kNtpPort);
      ++requests;
      responses.clear();  // keep only the final exchange's chain
    } else {
      EXPECT_EQ(packet->src, obs.address);
      EXPECT_EQ(packet->src_port, net::kNtpPort);
      responses.push_back(*parsed);
    }
  }
  EXPECT_EQ(reader.packets_read(), sink.packets_written());
  EXPECT_EQ(requests, 8u);

  // The last exchange's chained response reassembles to the full table —
  // every entry, not just the victims, exactly as a real amplifier dumps it.
  const auto table = ntp::reassemble_monlist(responses);
  ASSERT_TRUE(table.has_value());
  ASSERT_EQ(table->size(), obs.table.size());
  for (std::size_t i = 0; i < table->size(); ++i) {
    EXPECT_EQ((*table)[i].address, obs.table[i].address) << i;
    EXPECT_EQ((*table)[i].count, obs.table[i].count) << i;
    EXPECT_EQ((*table)[i].port, obs.table[i].port) << i;
    EXPECT_EQ((*table)[i].mode, obs.table[i].mode) << i;
    EXPECT_EQ((*table)[i].avg_interval, obs.table[i].avg_interval) << i;
  }
}

TEST(ReplayBackendsTest, PcapExportHonorsExchangeCapAndCountsSkips) {
  std::ostringstream bytes;
  PcapExportSinkConfig cfg;
  cfg.windows = {{0, 2'000'000}};
  cfg.max_exchanges = 3;
  PcapExportSink sink(bytes, cfg);
  sink.on_probe_observation(0, victim_observation());
  EXPECT_EQ(sink.exchanges_written(), 3u);
  EXPECT_EQ(sink.exchanges_skipped(), 5u);
  EXPECT_EQ(sink.packets_written(), 3u * 3u);
  EXPECT_TRUE(sink.ok());
}

}  // namespace
}  // namespace gorilla::study
