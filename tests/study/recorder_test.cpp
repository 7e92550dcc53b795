// Recorder/Replayer contract: a recorded stream replays bit-for-bit in the
// recorded total order, re-recording a replay reproduces the identical
// artifact, and damaged artifacts are rejected instead of half-replayed.
#include "study/recorder.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "scan/prober.h"
#include "study/events.h"
#include "telemetry/flow.h"
#include "telemetry/traffic.h"
#include "util/columnar.h"

namespace gorilla::study {
namespace {

StudyHeader test_header() {
  StudyHeader h;
  h.kind = 0;
  h.scale = 123;
  h.seed = 0xfeedfacecafeULL;
  h.quick = true;
  h.with_vantages = true;
  h.with_darknet = false;
  h.param_a = 15;
  return h;
}

// Drives every event type through a sink, interleaved so the RLE tag tape
// has to preserve cross-type ordering (not just per-type streams).
void emit_synthetic_stream(EventSink& sink) {
  sink.on_global_bytes(0, telemetry::ProtocolClass::kNtp, 1.5e9);
  sink.on_global_bytes(0, telemetry::ProtocolClass::kDns, 2.25e8);

  telemetry::FlowRecord flow;
  flow.src = net::Ipv4Address(192, 0, 2, 1);
  flow.dst = net::Ipv4Address(198, 51, 100, 200);
  flow.src_port = 123;
  flow.dst_port = 57915;
  flow.ttl = 49;
  flow.packets = 101;
  flow.bytes = 46862;
  flow.payload_bytes = 44040;
  flow.first = 86400;
  flow.last = 86525;
  sink.on_flow(flow, kAllVantages);
  sink.on_flow(flow, 2);

  telemetry::LabeledAttack label;
  label.start = 7 * 86400;
  label.vector = telemetry::AttackVector::kNtp;
  label.peak_bps = 3.2e10;
  sink.on_attack_label(label);

  sink.on_darknet_scan(net::Ipv4Address(203, 0, 113, 9), 12, 4096, false);

  sink.on_sample_begin(3, util::Date{2014, 1, 21});
  scan::AmplifierObservation obs;
  obs.server_index = 77;
  obs.address = net::Ipv4Address(203, 0, 113, 77);
  obs.response_packets = 101;
  obs.response_udp_bytes = 44040;
  obs.response_wire_bytes = 46862;
  obs.probe_time = 3 * 7 * 86400;
  obs.table_partial = true;
  obs.attempts = 2;
  for (std::uint32_t i = 0; i < 5; ++i) {
    ntp::MonitorEntry entry;
    entry.address = net::Ipv4Address((10u << 24) | i);
    entry.local_address = obs.address;
    entry.avg_interval = 64 + i;
    entry.last_seen = i;
    entry.restr = 0;
    entry.count = 1000 * (i + 1);
    entry.port = static_cast<std::uint16_t>(1024 + i);
    entry.mode = 3;
    entry.version = 4;
    obs.table.push_back(entry);
  }
  sink.on_probe_observation(3, obs);

  scan::MonlistSampleSummary summary;
  summary.week = 3;
  summary.date = util::Date{2014, 1, 21};
  summary.probes_sent = 5000;
  summary.responders = 1234;
  summary.error_replies = 17;
  summary.probes_lost = 3;
  summary.retries = 9;
  summary.truncated_tables = 1;
  summary.rate_limited = 2;
  sink.on_monlist_summary(summary);
  sink.on_sample_end(3);

  // Another global-bytes run AFTER the sample: the tape must come back to
  // an already-used tag.
  sink.on_global_bytes(1, telemetry::ProtocolClass::kNtp, 9.0e9);
}

// A sink that journals each call as one line; the journal must equal the
// journal of the original emission.
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
                    std::to_string(flow.bytes) + " " +
                    std::to_string(flow.ttl));
  }
  void on_darknet_scan(net::Ipv4Address scanner, int day,
                       std::uint64_t packets, bool benign) override {
    lines.push_back("dark " + std::to_string(scanner.value()) + " " +
                    std::to_string(day) + " " + std::to_string(packets) +
                    " " + std::to_string(benign ? 1 : 0));
  }
  void on_sample_begin(int week, const util::Date& date) override {
    lines.push_back("begin " + std::to_string(week) + " " +
                    std::to_string(date.year) + "-" +
                    std::to_string(date.month) + "-" +
                    std::to_string(date.day));
  }
  void on_probe_observation(int week,
                            const scan::AmplifierObservation& obs) override {
    std::string line = "obs " + std::to_string(week) + " " +
                       std::to_string(obs.server_index) + " " +
                       std::to_string(obs.table.size());
    for (const auto& e : obs.table) {
      line += ' ';
      line += std::to_string(e.address.value());
      line += ':';
      line += std::to_string(e.count);
      line += ':';
      line += std::to_string(e.port);
    }
    lines.push_back(line);
  }
  void on_monlist_summary(
      const scan::MonlistSampleSummary& summary) override {
    lines.push_back("sum " + std::to_string(summary.week) + " " +
                    std::to_string(summary.responders) + " " +
                    std::to_string(summary.rate_limited));
  }
  void on_sample_end(int week) override {
    lines.push_back("end " + std::to_string(week));
  }
};

TEST(RecorderTest, ConsumesEverything) {
  Recorder recorder(test_header());
  EXPECT_TRUE(recorder.wants_flows());
  EXPECT_TRUE(recorder.wants_labels());
}

TEST(RecorderTest, ReplayedStreamReRecordsToIdenticalArchive) {
  Recorder first(test_header());
  emit_synthetic_stream(first);
  const util::ColumnArchive original = first.to_archive();

  Replayer replayer;
  ASSERT_TRUE(replayer.load_archive(original));
  EXPECT_EQ(replayer.header(), test_header());

  // Replay into a second recorder: the event stream it sees must serialize
  // to the byte-identical artifact — order, payloads, run-lengths, all of it.
  Recorder second(test_header());
  ASSERT_TRUE(replayer.replay(second));
  const util::ColumnArchive rerecorded = second.to_archive();

  EXPECT_EQ(rerecorded.header, original.header);
  ASSERT_EQ(rerecorded.sections.size(), original.sections.size());
  for (std::size_t i = 0; i < original.sections.size(); ++i) {
    EXPECT_EQ(rerecorded.sections[i].name, original.sections[i].name);
    EXPECT_EQ(rerecorded.sections[i].bytes, original.sections[i].bytes)
        << "section " << original.sections[i].name;
  }
}

TEST(RecorderTest, ReplayPreservesPayloadsAndTotalOrder) {
  Recorder recorder(test_header());
  emit_synthetic_stream(recorder);
  Replayer replayer;
  ASSERT_TRUE(replayer.load_archive(recorder.to_archive()));

  JournalSink direct;
  emit_synthetic_stream(direct);
  JournalSink replayed;
  ASSERT_TRUE(replayer.replay(replayed));
  EXPECT_EQ(replayed.lines, direct.lines);
}

TEST(RecorderTest, SaveLoadFileRoundTrip) {
  const std::string path = testing::TempDir() + "recorder_roundtrip.study";
  Recorder recorder(test_header());
  emit_synthetic_stream(recorder);
  ASSERT_TRUE(recorder.save(path));

  Replayer replayer;
  ASSERT_TRUE(replayer.load(path));
  EXPECT_EQ(replayer.header(), test_header());
  EventSink null_sink;
  EXPECT_TRUE(replayer.replay(null_sink));
}

TEST(RecorderTest, HeaderDistinguishesStudyShapes) {
  StudyHeader a = test_header();
  StudyHeader b = test_header();
  EXPECT_EQ(a, b);
  b.seed = a.seed + 1;
  EXPECT_FALSE(a == b);
  b = a;
  b.kind = 1;
  EXPECT_FALSE(a == b);
  b = a;
  b.param_a = 8;
  EXPECT_FALSE(a == b);
}

TEST(ReplayerTest, MissingSectionRejectedAtLoad) {
  Recorder recorder(test_header());
  emit_synthetic_stream(recorder);
  util::ColumnArchive archive = recorder.to_archive();
  util::ColumnArchive tapeless = archive;
  tapeless.sections.erase(tapeless.sections.begin());  // drop the tape
  Replayer replayer;
  EXPECT_FALSE(replayer.load_archive(std::move(tapeless)));

  // The same refusal from a file, and the diagnosis names the section.
  archive.sections.pop_back();  // drop tbl.ver
  const std::string path = testing::TempDir() + "recorder_no_tbl_ver.study";
  ASSERT_TRUE(archive.save_file(path));
  EXPECT_FALSE(replayer.load(path));
  const std::string diagnosis = Replayer::describe_load_failure(path);
  EXPECT_NE(diagnosis.find("missing section 'tbl.ver'"), std::string::npos)
      << diagnosis;
  std::remove(path.c_str());
}

TEST(ReplayerTest, ReplayHonorsWeekCap) {
  // One pass that stops right after the N-th on_sample_end, never inside
  // a week: gorilla_replay --weeks N.
  Recorder recorder(test_header());
  for (int i = 0; i < 3; ++i) emit_synthetic_stream(recorder);
  Replayer replayer;
  ASSERT_TRUE(replayer.load_archive(recorder.to_archive()));

  JournalSink one_week;
  emit_synthetic_stream(one_week);
  one_week.lines.pop_back();  // the global-bytes event after the week ends
  JournalSink capped;
  ASSERT_TRUE(replayer.replay(capped, 1));
  EXPECT_EQ(capped.lines, one_week.lines);

  JournalSink none;
  ASSERT_TRUE(replayer.replay(none, 0));
  EXPECT_TRUE(none.lines.empty());

  JournalSink all;
  for (int i = 0; i < 3; ++i) emit_synthetic_stream(all);
  JournalSink uncapped;
  ASSERT_TRUE(replayer.replay(uncapped, 5));
  EXPECT_EQ(uncapped.lines, all.lines);
}

TEST(ReplayerTest, TruncatedPayloadColumnFailsReplay) {
  Recorder recorder(test_header());
  emit_synthetic_stream(recorder);
  util::ColumnArchive archive = recorder.to_archive();
  for (auto& section : archive.sections) {
    if (section.name == "global") section.bytes.pop_back();
  }
  Replayer replayer;
  ASSERT_TRUE(replayer.load_archive(std::move(archive)));
  EventSink null_sink;
  EXPECT_FALSE(replayer.replay(null_sink));
}

TEST(ReplayerTest, UnknownTagFailsReplay) {
  Recorder recorder(test_header());
  emit_synthetic_stream(recorder);
  util::ColumnArchive archive = recorder.to_archive();
  for (auto& section : archive.sections) {
    if (section.name == "tape") section.bytes[0] = 0x7f;  // future tag
  }
  Replayer replayer;
  ASSERT_TRUE(replayer.load_archive(std::move(archive)));
  EventSink null_sink;
  EXPECT_FALSE(replayer.replay(null_sink));
}

TEST(ReplayerTest, TruncatedFileRejected) {
  const std::string path = testing::TempDir() + "recorder_truncated.study";
  Recorder recorder(test_header());
  emit_synthetic_stream(recorder);
  ASSERT_TRUE(recorder.save(path));

  std::ifstream in(path, std::ios::binary);
  std::string bytes((std::istreambuf_iterator<char>(in)),
                    std::istreambuf_iterator<char>());
  in.close();
  bytes.resize(bytes.size() / 2);
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  out.close();

  Replayer replayer;
  EXPECT_FALSE(replayer.load(path));
}

// ---- GORCOLv3: parallel decode, load diagnostics ----

TEST(RecorderTest, ParallelDecodeIsByteIdenticalToStreaming) {
  // Big enough that the monitor-table columns block-compress, so --jobs
  // actually exercises the parallel inflate path.
  const std::string path = testing::TempDir() + "recorder_parallel.study";
  Recorder recorder(test_header());
  for (int i = 0; i < 300; ++i) emit_synthetic_stream(recorder);
  ASSERT_TRUE(recorder.save(path));

  const auto archive = util::ColumnArchive::load_file(path);
  ASSERT_TRUE(archive.has_value());
  bool any_compressed = false;
  for (const auto& section : archive->sections) {
    any_compressed |=
        section.storage == util::ColumnArchive::SectionStorage::kBlocks;
  }
  EXPECT_TRUE(any_compressed);

  JournalSink direct;
  for (int i = 0; i < 300; ++i) emit_synthetic_stream(direct);

  for (const int jobs : {1, 3}) {
    Replayer replayer;
    replayer.set_decode_jobs(jobs);
    ASSERT_TRUE(replayer.load(path));
    JournalSink replayed;
    ASSERT_TRUE(replayer.replay(replayed));
    EXPECT_EQ(replayed.lines, direct.lines) << "jobs " << jobs;
  }
}

TEST(ReplayerTest, DescribeLoadFailurePinpointsTheDamagedSection) {
  const std::string path = testing::TempDir() + "recorder_bad_block.study";
  Recorder recorder(test_header());
  for (int i = 0; i < 300; ++i) emit_synthetic_stream(recorder);
  ASSERT_TRUE(recorder.save(path));

  // Find a block-compressed section and flip a byte inside its first
  // block's body.
  const auto archive = util::ColumnArchive::load_file(path);
  ASSERT_TRUE(archive.has_value());
  const util::ColumnArchive::Section* victim = nullptr;
  for (const auto& section : archive->sections) {
    if (section.storage == util::ColumnArchive::SectionStorage::kBlocks &&
        section.bytes.size() > util::kBlockHeaderSize + 8) {
      victim = &section;
      break;
    }
  }
  ASSERT_NE(victim, nullptr);

  std::ifstream in(path, std::ios::binary);
  std::string bytes((std::istreambuf_iterator<char>(in)),
                    std::istreambuf_iterator<char>());
  in.close();
  const std::size_t payload_off = bytes.find(
      std::string(victim->bytes.begin(), victim->bytes.end()));
  ASSERT_NE(payload_off, std::string::npos);
  bytes[payload_off + util::kBlockHeaderSize + 3] ^= 0x01;
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  out.close();

  Replayer replayer;
  EXPECT_FALSE(replayer.load(path));
  const std::string diagnosis = Replayer::describe_load_failure(path);
  EXPECT_NE(diagnosis.find("section '" + victim->name +
                           "' failed its checksum at offset " +
                           std::to_string(payload_off)),
            std::string::npos)
      << diagnosis;
  EXPECT_NE(diagnosis.find("regenerate"), std::string::npos) << diagnosis;
  std::remove(path.c_str());
}

}  // namespace
}  // namespace gorilla::study
