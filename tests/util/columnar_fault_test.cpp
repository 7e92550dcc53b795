// GORCOL integrity contract: artifacts are caches, so loading is strict.
// The CRC framing detects corruption anywhere (including inside a
// block-compressed section body), every truncation and any pre-v3
// container is refused whole, the report and describe_load_failure
// pinpoint the section and byte offset where reading stopped, and
// save_file is atomic under injected short writes: the destination either
// keeps its previous contents or becomes the complete new artifact.
#include "util/columnar.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <optional>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "study/recorder.h"
#include "util/bytes.h"
#include "util/crc32.h"
#include "util/fault.h"

namespace gorilla::util {
namespace {

struct ScopedPlan {
  explicit ScopedPlan(const FaultPlan& plan) { FaultPlan::install(plan); }
  ScopedPlan(const ScopedPlan&) = delete;
  ScopedPlan& operator=(const ScopedPlan&) = delete;
  ~ScopedPlan() { FaultPlan::clear(); }
};

ColumnArchive make_archive() {
  ColumnArchive archive;
  archive.header = {0xde, 0xad, 0x01};
  std::vector<std::uint8_t> alpha(32);
  for (std::size_t i = 0; i < alpha.size(); ++i) {
    alpha[i] = static_cast<std::uint8_t>(i * 7);
  }
  archive.sections.emplace_back("alpha", alpha);
  archive.sections.emplace_back("empty", std::vector<std::uint8_t>{});
  archive.sections.emplace_back("beta",
                                std::vector<std::uint8_t>{9, 8, 7, 6, 5});
  return archive;
}

std::string serialize(const ColumnArchive& archive) {
  std::ostringstream out;
  EXPECT_TRUE(archive.save(out));
  return out.str();
}

std::optional<ColumnArchive> parse(const std::string& bytes,
                                   ArchiveReadReport& report) {
  std::istringstream in(bytes);
  return ColumnArchive::load(in, &report);
}

void write_file(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

std::string diagnose(const std::string& path) {
  return study::Replayer::describe_load_failure(path);
}

TEST(ColumnarV2Test, IntactArchiveLoadsCompleteWithCleanReport) {
  const std::string bytes = serialize(make_archive());
  ArchiveReadReport report;
  const auto loaded = parse(bytes, report);
  ASSERT_TRUE(loaded.has_value());
  EXPECT_TRUE(report.header_ok);
  EXPECT_EQ(report.sections_ok, 3u);
  EXPECT_FALSE(report.crc_failed);
  EXPECT_EQ(report.offset, bytes.size());
  EXPECT_EQ(loaded->sections, make_archive().sections);
}

TEST(ColumnarV2Test, PayloadCorruptionFailsStrictAndEndsThePrefix) {
  std::string bytes = serialize(make_archive());
  // The beta payload is the final 5 bytes of the stream; damage one.
  bytes[bytes.size() - 3] = static_cast<char>(bytes[bytes.size() - 3] ^ 0x40);
  ArchiveReadReport report;
  EXPECT_FALSE(parse(bytes, report).has_value());
  EXPECT_TRUE(report.header_ok);
  EXPECT_TRUE(report.crc_failed);
  EXPECT_EQ(report.section, "beta");
  EXPECT_EQ(report.sections_ok, 2u);  // the intact prefix ends at beta
  EXPECT_EQ(report.offset, bytes.size() - 5);
}

TEST(ColumnarV2Test, HeaderCorruptionIsRefused) {
  std::string bytes = serialize(make_archive());
  bytes[13] = static_cast<char>(bytes[13] ^ 0xff);  // inside the 3-byte header
  ArchiveReadReport report;
  EXPECT_FALSE(parse(bytes, report).has_value());
  EXPECT_TRUE(report.crc_failed);
  EXPECT_FALSE(report.header_ok);
  EXPECT_EQ(report.offset, 15u);  // the header CRC field

  const std::string path = testing::TempDir() + "columnar_bad_header.gorcol";
  write_file(path, bytes);
  const std::string diagnosis = diagnose(path);
  EXPECT_NE(diagnosis.find("study header failed its checksum"),
            std::string::npos)
      << diagnosis;
  std::remove(path.c_str());
}

TEST(ColumnarV2Test, EveryTruncationIsRefusedWithItsOffset) {
  // Field starts of serialize(make_archive()), each with the section a cut
  // inside that field is attributed to (empty until a section's name has
  // been read): magic + header length, header, header CRC, section count,
  // then per section its name length, name, frame, and payload.
  const ColumnArchive original = make_archive();
  std::vector<std::pair<std::size_t, std::string>> fields = {
      {0, ""}, {12, ""}, {12 + original.header.size(), ""}};
  std::size_t at = fields.back().first + 4;
  fields.emplace_back(at, "");
  at += 4;
  for (const auto& section : original.sections) {
    fields.emplace_back(at, "");
    fields.emplace_back(at + 1, "");
    at += 1 + section.name.size();
    fields.emplace_back(at, section.name);
    fields.emplace_back(at + 21, section.name);
    at += 21 + section.bytes.size();
  }
  const std::string full = serialize(original);
  ASSERT_EQ(at, full.size());

  const std::string path = testing::TempDir() + "columnar_truncated.gorcol";
  for (std::size_t len = 0; len < full.size(); ++len) {
    const std::string cut = full.substr(0, len);
    ArchiveReadReport report;
    EXPECT_FALSE(parse(cut, report).has_value()) << "len " << len;
    EXPECT_FALSE(report.crc_failed) << "len " << len;
    // The last field starting at or before the cut is the torn one.
    std::pair<std::size_t, std::string> torn;
    for (const auto& field : fields) {
      if (field.first <= len) torn = field;
    }
    EXPECT_EQ(report.offset, torn.first) << "len " << len;
    EXPECT_EQ(report.section, torn.second) << "len " << len;
    if (len < 8) continue;  // not even the magic: no offset to report

    write_file(path, cut);
    const std::string diagnosis = diagnose(path);
    EXPECT_NE(diagnosis.find("offset " + std::to_string(torn.first)),
              std::string::npos)
        << "len " << len << ": " << diagnosis;
    if (!torn.second.empty()) {
      EXPECT_NE(diagnosis.find("section '" + torn.second + "'"),
                std::string::npos)
          << "len " << len << ": " << diagnosis;
    }
  }
  std::remove(path.c_str());
}

TEST(ColumnarV2Test, GorcolV2FileIsRefusedWithARegenerateDiagnosis) {
  // Hand-built version-2 container: magic, u32le header length, header,
  // u32le header CRC, u32le section count, then per section u8 name
  // length, name, u64be payload length, u32le payload CRC, payload.
  const std::string magic = "GORCOLv" + std::to_string(2);
  std::vector<std::uint8_t> bytes;
  ByteWriter w(bytes);
  for (const char c : magic) w.u8(static_cast<std::uint8_t>(c));
  const std::vector<std::uint8_t> header = {0xde, 0xad, 0x01};
  w.u32le(static_cast<std::uint32_t>(header.size()));
  w.bytes(header);
  w.u32le(crc32(header));
  w.u32le(1);
  const std::string name = "alpha";
  w.u8(static_cast<std::uint8_t>(name.size()));
  for (const char c : name) w.u8(static_cast<std::uint8_t>(c));
  const std::vector<std::uint8_t> payload = {1, 2, 3, 4};
  w.u64be(payload.size());
  w.u32le(crc32(payload));
  w.bytes(payload);
  const std::string file(bytes.begin(), bytes.end());

  ArchiveReadReport report;
  EXPECT_FALSE(parse(file, report).has_value());
  EXPECT_FALSE(report.header_ok);

  const std::string path = testing::TempDir() + "columnar_v2.gorcol";
  write_file(path, file);
  const std::string diagnosis = diagnose(path);
  EXPECT_NE(diagnosis.find(magic), std::string::npos) << diagnosis;
  EXPECT_NE(diagnosis.find("GORCOLv3 only"), std::string::npos) << diagnosis;
  EXPECT_NE(diagnosis.find("regenerate"), std::string::npos) << diagnosis;
  std::remove(path.c_str());
}

TEST(ColumnarV2Test, SaveFileIsAtomicUnderAnInjectedShortWrite) {
  const std::string path = testing::TempDir() + "columnar_atomic.gorcol";
  const ColumnArchive original = make_archive();
  ASSERT_TRUE(original.save_file(path));

  ColumnArchive modified = make_archive();
  modified.sections[0] =
      ColumnArchive::Section("alpha", std::vector<std::uint8_t>(48, 0x11));
  {
    FaultPlan plan;
    plan.short_write_at = 20;  // tear the write mid-header-block
    const ScopedPlan guard(plan);
    EXPECT_FALSE(modified.save_file(path));
  }
  // The failed save left no temp litter and the destination untouched.
  EXPECT_FALSE(static_cast<bool>(std::ifstream(path + ".tmp")));
  const auto after_failure = ColumnArchive::load_file(path);
  ASSERT_TRUE(after_failure.has_value());
  EXPECT_EQ(after_failure->sections, original.sections);

  // With the plan cleared the same save goes through atomically.
  ASSERT_TRUE(modified.save_file(path));
  const auto after_success = ColumnArchive::load_file(path);
  ASSERT_TRUE(after_success.has_value());
  EXPECT_EQ(after_success->sections, modified.sections);
  std::remove(path.c_str());
}

TEST(ColumnarV2Test, InjectedPayloadCorruptionIsCaughtByTheCrc) {
  const std::string path = testing::TempDir() + "columnar_corrupt.gorcol";
  const ColumnArchive archive = make_archive();
  {
    FaultPlan plan;
    // The alpha payload spans sink offsets [50, 82) for a 3-byte header;
    // flip a byte inside it. The write itself "succeeds" — only the CRC
    // can tell.
    plan.corrupt_at = 55;
    const ScopedPlan guard(plan);
    ASSERT_TRUE(archive.save_file(path));
  }
  ArchiveReadReport report;
  EXPECT_FALSE(ColumnArchive::load_file(path, &report).has_value());
  EXPECT_TRUE(report.crc_failed);
  EXPECT_EQ(report.section, "alpha");
  EXPECT_EQ(report.offset, 50u);
  std::remove(path.c_str());
}

/// A tiny leading section plus a "bulk" one that compresses into several
/// 64 KiB blocks (runs of repeated bytes, so every block shrinks).
ColumnArchive make_blocky_archive() {
  ColumnArchive archive;
  archive.header = {0x33, 0x44};
  archive.sections.emplace_back("lead", std::vector<std::uint8_t>{1, 2, 3});
  std::vector<std::uint8_t> bulk(200 * 1024);
  for (std::size_t i = 0; i < bulk.size(); ++i) {
    bulk[i] = static_cast<std::uint8_t>((i / 7) % 251);
  }
  archive.sections.emplace_back("bulk", bulk);
  return archive;
}

/// Where the bulk section's stored (compressed) bytes sit in `file`, and
/// the stored size of their first block frame.
struct BulkLayout {
  std::size_t payload_off = 0;
  std::size_t frame0 = 0;
};

BulkLayout bulk_layout(const std::string& file) {
  std::istringstream in(file);
  const auto clean = ColumnArchive::load(in);
  EXPECT_TRUE(clean.has_value());
  const auto* stored = clean->find("bulk");
  EXPECT_EQ(stored->storage, ColumnArchive::SectionStorage::kBlocks);
  BulkLayout out;
  out.payload_off =
      file.find(std::string(stored->bytes.begin(), stored->bytes.end()));
  EXPECT_NE(out.payload_off, std::string::npos);
  // Block frame: u32le raw_len, u32le body_len, u32le CRC, u8 method.
  out.frame0 = kBlockHeaderSize + *load_u32le(stored->bytes, 4);
  EXPECT_LT(out.frame0 + kBlockHeaderSize + 10, stored->bytes.size());
  return out;
}

TEST(ColumnarV3FaultTest, InjectedCorruptionInsideACompressedBlockBody) {
  const ColumnArchive archive = make_blocky_archive();
  const auto [payload_off, frame0] = bulk_layout(serialize(archive));

  // The corrupt@OFF fault lands inside block 1's compressed body: the
  // section CRC refuses the load, and the diagnosis names the section.
  const std::string path = testing::TempDir() + "columnar_blocky.gorcol";
  {
    FaultPlan plan;
    plan.corrupt_at = payload_off + frame0 + kBlockHeaderSize + 10;
    const ScopedPlan guard(plan);
    ASSERT_TRUE(archive.save_file(path));
  }
  ArchiveReadReport report;
  EXPECT_FALSE(ColumnArchive::load_file(path, &report).has_value());
  EXPECT_TRUE(report.crc_failed);
  EXPECT_EQ(report.section, "bulk");
  EXPECT_EQ(report.sections_ok, 1u);
  EXPECT_EQ(report.offset, payload_off);
  const std::string diagnosis = diagnose(path);
  EXPECT_NE(diagnosis.find("section 'bulk' failed its checksum at offset " +
                           std::to_string(payload_off)),
            std::string::npos)
      << diagnosis;
  std::remove(path.c_str());
}

TEST(ColumnarV3FaultTest, CorruptFrameLengthsAreRefused) {
  // The section CRC covers the stored bytes, not the frame in front of
  // them, yet buffers are sized by these lengths: a damaged stored or
  // uncompressed length must still be refused. Frame: u8 storage, u64be
  // stored length, u64be uncompressed length, u32le CRC.
  const std::string file = serialize(make_blocky_archive());
  const std::size_t payload_off = bulk_layout(file).payload_off;
  const std::size_t stored_len_at = payload_off - 20;
  const std::size_t raw_len_at = payload_off - 12;
  const std::pair<std::size_t, std::uint8_t> flips[] = {
      {stored_len_at + 4, 0x40},  // stored length + 1 GiB: past the file end
      {raw_len_at + 6, 0x01},     // uncompressed length + 256
  };
  for (const auto& [at, bit] : flips) {
    std::string bad = file;
    bad[at] = static_cast<char>(bad[at] ^ bit);
    ArchiveReadReport report;
    EXPECT_FALSE(parse(bad, report).has_value()) << "byte " << at;
    EXPECT_FALSE(report.crc_failed) << "byte " << at;
    EXPECT_EQ(report.section, "bulk") << "byte " << at;
    EXPECT_EQ(report.offset, payload_off) << "byte " << at;
  }
}

}  // namespace
}  // namespace gorilla::util
