#include "util/columnar.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include "util/thread_pool.h"

namespace gorilla::util {
namespace {

TEST(ZigzagTest, RoundTripsEdgeValues) {
  const std::int64_t values[] = {0,
                                 1,
                                 -1,
                                 63,
                                 -64,
                                 64,
                                 -65,
                                 std::numeric_limits<std::int64_t>::max(),
                                 std::numeric_limits<std::int64_t>::min()};
  for (const std::int64_t v : values) {
    EXPECT_EQ(zigzag_decode(zigzag_encode(v)), v) << v;
  }
  // Small magnitudes map to small codes (the point of the encoding).
  EXPECT_EQ(zigzag_encode(0), 0u);
  EXPECT_EQ(zigzag_encode(-1), 1u);
  EXPECT_EQ(zigzag_encode(1), 2u);
  EXPECT_EQ(zigzag_encode(-2), 3u);
}

TEST(ColumnTest, MixedTypedRoundTrip) {
  ColumnWriter w;
  w.put_u8(0xab);
  w.put_u16(0xbeef);
  w.put_u32(0xdeadbeef);
  w.put_varint(0);
  w.put_varint(127);
  w.put_varint(128);
  w.put_varint(std::numeric_limits<std::uint64_t>::max());
  w.put_zigzag(-123456789);
  w.put_f64(-0.125);
  w.put_f64(std::numeric_limits<double>::infinity());

  ColumnReader r(w.buffer());
  EXPECT_EQ(r.get_u8(), 0xab);
  EXPECT_EQ(r.get_u16(), 0xbeef);
  EXPECT_EQ(r.get_u32(), 0xdeadbeefu);
  EXPECT_EQ(r.get_varint(), 0u);
  EXPECT_EQ(r.get_varint(), 127u);
  EXPECT_EQ(r.get_varint(), 128u);
  EXPECT_EQ(r.get_varint(), std::numeric_limits<std::uint64_t>::max());
  EXPECT_EQ(r.get_zigzag(), -123456789);
  EXPECT_EQ(r.get_f64(), -0.125);
  EXPECT_EQ(r.get_f64(), std::numeric_limits<double>::infinity());
  EXPECT_TRUE(r.ok());
  EXPECT_TRUE(r.at_end());
}

TEST(ColumnTest, VarintBoundaryLengths) {
  // One byte up to 127, two bytes up to 16383, ten bytes for the max.
  ColumnWriter w;
  w.put_varint(127);
  EXPECT_EQ(w.size(), 1u);
  w.put_varint(128);
  EXPECT_EQ(w.size(), 3u);
  w.put_varint(16383);
  EXPECT_EQ(w.size(), 5u);
  w.put_varint(std::numeric_limits<std::uint64_t>::max());
  EXPECT_EQ(w.size(), 15u);
}

TEST(ColumnTest, TruncatedReadIsStickyFailure) {
  ColumnWriter w;
  w.put_u32(42);
  std::vector<std::uint8_t> bytes = w.take_buffer();
  bytes.pop_back();

  ColumnReader r(bytes);
  EXPECT_EQ(r.get_u32(), 0u);
  EXPECT_FALSE(r.ok());
  // Failure is sticky: ok() never recovers, so callers that check it after
  // a batch of reads discard everything from a short column.
  (void)r.get_varint();
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.get_varint(), 0u);
}

TEST(ColumnTest, UnterminatedVarintFails) {
  // Ten continuation bytes with no terminator: overlong encoding.
  const std::vector<std::uint8_t> bytes(10, 0xff);
  ColumnReader r(bytes);
  EXPECT_EQ(r.get_varint(), 0u);
  EXPECT_FALSE(r.ok());
}

TEST(ColumnTest, TakeBufferLeavesWriterEmpty) {
  ColumnWriter w;
  w.put_u8(1);
  EXPECT_EQ(w.take_buffer().size(), 1u);
  EXPECT_EQ(w.size(), 0u);
}

ColumnArchive make_archive() {
  ColumnArchive archive;
  archive.header = {0x01, 0x02, 0x03};
  ColumnWriter a;
  a.put_varint(7);
  a.put_f64(3.5);
  archive.sections.emplace_back("alpha", a.take_buffer());
  archive.sections.emplace_back("empty", std::vector<std::uint8_t>{});
  ColumnWriter b;
  b.put_u32(99);
  archive.sections.emplace_back("beta", b.take_buffer());
  return archive;
}

TEST(ColumnArchiveTest, StreamRoundTripPreservesEverything) {
  const ColumnArchive archive = make_archive();
  std::stringstream ss;
  ASSERT_TRUE(archive.save(ss));
  const auto loaded = ColumnArchive::load(ss);
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(loaded->header, archive.header);
  ASSERT_EQ(loaded->sections.size(), archive.sections.size());
  for (std::size_t i = 0; i < archive.sections.size(); ++i) {
    EXPECT_EQ(loaded->sections[i].name, archive.sections[i].name);
    EXPECT_EQ(loaded->sections[i].bytes, archive.sections[i].bytes);
  }
}

TEST(ColumnArchiveTest, FindLocatesSectionsByName) {
  const ColumnArchive archive = make_archive();
  ASSERT_NE(archive.find("beta"), nullptr);
  EXPECT_EQ(archive.find("beta")->bytes.size(), 4u);
  ASSERT_NE(archive.find("empty"), nullptr);
  EXPECT_TRUE(archive.find("empty")->bytes.empty());
  EXPECT_EQ(archive.find("gamma"), nullptr);
}

TEST(ColumnArchiveTest, FileRoundTrip) {
  const std::string path = testing::TempDir() + "columnar_roundtrip.gorcol";
  const ColumnArchive archive = make_archive();
  ASSERT_TRUE(archive.save_file(path));
  const auto loaded = ColumnArchive::load_file(path);
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(loaded->header, archive.header);
  EXPECT_EQ(loaded->sections.size(), archive.sections.size());
}

TEST(ColumnArchiveTest, MissingFileLoadsAsNullopt) {
  EXPECT_FALSE(
      ColumnArchive::load_file(testing::TempDir() + "no_such_file.gorcol")
          .has_value());
}

TEST(ColumnArchiveTest, BadMagicRejected) {
  std::stringstream ss;
  ASSERT_TRUE(make_archive().save(ss));
  std::string bytes = ss.str();
  bytes[0] ^= 0x20;
  std::stringstream corrupt(bytes);
  EXPECT_FALSE(ColumnArchive::load(corrupt).has_value());
}

TEST(ColumnArchiveTest, TruncationRejectedAtEveryLength) {
  std::stringstream ss;
  ASSERT_TRUE(make_archive().save(ss));
  const std::string bytes = ss.str();
  // Any strict prefix must fail to load — never a silent partial archive.
  for (std::size_t len = 0; len < bytes.size(); ++len) {
    std::stringstream prefix(bytes.substr(0, len));
    EXPECT_FALSE(ColumnArchive::load(prefix).has_value()) << "len=" << len;
  }
}

// ---- GORCOLv3: block-compressed sections, streaming readers ----

/// An archive with one section big and repetitive enough to compress into
/// several 64 KiB blocks, plus a tiny one that must stay raw.
ColumnArchive make_big_archive() {
  ColumnArchive archive;
  archive.header = {0x42};
  ColumnWriter big;
  // Period lcm(50, 31) entries ≈ 3 KB of bytes — well inside the codec's
  // 64 KiB match window, so the payload genuinely compresses.
  for (std::uint64_t i = 0; i < 60000; ++i) {
    big.put_varint(i % 50);
    big.put_zigzag(-static_cast<std::int64_t>(i % 31));
  }
  archive.sections.emplace_back("big", big.take_buffer());
  ColumnWriter tiny;
  tiny.put_u32(7);
  archive.sections.emplace_back("tiny", tiny.take_buffer());
  return archive;
}

TEST(ColumnArchiveV3Test, WriterEmitsV3Magic) {
  std::stringstream v3;
  ASSERT_TRUE(make_archive().save(v3));
  EXPECT_EQ(v3.str().substr(0, 8), "GORCOLv3");
}

TEST(ColumnArchiveV3Test, CompressedSectionRoundTripsAndShrinks) {
  const ColumnArchive archive = make_big_archive();
  std::stringstream v3;
  ASSERT_TRUE(archive.save(v3));
  // The repetitive payload must compress — that is the point of v3.
  EXPECT_LT(v3.str().size(), archive.sections[0].bytes.size());

  const auto loaded = ColumnArchive::load(v3);
  ASSERT_TRUE(loaded.has_value());
  const auto* big = loaded->find("big");
  ASSERT_NE(big, nullptr);
  EXPECT_EQ(big->storage, ColumnArchive::SectionStorage::kBlocks);
  EXPECT_EQ(big->raw_len, archive.sections[0].bytes.size());
  EXPECT_LT(big->bytes.size(), big->raw_len);
  // Small sections are not worth a block frame.
  const auto* tiny = loaded->find("tiny");
  ASSERT_NE(tiny, nullptr);
  EXPECT_EQ(tiny->storage, ColumnArchive::SectionStorage::kRaw);

  // Streaming reads reproduce every value without inflating the section.
  ColumnReader r = loaded->column("big");
  for (std::uint64_t i = 0; i < 60000; ++i) {
    ASSERT_EQ(r.get_varint(), i % 50) << i;
    ASSERT_EQ(r.get_zigzag(), -static_cast<std::int64_t>(i % 31)) << i;
  }
  EXPECT_TRUE(r.ok());
  EXPECT_TRUE(r.at_end());
}

TEST(ColumnArchiveV3Test, InflateIsByteIdenticalToStreaming) {
  std::stringstream ss;
  ASSERT_TRUE(make_big_archive().save(ss));
  auto streaming = ColumnArchive::load(ss);
  ASSERT_TRUE(streaming.has_value());
  ColumnArchive flat = *streaming;
  flat.inflate();
  const auto* big = flat.find("big");
  ASSERT_NE(big, nullptr);
  EXPECT_EQ(big->storage, ColumnArchive::SectionStorage::kRaw);
  EXPECT_EQ(big->bytes, make_big_archive().sections[0].bytes);

  // And across a worker pool: sections decompress in parallel to the same
  // bytes (each section is independent).
  ColumnArchive pooled = *streaming;
  ThreadPool pool(3);
  pooled.inflate(&pool);
  EXPECT_EQ(pooled.sections, flat.sections);
}

TEST(ColumnArchiveV3Test, StreamingReaderFailsStickyOnDamagedBlock) {
  std::stringstream ss;
  ASSERT_TRUE(make_big_archive().save(ss));
  auto loaded = ColumnArchive::load(ss);
  ASSERT_TRUE(loaded.has_value());
  // Corrupt a byte deep in the stored block stream: reads succeed through
  // the intact prefix, then fail sticky at the damaged block.
  ColumnArchive& archive = *loaded;
  auto& stored = archive.sections[0].bytes;
  ASSERT_GT(stored.size(), 1000u);
  stored[stored.size() - 50] ^= 0x01;
  ColumnReader r = archive.column("big");
  bool failed = false;
  for (std::uint64_t i = 0; i < 60000 && !failed; ++i) {
    const std::uint64_t a = r.get_varint();
    const std::int64_t b = r.get_zigzag();
    if (!r.ok()) {
      failed = true;
    } else {
      ASSERT_EQ(a, i % 50) << i;
      ASSERT_EQ(b, -static_cast<std::int64_t>(i % 31)) << i;
    }
  }
  EXPECT_TRUE(failed);
  EXPECT_FALSE(r.ok());
  (void)r.get_u8();
  EXPECT_FALSE(r.ok());
}

}  // namespace
}  // namespace gorilla::util
