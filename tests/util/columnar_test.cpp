#include "util/columnar.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include "util/rng.h"

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

// ---- Sealing writers: blocks compressed as they fill, same frames ----

constexpr std::size_t kSealLengths[] = {
    0, 1, 63, 64, 65535, 65536, 65537, 3 * kBlockRawSize + 17};

/// Puts exactly `len` bytes into `w` with every value width mixed in, so
/// values straddle block boundaries. Stretches of small repeating values
/// compress; stretches of random words do not (stored-verbatim blocks).
void fill_column(ColumnWriter& w, std::size_t len) {
  Rng rng(len + 1);
  std::uint64_t i = 0;
  while (len - w.size() >= 10) {
    const bool noisy = (w.size() / 20000) % 3 == 2;
    const std::uint64_t v = noisy ? rng.next() : i % 300;
    switch (i++ % 5) {
      case 0:
        w.put_u8(static_cast<std::uint8_t>(v));
        break;
      case 1:
        w.put_u16(static_cast<std::uint16_t>(v));
        break;
      case 2:
        w.put_u32(static_cast<std::uint32_t>(v));
        break;
      case 3:
        w.put_varint(v);
        break;
      default:
        w.put_f64(static_cast<double>(v));
        break;
    }
  }
  while (w.size() < len) w.put_u8(static_cast<std::uint8_t>(w.size()));
}

TEST(SealingColumnTest, FramesEqualWholeColumnCompression) {
  for (const std::size_t len : kSealLengths) {
    ColumnWriter plain;
    fill_column(plain, len);
    ColumnWriter sealing = ColumnWriter::sealing();
    fill_column(sealing, len);
    ASSERT_EQ(plain.size(), len);
    ASSERT_EQ(sealing.size(), len);
    // Only the unfinished block stays raw.
    EXPECT_EQ(sealing.buffer().size(), len % kBlockRawSize) << len;
    EXPECT_EQ(sealing.take_blocks(), block_compress(plain.buffer())) << len;
    EXPECT_EQ(sealing.size(), 0u);
  }
}

TEST(SealingColumnTest, HeldBytesAreFramesPlusTail) {
  constexpr std::size_t kLen = 3 * kBlockRawSize + 17;
  ColumnWriter sealing = ColumnWriter::sealing();
  fill_column(sealing, kLen);
  ColumnWriter plain;
  fill_column(plain, kLen);
  const std::size_t frames =
      block_compress(std::span<const std::uint8_t>(plain.buffer())
                         .first(3 * kBlockRawSize))
          .size();
  EXPECT_EQ(sealing.held_bytes(), frames + 17);
  EXPECT_LT(sealing.held_bytes(), sealing.size());
}

TEST(SealingColumnTest, ArchiveSavesTheBytesOfTheRawColumn) {
  for (const std::size_t len : kSealLengths) {
    ColumnWriter plain;
    fill_column(plain, len);
    ColumnWriter sealing = ColumnWriter::sealing();
    fill_column(sealing, len);
    const std::vector<std::uint8_t> raw = plain.buffer();

    ColumnArchive from_raw;
    from_raw.header = {7};
    from_raw.sections.emplace_back("c", plain.take_buffer());
    ColumnArchive from_sealed;
    from_sealed.header = {7};
    from_sealed.add_column("c", sealing);
    const auto& section = from_sealed.sections.front();
    EXPECT_EQ(section.storage, len >= kBlockRawSize
                                   ? ColumnArchive::SectionStorage::kBlocks
                                   : ColumnArchive::SectionStorage::kRaw)
        << len;
    EXPECT_EQ(section.raw_len, len);

    std::stringstream a, b;
    ASSERT_TRUE(from_raw.save(a));
    ASSERT_TRUE(from_sealed.save(b));
    EXPECT_EQ(a.str(), b.str()) << len;

    auto loaded = ColumnArchive::load(b);
    ASSERT_TRUE(loaded.has_value());
    ColumnReader r = loaded->column("c");
    std::vector<std::uint8_t> read(len);
    for (std::uint8_t& byte : read) byte = r.get_u8();
    EXPECT_TRUE(r.ok() && r.at_end()) << len;
    EXPECT_EQ(read, raw) << len;
  }
}

}  // namespace
}  // namespace gorilla::util
