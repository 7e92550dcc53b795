#include "util/columnar.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <limits>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "util/crc32.h"
#include "util/rng.h"
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
  ThreadPool codec(1);
  ColumnReader r = loaded->column("big", codec);
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
  ThreadPool codec(1);
  ColumnReader r = archive.column("big", codec);
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

// Up to 40 blocks: well past the ColumnWriter::kBlocksInFlight bound, so
// sealing writers wait for their oldest block many times over.
constexpr std::size_t kSealLengths[] = {
    0, 1, 63, 64, 65535, 65536, 65537, 3 * kBlockRawSize + 17,
    8 * kBlockRawSize, 9 * kBlockRawSize + 1, 40 * kBlockRawSize + 1234};

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
  ThreadPool codec(1);
  for (const std::size_t len : kSealLengths) {
    ColumnWriter plain;
    fill_column(plain, len);
    ColumnWriter sealing = ColumnWriter::sealing(codec);
    fill_column(sealing, len);
    ASSERT_EQ(plain.size(), len);
    ASSERT_EQ(sealing.size(), len);
    // Only the unfinished block stays raw.
    EXPECT_EQ(sealing.buffer().size(), len % kBlockRawSize) << len;
    EXPECT_EQ(sealing.take_blocks(), block_compress(plain.buffer())) << len;
    EXPECT_EQ(sealing.size(), 0u);
  }
}

/// Compressed size of the first `blocks` whole blocks of `raw`.
std::size_t frames_of(const std::vector<std::uint8_t>& raw,
                      std::size_t blocks) {
  return block_compress(
             std::span<const std::uint8_t>(raw).first(blocks * kBlockRawSize))
      .size();
}

TEST(SealingColumnTest, HeldBytesAreFramesPlusTail) {
  constexpr std::size_t kLen = 3 * kBlockRawSize + 17;
  ThreadPool codec(1);
  ColumnWriter sealing = ColumnWriter::sealing(codec);
  fill_column(sealing, kLen);
  ColumnWriter plain;
  fill_column(plain, kLen);
  const std::size_t frames = frames_of(plain.buffer(), 3);
  EXPECT_EQ(sealing.held_bytes(), frames + 17);
  EXPECT_LT(sealing.held_bytes(), sealing.size());
}

TEST(SealingColumnTest, HeldCountsTheMomentItWasTaken) {
  // Taken while blocks are in flight and finished after the writer has
  // sealed many more: the count is still the one for the moment it was
  // taken, frames plus tail, summed across writers.
  constexpr std::size_t kLen = 3 * kBlockRawSize + 17;
  ThreadPool codec(1);
  ColumnWriter a = ColumnWriter::sealing(codec);
  ColumnWriter b = ColumnWriter::sealing(codec);
  fill_column(a, kLen);
  fill_column(b, kLen + kBlockRawSize);
  HeldBytes held = a.held();
  held += b.held();
  for (std::size_t i = 0; i < 20 * kBlockRawSize; ++i) {
    a.put_u8(static_cast<std::uint8_t>(i));
  }
  ColumnWriter plain_a;
  fill_column(plain_a, kLen);
  ColumnWriter plain_b;
  fill_column(plain_b, kLen + kBlockRawSize);
  EXPECT_EQ(held.total(), frames_of(plain_a.buffer(), 3) + 17 +
                              frames_of(plain_b.buffer(), 4) + 17);
}

TEST(SealingColumnTest, ArchiveSavesTheBytesOfTheRawColumn) {
  ThreadPool codec(1);
  for (const std::size_t len : kSealLengths) {
    ColumnWriter plain;
    fill_column(plain, len);
    ColumnWriter sealing = ColumnWriter::sealing(codec);
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
    ColumnReader r = loaded->column("c", codec);
    std::vector<std::uint8_t> read(len);
    for (std::uint8_t& byte : read) byte = r.get_u8();
    EXPECT_TRUE(r.ok() && r.at_end()) << len;
    EXPECT_EQ(read, raw) << len;
  }
}

// ---- Streaming readers: one block decoded ahead on the codec worker ----

constexpr std::size_t kStreamBlocks = 6;

/// A column of kStreamBlocks whole blocks and a partial one, stored as a
/// block stream, with where each frame starts.
struct StoredColumn {
  std::vector<std::uint8_t> raw;
  std::vector<std::uint8_t> stored;
  std::vector<std::size_t> frames;
};

StoredColumn make_stored_column() {
  StoredColumn c;
  ColumnWriter w;
  fill_column(w, kStreamBlocks * kBlockRawSize + 999);
  c.raw = w.take_buffer();
  c.stored = block_compress(c.raw);
  for (std::size_t off = 0; off < c.stored.size();) {
    c.frames.push_back(off);
    off += kBlockHeaderSize + *load_u32le(c.stored, off + 4);
  }
  return c;
}

/// Breaks block `k`'s LZ body so that it cannot decode (every byte 0xff
/// asks for an endless literal run) and re-seals its CRC, so the damage
/// reaches the decoder rather than the checksum.
void break_lz_body(StoredColumn& c, std::size_t k) {
  const std::size_t at = c.frames[k];
  ASSERT_EQ(c.stored[at + 12], 1) << "block " << k << " is not LZ";
  const std::size_t body_len = *load_u32le(c.stored, at + 4);
  const auto body = std::span<std::uint8_t>(c.stored).subspan(
      at + kBlockHeaderSize, body_len);
  std::fill(body.begin(), body.end(), std::uint8_t{0xff});
  std::vector<std::uint8_t> crc;
  ByteWriter(crc).u32le(crc32(body));
  std::copy(crc.begin(), crc.end(), c.stored.begin() +
                                        static_cast<std::ptrdiff_t>(at + 8));
}

/// Reads `c.stored` a byte at a time until the reader fails: it must
/// yield exactly the bytes of the blocks before `k`, as block_decompress
/// does, then fail sticky.
void expect_fails_at_block(const StoredColumn& c, std::size_t k) {
  std::vector<std::uint8_t> prefix;
  EXPECT_FALSE(block_decompress(c.stored, prefix));
  ASSERT_EQ(prefix.size(), k * kBlockRawSize);

  ThreadPool codec(1);
  ColumnReader r(c.stored, codec);
  std::vector<std::uint8_t> read;
  for (;;) {
    const std::uint8_t byte = r.get_u8();
    if (!r.ok()) break;
    read.push_back(byte);
  }
  EXPECT_EQ(read.size(), prefix.size());
  EXPECT_EQ(read, prefix);
  EXPECT_EQ(r.get_u8(), 0);
  EXPECT_FALSE(r.ok());
  EXPECT_FALSE(r.at_end());

  // Word reads meet the damage at the same place: the read that needs the
  // block fails, not the read-ahead that decoded it.
  ColumnReader words(c.stored, codec);
  std::size_t words_read = 0;
  for (;;) {
    (void)words.get_u32();
    if (!words.ok()) break;
    ++words_read;
  }
  EXPECT_EQ(4 * words_read, prefix.size());
}

TEST(ColumnReaderStreamingTest, BrokenCrcFailsAfterTheBlocksBeforeIt) {
  for (const std::size_t k : {std::size_t{0}, std::size_t{3}, kStreamBlocks}) {
    StoredColumn c = make_stored_column();
    ASSERT_EQ(c.frames.size(), kStreamBlocks + 1);
    c.stored[c.frames[k] + kBlockHeaderSize + 5] ^= 0x40;
    SCOPED_TRACE(k);
    expect_fails_at_block(c, k);
  }
}

TEST(ColumnReaderStreamingTest, BrokenLzBodyFailsAfterTheBlocksBeforeIt) {
  for (const std::size_t k : {std::size_t{0}, std::size_t{1}, std::size_t{4}}) {
    StoredColumn c = make_stored_column();
    SCOPED_TRACE(k);
    break_lz_body(c, k);
    expect_fails_at_block(c, k);
  }
}

TEST(ColumnReaderStreamingTest, DestroyedWithAReadAheadInFlight) {
  // The worker is held busy, so each reader is destroyed while its
  // read-ahead is still queued; the archive is freed right after. The
  // reader must wait for the job, which borrows the archive's bytes (a
  // sanitizer build reports a use after free otherwise).
  ThreadPool codec(1);
  for (int reads = 0; reads < 3; ++reads) {
    auto archive = std::make_unique<ColumnArchive>();
    archive->sections.emplace_back("c", make_stored_column().stored);
    archive->sections.back().storage = ColumnArchive::SectionStorage::kBlocks;
    codec.submit(
        [] { std::this_thread::sleep_for(std::chrono::milliseconds(20)); });
    {
      ColumnReader r = archive->column("c", codec);
      for (int i = 0; i < reads; ++i) (void)r.get_u32();
      ColumnReader moved(std::move(r));
      EXPECT_TRUE(moved.ok());
    }
    archive.reset();
  }
}

}  // namespace
}  // namespace gorilla::util
