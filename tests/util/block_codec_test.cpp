// Block codec contract: compress→decompress is the identity for every
// input shape we can think of (randomized differential + adversarial
// patterns), the stream is deterministic, damage is detected instead of
// decoded, and the frame-header scan and the streaming cursor agree with
// the one-shot decoder.
#include "util/block_codec.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "util/rng.h"

namespace gorilla::util {
namespace {

std::vector<std::uint8_t> round_trip(std::span<const std::uint8_t> raw) {
  const std::vector<std::uint8_t> stored = block_compress(raw);
  std::vector<std::uint8_t> back;
  EXPECT_TRUE(block_decompress(stored, back));
  return back;
}

void expect_identity(const std::vector<std::uint8_t>& raw,
                     const std::string& what) {
  const std::vector<std::uint8_t> back = round_trip(raw);
  ASSERT_EQ(back.size(), raw.size()) << what;
  EXPECT_EQ(back, raw) << what;
}

TEST(BlockCodecTest, EmptyInputYieldsEmptyStream) {
  EXPECT_TRUE(block_compress({}).empty());
  std::vector<std::uint8_t> out;
  EXPECT_TRUE(block_decompress({}, out));
  EXPECT_TRUE(out.empty());
  EXPECT_EQ(block_raw_size({}), std::uint64_t{0});
}

TEST(BlockCodecTest, AdversarialPatternsRoundTrip) {
  // Shapes chosen to stress the token format: runs (RLE-like overlapping
  // matches), literals-only noise, match/literal boundaries at the 15
  // nibble cutoffs, block-boundary straddles, and length-extension runs.
  expect_identity(std::vector<std::uint8_t>(1, 0x42), "single byte");
  expect_identity(std::vector<std::uint8_t>(3, 0xaa), "below min match");
  expect_identity(std::vector<std::uint8_t>(4, 0xaa), "exactly min match");
  expect_identity(std::vector<std::uint8_t>(19, 0x55), "match len 15 cutoff");
  expect_identity(std::vector<std::uint8_t>(273, 0x55), "match ext run");
  expect_identity(std::vector<std::uint8_t>(kBlockRawSize, 0),
                  "one full zero block");
  expect_identity(std::vector<std::uint8_t>(kBlockRawSize + 1, 0),
                  "block boundary straddle");
  expect_identity(std::vector<std::uint8_t>(3 * kBlockRawSize - 1, 0x7f),
                  "multi-block minus one");

  // Literal-length cutoffs: N incompressible bytes then a long run.
  Rng rng(1);
  for (const std::size_t lits : {14u, 15u, 16u, 269u, 270u, 271u}) {
    std::vector<std::uint8_t> mixed;
    for (std::size_t i = 0; i < lits; ++i) {
      mixed.push_back(static_cast<std::uint8_t>(rng.next()));
    }
    mixed.insert(mixed.end(), 100, 0xee);
    expect_identity(mixed, "lits=" + std::to_string(lits));
  }

  // Periodic data at every small period (offset = period matches).
  for (std::size_t period = 1; period <= 20; ++period) {
    std::vector<std::uint8_t> wave(5000);
    for (std::size_t i = 0; i < wave.size(); ++i) {
      wave[i] = static_cast<std::uint8_t>(i % period);
    }
    expect_identity(wave, "period=" + std::to_string(period));
  }
}

TEST(BlockCodecTest, RandomizedDifferentialIdentity) {
  // 10k random inputs sweeping size, alphabet, and repetitiveness; every
  // single one must round-trip exactly. Deterministic seed, so a failure
  // reproduces.
  Rng rng(0xb10cc0dec);
  for (int trial = 0; trial < 10000; ++trial) {
    const std::size_t size = static_cast<std::size_t>(rng.next() % 2048);
    // Alphabet width 1..256 controls compressibility; small widths force
    // dense matching, width 256 is mostly literals.
    const std::uint64_t width = 1 + rng.next() % 256;
    std::vector<std::uint8_t> raw(size);
    for (auto& b : raw) {
      b = static_cast<std::uint8_t>(rng.next() % width);
    }
    // A third of the trials splice in a copied slice so long-range matches
    // appear at random offsets.
    if (size > 64 && trial % 3 == 0) {
      const std::size_t from = rng.next() % (size / 2);
      const std::size_t len = 1 + rng.next() % (size / 4);
      for (std::size_t i = 0; i + from + len < size && i < len; ++i) {
        raw[from + len + i] = raw[from + i];
      }
    }
    const std::vector<std::uint8_t> back = round_trip(raw);
    ASSERT_EQ(back, raw) << "trial " << trial << " size " << size;
  }
}

TEST(BlockCodecTest, CompressionIsDeterministic) {
  std::vector<std::uint8_t> raw(200000);
  Rng rng(7);
  for (auto& b : raw) b = static_cast<std::uint8_t>(rng.next() % 17);
  EXPECT_EQ(block_compress(raw), block_compress(raw));
}

TEST(BlockCodecTest, RepetitiveDataActuallyShrinks) {
  std::vector<std::uint8_t> raw(100000);
  for (std::size_t i = 0; i < raw.size(); ++i) {
    raw[i] = static_cast<std::uint8_t>((i / 9) % 37);
  }
  const auto stored = block_compress(raw);
  EXPECT_LT(stored.size(), raw.size() / 2);
}

TEST(BlockCodecTest, IncompressibleDataExpandsOnlyByHeaders) {
  std::vector<std::uint8_t> raw(3 * kBlockRawSize);
  Rng rng(9);
  for (auto& b : raw) b = static_cast<std::uint8_t>(rng.next());
  const auto stored = block_compress(raw);
  EXPECT_LE(stored.size(), raw.size() + 3 * kBlockHeaderSize);
  expect_identity(raw, "incompressible");
}

TEST(BlockCodecTest, ScanAndCursorAgreeWithDecompress) {
  std::vector<std::uint8_t> raw(kBlockRawSize * 2 + 777);
  for (std::size_t i = 0; i < raw.size(); ++i) {
    raw[i] = static_cast<std::uint8_t>((i * 31) % 101);
  }
  const auto stored = block_compress(raw);
  EXPECT_EQ(block_raw_size(stored), std::uint64_t{raw.size()});

  BlockCursor cursor{std::span<const std::uint8_t>(stored)};
  std::vector<std::uint8_t> streamed;
  std::size_t blocks = 0;
  while (cursor.next(streamed)) ++blocks;
  EXPECT_TRUE(cursor.exhausted());
  EXPECT_FALSE(cursor.damaged());
  EXPECT_EQ(blocks, 3u);
  EXPECT_EQ(streamed, raw);
}

TEST(BlockCodecTest, DamageIsDetectedAtTheDamagedBlock) {
  std::vector<std::uint8_t> raw(kBlockRawSize + 500);
  for (std::size_t i = 0; i < raw.size(); ++i) {
    raw[i] = static_cast<std::uint8_t>((i / 5) % 19);
  }
  auto stored = block_compress(raw);
  // Flip one byte in the LAST block's body; block 0 must survive. The
  // frame headers are untouched, so the declared size still adds up.
  stored[stored.size() - 7] ^= 0x10;
  EXPECT_EQ(block_raw_size(stored), std::uint64_t{raw.size()});
  BlockCursor cursor{std::span<const std::uint8_t>(stored)};
  std::vector<std::uint8_t> streamed;
  EXPECT_TRUE(cursor.next(streamed));
  EXPECT_FALSE(cursor.next(streamed));
  EXPECT_TRUE(cursor.damaged());

  std::vector<std::uint8_t> out;
  EXPECT_FALSE(block_decompress(stored, out));
  ASSERT_EQ(out.size(), kBlockRawSize);
  EXPECT_TRUE(std::equal(out.begin(), out.end(), raw.begin()));
  EXPECT_EQ(streamed, out);

  // A torn frame no longer tiles the stream.
  const std::span<const std::uint8_t> torn(stored.data(),
                                           stored.size() - 30);
  EXPECT_FALSE(block_raw_size(torn).has_value());
  BlockCursor torn_cursor{torn};
  std::vector<std::uint8_t> torn_out;
  EXPECT_TRUE(torn_cursor.next(torn_out));
  EXPECT_FALSE(torn_cursor.next(torn_out));
  EXPECT_TRUE(torn_cursor.damaged());
}

TEST(BlockCodecTest, MalformedFramesAreRejectedNotDecoded) {
  // A frame whose declared body length overruns the stream.
  std::vector<std::uint8_t> bogus(kBlockHeaderSize + 2, 0);
  bogus[0] = 16;              // raw_len = 16
  bogus[4] = 200;             // body_len = 200 > remaining
  std::vector<std::uint8_t> out;
  EXPECT_FALSE(block_decompress(bogus, out));
  // raw_len = 0 is invalid (empty blocks are never emitted).
  std::vector<std::uint8_t> zero(kBlockHeaderSize, 0);
  EXPECT_FALSE(block_decompress(zero, out));
  // Unknown method byte.
  std::vector<std::uint8_t> method(kBlockHeaderSize + 1, 0);
  method[0] = 1;   // raw_len 1
  method[4] = 1;   // body_len 1
  method[12] = 9;  // method 9 does not exist
  EXPECT_FALSE(block_decompress(method, out));
}

}  // namespace
}  // namespace gorilla::util
