// Block codec contract: compress→decompress is the identity for every
// input shape we can think of (randomized differential + adversarial
// patterns), the stream is deterministic, damage is detected instead of
// decoded, and the frame-header scan and the streaming cursor agree with
// the one-shot decoder.
//
// The word-at-a-time kernels (slicing-by-8 CRC-32, 8-byte match extension,
// period-doubling match copy) must not move a single stored byte, so the
// byte-at-a-time CRC walk, encoder and decoder they replaced are kept
// below as test-local references and compared against directly.
#include "util/block_codec.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "util/bytes.h"
#include "util/crc32.h"
#include "util/rng.h"

namespace gorilla::util {
namespace {

// --- references: the byte-at-a-time kernels, kept verbatim ----------------

std::uint32_t reference_crc32(std::span<const std::uint8_t> data) {
  std::uint32_t c = 0xffffffffu;
  for (const std::uint8_t b : data) {
    c = detail::kCrc32Table[(c ^ b) & 0xffu] ^ (c >> 8);
  }
  return c ^ 0xffffffffu;
}

constexpr std::size_t kRefMinMatch = 4;

void reference_put_ext_len(std::vector<std::uint8_t>& out, std::size_t len) {
  while (len >= 255) {
    out.push_back(255);
    len -= 255;
  }
  out.push_back(static_cast<std::uint8_t>(len));
}

void reference_emit_literals(std::vector<std::uint8_t>& out,
                             std::span<const std::uint8_t> lits,
                             std::size_t ml_nibble) {
  out.push_back(static_cast<std::uint8_t>(
      (std::min<std::size_t>(lits.size(), 15) << 4) | ml_nibble));
  if (lits.size() >= 15) reference_put_ext_len(out, lits.size() - 15);
  out.insert(out.end(), lits.begin(), lits.end());
}

std::vector<std::uint8_t> reference_lz_block(std::span<const std::uint8_t> in) {
  std::vector<std::int32_t> table(std::size_t{1} << 14, -1);
  std::vector<std::uint8_t> out;
  const std::size_t n = in.size();
  std::size_t i = 0;
  std::size_t anchor = 0;
  while (i + kRefMinMatch <= n) {
    const std::uint32_t seq = *load_u32le(in, i);
    const std::uint32_t h = (seq * 2654435761u) >> (32 - 14);
    const std::int32_t cand = table[h];
    table[h] = static_cast<std::int32_t>(i);
    if (cand >= 0) {
      const auto cpos = static_cast<std::size_t>(cand);
      if (*load_u32le(in, cpos) == seq) {
        std::size_t mlen = kRefMinMatch;
        while (i + mlen < n && in[i + mlen] == in[cpos + mlen]) ++mlen;
        const std::size_t ml = mlen - kRefMinMatch;
        reference_emit_literals(out, in.subspan(anchor, i - anchor),
                                std::min<std::size_t>(ml, 15));
        ByteWriter(out).u16le(static_cast<std::uint16_t>(i - cpos));
        if (ml >= 15) reference_put_ext_len(out, ml - 15);
        i += mlen;
        anchor = i;
        continue;
      }
    }
    ++i;
  }
  reference_emit_literals(out, in.subspan(anchor), 0);
  return out;
}

std::vector<std::uint8_t> reference_compress(
    std::span<const std::uint8_t> raw) {
  std::vector<std::uint8_t> out;
  for (std::size_t pos = 0; pos < raw.size(); pos += kBlockRawSize) {
    const auto chunk =
        raw.subspan(pos, std::min(kBlockRawSize, raw.size() - pos));
    std::vector<std::uint8_t> body = reference_lz_block(chunk);
    std::uint8_t method = 1;
    if (body.size() >= chunk.size()) {
      body.assign(chunk.begin(), chunk.end());
      method = 0;
    }
    ByteWriter w(out);
    w.u32le(static_cast<std::uint32_t>(chunk.size()));
    w.u32le(static_cast<std::uint32_t>(body.size()));
    w.u32le(reference_crc32(body));
    w.u8(method);
    w.bytes(body);
  }
  return out;
}

bool reference_read_ext_len(std::span<const std::uint8_t> body,
                            std::size_t& ip, std::size_t& len) {
  std::uint8_t b = 0;
  do {
    if (ip >= body.size()) return false;
    b = body[ip++];
    len += b;
    if (len > 2 * kBlockRawSize) return false;
  } while (b == 255);
  return true;
}

/// The byte-at-a-time LZ block decoder: every match byte copied on its own.
bool reference_lz_decode(std::span<const std::uint8_t> body,
                         std::size_t raw_len,
                         std::vector<std::uint8_t>& out) {
  const std::size_t base = out.size();
  out.resize(base + raw_len);
  const std::size_t iend = body.size();
  const std::size_t oend = base + raw_len;
  std::size_t ip = 0;
  std::size_t op = base;
  bool ok = false;
  while (ip < iend) {
    const std::uint8_t tok = body[ip++];
    std::size_t lit = tok >> 4;
    if (lit == 15 && !reference_read_ext_len(body, ip, lit)) break;
    if (lit > iend - ip || lit > oend - op) break;
    for (std::size_t k = 0; k < lit; ++k) out[op++] = body[ip++];
    if (ip == iend) {
      ok = op == oend;
      break;
    }
    const auto offset = load_u16le(body, ip);
    if (!offset) break;
    ip += 2;
    std::size_t mlen = tok & 0xf;
    if (mlen == 15 && !reference_read_ext_len(body, ip, mlen)) break;
    mlen += kRefMinMatch;
    const std::size_t off = *offset;
    if (off == 0 || off > op - base || mlen > oend - op) break;
    for (std::size_t k = 0; k < mlen; ++k, ++op) out[op] = out[op - off];
  }
  if (!ok) out.resize(base);
  return ok;
}

/// Whole-stream reference decode (frame walk + CRC + per-block decode).
bool reference_decompress(std::span<const std::uint8_t> stored,
                          std::vector<std::uint8_t>& out) {
  std::size_t off = 0;
  while (off < stored.size()) {
    ByteReader r(stored.subspan(off));
    const std::size_t raw_len = r.u32le();
    const std::size_t body_len = r.u32le();
    const std::uint32_t crc = r.u32le();
    const std::uint8_t method = r.u8();
    if (!r.ok() || raw_len == 0 || raw_len > kBlockRawSize || method > 1 ||
        body_len > r.remaining() || (method == 0 && body_len != raw_len)) {
      return false;
    }
    const auto body = stored.subspan(off + kBlockHeaderSize, body_len);
    if (reference_crc32(body) != crc) return false;
    if (method == 0) {
      out.insert(out.end(), body.begin(), body.end());
    } else if (!reference_lz_decode(body, raw_len, out)) {
      return false;
    }
    off += kBlockHeaderSize + body_len;
  }
  return true;
}

/// Inputs the differential tests sweep: every adversarial shape of the
/// round-trip suite plus runs at periods 1-17, at sizes from empty to
/// three blocks.
std::vector<std::vector<std::uint8_t>> differential_corpus() {
  std::vector<std::vector<std::uint8_t>> corpus;
  for (const std::size_t size :
       {std::size_t{0}, std::size_t{1}, std::size_t{3}, std::size_t{4},
        std::size_t{19}, std::size_t{273}, kBlockRawSize - 1, kBlockRawSize,
        kBlockRawSize + 1, 2 * kBlockRawSize + 7, 3 * kBlockRawSize}) {
    corpus.emplace_back(size, std::uint8_t{0x5a});
  }
  for (std::size_t period = 1; period <= 17; ++period) {
    for (const std::size_t size :
         {std::size_t{40}, std::size_t{5000}, kBlockRawSize + 333}) {
      std::vector<std::uint8_t> wave(size);
      for (std::size_t i = 0; i < size; ++i) {
        wave[i] = static_cast<std::uint8_t>((i % period) * 37 + 1);
      }
      corpus.push_back(std::move(wave));
    }
  }
  Rng rng(17);
  for (const std::size_t size :
       {std::size_t{7}, std::size_t{4096}, 3 * kBlockRawSize}) {
    std::vector<std::uint8_t> noise(size);  // incompressible: stored blocks
    for (auto& b : noise) b = static_cast<std::uint8_t>(rng.next());
    corpus.push_back(std::move(noise));
  }
  for (const std::size_t lits : {14u, 15u, 16u, 269u, 270u, 271u}) {
    std::vector<std::uint8_t> mixed;
    for (std::size_t i = 0; i < lits; ++i) {
      mixed.push_back(static_cast<std::uint8_t>(rng.next()));
    }
    mixed.insert(mixed.end(), 300, 0xee);
    for (std::size_t i = 0; i < lits; ++i) {
      mixed.push_back(static_cast<std::uint8_t>(rng.next()));
    }
    corpus.push_back(std::move(mixed));
  }
  return corpus;
}

/// Compress and both decoders must agree with the references byte for byte.
void expect_matches_reference(const std::vector<std::uint8_t>& raw,
                              const std::string& what) {
  const std::vector<std::uint8_t> stored = block_compress(raw);
  ASSERT_EQ(stored, reference_compress(raw)) << what;
  std::vector<std::uint8_t> fast{0xc0, 0xde};  // decode appends
  std::vector<std::uint8_t> slow = fast;
  ASSERT_TRUE(block_decompress(stored, fast)) << what;
  ASSERT_TRUE(reference_decompress(stored, slow)) << what;
  ASSERT_EQ(fast, slow) << what;
  ASSERT_TRUE(std::equal(raw.begin(), raw.end(), fast.begin() + 2)) << what;
}

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

TEST(BlockCodecDifferentialTest, CompressMatchesReferenceOnAdversarialShapes) {
  const auto corpus = differential_corpus();
  for (std::size_t k = 0; k < corpus.size(); ++k) {
    expect_matches_reference(corpus[k],
                             "shape " + std::to_string(k) + " size " +
                                 std::to_string(corpus[k].size()));
  }
}

TEST(BlockCodecDifferentialTest, CompressMatchesReferenceOnSeededRandomInputs) {
  // Sizes up to three blocks; alphabet width and spliced long-range copies
  // vary how much of each input is literals, short matches and long runs.
  Rng rng(0xd1ffc0dec);
  for (int trial = 0; trial < 300; ++trial) {
    const std::size_t size =
        static_cast<std::size_t>(rng.next() % (trial % 10 == 0
                                                   ? 3 * kBlockRawSize + 1
                                                   : 4096));
    const std::uint64_t width = 1 + rng.next() % 256;
    std::vector<std::uint8_t> raw(size);
    for (auto& b : raw) b = static_cast<std::uint8_t>(rng.next() % width);
    if (size > 64) {
      const std::size_t from = rng.next() % (size / 2);
      const std::size_t len = 1 + rng.next() % (size / 4);
      for (std::size_t i = 0; i + from + len < size && i < len; ++i) {
        raw[from + len + i] = raw[from + i];
      }
    }
    expect_matches_reference(raw, "trial " + std::to_string(trial));
    if (HasFatalFailure()) return;
  }
}

TEST(Crc32DifferentialTest, SlicedWalkEqualsByteWalkAtEveryLengthAndAlignment) {
  std::vector<std::uint8_t> buf(8 + 72);
  Rng rng(32);
  for (auto& b : buf) b = static_cast<std::uint8_t>(rng.next());
  const std::span<const std::uint8_t> all(buf);
  for (std::size_t start = 0; start < 8; ++start) {
    for (std::size_t len = 0; len <= 72; ++len) {
      const auto data = all.subspan(start, len);
      ASSERT_EQ(crc32(data), reference_crc32(data))
          << "start " << start << " len " << len;
      // Chunking must not matter either: split at every point.
      for (std::size_t cut = 0; cut <= len; cut += 5) {
        Crc32 c;
        c.update(data.first(cut));
        c.update(data.subspan(cut));
        ASSERT_EQ(c.value(), reference_crc32(data))
            << "start " << start << " len " << len << " cut " << cut;
      }
    }
  }
}

TEST(Crc32DifferentialTest, ConstantEvaluationPinsTheCheckValue) {
  // The standard CRC-32 check value, once through the compile-time byte
  // walk and once through the run-time slicing path.
  static constexpr std::uint8_t kCheck[] = {'1', '2', '3', '4', '5',
                                            '6', '7', '8', '9'};
  static_assert(crc32(kCheck) == 0xcbf43926u);
  const std::vector<std::uint8_t> runtime(std::begin(kCheck),
                                          std::end(kCheck));
  EXPECT_EQ(crc32(runtime), 0xcbf43926u);
}

// --- block-layer mutation fuzz ---------------------------------------------
//
// Damage inside an LZ body that the frame CRC no longer catches must still
// be caught, or decoded exactly, by the LZ decoder's own checks. Each case
// takes a valid block stream, mutates one LZ body (a random bit flip, or a
// rewrite of a token, a length-extension byte or an offset) and re-seals
// that frame's CRC so the damage reaches the decoder. block_decompress must
// then either return true with exactly the declared raw length appended,
// or return false with `out` holding its prior contents plus every intact
// leading block, and agree with the reference decoder byte for byte.
// Never a crash or an out-of-bounds access: the asan-ubsan preset runs
// this suite. Fixed seed, so a failure reproduces.

/// Where the fields of one LZ body sit, found by walking a valid body.
struct BodyFields {
  std::vector<std::size_t> tokens;
  std::vector<std::size_t> ext_lens;
  std::vector<std::size_t> offsets;  ///< first byte of each u16le offset
};

void skip_ext_len(std::span<const std::uint8_t> body, std::size_t& ip,
                  std::size_t& len, BodyFields& fields) {
  std::uint8_t b = 0;
  do {
    fields.ext_lens.push_back(ip);
    b = body[ip++];
    len += b;
  } while (b == 255);
}

BodyFields walk_body(std::span<const std::uint8_t> body) {
  BodyFields fields;
  std::size_t ip = 0;
  while (ip < body.size()) {
    fields.tokens.push_back(ip);
    const std::uint8_t tok = body[ip++];
    std::size_t lit = tok >> 4;
    if (lit == 15) skip_ext_len(body, ip, lit, fields);
    ip += lit;
    if (ip == body.size()) break;
    fields.offsets.push_back(ip);
    ip += 2;
    std::size_t mlen = tok & 0xf;
    if (mlen == 15) skip_ext_len(body, ip, mlen, fields);
  }
  return fields;
}

/// One frame of a block stream: where its header and body start.
struct Frame {
  std::size_t at = 0;
  std::size_t body_len = 0;
  std::uint8_t method = 0;
};

std::vector<Frame> frames_of(std::span<const std::uint8_t> stored) {
  std::vector<Frame> frames;
  std::size_t off = 0;
  while (off < stored.size()) {
    ByteReader r(stored.subspan(off));
    Frame f;
    f.at = off;
    r.u32le();  // raw_len
    f.body_len = r.u32le();
    r.u32le();  // crc, re-sealed by the fuzz loop
    f.method = r.u8();
    frames.push_back(f);
    off += kBlockHeaderSize + f.body_len;
  }
  return frames;
}

/// Inputs whose blocks are LZ-coded with literal runs, short and long
/// matches, and overlapping runs, so every field kind appears.
std::vector<std::uint8_t> fuzz_input(Rng& rng, std::size_t size) {
  std::vector<std::uint8_t> raw;
  raw.reserve(size);
  while (raw.size() < size) {
    switch (rng.next() % 3) {
      case 0:  // literal noise
        for (std::uint64_t k = rng.next() % 40; k > 0; --k) {
          raw.push_back(static_cast<std::uint8_t>(rng.next()));
        }
        break;
      case 1: {  // run with a small period
        const std::uint64_t period = 1 + rng.next() % 9;
        const std::uint64_t len = 4 + rng.next() % 600;
        for (std::uint64_t k = 0; k < len; ++k) {
          raw.push_back(static_cast<std::uint8_t>(k % period + 65));
        }
        break;
      }
      default:  // copy of an earlier stretch
        if (raw.size() > 16) {
          const std::size_t from = rng.next() % (raw.size() - 8);
          const std::size_t len = 4 + rng.next() % 64;
          for (std::size_t k = 0; k < len && from + k < raw.size(); ++k) {
            raw.push_back(raw[from + k]);
          }
        }
    }
  }
  raw.resize(size);
  return raw;
}

TEST(BlockCodecMutationFuzzTest, MutatedBodiesDecodeExactlyOrRestoreOut) {
  Rng rng(0xf022b10c);
  const std::vector<std::uint8_t> prefix{1, 2, 3};
  int rejected = 0;
  int accepted = 0;
  for (int input = 0; input < 32; ++input) {
    // Every eighth input spans two blocks, so a damaged second block must
    // leave the first one decoded.
    const std::size_t size =
        input % 8 == 7 ? kBlockRawSize + 3000 : 200 + rng.next() % 6000;
    const std::vector<std::uint8_t> raw = fuzz_input(rng, size);
    const std::vector<std::uint8_t> stored = block_compress(raw);
    const std::vector<Frame> frames = frames_of(stored);
    for (std::size_t fi = 0; fi < frames.size(); ++fi) {
      const Frame& frame = frames[fi];
      ASSERT_EQ(frame.method, 1) << "fuzz inputs must be LZ-coded";
      const std::size_t body_at = frame.at + kBlockHeaderSize;
      const BodyFields fields = walk_body(
          std::span<const std::uint8_t>(stored).subspan(body_at,
                                                        frame.body_len));
      ASSERT_FALSE(fields.tokens.empty());
      for (int m = 0; m < 64; ++m) {
        std::vector<std::uint8_t> bad = stored;
        auto pick = [&](const std::vector<std::size_t>& at) {
          return body_at + at[rng.next() % at.size()];
        };
        const std::uint64_t kind = rng.next() % 4;
        std::string what;
        if (kind == 0 || fields.offsets.empty()) {
          const std::size_t at = body_at + rng.next() % frame.body_len;
          bad[at] ^= static_cast<std::uint8_t>(1u << (rng.next() % 8));
          what = "bit flip";
        } else if (kind == 1) {
          bad[pick(fields.tokens)] = static_cast<std::uint8_t>(rng.next());
          what = "token";
        } else if (kind == 2 && !fields.ext_lens.empty()) {
          bad[pick(fields.ext_lens)] = static_cast<std::uint8_t>(rng.next());
          what = "length extension";
        } else {
          const std::size_t at = pick(fields.offsets);
          const std::uint64_t v = rng.next() % 3 == 0 ? 0 : rng.next();
          bad[at] = static_cast<std::uint8_t>(v);
          bad[at + 1] = static_cast<std::uint8_t>(v >> 8);
          what = "offset";
        }
        // Re-seal the frame CRC so the damage reaches the LZ decoder.
        const std::uint32_t crc = crc32(
            std::span<const std::uint8_t>(bad).subspan(body_at,
                                                       frame.body_len));
        for (std::size_t k = 0; k < 4; ++k) {
          bad[frame.at + 8 + k] = static_cast<std::uint8_t>(crc >> (8 * k));
        }

        std::vector<std::uint8_t> out = prefix;
        std::vector<std::uint8_t> slow = prefix;
        const std::string where = what + " in block " + std::to_string(fi) +
                                  " of input " + std::to_string(input);
        const bool ok = block_decompress(bad, out);
        // The byte-at-a-time decoder must reach the same verdict and bytes.
        ASSERT_EQ(ok, reference_decompress(bad, slow)) << where;
        ASSERT_EQ(out, slow) << where;
        if (ok) {
          ++accepted;
          ASSERT_EQ(out.size(), prefix.size() + raw.size()) << where;
        } else {
          ++rejected;
          const std::size_t intact = fi * kBlockRawSize;
          ASSERT_EQ(out.size(), prefix.size() + intact) << where;
          ASSERT_TRUE(std::equal(raw.begin(),
                                 raw.begin() + static_cast<std::ptrdiff_t>(
                                                   intact),
                                 out.begin() + 3))
              << where;
        }
        ASSERT_TRUE(std::equal(prefix.begin(), prefix.end(), out.begin()))
            << where;
      }
    }
  }
  // Both outcomes occur, so neither branch of the contract is vacuous.
  EXPECT_GT(rejected, 0);
  EXPECT_GT(accepted, 0);
}

}  // namespace
}  // namespace gorilla::util
