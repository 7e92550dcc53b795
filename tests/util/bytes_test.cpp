#include "util/bytes.h"

#include <gtest/gtest.h>

#include <array>
#include <sstream>
#include <vector>

namespace gorilla::util {
namespace {

// --- positional loads ------------------------------------------------------

TEST(LoadTest, BigEndianValues) {
  const std::vector<std::uint8_t> buf = {0x01, 0x02, 0x03, 0x04,
                                         0x05, 0x06, 0x07, 0x08};
  EXPECT_EQ(load_u16be(buf, 0), 0x0102);
  EXPECT_EQ(load_u32be(buf, 0), 0x01020304u);
  EXPECT_EQ(load_u64be(buf, 0), 0x0102030405060708ull);
  EXPECT_EQ(load_u16be(buf, 6), 0x0708);
}

TEST(LoadTest, LittleEndianValues) {
  const std::vector<std::uint8_t> buf = {0xd4, 0xc3, 0xb2, 0xa1};
  EXPECT_EQ(load_u32le(buf, 0), 0xa1b2c3d4u);  // the pcap magic
  EXPECT_EQ(load_u16le(buf, 0), 0xc3d4);
}

TEST(LoadTest, RefusesOutOfBounds) {
  const std::vector<std::uint8_t> buf = {1, 2, 3};
  EXPECT_EQ(load_u16be(buf, 2), std::nullopt);
  EXPECT_EQ(load_u32be(buf, 0), std::nullopt);
  EXPECT_EQ(load_u64be(buf, 0), std::nullopt);
  // Offset far past the end must not wrap (offset > size guard).
  EXPECT_EQ(load_u16be(buf, static_cast<std::size_t>(-1)), std::nullopt);
}

TEST(LoadTest, ZeroLengthInput) {
  const std::span<const std::uint8_t> empty;
  EXPECT_EQ(load_u16be(empty, 0), std::nullopt);
  EXPECT_EQ(load_u32le(empty, 0), std::nullopt);
}

TEST(StoreTest, RoundTripsAndBoundsChecks) {
  std::array<std::uint8_t, 4> buf{};
  EXPECT_TRUE(store_u16be(buf, 2, 0xbeef));
  EXPECT_EQ(buf[2], 0xbe);
  EXPECT_EQ(buf[3], 0xef);
  EXPECT_EQ(load_u16be(buf, 2), 0xbeef);
  EXPECT_FALSE(store_u16be(buf, 3, 0x1234));  // would spill past the end
  EXPECT_EQ(buf[3], 0xef);                    // untouched on failure
}

// --- ByteReader ------------------------------------------------------------

TEST(ByteReaderTest, ReadsLinearly) {
  const std::vector<std::uint8_t> buf = {0xab, 0x01, 0x02, 0x03, 0x04,
                                         0x05, 0x06, 0x07, 0x08, 0x09};
  ByteReader r(buf);
  EXPECT_EQ(r.u8(), 0xab);
  EXPECT_EQ(r.u16be(), 0x0102);
  EXPECT_EQ(r.u32be(), 0x03040506u);
  EXPECT_EQ(r.remaining(), 3u);
  EXPECT_EQ(r.consumed(), 7u);
  EXPECT_TRUE(r.ok());
}

TEST(ByteReaderTest, UnderflowIsStickyAndReturnsZero) {
  const std::vector<std::uint8_t> buf = {0xff};
  ByteReader r(buf);
  EXPECT_EQ(r.u32be(), 0u);  // short read yields 0, not a partial value
  EXPECT_TRUE(r.truncated());
  EXPECT_FALSE(r.ok());
  // The unread byte is still there, but the failure state never clears.
  EXPECT_EQ(r.u8(), 0xff);
  EXPECT_TRUE(r.truncated());
}

TEST(ByteReaderTest, ZeroLengthInput) {
  ByteReader r(std::span<const std::uint8_t>{});
  EXPECT_EQ(r.remaining(), 0u);
  EXPECT_TRUE(r.ok());  // no reads yet, nothing failed
  EXPECT_EQ(r.u8(), 0);
  EXPECT_FALSE(r.ok());
}

TEST(ByteReaderTest, TakeIsAllOrNothing) {
  const std::vector<std::uint8_t> buf = {1, 2, 3, 4};
  ByteReader r(buf);
  const auto head = r.take(3);
  ASSERT_EQ(head.size(), 3u);
  EXPECT_EQ(head[0], 1);
  const auto tail = r.take(2);  // only 1 byte left
  EXPECT_TRUE(tail.empty());
  EXPECT_TRUE(r.truncated());
}

TEST(ByteReaderTest, TakeZeroOnEmptyIsOk) {
  ByteReader r(std::span<const std::uint8_t>{});
  EXPECT_TRUE(r.take(0).empty());
  EXPECT_TRUE(r.ok());
}

TEST(ByteReaderTest, SkipAndPeek) {
  const std::vector<std::uint8_t> buf = {9, 8, 7};
  ByteReader r(buf);
  EXPECT_EQ(r.peek_u8(), 9);
  EXPECT_TRUE(r.skip(2));
  EXPECT_EQ(r.peek_u8(), 7);
  EXPECT_FALSE(r.skip(2));
  EXPECT_TRUE(r.truncated());
  // peek past the end is nullopt but non-sticky on a fresh reader.
  ByteReader fresh(std::span<const std::uint8_t>{});
  EXPECT_EQ(fresh.peek_u8(), std::nullopt);
  EXPECT_TRUE(fresh.ok());
}

// --- ByteWriter ------------------------------------------------------------

TEST(ByteWriterTest, RoundTripsThroughReader) {
  std::vector<std::uint8_t> buf;
  ByteWriter w(buf);
  w.u8(0x7f);
  w.u16be(0x0102);
  w.u32be(0xdeadbeef);
  w.u64be(0x0102030405060708ull);
  w.u16le(0xc3d4);
  w.u32le(0xa1b2c3d4);
  ASSERT_EQ(buf.size(), 21u);

  ByteReader r(buf);
  EXPECT_EQ(r.u8(), 0x7f);
  EXPECT_EQ(r.u16be(), 0x0102);
  EXPECT_EQ(r.u32be(), 0xdeadbeefu);
  EXPECT_EQ(r.u64be(), 0x0102030405060708ull);
  EXPECT_EQ(r.u16le(), 0xc3d4);
  EXPECT_EQ(r.u32le(), 0xa1b2c3d4u);
  EXPECT_TRUE(r.ok());
  EXPECT_EQ(r.remaining(), 0u);
}

TEST(ByteWriterTest, FillBytesAndPadTo) {
  std::vector<std::uint8_t> buf;
  ByteWriter w(buf);
  const std::vector<std::uint8_t> payload = {1, 2, 3};
  w.bytes(payload);
  w.fill(2, 0xee);
  EXPECT_EQ(buf, (std::vector<std::uint8_t>{1, 2, 3, 0xee, 0xee}));
  w.pad_to(4);
  EXPECT_EQ(buf.size(), 8u);  // padded 5 -> 8
  w.pad_to(4);
  EXPECT_EQ(buf.size(), 8u);  // already aligned: no-op
}

TEST(ByteWriterTest, PatchBackfillsChecksumStyleFields) {
  std::vector<std::uint8_t> buf;
  ByteWriter w(buf);
  w.u16be(0);  // placeholder
  w.u16be(0xaaaa);
  EXPECT_TRUE(w.patch_u16be(0, 0x1234));
  EXPECT_EQ(buf, (std::vector<std::uint8_t>{0x12, 0x34, 0xaa, 0xaa}));
  EXPECT_FALSE(w.patch_u16be(3, 0x5678));  // range not fully written
  EXPECT_EQ(buf[3], 0xaa);
}

TEST(ByteWriterTest, EmptyAppendsWriteNothing) {
  std::vector<std::uint8_t> buf;
  ByteWriter w(buf);
  w.bytes({});
  w.chars("");
  w.fill(0);
  EXPECT_TRUE(buf.empty());
  w.u8(9);
  w.bytes(std::span<const std::uint8_t>{});
  w.chars(std::string_view{});
  EXPECT_EQ(buf, (std::vector<std::uint8_t>{9}));
}

TEST(ByteWriterTest, PadToOnlyPadsWhenNotAMultiple) {
  std::vector<std::uint8_t> buf;
  ByteWriter w(buf);
  w.pad_to(4);  // empty is a multiple of anything
  EXPECT_TRUE(buf.empty());
  w.u32be(0x01020304);
  w.pad_to(4, 0xee);  // already a multiple: no-op
  EXPECT_EQ(buf.size(), 4u);
  w.u8(5);
  w.pad_to(4, 0xee);  // 5 -> 8 with the given value
  EXPECT_EQ(buf, (std::vector<std::uint8_t>{1, 2, 3, 4, 5, 0xee, 0xee, 0xee}));
  w.pad_to(3, 0x11);  // 8 -> 9
  EXPECT_EQ(buf.size(), 9u);
  EXPECT_EQ(buf.back(), 0x11);
  w.pad_to(1);  // every length is a multiple of 1
  EXPECT_EQ(buf.size(), 9u);
}

TEST(ByteWriterTest, ByteOrderIsExact) {
  std::vector<std::uint8_t> buf;
  ByteWriter w(buf);
  w.u16be(0x0102);
  w.u32be(0x03040506);
  w.u16le(0x0807);
  w.u32le(0x0c0b0a09);
  w.u64be(0x0d0e0f1011121314ull);
  w.chars("AZ");
  EXPECT_EQ(buf, (std::vector<std::uint8_t>{1,  2,  3,  4,  5,  6,  7,
                                            8,  9,  10, 11, 12, 13, 14,
                                            15, 16, 17, 18, 19, 20, 'A',
                                            'Z'}));
}

TEST(ByteWriterTest, AppendingItsOwnBytesIsSafe) {
  // A span of the writer's own vector stays valid across the growth the
  // append itself causes: the source is re-based after the reallocation.
  std::vector<std::uint8_t> buf = {1, 2, 3, 4};
  buf.shrink_to_fit();
  ByteWriter w(buf);
  w.bytes(buf);  // whole vector, at full capacity: must reallocate
  EXPECT_EQ(buf, (std::vector<std::uint8_t>{1, 2, 3, 4, 1, 2, 3, 4}));
  w.bytes(std::span<const std::uint8_t>(buf).subspan(2, 3));
  EXPECT_EQ(buf,
            (std::vector<std::uint8_t>{1, 2, 3, 4, 1, 2, 3, 4, 3, 4, 1}));
  // With spare capacity (no reallocation) the copy is the same.
  buf.reserve(64);
  w.bytes(std::span<const std::uint8_t>(buf).last(2));
  EXPECT_EQ(buf.size(), 13u);
  EXPECT_EQ(buf[11], 4);
  EXPECT_EQ(buf[12], 1);
}

// --- stream bridge ---------------------------------------------------------

TEST(StreamBridgeTest, WriteAllThenReadExactRoundTrips) {
  std::stringstream ss;
  const std::vector<std::uint8_t> out = {0x00, 0xff, 0x10, 0x20};
  EXPECT_TRUE(write_all(ss, out));
  std::vector<std::uint8_t> in(4);
  EXPECT_TRUE(read_exact(ss, in));
  EXPECT_EQ(in, out);
}

TEST(StreamBridgeTest, AsTextBorrowsTheBytes) {
  const std::vector<std::uint8_t> bytes = {'o', 'k', 0x00, 0xff};
  const std::string_view text = as_text(bytes);
  EXPECT_EQ(static_cast<const void*>(text.data()),
            static_cast<const void*>(bytes.data()));
  ASSERT_EQ(text.size(), 4u);
  EXPECT_EQ(text.substr(0, 2), "ok");
  EXPECT_EQ(static_cast<unsigned char>(text[3]), 0xffu);
  EXPECT_TRUE(as_text({}).empty());
}

TEST(StreamBridgeTest, ReadExactRefusesShortStreams) {
  std::stringstream ss;
  const std::vector<std::uint8_t> out = {1, 2};
  EXPECT_TRUE(write_all(ss, out));
  std::vector<std::uint8_t> in(3);
  EXPECT_FALSE(read_exact(ss, in));
}

}  // namespace
}  // namespace gorilla::util
