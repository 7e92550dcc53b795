// In-repo byte-oriented block codec for GORCOLv3 section payloads.
//
// An LZ4-style greedy match/literal scheme (token + literals + 16-bit
// back-reference), applied independently per fixed-size block. Each block
// carries its own uncompressed length and a CRC-32 over the stored bytes.
// Matches never cross a block boundary — every block decodes on its own,
// which is what makes the streaming cursor possible.
//
// The codec is deterministic (fixed hash table, greedy parse, no
// heuristics keyed on timing or addresses): the same input always yields
// the same stored bytes, so recorded artifacts stay byte-comparable across
// runs and hosts. No external compression library is involved.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

namespace gorilla::util {

/// Uncompressed bytes per block. 64 KiB keeps the back-reference window in
/// 16 bits and bounds the streaming cursor's scratch memory.
inline constexpr std::size_t kBlockRawSize = 64 * 1024;

/// Per-block frame: u32le raw length, u32le stored-body length, u32le
/// CRC-32 of the stored body, u8 method (0 = stored verbatim, 1 = LZ).
inline constexpr std::size_t kBlockHeaderSize = 13;

/// Compresses `raw` into a self-framed block stream. Empty input yields an
/// empty stream. Output is deterministic; incompressible blocks fall back
/// to stored-verbatim, so expansion is bounded by the per-block header.
[[nodiscard]] std::vector<std::uint8_t> block_compress(
    std::span<const std::uint8_t> raw);

/// block_compress() appending its frames to `out`. Blocks are framed
/// independently, so compressing a stream in runs whose lengths (all but
/// the last) are whole blocks appends exactly the frames of one call over
/// the whole stream.
void block_compress_append(std::span<const std::uint8_t> raw,
                           std::vector<std::uint8_t>& out);

/// Decodes an entire block stream, appending to `out`. False when the
/// stream is torn, CRC-damaged, or malformed — `out` then holds the bytes
/// of every intact leading block.
[[nodiscard]] bool block_decompress(std::span<const std::uint8_t> stored,
                                    std::vector<std::uint8_t>& out);

/// Uncompressed size a block stream declares: the sum of its frames' raw
/// lengths, read from the frame headers alone (no CRC, no decode). nullopt
/// when the frames do not tile `stored` exactly.
[[nodiscard]] std::optional<std::uint64_t> block_raw_size(
    std::span<const std::uint8_t> stored) noexcept;

/// Forward-only one-block-at-a-time decoder over a borrowed stored stream.
/// Drives the zero-copy streaming path: callers pull one block into their
/// scratch buffer as needed instead of inflating the whole section.
class BlockCursor {
 public:
  constexpr explicit BlockCursor(
      std::span<const std::uint8_t> stored) noexcept
      : stored_(stored) {}

  /// Decodes the next block, appending its raw bytes to `out`. False at
  /// the end of the stream or on damage (check damaged() to distinguish).
  bool next(std::vector<std::uint8_t>& out);

  /// True when every stored byte was consumed without damage.
  [[nodiscard]] constexpr bool exhausted() const noexcept {
    return !damaged_ && off_ == stored_.size();
  }
  [[nodiscard]] constexpr bool damaged() const noexcept { return damaged_; }

 private:
  std::span<const std::uint8_t> stored_;
  std::size_t off_ = 0;
  bool damaged_ = false;
};

}  // namespace gorilla::util
