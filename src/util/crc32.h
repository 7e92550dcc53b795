// CRC-32 (IEEE 802.3, reflected, polynomial 0xEDB88320) for artifact
// integrity framing.
//
// GORCOL sections carry a CRC over their payload so a torn write, a
// flipped bit on disk, or a truncated copy is detected at load time instead
// of silently replaying garbage into an analysis. Every stored byte of an
// artifact is checksummed twice on load (section CRC, then block CRC) and
// twice on save, so the checksum is on the replay critical path: a byte-at-
// a-time table walk ran at ~300 MB/s, a measurable share of an artifact
// replay. The run-time path is therefore slicing-by-8 (eight 256-entry
// tables, one 8-byte word per step); constant evaluation and the tail
// bytes keep the classic byte walk, so tests can still pin golden values
// at compile time. Both walks compute the same function.
#pragma once

#include <array>
#include <cstdint>
#include <span>
#include <type_traits>

#include "util/bytes.h"

namespace gorilla::util {

namespace detail {

constexpr std::array<std::uint32_t, 256> make_crc32_table() noexcept {
  std::array<std::uint32_t, 256> table{};
  for (std::uint32_t n = 0; n < 256; ++n) {
    std::uint32_t c = n;
    for (int k = 0; k < 8; ++k) {
      c = (c & 1u) != 0 ? 0xedb88320u ^ (c >> 1) : c >> 1;
    }
    table[n] = c;
  }
  return table;
}

inline constexpr std::array<std::uint32_t, 256> kCrc32Table =
    make_crc32_table();

/// Slicing-by-8 tables: slice k maps a byte to its CRC contribution when
/// k zero bytes follow it (slice 0 is the byte-walk table).
constexpr std::array<std::array<std::uint32_t, 256>, 8>
make_crc32_slices() noexcept {
  std::array<std::array<std::uint32_t, 256>, 8> slices{};
  slices[0] = kCrc32Table;
  for (std::size_t k = 1; k < 8; ++k) {
    for (std::size_t n = 0; n < 256; ++n) {
      const std::uint32_t prev = slices[k - 1][n];
      slices[k][n] = kCrc32Table[prev & 0xffu] ^ (prev >> 8);
    }
  }
  return slices;
}

inline constexpr std::array<std::array<std::uint32_t, 256>, 8> kCrc32Slices =
    make_crc32_slices();

}  // namespace detail

/// Incremental CRC-32 accumulator: feed byte ranges in any chunking, read
/// value() at any point (chunking does not change the result).
class Crc32 {
 public:
  constexpr void update(std::span<const std::uint8_t> data) noexcept {
    std::uint32_t c = state_;
    std::size_t i = 0;
    if (!std::is_constant_evaluated()) {
      const auto& t = detail::kCrc32Slices;
      for (; data.size() - i >= 8; i += 8) {
        const std::uint64_t w = *load_u64le(data, i) ^ c;
        c = t[7][w & 0xffu] ^ t[6][(w >> 8) & 0xffu] ^
            t[5][(w >> 16) & 0xffu] ^ t[4][(w >> 24) & 0xffu] ^
            t[3][(w >> 32) & 0xffu] ^ t[2][(w >> 40) & 0xffu] ^
            t[1][(w >> 48) & 0xffu] ^ t[0][w >> 56];
      }
    }
    for (; i < data.size(); ++i) {
      c = detail::kCrc32Table[(c ^ data[i]) & 0xffu] ^ (c >> 8);
    }
    state_ = c;
  }

  [[nodiscard]] constexpr std::uint32_t value() const noexcept {
    return state_ ^ 0xffffffffu;
  }

 private:
  std::uint32_t state_ = 0xffffffffu;
};

/// One-shot convenience over a whole buffer.
[[nodiscard]] constexpr std::uint32_t crc32(
    std::span<const std::uint8_t> data) noexcept {
  Crc32 c;
  c.update(data);
  return c.value();
}

}  // namespace gorilla::util
