// CRC-32 (IEEE 802.3, reflected, polynomial 0xEDB88320) for artifact
// integrity framing.
//
// GORCOL sections carry a CRC over their payload so a torn write, a
// flipped bit on disk, or a truncated copy is detected at load time instead
// of silently replaying garbage into an analysis. The implementation is the
// classic byte-at-a-time table walk — fast enough that checksumming is
// noise next to the varint codec (see BENCH_engine.json), and constexpr so
// tests can pin golden values at compile time.
#pragma once

#include <array>
#include <cstdint>
#include <span>

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

}  // namespace detail

/// Incremental CRC-32 accumulator: feed byte ranges in any chunking, read
/// value() at any point (chunking does not change the result).
class Crc32 {
 public:
  constexpr void update(std::span<const std::uint8_t> data) noexcept {
    std::uint32_t c = state_;
    for (const std::uint8_t b : data) {
      c = detail::kCrc32Table[(c ^ b) & 0xffu] ^ (c >> 8);
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
