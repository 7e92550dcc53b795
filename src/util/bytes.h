// Checked byte-cursor API — the only place in the tree allowed to turn
// bytes into multi-byte integers (and back).
//
// Every wire-format parser and serializer (ntp/*, net/*, scan/*) goes
// through ByteReader/ByteWriter instead of hand-rolled index arithmetic:
// reads are bounds-checked, truncation is an explicit, sticky, queryable
// state rather than UB or stale bytes, and `tools/gorilla_lint` statically
// rejects raw decoding (memcpy / reinterpret_cast / shift-combine on
// subscripts) anywhere outside this header. See DESIGN.md, "Static
// analysis & determinism rules".
#pragma once

#include <cstdint>
#include <istream>
#include <optional>
#include <ostream>
#include <span>
#include <string_view>
#include <vector>

namespace gorilla::util {

/// Checked positional loads. nullopt when [offset, offset+width) does not
/// fit in `in` — never a partial or stale read.
[[nodiscard]] constexpr std::optional<std::uint16_t> load_u16be(
    std::span<const std::uint8_t> in, std::size_t offset) noexcept {
  if (offset > in.size() || in.size() - offset < 2) return std::nullopt;
  return static_cast<std::uint16_t>((std::uint32_t{in[offset]} << 8) |
                                    std::uint32_t{in[offset + 1]});
}

[[nodiscard]] constexpr std::optional<std::uint32_t> load_u32be(
    std::span<const std::uint8_t> in, std::size_t offset) noexcept {
  if (offset > in.size() || in.size() - offset < 4) return std::nullopt;
  return (std::uint32_t{in[offset]} << 24) |
         (std::uint32_t{in[offset + 1]} << 16) |
         (std::uint32_t{in[offset + 2]} << 8) | std::uint32_t{in[offset + 3]};
}

[[nodiscard]] constexpr std::optional<std::uint64_t> load_u64be(
    std::span<const std::uint8_t> in, std::size_t offset) noexcept {
  const auto hi = load_u32be(in, offset);
  if (!hi) return std::nullopt;
  const auto lo = load_u32be(in, offset + 4);
  if (!lo) return std::nullopt;
  return (std::uint64_t{*hi} << 32) | *lo;
}

[[nodiscard]] constexpr std::optional<std::uint16_t> load_u16le(
    std::span<const std::uint8_t> in, std::size_t offset) noexcept {
  if (offset > in.size() || in.size() - offset < 2) return std::nullopt;
  return static_cast<std::uint16_t>(std::uint32_t{in[offset]} |
                                    (std::uint32_t{in[offset + 1]} << 8));
}

[[nodiscard]] constexpr std::optional<std::uint32_t> load_u32le(
    std::span<const std::uint8_t> in, std::size_t offset) noexcept {
  if (offset > in.size() || in.size() - offset < 4) return std::nullopt;
  return std::uint32_t{in[offset]} | (std::uint32_t{in[offset + 1]} << 8) |
         (std::uint32_t{in[offset + 2]} << 16) |
         (std::uint32_t{in[offset + 3]} << 24);
}

/// LEB128 varint decode at `pos`: the one decode kernel shared by every
/// GORCOL container version (v1/v2 flat readers and the v3 streaming
/// decoder). On success stores the value and returns the encoded length
/// (1..10); returns 0 on truncation or an overlong (> 10 byte) encoding.
/// The wide-window path is unrolled with a single up-front bounds check so
/// the per-byte loop carries no branch besides the continuation bit.
[[nodiscard]] constexpr int decode_varint(std::span<const std::uint8_t> in,
                                          std::size_t pos,
                                          std::uint64_t& out) noexcept {
  if (pos >= in.size()) return 0;
  std::uint64_t v = in[pos];
  if ((v & 0x80) == 0) {  // 1-byte fast path: the dominant case
    out = v;
    return 1;
  }
  v &= 0x7f;
  const std::size_t avail = in.size() - pos;
  int n = 1;
  std::uint64_t b = 0x80;
  if (avail >= 10) {
    // Full-width window: no per-byte bounds checks.
    do {
      b = in[pos + static_cast<std::size_t>(n)];
      v |= (b & 0x7f) << (7 * n);
      ++n;
    } while ((b & 0x80) != 0 && n < 10);
  } else {
    while ((b & 0x80) != 0 && n < 10) {
      if (static_cast<std::size_t>(n) >= avail) return 0;  // truncated
      b = in[pos + static_cast<std::size_t>(n)];
      v |= (b & 0x7f) << (7 * n);
      ++n;
    }
  }
  if ((b & 0x80) != 0) return 0;  // overlong encoding
  out = v;
  return n;
}

/// Checked positional store into a fixed buffer (the counterpart of
/// load_u16be for packing into std::array-backed layouts). False when the
/// 2-byte window does not fit; the buffer is untouched then.
constexpr bool store_u16be(std::span<std::uint8_t> out, std::size_t offset,
                           std::uint16_t v) noexcept {
  if (offset > out.size() || out.size() - offset < 2) return false;
  out[offset] = static_cast<std::uint8_t>(v >> 8);
  out[offset + 1] = static_cast<std::uint8_t>(v);
  return true;
}

/// Forward-only bounds-checked read cursor over a borrowed byte span.
///
/// Reads past the end never touch memory: they return 0 (or an empty span)
/// and latch the cursor into a sticky truncated state. Parsers read a whole
/// layout linearly, then ask `ok()` once — short input cannot be confused
/// with a packet of zeros because the failure bit survives to the check.
class ByteReader {
 public:
  constexpr explicit ByteReader(std::span<const std::uint8_t> data) noexcept
      : data_(data) {}

  /// True while every read so far was fully inside the buffer.
  [[nodiscard]] constexpr bool ok() const noexcept { return !truncated_; }
  /// True once any read ran past the end (sticky).
  [[nodiscard]] constexpr bool truncated() const noexcept { return truncated_; }
  [[nodiscard]] constexpr std::size_t remaining() const noexcept {
    return data_.size() - pos_;
  }
  /// Bytes consumed so far (stops advancing once truncated).
  [[nodiscard]] constexpr std::size_t consumed() const noexcept { return pos_; }

  constexpr std::uint8_t u8() noexcept {
    if (remaining() < 1) return fail_u8();
    return data_[pos_++];
  }

  constexpr std::uint16_t u16be() noexcept {
    const auto v = load_u16be(data_, pos_);
    if (!v) return fail_u8();
    pos_ += 2;
    return *v;
  }

  constexpr std::uint32_t u32be() noexcept {
    const auto v = load_u32be(data_, pos_);
    if (!v) return fail_u8();
    pos_ += 4;
    return *v;
  }

  constexpr std::uint64_t u64be() noexcept {
    const auto v = load_u64be(data_, pos_);
    if (!v) return fail_u8();
    pos_ += 8;
    return *v;
  }

  constexpr std::uint16_t u16le() noexcept {
    const auto v = load_u16le(data_, pos_);
    if (!v) return fail_u8();
    pos_ += 2;
    return *v;
  }

  constexpr std::uint32_t u32le() noexcept {
    const auto v = load_u32le(data_, pos_);
    if (!v) return fail_u8();
    pos_ += 4;
    return *v;
  }

  /// Next `n` bytes as a subspan; empty span + truncated state when fewer
  /// than `n` remain (never a short span — all or nothing).
  constexpr std::span<const std::uint8_t> take(std::size_t n) noexcept {
    if (remaining() < n) {
      truncated_ = true;
      return {};
    }
    const auto out = data_.subspan(pos_, n);
    pos_ += n;
    return out;
  }

  /// Advances `n` bytes; false + truncated state when fewer remain.
  constexpr bool skip(std::size_t n) noexcept {
    if (remaining() < n) {
      truncated_ = true;
      return false;
    }
    pos_ += n;
    return true;
  }

  /// First unread byte without consuming it; nullopt at end (not sticky —
  /// peeking is how dispatchers sniff, it is not a failed read).
  [[nodiscard]] constexpr std::optional<std::uint8_t> peek_u8() const noexcept {
    if (remaining() < 1) return std::nullopt;
    return data_[pos_];
  }

 private:
  constexpr std::uint8_t fail_u8() noexcept {
    truncated_ = true;
    return 0;
  }

  std::span<const std::uint8_t> data_;
  std::size_t pos_ = 0;
  bool truncated_ = false;
};

/// Append-only write cursor over a caller-owned byte vector.
///
/// Writers cannot fail; the value of the class is that serializers express
/// a wire layout field-by-field in one vocabulary shared with the reader,
/// and the lint layer can forbid ad-hoc byte poking everywhere else.
class ByteWriter {
 public:
  explicit ByteWriter(std::vector<std::uint8_t>& out) noexcept : out_(out) {}

  void u8(std::uint8_t v) { out_.push_back(v); }

  void u16be(std::uint16_t v) {
    out_.push_back(static_cast<std::uint8_t>(v >> 8));
    out_.push_back(static_cast<std::uint8_t>(v));
  }

  void u32be(std::uint32_t v) {
    out_.push_back(static_cast<std::uint8_t>(v >> 24));
    out_.push_back(static_cast<std::uint8_t>(v >> 16));
    out_.push_back(static_cast<std::uint8_t>(v >> 8));
    out_.push_back(static_cast<std::uint8_t>(v));
  }

  void u64be(std::uint64_t v) {
    u32be(static_cast<std::uint32_t>(v >> 32));
    u32be(static_cast<std::uint32_t>(v));
  }

  void u16le(std::uint16_t v) {
    out_.push_back(static_cast<std::uint8_t>(v));
    out_.push_back(static_cast<std::uint8_t>(v >> 8));
  }

  void u32le(std::uint32_t v) {
    out_.push_back(static_cast<std::uint8_t>(v));
    out_.push_back(static_cast<std::uint8_t>(v >> 8));
    out_.push_back(static_cast<std::uint8_t>(v >> 16));
    out_.push_back(static_cast<std::uint8_t>(v >> 24));
  }

  void bytes(std::span<const std::uint8_t> data) {
    // Element-wise append rather than a ranged insert: GCC 12's -O2/-O3
    // object-size analysis misjudges insert-from-span as an overflowing
    // memmove and fails the strict build (-Werror=stringop-overflow).
    out_.reserve(out_.size() + data.size());
    for (const std::uint8_t b : data) out_.push_back(b);
  }

  /// Appends text byte for byte (ASCII wire fields such as mode 6
  /// variable lists).
  void chars(std::string_view text) {
    out_.reserve(out_.size() + text.size());
    for (const char c : text) out_.push_back(static_cast<std::uint8_t>(c));
  }

  void fill(std::size_t n, std::uint8_t value = 0) {
    out_.insert(out_.end(), n, value);
  }

  /// Pads with `value` until the vector length is a multiple of `multiple`.
  void pad_to(std::size_t multiple, std::uint8_t value = 0) {
    while (out_.size() % multiple != 0) out_.push_back(value);
  }

  /// Overwrites 2 bytes at `offset` big-endian (checksum back-patching);
  /// false when the range is not already written.
  bool patch_u16be(std::size_t offset, std::uint16_t v) {
    if (offset > out_.size() || out_.size() - offset < 2) return false;
    out_[offset] = static_cast<std::uint8_t>(v >> 8);
    out_[offset + 1] = static_cast<std::uint8_t>(v);
    return true;
  }

  [[nodiscard]] std::size_t size() const noexcept { return out_.size(); }
  [[nodiscard]] std::span<const std::uint8_t> written() const noexcept {
    return out_;
  }

 private:
  std::vector<std::uint8_t>& out_;
};

/// Reads exactly `buf.size()` bytes from `in`; false on a short read (the
/// buffer contents are unspecified then — callers must not use them).
/// This pair owns the one unavoidable byte<->char reinterpret_cast, so
/// stream I/O elsewhere stays free of it.
[[nodiscard]] bool read_exact(std::istream& in, std::span<std::uint8_t> buf);

/// Reads up to `buf.size()` bytes, returning how many arrived. The partial
/// variant the prefix loaders need: a torn final section is recovered from
/// whatever bytes exist instead of being discarded wholesale.
[[nodiscard]] std::size_t read_some(std::istream& in,
                                    std::span<std::uint8_t> buf);

/// Writes all of `buf` to `out`; false when the stream is failed afterwards
/// (short device writes, closed pipes — and injected faults: this is the
/// seam util::FaultPlan's short-write/corrupt directives act through).
[[nodiscard]] bool write_all(std::ostream& out,
                             std::span<const std::uint8_t> buf);

}  // namespace gorilla::util
