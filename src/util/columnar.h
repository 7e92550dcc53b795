// Compact columnar serialization for recorded event streams.
//
// A ColumnWriter appends varint/zigzag/fixed-width values to one named
// column buffer; a ColumnArchive bundles the columns into a sectioned file
// behind an opaque caller-defined header. All byte-level encoding rides on
// ByteReader/ByteWriter (the tree's one sanctioned byte<->integer seam), so
// the artifact format inherits the same sticky-truncation discipline as the
// wire parsers: a short or corrupt file reads as !ok(), never as garbage.
//
// GORCOLv3 adds an in-repo block codec (util/block_codec.h): section
// payloads are stored as independently framed 64 KiB compressed blocks,
// and ColumnReader decodes them block-by-block from the borrowed stored
// bytes. That is the only read path: a file or section is never inflated
// whole (a parallel whole-section inflate was measured and bought no
// speed for ~60% more peak memory; DESIGN.md §3i). On the write side a
// sealing ColumnWriter compresses each block as it fills, so a long column
// is never held raw.
#pragma once

#include <bit>
#include <cstdint>
#include <istream>
#include <limits>
#include <optional>
#include <ostream>
#include <span>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "util/block_codec.h"
#include "util/bytes.h"

namespace gorilla::util {

/// ZigZag maps signed to unsigned so small-magnitude values varint-encode
/// short regardless of sign.
[[nodiscard]] constexpr std::uint64_t zigzag_encode(std::int64_t v) noexcept {
  return (static_cast<std::uint64_t>(v) << 1) ^
         static_cast<std::uint64_t>(v >> 63);
}

[[nodiscard]] constexpr std::int64_t zigzag_decode(std::uint64_t v) noexcept {
  return static_cast<std::int64_t>((v >> 1) ^ (~(v & 1) + 1));
}

/// Append-only typed column. Owns its byte buffer; freely movable.
///
/// A plain writer holds the whole column raw. A sealing writer holds only
/// the unfinished block raw: each time the column completes a
/// kBlockRawSize block, counted from its first byte, the block is
/// compressed (block_compress_append) and only its frame is kept. Blocks
/// are compressed independently, so the sealed frames are exactly the
/// frames block_compress() would make of the whole column.
class ColumnWriter {
 public:
  ColumnWriter() = default;
  /// A writer that seals each block as it fills.
  [[nodiscard]] static ColumnWriter sealing() noexcept {
    ColumnWriter w;
    w.seal_at_ = kBlockRawSize;
    return w;
  }

  void put_u8(std::uint8_t v) {
    ByteWriter(buf_).u8(v);
    seal_if_full();
  }
  void put_u16(std::uint16_t v) {
    ByteWriter(buf_).u16le(v);
    seal_if_full();
  }
  void put_u32(std::uint32_t v) {
    ByteWriter(buf_).u32le(v);
    seal_if_full();
  }

  void put_varint(std::uint64_t v) {
    ByteWriter w(buf_);
    while (v >= 0x80) {
      w.u8(static_cast<std::uint8_t>((v & 0x7f) | 0x80));
      v >>= 7;
    }
    w.u8(static_cast<std::uint8_t>(v));
    seal_if_full();
  }

  void put_zigzag(std::int64_t v) { put_varint(zigzag_encode(v)); }

  void put_f64(double v) {
    const auto bits = std::bit_cast<std::uint64_t>(v);
    ByteWriter w(buf_);
    w.u32le(static_cast<std::uint32_t>(bits));
    w.u32le(static_cast<std::uint32_t>(bits >> 32));
    seal_if_full();
  }

  /// Raw bytes put so far, sealed or not.
  [[nodiscard]] std::size_t size() const noexcept {
    return sealed_raw_ + buf_.size();
  }
  /// Bytes the writer holds: sealed frames plus the raw tail.
  [[nodiscard]] std::size_t held_bytes() const noexcept {
    return sealed_.size() + buf_.size();
  }
  /// The raw bytes not yet sealed: the whole column for a plain writer.
  [[nodiscard]] const std::vector<std::uint8_t>& buffer() const noexcept {
    return buf_;
  }
  /// Moves the raw bytes out, leaving the writer empty: the whole column
  /// while no block is sealed, which a plain writer never does. Once one
  /// is, take_blocks() is the way out.
  [[nodiscard]] std::vector<std::uint8_t> take_buffer() noexcept {
    return std::move(buf_);
  }
  /// Moves the column out as one block stream, compressing the raw tail
  /// now: exactly block_compress() of every byte put. The writer is empty
  /// afterwards.
  [[nodiscard]] std::vector<std::uint8_t> take_blocks();

 private:
  void seal_if_full() {
    if (buf_.size() >= seal_at_) seal_block();
  }
  /// Compresses the first kBlockRawSize raw bytes into sealed_.
  void seal_block();

  std::vector<std::uint8_t> buf_;
  std::vector<std::uint8_t> sealed_;
  std::size_t sealed_raw_ = 0;
  std::size_t seal_at_ = std::numeric_limits<std::size_t>::max();
};

/// Forward-only typed reads over one column. Failure is sticky: after any
/// short, overlong, or block-damaged read, ok() stays false and every
/// further get returns 0.
///
/// Two sources: a flat borrowed span (a raw section, or any plain bytes
/// such as an artifact header), or a block stream decoded one block at a
/// time into an internal scratch window — the streaming path borrows the
/// stored bytes and never materializes the whole section. Values split
/// across a block boundary are handled by carrying the unread tail (at most
/// a few bytes) into the next window.
class ColumnReader {
 public:
  explicit ColumnReader(std::span<const std::uint8_t> data) noexcept
      : win_(data) {}

  struct BlocksTag {};
  /// Streaming reader over block-compressed stored bytes (borrowed).
  ColumnReader(BlocksTag, std::span<const std::uint8_t> stored) noexcept
      : cursor_(stored), streaming_(true) {}

  // The scratch window is self-referential: moving is safe (vector storage
  // is stable across moves), copying would alias another reader's scratch.
  ColumnReader(const ColumnReader&) = delete;
  ColumnReader& operator=(const ColumnReader&) = delete;
  ColumnReader(ColumnReader&&) noexcept = default;
  ColumnReader& operator=(ColumnReader&&) noexcept = default;

  [[nodiscard]] bool ok() const noexcept { return !bad_; }
  [[nodiscard]] bool at_end() const noexcept {
    return win_.size() - pos_ == 0 && (!streaming_ || cursor_.exhausted());
  }

  std::uint8_t get_u8() noexcept {
    if (!ensure(1)) return fail();
    return win_[pos_++];
  }

  std::uint16_t get_u16() noexcept {
    if (!ensure(2)) return fail();
    const std::uint16_t v = *load_u16le(win_, pos_);
    pos_ += 2;
    return v;
  }

  std::uint32_t get_u32() noexcept {
    if (!ensure(4)) return fail();
    const std::uint32_t v = *load_u32le(win_, pos_);
    pos_ += 4;
    return v;
  }

  std::uint64_t get_varint() noexcept {
    if (bad_) return 0;
    std::uint64_t v = 0;
    int n = decode_varint(win_, pos_, v);
    if (n == 0) {
      // Truncated-in-window or genuinely bad: widen to a full 10-byte view
      // (pulling blocks as needed), then the verdict is final.
      while (win_.size() - pos_ < 10 && refill()) {
      }
      n = decode_varint(win_, pos_, v);
      if (n == 0) return fail();
    }
    pos_ += static_cast<std::size_t>(n);
    return v;
  }

  std::int64_t get_zigzag() noexcept { return zigzag_decode(get_varint()); }

  double get_f64() noexcept {
    if (!ensure(8)) return 0.0;
    const std::uint64_t lo = *load_u32le(win_, pos_);
    const std::uint64_t hi = *load_u32le(win_, pos_ + 4);
    pos_ += 8;
    return std::bit_cast<double>((hi << 32) | lo);
  }

 private:
  std::uint8_t fail() noexcept {
    bad_ = true;
    return 0;
  }

  [[nodiscard]] bool ensure(std::size_t n) noexcept {
    if (bad_) return false;
    while (win_.size() - pos_ < n) {
      if (!refill()) {
        bad_ = true;
        return false;
      }
    }
    return true;
  }

  /// Carries the unread tail to the front of the scratch buffer and
  /// decodes the next block behind it. False at stream end or damage.
  bool refill() noexcept {
    if (!streaming_ || bad_) return false;
    if (win_.data() == scratch_.data()) {
      scratch_.erase(scratch_.begin(),
                     scratch_.begin() + static_cast<std::ptrdiff_t>(pos_));
    } else {
      // First refill: the window is still the (empty) constructor span.
      scratch_.assign(win_.begin() + static_cast<std::ptrdiff_t>(pos_),
                      win_.end());
    }
    pos_ = 0;
    const std::size_t before = scratch_.size();
    const bool got = cursor_.next(scratch_);
    win_ = scratch_;
    return got && scratch_.size() > before;
  }

  std::span<const std::uint8_t> win_;
  std::size_t pos_ = 0;
  std::vector<std::uint8_t> scratch_;
  BlockCursor cursor_{std::span<const std::uint8_t>{}};
  bool streaming_ = false;
  bool bad_ = false;
};

/// Where a strict archive load stopped: at stream offset `offset` (the end,
/// for a whole file), on a checksum mismatch (`crc_failed`) or else on a
/// short read or a malformed frame. Inside the section table, `section`
/// names the section being read (empty while its name is unread) and
/// `sections_ok` counts the intact sections before it.
struct ArchiveReadReport {
  bool header_ok = false;  ///< magic, header bytes and header CRC checked out
  bool crc_failed = false;
  std::uint64_t offset = 0;
  std::size_t sections_ok = 0;
  std::string section;
};

/// A named-section container: opaque header + ordered named columns.
///
/// On-disk format GORCOLv3: magic "GORCOLv3", u32le header length, header
/// bytes, u32le header CRC-32, u32le section count, then per section a u8
/// name length, the name, a u8 storage kind (0 = raw, 1 = block stream),
/// a u64be stored length, a u64be uncompressed length, a u32le CRC-32 of
/// the stored bytes, and the stored bytes. Block streams are framed by
/// util/block_codec.h (64 KiB blocks, per-block length + CRC). This is the
/// only version read or written: artifacts are caches, so a file in the
/// retired v1/v2 formats is refused like any other foreign one and must be
/// regenerated.
struct ColumnArchive {
  enum class SectionStorage : std::uint8_t { kRaw = 0, kBlocks = 1 };

  struct Section {
    std::string name;
    /// Payload for kRaw; block-codec stored bytes for kBlocks.
    std::vector<std::uint8_t> bytes;
    SectionStorage storage = SectionStorage::kRaw;
    /// Uncompressed payload length (== bytes.size() for kRaw).
    std::uint64_t raw_len = 0;

    Section() = default;
    Section(std::string n, std::vector<std::uint8_t> b)
        : name(std::move(n)), bytes(std::move(b)), raw_len(bytes.size()) {}
    friend bool operator==(const Section&, const Section&) = default;
  };

  std::vector<std::uint8_t> header;
  std::vector<Section> sections;

  /// Appends `col` as section `name`, leaving the writer empty. A column
  /// of at least one whole block goes in as block frames (a sealing
  /// writer compressed all but its tail already); a shorter one goes in
  /// raw, and save() compresses it as it does any raw section.
  void add_column(std::string name, ColumnWriter& col);

  /// Section by name; nullptr when absent.
  [[nodiscard]] const Section* find(std::string_view name) const noexcept;

  /// Typed reader over a section's payload: flat for raw sections,
  /// streaming block-by-block for compressed ones. Absent name reads as an
  /// empty column.
  [[nodiscard]] ColumnReader column(std::string_view name) const noexcept;

  /// Serializes as GORCOLv3; false when the sink fails mid-write (the
  /// stream then holds an undefined partial prefix — discard it).
  [[nodiscard]] bool save(std::ostream& out) const;

  /// Strict load: nullopt on bad magic (including the retired v1/v2),
  /// truncation, any CRC mismatch, or a malformed section table. Where it
  /// stopped lands in *report (optional).
  [[nodiscard]] static std::optional<ColumnArchive> load(
      std::istream& in, ArchiveReadReport* report = nullptr);

  /// Atomic file write: serializes to `path + ".tmp"`, flushes + fsyncs,
  /// then renames over `path`. On any failure the temp file is removed and
  /// the previous contents of `path` are untouched. False on failure.
  [[nodiscard]] bool save_file(const std::string& path) const;
  [[nodiscard]] static std::optional<ColumnArchive> load_file(
      const std::string& path, ArchiveReadReport* report = nullptr);
};

}  // namespace gorilla::util
