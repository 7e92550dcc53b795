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
// payloads are stored as independently framed 64 KiB compressed blocks.
// Blocks are compressed and decoded on a codec worker, a one-thread
// util::ThreadPool that the caller owns and lends in, while the calling
// thread goes on writing or reading:
// - A sealing ColumnWriter hands each full block to the worker to compress
//   and goes on writing, so a long column is never held raw. At most
//   ColumnWriter::kBlocksInFlight blocks per column are out at once, and
//   the frames are kept in submission order.
// - A ColumnReader over a blocks section borrows the stored bytes and has
//   the worker decode the column's next block while the caller reads the
//   current one: one block ahead, so peak decode memory is two blocks per
//   column. That is the only read path: a file or section is never
//   inflated whole (a parallel whole-section inflate was measured and
//   bought no speed for ~60% more peak memory; DESIGN.md §3i).
#pragma once

#include <bit>
#include <cstdint>
#include <deque>
#include <future>
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
#include "util/thread_pool.h"

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

/// What sealing writers hold at one moment, counted later: the frames and
/// raw tails known then, plus the frames of the blocks then in flight,
/// which count once they land. A value, so the count can be finished on
/// another thread; it reads the same whenever it is finished.
class HeldBytes {
 public:
  HeldBytes& operator+=(const HeldBytes& other);
  /// The byte count. Waits for the blocks in flight.
  [[nodiscard]] std::size_t total() const;

 private:
  friend class ColumnWriter;
  std::size_t known_ = 0;
  std::vector<std::shared_future<std::vector<std::uint8_t>>> in_flight_;
};

/// Append-only typed column. Owns its byte buffer; freely movable.
///
/// A plain writer holds the whole column raw. A sealing writer holds only
/// the unfinished block raw: each time the column completes a
/// kBlockRawSize block, counted from its first byte, the block goes to the
/// codec worker, which compresses it (block_compress) while the writer
/// goes on. Blocks are compressed independently and their frames are kept
/// in submission order, so they are exactly the frames block_compress()
/// would make of the whole column.
class ColumnWriter {
 public:
  /// Blocks one sealing writer may have on the codec worker at once; the
  /// next seal waits for the oldest.
  static constexpr std::size_t kBlocksInFlight = 2;

  ColumnWriter() = default;
  /// A writer that seals each block as it fills, compressing it on
  /// `codec`, which must outlive the writer.
  [[nodiscard]] static ColumnWriter sealing(ThreadPool& codec) noexcept {
    ColumnWriter w;
    w.codec_ = &codec;
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
  /// Bytes the writer holds: sealed frames plus the raw tail. Waits for
  /// the blocks in flight.
  [[nodiscard]] std::size_t held_bytes() const { return held().total(); }
  /// held_bytes() as of now, to be counted later.
  [[nodiscard]] HeldBytes held() const;
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
  /// Moves the column out as one block stream: waits for the blocks in
  /// flight and compresses the raw tail now, giving exactly
  /// block_compress() of every byte put. The writer is empty afterwards.
  [[nodiscard]] std::vector<std::uint8_t> take_blocks();

 private:
  void seal_if_full() {
    if (buf_.size() >= seal_at_) seal_block();
  }
  /// Posts the first kBlockRawSize raw bytes to the codec worker.
  void seal_block();
  /// Appends the oldest block's frame to sealed_, waiting for it.
  void collect_oldest();

  std::vector<std::uint8_t> buf_;
  std::vector<std::uint8_t> sealed_;
  /// Frames still being compressed, oldest first.
  std::deque<std::shared_future<std::vector<std::uint8_t>>> in_flight_;
  std::size_t sealed_raw_ = 0;
  std::size_t seal_at_ = std::numeric_limits<std::size_t>::max();
  ThreadPool* codec_ = nullptr;
};

/// Forward-only typed reads over one column. Failure is sticky: after any
/// short, overlong, or block-damaged read, ok() stays false and every
/// further get returns 0.
///
/// Two sources: a flat borrowed span (a raw section, or any plain bytes
/// such as an artifact header), or a block stream. A streaming reader
/// borrows the stored bytes and never materializes the whole section: the
/// codec worker decodes the next block while the current one is read, and
/// a refill swaps it in behind the unread tail of the current one (at most
/// a few bytes, for a value split across the boundary). A damaged block
/// fails the read that needs it, after every byte before it was read.
class ColumnReader {
 public:
  explicit ColumnReader(std::span<const std::uint8_t> data) noexcept
      : win_(data) {}

  /// Streaming reader over block-compressed stored bytes, which must
  /// outlive it; blocks are decoded on `codec`, one ahead of the reads.
  ColumnReader(std::span<const std::uint8_t> stored, ThreadPool& codec);

  /// Waits for a read-ahead in flight, which borrows the stored bytes.
  ~ColumnReader();

  // The window points into the reader's own buffer: moving is safe (vector
  // storage is stable across moves), copying would alias it, and assigning
  // over a reader would drop its read-ahead without waiting for it.
  ColumnReader(const ColumnReader&) = delete;
  ColumnReader& operator=(const ColumnReader&) = delete;
  ColumnReader(ColumnReader&&) noexcept = default;
  ColumnReader& operator=(ColumnReader&&) = delete;

  [[nodiscard]] bool ok() const noexcept { return !bad_; }
  [[nodiscard]] bool at_end() const noexcept {
    return win_.size() - pos_ == 0 && !more_;
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
  /// Headroom in front of each decoded block for the unread tail carried
  /// into it. A refill runs only while fewer bytes remain than the widest
  /// value (a 10-byte varint), so the tail always fits.
  static constexpr std::size_t kCarry = 16;

  /// One block decoded ahead: its bytes behind kCarry bytes of headroom,
  /// the cursor past it, and whether it decoded.
  struct Ahead {
    std::vector<std::uint8_t> bytes;
    BlockCursor cursor;
    bool ok = false;
  };

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

  /// Posts the decode of the block at `cursor` to the codec worker, into
  /// `out` (a spent window buffer, reused for its capacity).
  void read_ahead(BlockCursor cursor, std::vector<std::uint8_t> out);

  /// Waits for the block decoded ahead, posts the one after it, and makes
  /// the unread tail plus the new block the window. False at the stream's
  /// end or on damage.
  bool refill() noexcept;

  std::span<const std::uint8_t> win_;
  std::size_t pos_ = 0;
  /// The window's storage once a block has been read.
  std::vector<std::uint8_t> buf_;
  std::future<Ahead> ahead_;
  ThreadPool* codec_ = nullptr;
  /// Stored bytes remain that the window has not taken in: blocks still to
  /// decode, or a damaged one.
  bool more_ = false;
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
  /// streaming block by block, decoded ahead on `codec`, for compressed
  /// ones. Absent name reads as an empty column. The archive must outlive
  /// the reader.
  [[nodiscard]] ColumnReader column(std::string_view name,
                                    ThreadPool& codec) const;

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
