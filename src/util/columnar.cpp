#include "util/columnar.h"

#include <algorithm>
#include <cstdio>
#include <fstream>

#if defined(__unix__) || defined(__APPLE__)
#include <fcntl.h>
#include <unistd.h>
#endif

#include "util/crc32.h"

namespace gorilla::util {

namespace {

constexpr std::uint8_t kMagic[8] = {'G', 'O', 'R', 'C', 'O', 'L', 'v', '3'};
constexpr std::size_t kMaxSections = 4096;
constexpr std::uint64_t kMaxPayload = 1ull << 40;
/// Below this size the block header + section framing overhead outweighs
/// any win; tiny sections are stored raw.
constexpr std::size_t kCompressMin = 64;

/// Flushes a closed file's (or directory's) pages to stable storage. The
/// ofstream flush only reaches the kernel; without this a rename + crash
/// can still surface an empty file after reboot.
bool fsync_path(const char* path) {
#if defined(__unix__) || defined(__APPLE__)
  const int fd = ::open(path, O_RDONLY);
  if (fd < 0) return false;
  const bool ok = ::fsync(fd) == 0;
  ::close(fd);
  return ok;
#else
  (void)path;
  return true;
#endif
}

void fsync_parent_dir(const std::string& path) {
  // Best effort: syncing the directory makes the rename itself durable.
  const std::size_t slash = path.find_last_of('/');
  const std::string dir =
      slash == std::string::npos ? "." : path.substr(0, slash);
  (void)fsync_path(dir.c_str());
}

/// Bytes left to read in `in` when it is seekable (files, string streams),
/// else kMaxPayload. Bounds every payload allocation by what the stream
/// can actually deliver, so a corrupt length field cannot ask for more.
std::uint64_t bytes_left(std::istream& in) {
  const std::istream::pos_type here = in.tellg();
  if (here < 0) return kMaxPayload;
  in.seekg(0, std::ios::end);
  const std::istream::pos_type end = in.tellg();
  in.seekg(here);
  return end < here ? 0 : static_cast<std::uint64_t>(end - here);
}

/// The strict loader behind load()/load_file(): all or nothing, with
/// `report` recording where and why it stopped.
std::optional<ColumnArchive> load_impl(std::istream& in,
                                       ArchiveReadReport& report) {
  report = ArchiveReadReport{};
  const std::uint64_t size = bytes_left(in);
  // Reads exactly dst.size() bytes; report.offset only moves past fields
  // that arrived whole, so a short read leaves it at the torn field.
  const auto read = [&](std::span<std::uint8_t> dst) {
    if (!dst.empty() && !read_exact(in, dst)) return false;
    report.offset += dst.size();
    return true;
  };

  std::uint8_t fixed[12];
  if (!read(fixed)) return std::nullopt;
  ByteReader fr(fixed);
  for (const std::uint8_t m : kMagic) {
    if (fr.u8() != m) return std::nullopt;
  }
  const std::uint32_t header_len = fr.u32le();
  if (header_len > (1u << 20)) return std::nullopt;

  ColumnArchive archive;
  archive.header.resize(header_len);
  std::uint8_t crc_raw[4];
  if (!read(archive.header) || !read(crc_raw)) return std::nullopt;
  if (ByteReader(crc_raw).u32le() != crc32(archive.header)) {
    report.crc_failed = true;
    report.offset -= sizeof(crc_raw);
    return std::nullopt;
  }
  report.header_ok = true;

  std::uint8_t count_raw[4];
  if (!read(count_raw)) return std::nullopt;
  const std::uint32_t count = ByteReader(count_raw).u32le();
  if (count > kMaxSections) return std::nullopt;

  for (std::uint32_t s = 0; s < count; ++s) {
    report.section.clear();
    std::uint8_t name_len[1];
    if (!read(name_len)) return std::nullopt;
    std::vector<std::uint8_t> name(name_len[0]);
    if (!read(name)) return std::nullopt;
    report.section.assign(name.begin(), name.end());

    // Section frame: u8 storage, u64be stored length, u64be uncompressed
    // length, u32le CRC of the stored bytes.
    std::uint8_t frame[21];
    if (!read(frame)) return std::nullopt;
    ByteReader sr(frame);
    const std::uint8_t storage = sr.u8();
    const std::uint64_t stored_len = sr.u64be();
    const std::uint64_t raw_len = sr.u64be();
    const std::uint32_t crc = sr.u32le();
    const bool blocks =
        storage == static_cast<std::uint8_t>(
                       ColumnArchive::SectionStorage::kBlocks);
    if (stored_len > size - std::min(size, report.offset)) {
      return std::nullopt;  // the stream ends inside the payload
    }
    if (storage > 1 || (!blocks && raw_len != stored_len)) {
      report.offset -= sizeof(frame);
      return std::nullopt;
    }

    const std::uint64_t payload_at = report.offset;
    std::vector<std::uint8_t> payload(static_cast<std::size_t>(stored_len));
    if (!read(payload)) return std::nullopt;
    // The CRC does not cover the frame's uncompressed length; hold it to
    // what the block frames declare before anything sizes a buffer by it.
    const bool crc_ok = crc32(payload) == crc;
    if (!crc_ok || (blocks && block_raw_size(payload) != raw_len)) {
      report.crc_failed = !crc_ok;
      report.offset = payload_at;
      return std::nullopt;
    }
    ColumnArchive::Section section;
    section.name = std::move(report.section);
    section.bytes = std::move(payload);
    section.storage = blocks ? ColumnArchive::SectionStorage::kBlocks
                             : ColumnArchive::SectionStorage::kRaw;
    section.raw_len = raw_len;
    archive.sections.push_back(std::move(section));
    ++report.sections_ok;
  }
  report.section.clear();
  return archive;
}

void write_section_frame(ByteWriter& w, const std::string& name) {
  w.u8(static_cast<std::uint8_t>(name.size()));
  for (const char c : name) w.u8(static_cast<std::uint8_t>(c));
}

}  // namespace

HeldBytes& HeldBytes::operator+=(const HeldBytes& other) {
  known_ += other.known_;
  in_flight_.insert(in_flight_.end(), other.in_flight_.begin(),
                    other.in_flight_.end());
  return *this;
}

std::size_t HeldBytes::total() const {
  std::size_t bytes = known_;
  for (const auto& frame : in_flight_) bytes += frame.get().size();
  return bytes;
}

HeldBytes ColumnWriter::held() const {
  HeldBytes held;
  held.known_ = sealed_.size() + buf_.size();
  held.in_flight_.assign(in_flight_.begin(), in_flight_.end());
  return held;
}

void ColumnWriter::seal_block() {
  if (in_flight_.size() == kBlocksInFlight) collect_oldest();
  // The block leaves with buf_'s storage; only the few bytes put past it
  // are copied, into a buffer sized for the next block.
  std::vector<std::uint8_t> block = std::exchange(buf_, {});
  buf_.reserve(kBlockRawSize + 16);
  buf_.assign(block.begin() + static_cast<std::ptrdiff_t>(kBlockRawSize),
              block.end());
  block.resize(kBlockRawSize);
  in_flight_.push_back(
      codec_->post([block = std::move(block)] { return block_compress(block); })
          .share());
  sealed_raw_ += kBlockRawSize;
}

void ColumnWriter::collect_oldest() {
  const std::vector<std::uint8_t>& frame = in_flight_.front().get();
  sealed_.insert(sealed_.end(), frame.begin(), frame.end());
  in_flight_.pop_front();
}

std::vector<std::uint8_t> ColumnWriter::take_blocks() {
  while (!in_flight_.empty()) collect_oldest();
  block_compress_append(buf_, sealed_);
  buf_ = {};
  sealed_raw_ = 0;
  return std::exchange(sealed_, {});
}

ColumnReader::ColumnReader(std::span<const std::uint8_t> stored,
                           ThreadPool& codec)
    : codec_(&codec), more_(!stored.empty()) {
  if (more_) read_ahead(BlockCursor(stored), {});
}

ColumnReader::~ColumnReader() {
  if (ahead_.valid()) ahead_.wait();
}

void ColumnReader::read_ahead(BlockCursor cursor,
                              std::vector<std::uint8_t> out) {
  // The job owns its cursor and buffer and borrows only the stored bytes,
  // so it never touches the reader, which may move meanwhile.
  ahead_ = codec_->post([cursor, out = std::move(out)]() mutable {
    out.resize(kCarry);
    const bool ok = cursor.next(out);
    return Ahead{std::move(out), cursor, ok};
  });
}

bool ColumnReader::refill() noexcept {
  // No read-ahead: a flat reader, the stream's end, or damage already met.
  if (!ahead_.valid()) return false;
  Ahead next = ahead_.get();
  if (!next.ok) return false;  // damaged: more_ stays set
  const std::span<const std::uint8_t> tail = win_.subspan(pos_);
  const std::size_t start = kCarry - tail.size();
  std::copy(tail.begin(), tail.end(),
            next.bytes.begin() + static_cast<std::ptrdiff_t>(start));
  buf_.swap(next.bytes);
  win_ = std::span<const std::uint8_t>(buf_).subspan(start);
  pos_ = 0;
  more_ = !next.cursor.exhausted();
  if (more_) read_ahead(next.cursor, std::move(next.bytes));
  return true;
}

void ColumnArchive::add_column(std::string name, ColumnWriter& col) {
  if (col.size() < kBlockRawSize) {
    sections.emplace_back(std::move(name), col.take_buffer());
    return;
  }
  Section section;
  section.name = std::move(name);
  section.raw_len = col.size();
  section.bytes = col.take_blocks();
  section.storage = SectionStorage::kBlocks;
  sections.push_back(std::move(section));
}

const ColumnArchive::Section* ColumnArchive::find(
    std::string_view name) const noexcept {
  for (const auto& section : sections) {
    if (section.name == name) return &section;
  }
  return nullptr;
}

ColumnReader ColumnArchive::column(std::string_view name,
                                   ThreadPool& codec) const {
  const Section* section = find(name);
  if (section == nullptr) {
    return ColumnReader(std::span<const std::uint8_t>{});
  }
  if (section->storage == SectionStorage::kBlocks) {
    return {section->bytes, codec};
  }
  return ColumnReader(std::span<const std::uint8_t>(section->bytes));
}

bool ColumnArchive::save(std::ostream& out) const {
  std::vector<std::uint8_t> scratch;
  ByteWriter w(scratch);
  w.bytes(kMagic);
  w.u32le(static_cast<std::uint32_t>(header.size()));
  w.bytes(header);
  w.u32le(crc32(header));
  w.u32le(static_cast<std::uint32_t>(sections.size()));
  if (!write_all(out, scratch)) return false;
  std::vector<std::uint8_t> stored;
  for (const Section& section : sections) {
    // Pick the stored representation: a raw section long enough to pay for
    // framing is compressed here; block frames (from add_column or a
    // load) are written as they are.
    const std::vector<std::uint8_t>* payload = &section.bytes;
    auto storage = section.storage;
    std::uint64_t raw_len = section.raw_len;
    stored.clear();
    if (storage == SectionStorage::kRaw &&
        section.bytes.size() >= kCompressMin) {
      stored = block_compress(section.bytes);
      payload = &stored;
      storage = SectionStorage::kBlocks;
      raw_len = section.bytes.size();
    }
    // Raw payloads carry their own length; never trust a stale raw_len
    // from a caller that mutated `bytes` after construction.
    if (storage == SectionStorage::kRaw) raw_len = payload->size();
    scratch.clear();
    ByteWriter sw(scratch);
    write_section_frame(sw, section.name);
    sw.u8(static_cast<std::uint8_t>(storage));
    sw.u64be(payload->size());
    sw.u64be(raw_len);
    sw.u32le(crc32(*payload));
    if (!write_all(out, scratch)) return false;
    if (!write_all(out, *payload)) return false;
  }
  return true;
}

std::optional<ColumnArchive> ColumnArchive::load(std::istream& in,
                                                 ArchiveReadReport* report) {
  ArchiveReadReport local;
  return load_impl(in, report != nullptr ? *report : local);
}

bool ColumnArchive::save_file(const std::string& path) const {
  // Temp-file + rename: the destination either keeps its previous contents
  // or atomically becomes the complete new artifact — a crash, ENOSPC, or
  // injected short write can never leave a torn file at `path`.
  const std::string tmp = path + ".tmp";
  bool ok = false;
  {
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    ok = static_cast<bool>(out) && save(out);
    if (ok) {
      out.flush();
      ok = static_cast<bool>(out);
    }
  }
  ok = ok && fsync_path(tmp.c_str());
  ok = ok && std::rename(tmp.c_str(), path.c_str()) == 0;
  if (!ok) {
    std::remove(tmp.c_str());
    return false;
  }
  fsync_parent_dir(path);
  return true;
}

std::optional<ColumnArchive> ColumnArchive::load_file(
    const std::string& path, ArchiveReadReport* report) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    if (report != nullptr) *report = ArchiveReadReport{};
    return std::nullopt;
  }
  return load(in, report);
}

}  // namespace gorilla::util
