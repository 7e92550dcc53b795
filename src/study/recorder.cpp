#include "study/recorder.h"

#include <algorithm>
#include <fstream>
#include <iterator>
#include <span>
#include <type_traits>
#include <utility>

#include "ntp/mode7.h"
#include "scan/prober.h"
#include "util/mem_stats.h"

namespace gorilla::study {

namespace {

// Event tags on the tape. Values are part of the artifact format.
enum : std::uint8_t {
  kTagGlobal = 1,
  kTagLabel = 2,
  kTagFlow = 3,
  kTagDark = 4,
  kTagBegin = 5,
  kTagObs = 6,
  kTagSummary = 7,
  kTagEnd = 8,
};

// The artifact's columns, in section order; a loadable artifact holds every
// one. The tape holds (tag, run length) pairs; every other column holds
// the cells of one event type, or one monitor-table field.
enum Column : std::size_t {
  kTape, kGlobal, kLabel, kFlow, kDark, kBegin, kObs, kSum, kEnd,
  kTblAddr, kTblLocal, kTblAvg, kTblSeen, kTblRestr, kTblCount, kTblPort,
  kTblMode, kTblVer, kColumnCount
};
constexpr const char* kColumnNames[] = {
    "tape", "global", "label", "flow", "dark", "begin", "obs", "sum",
    "end", "tbl.addr", "tbl.local", "tbl.avg", "tbl.seen", "tbl.restr",
    "tbl.count", "tbl.port", "tbl.mode", "tbl.ver"};
static_assert(kColumnCount == detail::kStreamColumns);
static_assert(std::size(kColumnNames) == kColumnCount);

using Transforms = detail::StreamTransforms;

// ---- Cells -------------------------------------------------------------
//
// Every cell is an overload pair: the ColumnWriter one encodes a value, the
// ColumnReader one decodes into an lvalue. The per-event coders below are
// templates over the column type, so each event's layout is written once
// and the Recorder and the Replayer run the same definition. A read past a
// short or damaged column yields 0, so each coder returns whether the
// columns it read are intact (always, when encoding), and the replayer
// hands an event on only then.

constexpr bool ok(const util::ColumnWriter& /*w*/) noexcept { return true; }
bool ok(const util::ColumnReader& r) noexcept { return r.ok(); }

template <class T>
std::int64_t to_int(const T& v) noexcept {
  if constexpr (std::is_same_v<T, net::Ipv4Address>) {
    return v.value();
  } else {
    return static_cast<std::int64_t>(v);
  }
}

template <class T>
T from_int(std::int64_t v) noexcept {
  if constexpr (std::is_same_v<T, net::Ipv4Address>) {
    return net::Ipv4Address(static_cast<std::uint32_t>(v));
  } else {
    return static_cast<T>(v);
  }
}

void u8(util::ColumnWriter& w, const auto& v) {
  w.put_u8(static_cast<std::uint8_t>(to_int(v)));
}
template <class T>
void u8(util::ColumnReader& r, T& v) {
  v = from_int<T>(r.get_u8());
}

void u16(util::ColumnWriter& w, const auto& v) {
  w.put_u16(static_cast<std::uint16_t>(to_int(v)));
}
template <class T>
void u16(util::ColumnReader& r, T& v) {
  v = from_int<T>(r.get_u16());
}

void u32(util::ColumnWriter& w, const auto& v) {
  w.put_u32(static_cast<std::uint32_t>(to_int(v)));
}
template <class T>
void u32(util::ColumnReader& r, T& v) {
  v = from_int<T>(r.get_u32());
}

void varint(util::ColumnWriter& w, const auto& v) {
  w.put_varint(static_cast<std::uint64_t>(to_int(v)));
}
template <class T>
void varint(util::ColumnReader& r, T& v) {
  v = from_int<T>(static_cast<std::int64_t>(r.get_varint()));
}

void zigzag(util::ColumnWriter& w, const auto& v) { w.put_zigzag(to_int(v)); }
template <class T>
void zigzag(util::ColumnReader& r, T& v) {
  v = from_int<T>(r.get_zigzag());
}

void f64(util::ColumnWriter& w, double v) { w.put_f64(v); }
void f64(util::ColumnReader& r, double& v) { v = r.get_f64(); }

/// `a + b` wrapping modulo 2^64. A damaged cell may hold any int64, and the
/// sum must not overflow a signed integer; a valid artifact never wraps.
std::int64_t wrapping_add(std::int64_t a, std::int64_t b) noexcept {
  return static_cast<std::int64_t>(static_cast<std::uint64_t>(a) +
                                   static_cast<std::uint64_t>(b));
}

/// Delta against the previous value of the same cell.
void delta(util::ColumnWriter& w, std::int64_t& prev, const auto& v) {
  const std::int64_t x = to_int(v);
  w.put_zigzag(x - prev);
  prev = x;
}
template <class T>
void delta(util::ColumnReader& r, std::int64_t& prev, T& v) {
  prev = wrapping_add(prev, r.get_zigzag());
  v = from_int<T>(prev);
}

/// Difference from `base`, a cell of the same event coded before it.
void offset(util::ColumnWriter& w, std::int64_t base, const auto& v) {
  w.put_zigzag(to_int(v) - base);
}
template <class T>
void offset(util::ColumnReader& r, std::int64_t base, T& v) {
  v = from_int<T>(wrapping_add(base, r.get_zigzag()));
}

/// Frame of reference: the first week id on the tape anchors the frame
/// (stored against a base of 0, so whole); later ones store only the
/// (tiny) difference.
void week(util::ColumnWriter& w, Transforms& t, int v) {
  w.put_zigzag(v - t.week_base);
  if (!t.week_base_set) {
    t.week_base = v;
    t.week_base_set = true;
  }
}
void week(util::ColumnReader& r, Transforms& t, int& v) {
  const std::int64_t x = wrapping_add(t.week_base, r.get_zigzag());
  v = static_cast<int>(x);
  if (!t.week_base_set) {
    t.week_base = x;
    t.week_base_set = true;
  }
}

/// The monitor-table length. Decoding checks the column so far and the
/// protocol's cap (no monlist reassembly yields more than
/// ntp::kMonlistMaxEntries) before it sizes the table, which is reused
/// across events.
bool table_size(util::ColumnWriter& w,
                const std::vector<ntp::MonitorEntry>& table) {
  w.put_varint(table.size());
  return true;
}
bool table_size(util::ColumnReader& r, std::vector<ntp::MonitorEntry>& table) {
  const std::uint64_t n = r.get_varint();
  if (!r.ok() || n > ntp::kMonlistMaxEntries) return false;
  table.clear();
  table.resize(static_cast<std::size_t>(n));
  return true;
}

// ---- Coders: the artifact layout ---------------------------------------

template <class Col, class Header>
void code_header(Col& c, Header& h) {
  u32(c, h.version);
  u8(c, h.kind);
  u32(c, h.scale);
  varint(c, h.seed);
  u8(c, h.quick);
  u8(c, h.with_vantages);
  u8(c, h.with_darknet);
  zigzag(c, h.param_a);
  zigzag(c, h.param_b);
}

template <class Col, class Date>
void code_date(Col& c, Date& d) {
  zigzag(c, d.year);
  u8(c, d.month);
  u8(c, d.day);
}

template <class Col, class Tag, class Count>
void code_run(Col& tape, Tag& tag, Count& count) {
  u8(tape, tag);
  varint(tape, count);
}

template <class Cols, class Day, class Class, class Bytes>
bool code_global(Cols& c, Transforms& t, Day& day, Class& p, Bytes& bytes) {
  delta(c[kGlobal], t.global_day, day);
  u8(c[kGlobal], p);
  f64(c[kGlobal], bytes);
  return ok(c[kGlobal]);
}

template <class Cols, class Label>
bool code_label(Cols& c, Transforms& t, Label& a) {
  delta(c[kLabel], t.label_start, a.start);
  u8(c[kLabel], a.vector);
  f64(c[kLabel], a.peak_bps);
  return ok(c[kLabel]);
}

template <class Cols, class Flow, class Vantage>
bool code_flow(Cols& c, Transforms& t, Flow& f, Vantage& vantage) {
  auto& col = c[kFlow];
  zigzag(col, vantage);
  u32(col, f.src);
  u32(col, f.dst);
  u16(col, f.src_port);
  u16(col, f.dst_port);
  u8(col, f.protocol);
  u8(col, f.ttl);
  varint(col, f.packets);
  varint(col, f.bytes);
  varint(col, f.payload_bytes);
  delta(col, t.flow_first, f.first);
  offset(col, f.first, f.last);
  return ok(c[kFlow]);
}

template <class Cols, class Addr, class Day, class Packets, class Benign>
bool code_dark(Cols& c, Transforms& t, Addr& scanner, Day& day,
               Packets& packets, Benign& benign) {
  u32(c[kDark], scanner);
  delta(c[kDark], t.dark_day, day);
  varint(c[kDark], packets);
  u8(c[kDark], benign);
  return ok(c[kDark]);
}

template <class Cols, class Week, class Date>
bool code_begin(Cols& c, Transforms& t, Week& wk, Date& date) {
  week(c[kBegin], t, wk);
  code_date(c[kBegin], date);
  return ok(c[kBegin]);
}

template <class Cols, class Week, class Obs>
bool code_observation(Cols& c, Transforms& t, Week& wk, Obs& obs) {
  auto& col = c[kObs];
  week(col, t, wk);
  // The weekly sweep walks servers in index order and stamps a monotone
  // probe clock: deltas are tiny where absolutes were wide.
  delta(col, t.obs_index, obs.server_index);
  delta(col, t.obs_addr, obs.address);
  varint(col, obs.response_packets);
  varint(col, obs.response_udp_bytes);
  varint(col, obs.response_wire_bytes);
  delta(col, t.obs_time, obs.probe_time);
  u8(col, obs.table_partial);
  zigzag(col, obs.attempts);
  if (!table_size(col, obs.table)) return false;
  for (auto& e : obs.table) {
    // Dumps are sorted by last_seen (monotone within a dump) and the local
    // address repeats for a whole dump — deltas collapse both.
    delta(c[kTblAddr], t.tbl_addr, e.address);
    delta(c[kTblLocal], t.tbl_local, e.local_address);
    varint(c[kTblAvg], e.avg_interval);
    delta(c[kTblSeen], t.tbl_seen, e.last_seen);
    varint(c[kTblRestr], e.restr);
    varint(c[kTblCount], e.count);
    u16(c[kTblPort], e.port);
    u8(c[kTblMode], e.mode);
    u8(c[kTblVer], e.version);
  }
  for (std::size_t i = kTblAddr; i <= kTblVer; ++i) {
    if (!ok(c[i])) return false;
  }
  return true;
}

template <class Cols, class Summary>
bool code_summary(Cols& c, Transforms& t, Summary& s) {
  auto& col = c[kSum];
  week(col, t, s.week);
  code_date(col, s.date);
  varint(col, s.probes_sent);
  varint(col, s.responders);
  varint(col, s.error_replies);
  varint(col, s.probes_lost);
  varint(col, s.retries);
  varint(col, s.truncated_tables);
  varint(col, s.rate_limited);
  return ok(c[kSum]);
}

template <class Cols, class Week>
bool code_end(Cols& c, Transforms& t, Week& wk) {
  week(c[kEnd], t, wk);
  return ok(c[kEnd]);
}

/// Decodes a study header; false when it is short, malformed, or of a
/// version this build does not read.
bool read_header(std::span<const std::uint8_t> bytes, StudyHeader& h) {
  util::ColumnReader r(bytes);
  code_header(r, h);
  return r.ok() && h.version == 1;
}

using Readers = std::array<util::ColumnReader, kColumnCount>;

template <std::size_t... I>
Readers open_columns(const util::ColumnArchive& archive,
                     util::ThreadPool& codec, std::index_sequence<I...>) {
  return {archive.column(kColumnNames[I], codec)...};
}

/// Decodes one event of type `tag` and hands it to `sink`. False on damage
/// (a short column, an absurd table length, an unknown tag), in which case
/// nothing is dispatched: damage never fabricates an event.
bool dispatch_event(Readers& c, Transforms& t, std::uint8_t tag,
                    scan::AmplifierObservation& obs, EventSink& sink) {
  switch (tag) {
    case kTagGlobal: {
      int day = 0;
      auto p = telemetry::ProtocolClass{};
      double bytes = 0.0;
      if (!code_global(c, t, day, p, bytes)) return false;
      sink.on_global_bytes(day, p, bytes);
      return true;
    }
    case kTagLabel: {
      telemetry::LabeledAttack a;
      if (!code_label(c, t, a)) return false;
      sink.on_attack_label(a);
      return true;
    }
    case kTagFlow: {
      telemetry::FlowRecord f;
      int vantage = 0;
      if (!code_flow(c, t, f, vantage)) return false;
      sink.on_flow(f, vantage);
      return true;
    }
    case kTagDark: {
      net::Ipv4Address scanner;
      int day = 0;
      std::uint64_t packets = 0;
      bool benign = false;
      if (!code_dark(c, t, scanner, day, packets, benign)) return false;
      sink.on_darknet_scan(scanner, day, packets, benign);
      return true;
    }
    case kTagBegin: {
      int wk = 0;
      util::Date date;
      if (!code_begin(c, t, wk, date)) return false;
      sink.on_sample_begin(wk, date);
      return true;
    }
    case kTagObs: {
      int wk = 0;
      if (!code_observation(c, t, wk, obs)) return false;
      sink.on_probe_observation(wk, obs);
      return true;
    }
    case kTagSummary: {
      scan::MonlistSampleSummary s;
      if (!code_summary(c, t, s)) return false;
      sink.on_monlist_summary(s);
      return true;
    }
    case kTagEnd: {
      int wk = 0;
      if (!code_end(c, t, wk)) return false;
      sink.on_sample_end(wk);
      return true;
    }
    default:
      return false;  // unknown tag: artifact from a newer format
  }
}

/// The first column `archive` lacks, or nullptr.
const char* missing_section(const util::ColumnArchive& archive) {
  for (const char* name : kColumnNames) {
    if (archive.find(name) == nullptr) return name;
  }
  return nullptr;
}

}  // namespace

Recorder::Recorder(const StudyHeader& header) : header_(header) {
  for (util::ColumnWriter& col : columns_) {
    col = util::ColumnWriter::sealing(codec_);
  }
}

void Recorder::tag(std::uint8_t t) {
  if (t == run_tag_) {
    ++run_len_;
    return;
  }
  flush_run();
  run_tag_ = t;
  run_len_ = 1;
}

void Recorder::flush_run() {
  if (run_len_ == 0) return;
  code_run(columns_[kTape], run_tag_, run_len_);
  run_len_ = 0;
}

void Recorder::on_global_bytes(int day, telemetry::ProtocolClass p,
                               double bytes) {
  tag(kTagGlobal);
  code_global(columns_, transforms_, day, p, bytes);
}

void Recorder::on_attack_label(const telemetry::LabeledAttack& label) {
  tag(kTagLabel);
  code_label(columns_, transforms_, label);
}

void Recorder::on_flow(const telemetry::FlowRecord& flow, int vantage) {
  tag(kTagFlow);
  code_flow(columns_, transforms_, flow, vantage);
}

void Recorder::on_darknet_scan(net::Ipv4Address scanner, int day,
                               std::uint64_t packets, bool benign) {
  tag(kTagDark);
  code_dark(columns_, transforms_, scanner, day, packets, benign);
}

void Recorder::on_sample_begin(int week, const util::Date& date) {
  tag(kTagBegin);
  code_begin(columns_, transforms_, week, date);
}

void Recorder::on_probe_observation(int week,
                                    const scan::AmplifierObservation& obs) {
  tag(kTagObs);
  code_observation(columns_, transforms_, week, obs);
}

void Recorder::on_monlist_summary(const scan::MonlistSampleSummary& summary) {
  tag(kTagSummary);
  code_summary(columns_, transforms_, summary);
}

void Recorder::on_sample_end(int week) {
  tag(kTagEnd);
  code_end(columns_, transforms_, week);
  // Week boundary: report what the columns hold, sealed frames plus raw
  // tails, into the memory registry (gauge; sealing a block shrinks it, so
  // its peak is the high-water mark). The frames of blocks still being
  // compressed are counted on the codec worker, behind those blocks, so
  // the week never waits for them and the count never depends on timing.
  util::HeldBytes held;
  for (const util::ColumnWriter& col : columns_) held += col.held();
  observed_ = codec_.post([held = std::move(held)] {
    static auto& gauge = util::MemStats::instance().counter("study.recorder");
    gauge.observe(held.total());
  });
}

util::ColumnArchive Recorder::to_archive() {
  flush_run();
  util::ColumnArchive archive;
  util::ColumnWriter header;
  code_header(header, header_);
  archive.header = header.take_buffer();
  for (std::size_t i = 0; i < kColumnCount; ++i) {
    archive.add_column(kColumnNames[i], columns_[i]);
  }
  if (observed_.valid()) observed_.get();  // the gauge has seen every week
  return archive;
}

bool Recorder::save(const std::string& path) {
  return to_archive().save_file(path);
}

bool Replayer::load(const std::string& path) {
  auto archive = util::ColumnArchive::load_file(path);
  if (!archive) return false;
  return load_archive(std::move(*archive));
}

bool Replayer::load_archive(util::ColumnArchive archive) {
  if (!read_header(archive.header, header_)) return false;
  if (missing_section(archive) != nullptr) return false;
  archive_ = std::move(archive);
  return true;
}

bool Replayer::load_prefix(const std::string& path, ReplayReport& report) {
  report.clean = load(path);
  return report.clean;
}

std::string Replayer::describe_load_failure(const std::string& path) {
  const std::string quoted = "'" + path + "'";
  const std::string regenerate = "; regenerate it with --record";
  std::ifstream in(path, std::ios::binary);
  if (!in) return "cannot open " + quoted;
  char magic[8] = {};
  in.read(magic, sizeof(magic));
  const std::size_t got = static_cast<std::size_t>(in.gcount());
  const std::string prefix(magic, std::min<std::size_t>(got, 7));
  if (got < sizeof(magic) || prefix != "GORCOLv") {
    return quoted + " is not a GORCOL artifact (bad magic)";
  }
  if (magic[7] != '3') {
    return quoted + " is a GORCOLv" + std::string(1, magic[7]) +
           " artifact; this build reads GORCOLv3 only" + regenerate;
  }
  util::ArchiveReadReport container;
  const auto archive = util::ColumnArchive::load_file(path, &container);
  if (!archive) {
    const std::string at = " at offset " + std::to_string(container.offset);
    const std::string damage = container.crc_failed
                                   ? " failed its checksum"
                                   : " is truncated or malformed";
    if (!container.header_ok) {
      return quoted + ": study header" + damage + at + regenerate;
    }
    const std::string where = container.section.empty()
                                  ? "section table"
                                  : "section '" + container.section + "'";
    return quoted + ": " + where + damage + at + " (" +
           std::to_string(container.sections_ok) +
           " intact section(s) precede it)" + regenerate;
  }
  StudyHeader h;
  if (!read_header(archive->header, h)) {
    // The version is the header's first cell, decoded whenever it is whole.
    if (archive->header.size() >= sizeof(h.version) && h.version != 1) {
      return quoted + ": study header version " + std::to_string(h.version) +
             " unsupported (this build reads 1)";
    }
    return quoted + ": malformed study header" + regenerate;
  }
  if (const char* name = missing_section(*archive)) {
    return quoted + ": missing section '" + name + "'" + regenerate;
  }
  return quoted + " loads cleanly";
}

bool Replayer::replay(EventSink& sink, int max_weeks) const {
  // Walks the tape run by run, decoding each event out of its column with
  // the transform state advanced in tape order. Stops after `max_weeks`
  // complete weeks (-1 = unlimited) or at the first damage. The readers
  // are destroyed before the codec worker, each waiting for its
  // read-ahead.
  util::ThreadPool codec(1);
  Readers c = open_columns(archive_, codec,
                           std::make_index_sequence<kColumnCount>{});
  util::ColumnReader& tape = c[kTape];
  Transforms t;
  scan::AmplifierObservation obs;  // its table is reused across events
  int weeks = 0;
  while (!tape.at_end()) {
    std::uint8_t tag = 0;
    std::uint64_t count = 0;
    code_run(tape, tag, count);
    if (!tape.ok()) return false;
    for (std::uint64_t i = 0; i < count; ++i) {
      if (max_weeks >= 0 && weeks >= max_weeks) return true;
      if (!dispatch_event(c, t, tag, obs, sink)) return false;
      if (tag == kTagEnd) ++weeks;
    }
  }
  return tape.ok();
}

}  // namespace gorilla::study
