#include "study/recorder.h"

#include <algorithm>
#include <fstream>
#include <iterator>
#include <utility>

#include "scan/prober.h"
#include "util/mem_stats.h"
#include "util/thread_pool.h"

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

std::vector<std::uint8_t> encode_header(const StudyHeader& h) {
  util::ColumnWriter w;
  w.put_u32(h.version);
  w.put_u8(h.kind);
  w.put_u32(h.scale);
  w.put_varint(h.seed);
  w.put_u8(h.quick ? 1 : 0);
  w.put_u8(h.with_vantages ? 1 : 0);
  w.put_u8(h.with_darknet ? 1 : 0);
  w.put_zigzag(h.param_a);
  w.put_zigzag(h.param_b);
  return w.take_buffer();
}

bool decode_header(const std::vector<std::uint8_t>& bytes, StudyHeader& h) {
  util::ColumnReader r(bytes);
  h.version = r.get_u32();
  h.kind = r.get_u8();
  h.scale = r.get_u32();
  h.seed = r.get_varint();
  h.quick = r.get_u8() != 0;
  h.with_vantages = r.get_u8() != 0;
  h.with_darknet = r.get_u8() != 0;
  h.param_a = static_cast<std::int32_t>(r.get_zigzag());
  h.param_b = static_cast<std::int32_t>(r.get_zigzag());
  return r.ok() && h.version == 1;
}

void encode_date(util::ColumnWriter& w, const util::Date& d) {
  w.put_zigzag(d.year);
  w.put_u8(static_cast<std::uint8_t>(d.month));
  w.put_u8(static_cast<std::uint8_t>(d.day));
}

util::Date decode_date(util::ColumnReader& r) {
  util::Date d;
  d.year = static_cast<int>(r.get_zigzag());
  d.month = r.get_u8();
  d.day = r.get_u8();
  return d;
}

// Section layout, in write order (Recorder::columns() order); a loadable
// artifact holds every one.
constexpr const char* kSectionNames[] = {
    "tape", "global", "label", "flow", "dark", "begin", "obs", "sum",
    "end", "tbl.addr", "tbl.local", "tbl.avg", "tbl.seen", "tbl.restr",
    "tbl.count", "tbl.port", "tbl.mode", "tbl.ver"};

/// The first section of kSectionNames that `archive` lacks, or nullptr.
const char* missing_section(const util::ColumnArchive& archive) {
  for (const char* name : kSectionNames) {
    if (archive.find(name) == nullptr) return name;
  }
  return nullptr;
}

/// Decoder-side mirror of the Recorder's transform state.
struct DecodeState {
  std::int64_t global_day = 0, label_start = 0, flow_first = 0, dark_day = 0,
               obs_index = 0, obs_addr = 0, obs_time = 0, tbl_addr = 0,
               tbl_local = 0, tbl_seen = 0;
  std::int64_t week_base = 0;
  bool week_base_set = false;
};

std::int64_t get_delta(util::ColumnReader& r, std::int64_t& prev) {
  prev += r.get_zigzag();
  return prev;
}

int get_week(util::ColumnReader& r, DecodeState& st) {
  const std::int64_t v = r.get_zigzag();
  if (!st.week_base_set) {
    st.week_base = v;
    st.week_base_set = true;
    return static_cast<int>(v);
  }
  return static_cast<int>(st.week_base + v);
}

}  // namespace

Recorder::Recorder(const StudyHeader& header) : header_(header) {
  static_assert(std::size(kSectionNames) == kColumns);
  for (util::ColumnWriter* col : columns()) {
    *col = util::ColumnWriter::sealing();
  }
}

std::array<util::ColumnWriter*, Recorder::kColumns>
Recorder::columns() noexcept {
  return {&tape_,      &global_,   &label_,    &flow_,  &dark_,
          &begin_,     &obs_,      &sum_,      &end_,   &tbl_addr_,
          &tbl_local_, &tbl_avg_,  &tbl_seen_, &tbl_restr_,
          &tbl_count_, &tbl_port_, &tbl_mode_, &tbl_ver_};
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
  tape_.put_u8(run_tag_);
  tape_.put_varint(run_len_);
  run_len_ = 0;
}

void Recorder::put_delta(util::ColumnWriter& col, std::int64_t& prev,
                         std::int64_t v) {
  col.put_zigzag(v - prev);
  prev = v;
}

void Recorder::put_week(util::ColumnWriter& col, int week) {
  // Frame of reference: the first week id on the tape anchors the frame;
  // later ones store only the (tiny) difference.
  if (!week_base_set_) {
    week_base_ = week;
    week_base_set_ = true;
    col.put_zigzag(week);
    return;
  }
  col.put_zigzag(week - week_base_);
}

void Recorder::on_global_bytes(int day, telemetry::ProtocolClass p,
                               double bytes) {
  tag(kTagGlobal);
  put_delta(global_, prev_global_day_, day);
  global_.put_u8(static_cast<std::uint8_t>(p));
  global_.put_f64(bytes);
}

void Recorder::on_attack_label(const telemetry::LabeledAttack& label) {
  tag(kTagLabel);
  put_delta(label_, prev_label_start_, label.start);
  label_.put_u8(static_cast<std::uint8_t>(label.vector));
  label_.put_f64(label.peak_bps);
}

void Recorder::on_flow(const telemetry::FlowRecord& flow, int vantage) {
  tag(kTagFlow);
  flow_.put_zigzag(vantage);
  flow_.put_u32(flow.src.value());
  flow_.put_u32(flow.dst.value());
  flow_.put_u16(flow.src_port);
  flow_.put_u16(flow.dst_port);
  flow_.put_u8(flow.protocol);
  flow_.put_u8(flow.ttl);
  flow_.put_varint(flow.packets);
  flow_.put_varint(flow.bytes);
  flow_.put_varint(flow.payload_bytes);
  put_delta(flow_, prev_flow_first_, flow.first);
  flow_.put_zigzag(flow.last - flow.first);
}

void Recorder::on_darknet_scan(net::Ipv4Address scanner, int day,
                               std::uint64_t packets, bool benign) {
  tag(kTagDark);
  dark_.put_u32(scanner.value());
  put_delta(dark_, prev_dark_day_, day);
  dark_.put_varint(packets);
  dark_.put_u8(benign ? 1 : 0);
}

void Recorder::on_sample_begin(int week, const util::Date& date) {
  tag(kTagBegin);
  put_week(begin_, week);
  encode_date(begin_, date);
}

void Recorder::on_probe_observation(int week,
                                    const scan::AmplifierObservation& obs) {
  tag(kTagObs);
  put_week(obs_, week);
  // The weekly sweep walks servers in index order and stamps a monotone
  // probe clock: deltas are tiny where absolutes were wide.
  put_delta(obs_, prev_obs_index_, obs.server_index);
  put_delta(obs_, prev_obs_addr_, obs.address.value());
  obs_.put_varint(obs.response_packets);
  obs_.put_varint(obs.response_udp_bytes);
  obs_.put_varint(obs.response_wire_bytes);
  put_delta(obs_, prev_obs_time_, obs.probe_time);
  obs_.put_u8(obs.table_partial ? 1 : 0);
  obs_.put_zigzag(obs.attempts);
  obs_.put_varint(obs.table.size());
  for (const auto& e : obs.table) {
    // Dumps are sorted by last_seen (monotone within a dump) and the local
    // address repeats for a whole dump — deltas collapse both.
    put_delta(tbl_addr_, prev_tbl_addr_, e.address.value());
    put_delta(tbl_local_, prev_tbl_local_, e.local_address.value());
    tbl_avg_.put_varint(e.avg_interval);
    put_delta(tbl_seen_, prev_tbl_seen_, e.last_seen);
    tbl_restr_.put_varint(e.restr);
    tbl_count_.put_varint(e.count);
    tbl_port_.put_u16(e.port);
    tbl_mode_.put_u8(e.mode);
    tbl_ver_.put_u8(e.version);
  }
}

void Recorder::on_monlist_summary(const scan::MonlistSampleSummary& summary) {
  tag(kTagSummary);
  put_week(sum_, summary.week);
  encode_date(sum_, summary.date);
  sum_.put_varint(summary.probes_sent);
  sum_.put_varint(summary.responders);
  sum_.put_varint(summary.error_replies);
  sum_.put_varint(summary.probes_lost);
  sum_.put_varint(summary.retries);
  sum_.put_varint(summary.truncated_tables);
  sum_.put_varint(summary.rate_limited);
}

void Recorder::on_sample_end(int week) {
  tag(kTagEnd);
  put_week(end_, week);
  // Week boundary: report what the columns hold into the memory registry
  // (gauge; sealing a block shrinks it, so its peak is the high-water
  // mark).
  static auto& gauge = util::MemStats::instance().counter("study.recorder");
  gauge.observe(column_bytes());
}

std::size_t Recorder::column_bytes() noexcept {
  std::size_t bytes = 0;
  for (const util::ColumnWriter* col : columns()) bytes += col->held_bytes();
  return bytes;
}

util::ColumnArchive Recorder::to_archive() {
  flush_run();
  util::ColumnArchive archive;
  archive.header = encode_header(header_);
  const auto cols = columns();
  for (std::size_t i = 0; i < kColumns; ++i) {
    archive.add_column(kSectionNames[i], *cols[i]);
  }
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
  if (!decode_header(archive.header, header_)) return false;
  if (missing_section(archive) != nullptr) return false;
  archive_ = std::move(archive);
  apply_decode_policy();
  return true;
}

bool Replayer::load_prefix(const std::string& path, ReplayReport& report) {
  report.clean = load(path);
  return report.clean;
}

void Replayer::apply_decode_policy() {
  if (decode_jobs_ <= 1) return;
  util::ThreadPool pool(decode_jobs_);
  archive_.inflate(&pool);
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
  if (!decode_header(archive->header, h)) {
    util::ColumnReader r(archive->header);
    const std::uint32_t version = r.get_u32();
    if (r.ok() && version != 1) {
      return quoted + ": study header version " + std::to_string(version) +
             " unsupported (this build reads 1)";
    }
    return quoted + ": malformed study header" + regenerate;
  }
  if (const char* name = missing_section(*archive)) {
    return quoted + ": missing section '" + name + "'" + regenerate;
  }
  return quoted + " loads cleanly";
}

namespace {

/// The dispatch loop behind replay(). Walks the tape, decodes each event
/// out of its column, and hands it to `sink`. Stops after `max_weeks`
/// complete weeks (-1 = unlimited) or at the first inconsistency (short
/// column, unknown tag, absurd table size) — damage ends the walk, it
/// never fabricates an event. True when the walk reached the end of the
/// tape or the week cap without damage.
bool dispatch_stream(const util::ColumnArchive& archive, EventSink& sink,
                     int max_weeks) {
  util::ColumnReader tape = archive.column("tape");
  util::ColumnReader global = archive.column("global");
  util::ColumnReader label = archive.column("label");
  util::ColumnReader flow = archive.column("flow");
  util::ColumnReader dark = archive.column("dark");
  util::ColumnReader begin = archive.column("begin");
  util::ColumnReader obs_col = archive.column("obs");
  util::ColumnReader sum = archive.column("sum");
  util::ColumnReader end = archive.column("end");
  util::ColumnReader tbl_addr = archive.column("tbl.addr");
  util::ColumnReader tbl_local = archive.column("tbl.local");
  util::ColumnReader tbl_avg = archive.column("tbl.avg");
  util::ColumnReader tbl_seen = archive.column("tbl.seen");
  util::ColumnReader tbl_restr = archive.column("tbl.restr");
  util::ColumnReader tbl_count = archive.column("tbl.count");
  util::ColumnReader tbl_port = archive.column("tbl.port");
  util::ColumnReader tbl_mode = archive.column("tbl.mode");
  util::ColumnReader tbl_ver = archive.column("tbl.ver");

  // Columns are transform-encoded (deltas / frame-of-reference); this
  // state mirrors the Recorder's, advanced in the same tape order.
  DecodeState st;

  int weeks = 0;
  bool damaged = false;
  bool capped = false;
  scan::AmplifierObservation obs;  // reused across dispatches
  while (!tape.at_end() && !damaged && !capped) {
    const std::uint8_t t = tape.get_u8();
    const std::uint64_t count = tape.get_varint();
    if (!tape.ok()) {
      damaged = true;
      break;
    }
    for (std::uint64_t i = 0; i < count && !damaged; ++i) {
      if (max_weeks >= 0 && weeks >= max_weeks) {
        capped = true;
        break;
      }
      switch (t) {
        case kTagGlobal: {
          const int day = static_cast<int>(get_delta(global, st.global_day));
          const auto p = static_cast<telemetry::ProtocolClass>(global.get_u8());
          const double bytes = global.get_f64();
          if (!global.ok()) {
            damaged = true;
            break;
          }
          sink.on_global_bytes(day, p, bytes);
          break;
        }
        case kTagLabel: {
          telemetry::LabeledAttack a;
          a.start = get_delta(label, st.label_start);
          a.vector = static_cast<telemetry::AttackVector>(label.get_u8());
          a.peak_bps = label.get_f64();
          if (!label.ok()) {
            damaged = true;
            break;
          }
          sink.on_attack_label(a);
          break;
        }
        case kTagFlow: {
          const int vantage = static_cast<int>(flow.get_zigzag());
          telemetry::FlowRecord f;
          f.src = net::Ipv4Address(flow.get_u32());
          f.dst = net::Ipv4Address(flow.get_u32());
          f.src_port = flow.get_u16();
          f.dst_port = flow.get_u16();
          f.protocol = flow.get_u8();
          f.ttl = flow.get_u8();
          f.packets = flow.get_varint();
          f.bytes = flow.get_varint();
          f.payload_bytes = flow.get_varint();
          f.first = get_delta(flow, st.flow_first);
          f.last = f.first + flow.get_zigzag();
          if (!flow.ok()) {
            damaged = true;
            break;
          }
          sink.on_flow(f, vantage);
          break;
        }
        case kTagDark: {
          const net::Ipv4Address scanner(dark.get_u32());
          const int day = static_cast<int>(get_delta(dark, st.dark_day));
          const std::uint64_t packets = dark.get_varint();
          const bool benign = dark.get_u8() != 0;
          if (!dark.ok()) {
            damaged = true;
            break;
          }
          sink.on_darknet_scan(scanner, day, packets, benign);
          break;
        }
        case kTagBegin: {
          const int week = get_week(begin, st);
          const util::Date date = decode_date(begin);
          if (!begin.ok()) {
            damaged = true;
            break;
          }
          sink.on_sample_begin(week, date);
          break;
        }
        case kTagObs: {
          const int week = get_week(obs_col, st);
          obs.server_index =
              static_cast<std::uint32_t>(get_delta(obs_col, st.obs_index));
          obs.address = net::Ipv4Address(
              static_cast<std::uint32_t>(get_delta(obs_col, st.obs_addr)));
          obs.response_packets = obs_col.get_varint();
          obs.response_udp_bytes = obs_col.get_varint();
          obs.response_wire_bytes = obs_col.get_varint();
          obs.probe_time = get_delta(obs_col, st.obs_time);
          obs.table_partial = obs_col.get_u8() != 0;
          obs.attempts = static_cast<int>(obs_col.get_zigzag());
          const std::uint64_t n = obs_col.get_varint();
          if (!obs_col.ok() || n > (1u << 24)) {
            damaged = true;
            break;
          }
          obs.table.clear();
          obs.table.reserve(static_cast<std::size_t>(n));
          for (std::uint64_t e = 0; e < n; ++e) {
            ntp::MonitorEntry entry;
            entry.address = net::Ipv4Address(
                static_cast<std::uint32_t>(get_delta(tbl_addr, st.tbl_addr)));
            entry.local_address = net::Ipv4Address(
                static_cast<std::uint32_t>(get_delta(tbl_local, st.tbl_local)));
            entry.avg_interval =
                static_cast<std::uint32_t>(tbl_avg.get_varint());
            entry.last_seen =
                static_cast<std::uint32_t>(get_delta(tbl_seen, st.tbl_seen));
            entry.restr = static_cast<std::uint32_t>(tbl_restr.get_varint());
            entry.count = static_cast<std::uint32_t>(tbl_count.get_varint());
            entry.port = tbl_port.get_u16();
            entry.mode = tbl_mode.get_u8();
            entry.version = tbl_ver.get_u8();
            obs.table.push_back(entry);
          }
          if (!tbl_addr.ok() || !tbl_ver.ok()) {
            damaged = true;
            break;
          }
          sink.on_probe_observation(week, obs);
          break;
        }
        case kTagSummary: {
          scan::MonlistSampleSummary s;
          s.week = get_week(sum, st);
          s.date = decode_date(sum);
          s.probes_sent = sum.get_varint();
          s.responders = sum.get_varint();
          s.error_replies = sum.get_varint();
          s.probes_lost = sum.get_varint();
          s.retries = sum.get_varint();
          s.truncated_tables = sum.get_varint();
          s.rate_limited = sum.get_varint();
          if (!sum.ok()) {
            damaged = true;
            break;
          }
          sink.on_monlist_summary(s);
          break;
        }
        case kTagEnd: {
          const int week = get_week(end, st);
          if (!end.ok()) {
            damaged = true;
            break;
          }
          sink.on_sample_end(week);
          break;
        }
        default:
          damaged = true;  // unknown tag: artifact from a newer format
          break;
      }
      if (damaged) break;
      if (t == kTagEnd) ++weeks;
    }
  }
  return !damaged && (capped || (tape.at_end() && tape.ok()));
}

}  // namespace

bool Replayer::replay(EventSink& sink, int max_weeks) const {
  return dispatch_stream(archive_, sink, max_weeks);
}

}  // namespace gorilla::study
