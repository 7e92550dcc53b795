#include "ntp/mode6.h"

#include <algorithm>
#include <map>

#include "ntp/sysinfo.h"
#include "util/bytes.h"
#include "util/format.h"

namespace gorilla::ntp {

namespace {

/// Writes the 12-byte control header announcing `count` data bytes.
void write_header(util::ByteWriter& w, const ControlHeader& p,
                  std::size_t count) {
  w.u8(make_li_vn_mode(0, p.version, Mode::kControl));
  std::uint8_t rem = static_cast<std::uint8_t>(p.opcode) & 0x1f;
  if (p.response) rem |= 0x80;
  if (p.error) rem |= 0x40;
  if (p.more) rem |= 0x20;
  w.u8(rem);
  w.u16be(p.sequence);
  w.u16be(p.status);
  w.u16be(p.association_id);
  w.u16be(p.offset);
  w.u16be(static_cast<std::uint16_t>(count));
}

/// Header of READVAR response fragment `index` of a `text_bytes` list, and
/// the [offset, offset + count) slice of the list it carries.
struct FragmentSlice {
  ControlHeader header;
  std::size_t count = 0;
};

FragmentSlice readvar_fragment(std::size_t text_bytes, std::size_t index,
                               std::uint16_t request_sequence) {
  FragmentSlice f;
  const std::size_t offset = index * kControlMaxDataBytes;
  f.count = std::min(kControlMaxDataBytes, text_bytes - offset);
  f.header.response = true;
  f.header.opcode = ControlOp::kReadVariables;
  f.header.sequence = request_sequence;
  f.header.offset = static_cast<std::uint16_t>(offset);
  f.header.more = offset + f.count < text_bytes;
  return f;
}

}  // namespace

std::vector<std::uint8_t> serialize(const ControlPacket& p) {
  std::vector<std::uint8_t> out;
  out.reserve(p.total_bytes());
  util::ByteWriter w(out);
  write_header(w, p, p.data.size());
  w.bytes(p.data);
  w.pad_to(4);
  return out;
}

std::optional<ControlView> parse_control_view(
    std::span<const std::uint8_t> raw) {
  util::ByteReader r(raw);
  const std::uint8_t b0 = r.u8();
  if (r.truncated() ||
      (b0 & 0x7) != static_cast<std::uint8_t>(Mode::kControl)) {
    return std::nullopt;
  }
  ControlView p;
  p.version = (b0 >> 3) & 0x7;
  const std::uint8_t rem = r.u8();
  p.response = rem & 0x80;
  p.error = rem & 0x40;
  p.more = rem & 0x20;
  p.opcode = static_cast<ControlOp>(rem & 0x1f);
  p.sequence = r.u16be();
  p.status = r.u16be();
  p.association_id = r.u16be();
  p.offset = r.u16be();
  const std::uint16_t count = r.u16be();
  p.data = r.take(count);
  if (!r.ok()) return std::nullopt;  // short header or declared count > body
  return p;
}

std::optional<ControlPacket> parse_control_packet(
    std::span<const std::uint8_t> raw) {
  const auto view = parse_control_view(raw);
  if (!view) return std::nullopt;
  ControlPacket p;
  static_cast<ControlHeader&>(p) = *view;
  p.data.assign(view->data.begin(), view->data.end());
  return p;
}

ControlPacket make_version_request(std::uint16_t sequence) {
  ControlPacket p;
  p.opcode = ControlOp::kReadVariables;
  p.sequence = sequence;
  return p;
}

void append_core_variables(std::string& out, std::string_view version,
                           std::string_view processor, std::string_view system,
                           int leap, int stratum, double rootdelay_ms,
                           double rootdisp_ms) {
  out.append("version=\"").append(version);
  out.append("\", processor=\"").append(processor);
  out.append("\", system=\"").append(system).append("\"");
  out.append(", leap=");
  util::append_decimal(out, leap);
  out.append(", stratum=");
  util::append_decimal(out, stratum);
  out.append(", rootdelay=");
  util::append_fixed(out, rootdelay_ms, 3);
  out.append(", rootdisp=");
  util::append_fixed(out, rootdisp_ms, 3);
}

std::string SystemVariables::render() const {
  // Fixed text plus room for the four formatted numbers (a hint only).
  std::size_t bytes = 75 + 4 * 63 + version.size() + processor.size() +
                      system.size();
  for (const auto& [key, value] : extras) {
    bytes += 3 + key.size() + value.size();
  }
  std::string out;
  out.reserve(bytes);
  append_core_variables(out, version, processor, system, leap, stratum,
                        rootdelay_ms, rootdisp_ms);
  for (const auto& [key, value] : extras) {
    out.append(", ").append(key).append("=").append(value);
  }
  return out;
}

ServerIdentity SystemVariables::identity() const {
  return {render(), stratum};
}

std::map<std::string, std::string> parse_variable_list(std::string_view text) {
  std::map<std::string, std::string> vars;
  for_each_variable(text, [&vars](std::string_view key, std::string_view value) {
    vars.emplace(key, value);
    return true;
  });
  return vars;
}

std::vector<ControlPacket> make_readvar_response(
    std::string_view text, std::uint16_t request_sequence) {
  const std::size_t n = readvar_fragment_count(text.size());
  std::vector<ControlPacket> fragments;
  fragments.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    const auto [header, count] =
        readvar_fragment(text.size(), i, request_sequence);
    const auto data = text.substr(header.offset, count);
    ControlPacket& p = fragments.emplace_back();
    static_cast<ControlHeader&>(p) = header;
    p.data.assign(data.begin(), data.end());
  }
  return fragments;
}

std::vector<std::uint8_t> serialize_readvar_fragment(
    std::string_view text, std::size_t index,
    std::uint16_t request_sequence) {
  const auto [header, count] =
      readvar_fragment(text.size(), index, request_sequence);
  std::vector<std::uint8_t> out;
  out.reserve(kControlHeaderBytes + (count + 3) / 4 * 4);
  util::ByteWriter w(out);
  write_header(w, header, count);
  w.chars(text.substr(header.offset, count));
  w.pad_to(4);
  return out;
}

namespace {

/// Appends fragments whose offsets strictly ascend: each must start where
/// the text so far ends, and the last must not announce more.
bool append_in_order(std::span<const ControlView> fragments,
                     std::string& text) {
  for (const ControlView& f : fragments) {
    if (f.offset != text.size()) return false;  // gap or overlap
    text.append(util::as_text(f.data));
  }
  return fragments.empty() || !fragments.back().more;
}

}  // namespace

bool reassemble_readvar_into(std::span<const ControlView> fragments,
                             std::string& text) {
  text.clear();
  const auto out_of_order = [](const ControlView& a, const ControlView& b) {
    return a.offset >= b.offset;
  };
  if (std::adjacent_find(fragments.begin(), fragments.end(), out_of_order) ==
      fragments.end()) {
    return append_in_order(fragments, text);  // the common, in-order reply
  }
  // Loop-faulted responders (§3.4 megas) resend the whole fragment chain;
  // deduplicate by offset, keeping the last copy, then require contiguity.
  // The stable sort keeps arrival order among equal offsets, so the last
  // fragment of each equal-offset run is the last copy.
  std::vector<ControlView> by_offset(fragments.begin(), fragments.end());
  std::stable_sort(by_offset.begin(), by_offset.end(),
                   [](const ControlView& a, const ControlView& b) {
                     return a.offset < b.offset;
                   });
  std::size_t kept = 0;
  for (std::size_t i = 0; i < by_offset.size(); ++i) {
    if (i + 1 < by_offset.size() &&
        by_offset[i + 1].offset == by_offset[i].offset) {
      continue;  // superseded by a later copy
    }
    by_offset[kept++] = by_offset[i];
  }
  by_offset.resize(kept);
  return append_in_order(by_offset, text);
}

std::optional<std::string> reassemble_readvar(
    std::span<const ControlPacket> fragments) {
  std::vector<ControlView> views;
  views.reserve(fragments.size());
  for (const auto& f : fragments) views.push_back(f.view());
  std::string text;
  if (!reassemble_readvar_into(views, text)) return std::nullopt;
  return text;
}

}  // namespace gorilla::ntp
