#include "ntp/mode6.h"

#include <algorithm>
#include <cstdio>
#include <map>

#include "util/bytes.h"

namespace gorilla::ntp {

std::vector<std::uint8_t> serialize(const ControlPacket& p) {
  std::vector<std::uint8_t> out;
  out.reserve(p.total_bytes());
  util::ByteWriter w(out);
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
  w.u16be(static_cast<std::uint16_t>(p.data.size()));
  w.bytes(p.data);
  w.pad_to(4);
  return out;
}

std::optional<ControlPacket> parse_control_packet(
    std::span<const std::uint8_t> raw) {
  util::ByteReader r(raw);
  const std::uint8_t b0 = r.u8();
  if (r.truncated() ||
      (b0 & 0x7) != static_cast<std::uint8_t>(Mode::kControl)) {
    return std::nullopt;
  }
  ControlPacket p;
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
  const auto data = r.take(count);
  if (!r.ok()) return std::nullopt;  // short header or declared count > body
  p.data.assign(data.begin(), data.end());
  return p;
}

ControlPacket make_version_request(std::uint16_t sequence) {
  ControlPacket p;
  p.opcode = ControlOp::kReadVariables;
  p.sequence = sequence;
  return p;
}

std::string SystemVariables::render() const {
  // Fixed text plus the two formatted number runs (each at most 63 bytes).
  std::size_t bytes = 35 + 2 * 63 + version.size() + processor.size() +
                      system.size();
  for (const auto& [key, value] : extras) {
    bytes += 3 + key.size() + value.size();
  }
  std::string out;
  out.reserve(bytes);
  char num[64];
  out.append("version=\"").append(version);
  out.append("\", processor=\"").append(processor);
  out.append("\", system=\"").append(system).append("\"");
  std::snprintf(num, sizeof num, ", leap=%d, stratum=%d", leap, stratum);
  out.append(num);
  std::snprintf(num, sizeof num, ", rootdelay=%.3f, rootdisp=%.3f",
                rootdelay_ms, rootdisp_ms);
  out.append(num);
  for (const auto& [key, value] : extras) {
    out.append(", ").append(key).append("=").append(value);
  }
  return out;
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
    const SystemVariables& vars, std::uint16_t request_sequence) {
  const std::string text = vars.render();
  std::vector<ControlPacket> fragments;
  std::size_t offset = 0;
  do {
    const std::size_t chunk =
        std::min(kControlMaxDataBytes, text.size() - offset);
    ControlPacket p;
    p.response = true;
    p.opcode = ControlOp::kReadVariables;
    p.sequence = request_sequence;
    p.offset = static_cast<std::uint16_t>(offset);
    p.data.assign(text.begin() + static_cast<std::ptrdiff_t>(offset),
                  text.begin() + static_cast<std::ptrdiff_t>(offset + chunk));
    offset += chunk;
    p.more = offset < text.size();
    fragments.push_back(std::move(p));
  } while (offset < text.size());
  return fragments;
}

std::optional<std::string> reassemble_readvar(
    std::span<const ControlPacket> fragments) {
  // Loop-faulted responders (§3.4 megas) resend the whole fragment chain;
  // deduplicate by offset, keeping the last copy, then require contiguity.
  // The stable sort keeps arrival order among equal offsets, so the last
  // fragment of each equal-offset run is the last copy.
  std::vector<const ControlPacket*> by_offset;
  by_offset.reserve(fragments.size());
  for (const auto& f : fragments) by_offset.push_back(&f);
  std::stable_sort(by_offset.begin(), by_offset.end(),
                   [](const ControlPacket* a, const ControlPacket* b) {
                     return a->offset < b->offset;
                   });
  std::string out;
  const ControlPacket* last = nullptr;
  for (std::size_t i = 0; i < by_offset.size(); ++i) {
    const ControlPacket* f = by_offset[i];
    if (i + 1 < by_offset.size() && by_offset[i + 1]->offset == f->offset) {
      continue;  // superseded by a later copy
    }
    if (f->offset != out.size()) return std::nullopt;  // gap or overlap
    out.append(f->data.begin(), f->data.end());
    last = f;
  }
  if (last != nullptr && last->more) return std::nullopt;
  return out;
}

}  // namespace gorilla::ntp
