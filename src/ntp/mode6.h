// NTP mode 6 (control) packets — the `version` / READVAR vector (§3.3).
//
// Wire format follows the ntpd control protocol: a 12-byte header
// (LI/VN/mode, R|E|M|opcode, sequence, status, association id, offset,
// count) followed by up to 468 data bytes, padded to a 4-byte boundary.
// A `version` probe is a READVAR request with no variable list; responders
// return their system variable list ("version=..., system=..., stratum=...")
// possibly across multiple fragments (M bit + offset).
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "ntp/ntp_packet.h"

namespace gorilla::ntp {

/// Control opcodes (subset used by the study).
enum class ControlOp : std::uint8_t {
  kReadStatus = 1,
  kReadVariables = 2,  ///< READVAR — the "version" probe
};

inline constexpr std::size_t kControlHeaderBytes = 12;
inline constexpr std::size_t kControlMaxDataBytes = 468;

struct ControlPacket {
  std::uint8_t version = 2;  // ntpq sends VN=2
  bool response = false;     // R bit
  bool error = false;        // E bit
  bool more = false;         // M bit — further fragments follow
  ControlOp opcode = ControlOp::kReadVariables;
  std::uint16_t sequence = 0;
  std::uint16_t status = 0;
  std::uint16_t association_id = 0;  // 0 = the system itself
  std::uint16_t offset = 0;          // byte offset of this fragment's data
  std::vector<std::uint8_t> data;

  [[nodiscard]] std::size_t total_bytes() const noexcept {
    // Header + data padded to 4.
    return kControlHeaderBytes + (data.size() + 3) / 4 * 4;
  }
};

[[nodiscard]] std::vector<std::uint8_t> serialize(const ControlPacket& p);

/// Parses one control packet; nullopt if not mode 6, truncated, or the
/// declared count exceeds the buffer.
[[nodiscard]] std::optional<ControlPacket> parse_control_packet(
    std::span<const std::uint8_t> raw);

/// Builds the single-packet `version` probe (READVAR, no variables) —
/// byte-for-byte what the ONP scans send.
[[nodiscard]] ControlPacket make_version_request(std::uint16_t sequence = 1);

/// A server's mode 6 identity as it goes on the wire: its READVAR variable
/// list rendered once, when the server is configured, plus the stratum its
/// mode 4 time replies carry. Responders cut reply fragments straight from
/// `readvar`, so no per-probe rendering happens.
struct ServerIdentity {
  std::string readvar;
  int stratum = 2;
};

/// The system variable list an ntpd reports to READVAR, field by field —
/// the builder for hand-written identities (tests, examples, Table 3's
/// worked servers). Population-scale identities are written straight to
/// text by ntp::make_system_variables().
struct SystemVariables {
  std::string version;  ///< e.g. "ntpd 4.2.6p5@1.2349-o Tue May 10 2011"
  std::string system;   ///< e.g. "Linux/2.6.32", "cisco", "JUNOS"
  std::string processor;
  int stratum = 2;
  int leap = 0;
  double rootdelay_ms = 0.0;
  double rootdisp_ms = 0.0;
  /// Additional daemon variables (refid, reftime, clock, jitter, ...) in
  /// render order. Full ntpd installs report a dozen of these; network
  /// devices are terser — which is where the spread of version-response
  /// sizes (and thus Figure 4c's BAF quartiles) comes from.
  std::vector<std::pair<std::string, std::string>> extras;

  /// Renders "key=value, key=value, ..." exactly as carried on the wire.
  [[nodiscard]] std::string render() const;

  /// The rendered identity a server stores.
  [[nodiscard]] ServerIdentity identity() const { return {render(), stratum}; }
};

/// Appends the core READVAR variables, version through rootdisp, in wire
/// order: the text every identity starts with, whether rendered field by
/// field (SystemVariables::render) or written once at population scale
/// (ntp::make_system_variables).
void append_core_variables(std::string& out, std::string_view version,
                           std::string_view processor, std::string_view system,
                           int leap, int stratum, double rootdelay_ms,
                           double rootdisp_ms);

/// Walks a rendered variable list in wire order, calling
/// `visit(key, value)` (both std::string_view into `text`) for every pair
/// with a non-empty key; the walk stops early when `visit` returns false.
/// Tolerant of quoting and whitespace, as ntpq is: separators (", \r\n")
/// are skipped, a quoted value runs to the next quote, a bare value to the
/// next comma, and an unterminated quote ends the walk without that pair.
/// Keys may repeat; map semantics keep the first occurrence.
// Text-level splitter over an already-validated payload: garbage yields no
// pairs, there is no failure to signal.
template <typename Visit>
void for_each_variable(std::string_view text, Visit&& visit) {
  constexpr auto npos = std::string_view::npos;
  std::size_t pos = 0;
  while (pos < text.size()) {
    while (pos < text.size() && (text[pos] == ',' || text[pos] == ' ' ||
                                 text[pos] == '\r' || text[pos] == '\n')) {
      ++pos;
    }
    const std::size_t eq = text.find('=', pos);
    if (eq == npos) return;
    const std::string_view key = text.substr(pos, eq - pos);
    pos = eq + 1;
    std::string_view value;
    if (pos < text.size() && text[pos] == '"') {
      const std::size_t close = text.find('"', pos + 1);
      if (close == npos) return;
      value = text.substr(pos + 1, close - pos - 1);
      pos = close + 1;
    } else {
      const std::size_t comma = text.find(',', pos);
      value = text.substr(pos, comma == npos ? npos : comma - pos);
      pos = comma == npos ? text.size() : comma;
    }
    if (!key.empty() && !visit(key, value)) return;
  }
}

/// Parses a rendered variable list back into key/value pairs: every pair
/// for_each_variable() yields, the first occurrence of a key winning.
[[nodiscard]] std::map<std::string, std::string> parse_variable_list(
    std::string_view text);

/// Splits a rendered variable list into response fragments (M bit/offset
/// chaining). Every response echoes the request sequence number.
[[nodiscard]] std::vector<ControlPacket> make_readvar_response(
    std::string_view text, std::uint16_t request_sequence);

/// Fragments a `text_bytes`-long variable list splits into (at least one:
/// an empty list still gets an empty reply).
[[nodiscard]] constexpr std::size_t readvar_fragment_count(
    std::size_t text_bytes) noexcept {
  return text_bytes == 0
             ? 1
             : (text_bytes + kControlMaxDataBytes - 1) / kControlMaxDataBytes;
}

/// Wire bytes of READVAR response fragment `index` of `text` —
/// serialize(make_readvar_response(text, seq)[index]), written straight
/// from the text without materializing a ControlPacket.
[[nodiscard]] std::vector<std::uint8_t> serialize_readvar_fragment(
    std::string_view text, std::size_t index, std::uint16_t request_sequence);

/// Reassembles READVAR response fragments into the full text; fragments may
/// arrive out of order. Returns nullopt if a gap remains.
[[nodiscard]] std::optional<std::string> reassemble_readvar(
    std::span<const ControlPacket> fragments);

}  // namespace gorilla::ntp
