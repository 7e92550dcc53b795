// Population models for NTP server identity strings (§3.3, Table 2).
//
// The version-command census in the paper reports three distinct system-
// string distributions: the overall NTP population (cisco-dominated), the
// monlist amplifier pool (linux-dominated), and the mega-amplifier pool
// (linux/junos). It also reports that 19% of servers are unsynchronized
// (stratum 16) and that most version strings carry old compile years.
// This module samples server identities from those published distributions,
// and holds the identity a server stores (ServerIdentity).
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "ntp/mode6.h"
#include "util/rng.h"

namespace gorilla::ntp {

/// Which published column of Table 2 to draw the system string from.
enum class SystemPool : std::uint8_t {
  kAllNtp,        ///< every version responder (cisco 48%, unix 31%, ...)
  kAllAmplifiers, ///< monlist amplifiers (linux 80%, bsd 11%, ...)
  kMega,          ///< mega amplifiers (linux 44%, junos 36%, ...)
  /// The non-amplifier remainder, derived so that mixing it with the
  /// amplifier pool at the amplifiers' population share reproduces the
  /// kAllNtp column: overwhelmingly network devices and classic unix.
  kNonAmplifier,
};

/// (system string, probability) rows of Table 2 for a pool.
[[nodiscard]] const std::vector<std::pair<std::string, double>>&
system_string_distribution(SystemPool pool);

/// Samples a system string from a pool's distribution, as its row: an
/// index into system_string_distribution(pool).
[[nodiscard]] std::uint8_t sample_system_row(SystemPool pool, util::Rng& rng);

/// Samples an ntpd compile year matching §3.3: 13% before 2004, 23% before
/// 2010, 48% before 2011, 59% before 2012, 79% before 2013, rest 2013-14.
[[nodiscard]] int sample_compile_year(util::Rng& rng);

/// Samples a stratum: 19% stratum 16 (unsynchronized), else 1..6 with the
/// bulk at 2-3.
[[nodiscard]] int sample_stratum(util::Rng& rng);

/// What make_system_variables() does with its draws.
enum class DrawMode : std::uint8_t {
  kRender,  ///< write the READVAR text
  kSkip,    ///< only advance the stream; the result is empty
};

/// Draws a server's full READVAR variable set from `rng`. kRender writes it
/// straight into the text — the same bytes SystemVariables::render() would
/// give for the same draws, with no per-field strings. kSkip makes exactly
/// the same draws and writes nothing, so a caller can keep the draw and
/// render it later from a copy of the stream taken before this call.
std::string make_system_variables(std::string_view system, int compile_year,
                                  int stratum, util::Rng& rng,
                                  DrawMode mode = DrawMode::kRender);

/// A world-drawn identity before it is rendered: everything
/// make_system_variables() needs besides the stratum.
struct IdentityDraw {
  util::Rng rng;  ///< the stream as it stood before the identity draws
  SystemPool pool = SystemPool::kAllNtp;
  std::uint8_t row = 0;  ///< into system_string_distribution(pool)
  int compile_year = 0;
};

/// A server's mode 6 identity as the server stores it: the stratum its
/// mode 4 replies carry, and its READVAR variable list. A hand-built
/// identity (SystemVariables::identity()) holds its text from the start. A
/// world-drawn one holds its IdentityDraw and renders the text the first
/// time readvar() is called, then keeps it: the text is a lazily computed
/// cache, so a const identity renders too. readvar() is the only way to the
/// text, so no reader sees an identity before it is rendered. Not
/// synchronized: a server has one owner at a time (DESIGN.md §3d).
///
/// The MemStats counter `ntp.identity` holds the bytes of text that live
/// identities hold.
class ServerIdentity {
 public:
  ServerIdentity() = default;
  /// A hand-built identity: the text as it goes on the wire.
  ServerIdentity(std::string text, int stratum_value);
  /// A world-drawn identity, rendered at its first readvar().
  ServerIdentity(const IdentityDraw& draw, int stratum_value);
  ServerIdentity(const ServerIdentity& other);
  ServerIdentity(ServerIdentity&& other) noexcept;
  ServerIdentity& operator=(ServerIdentity other) noexcept;
  ~ServerIdentity();

  /// The READVAR variable list, rendered from the draw on the first call.
  [[nodiscard]] const std::string& readvar() const;

  /// False only for a world-drawn identity whose text no call has needed.
  [[nodiscard]] bool rendered() const noexcept {
    return compile_year_ == 0 || !text_.empty();
  }

 private:
  mutable std::string text_;  ///< rendered by the first readvar()
  // The draw, flattened so the stratum below packs into its tail.
  util::Rng draws_;
  std::uint16_t compile_year_ = 0;  ///< 0: no draw (hand-built)
  SystemPool pool_ = SystemPool::kAllNtp;
  std::uint8_t row_ = 0;

 public:
  /// The stratum mode 4 replies carry (and READVAR reports).
  int stratum = 2;
};

/// Extracts the four-digit compile year from a version string, or 0.
[[nodiscard]] int extract_compile_year(const std::string& version_string);

/// Normalizes a system string to the Table-2 OS label ("Linux/2.6.32" ->
/// "linux", "cisco IOS" -> "cisco").
[[nodiscard]] std::string normalize_os_label(const std::string& system);

}  // namespace gorilla::ntp
