// Population models for NTP server identity strings (§3.3, Table 2).
//
// The version-command census in the paper reports three distinct system-
// string distributions: the overall NTP population (cisco-dominated), the
// monlist amplifier pool (linux-dominated), and the mega-amplifier pool
// (linux/junos). It also reports that 19% of servers are unsynchronized
// (stratum 16) and that most version strings carry old compile years.
// This module samples server identities from those published distributions.
#pragma once

#include <cstdint>
#include <string>
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

/// Samples a system string from a pool's distribution.
[[nodiscard]] std::string sample_system_string(SystemPool pool,
                                               util::Rng& rng);

/// Samples an ntpd compile year matching §3.3: 13% before 2004, 23% before
/// 2010, 48% before 2011, 59% before 2012, 79% before 2013, rest 2013-14.
[[nodiscard]] int sample_compile_year(util::Rng& rng);

/// Samples a stratum: 19% stratum 16 (unsynchronized), else 1..6 with the
/// bulk at 2-3.
[[nodiscard]] int sample_stratum(util::Rng& rng);

/// Draws a server's full READVAR variable set and writes it straight into
/// its rendered identity text — the same bytes SystemVariables::render()
/// would give for the same draws, with no per-field strings.
[[nodiscard]] ServerIdentity make_system_variables(const std::string& system,
                                                   int compile_year,
                                                   int stratum,
                                                   util::Rng& rng);

/// Extracts the four-digit compile year from a version string, or 0.
[[nodiscard]] int extract_compile_year(const std::string& version_string);

/// Normalizes a system string to the Table-2 OS label ("Linux/2.6.32" ->
/// "linux", "cisco IOS" -> "cisco").
[[nodiscard]] std::string normalize_os_label(const std::string& system);

}  // namespace gorilla::ntp
