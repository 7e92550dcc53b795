// An NTP client — the ordinary mode 3/4 exchange and offset arithmetic. A
// test helper: the study itself never syncs a clock, so only the client and
// Kiss-of-Death tests use it against the simulated server.
//
// The study is about servers being abused, but the reason those servers
// exist is time synchronization; §3.3's finding that 19% of them report
// stratum 16 (unsynchronized) matters because their *clients* get nothing
// useful. This client implements the RFC 5905 on-wire exchange: it builds
// mode 3 requests, validates mode 4 replies (origin-timestamp check, KoD /
// unsynchronized rejection), computes offset and round-trip delay from the
// four timestamps, and keeps the standard eight-sample clock filter that
// prefers minimum-delay samples.
#pragma once

#include <array>
#include <cstdint>
#include <optional>

#include "ntp/ntp_packet.h"
#include "util/time.h"

namespace gorilla::ntp {

/// Seconds between the NTP era (1900-01-01) and the simulation epoch
/// (2013-11-01); lets SimTime convert to on-wire 32.32 timestamps.
inline constexpr std::uint64_t kNtpEraAtSimEpoch = 3593548800ULL;

/// SimTime -> NTP 32.32 fixed-point timestamp (integer seconds).
[[nodiscard]] constexpr std::uint64_t to_ntp_timestamp(
    util::SimTime t) noexcept {
  return (kNtpEraAtSimEpoch + static_cast<std::uint64_t>(t)) << 32;
}

/// NTP 32.32 timestamp -> seconds (double) since the simulation epoch.
[[nodiscard]] constexpr double from_ntp_timestamp(std::uint64_t ts) noexcept {
  return static_cast<double>(ts >> 32) -
         static_cast<double>(kNtpEraAtSimEpoch) +
         static_cast<double>(ts & 0xffffffffu) / 4294967296.0;
}

/// One completed exchange: clock offset and round-trip delay (seconds).
struct ClockSample {
  double offset = 0.0;
  double delay = 0.0;
  util::SimTime local_time = 0;  ///< client clock when the reply arrived
  std::uint8_t stratum = 0;
};

/// Why a reply was rejected.
enum class ReplyError : std::uint8_t {
  kBogusOrigin,     ///< origin timestamp does not match our request
  kUnsynchronized,  ///< stratum 0/16 or leap=3 (the §3.3 pathology)
  kKissOfDeath,     ///< stratum-0 "RATE"/"DENY" kiss code: back off
  kNotServerMode,
};

/// The RATE kiss code ("please slow down").
inline constexpr std::uint32_t kKissRate = 0x52415445;
/// The DENY kiss code ("go away").
inline constexpr std::uint32_t kKissDeny = 0x44454e59;

class NtpClient {
 public:
  /// Builds the next mode 3 request stamped with the client's (possibly
  /// skewed) local clock.
  [[nodiscard]] TimePacket make_request(util::SimTime local_now);

  /// Processes a reply received at local time `local_recv`. On success
  /// returns the clock sample and records it in the filter.
  [[nodiscard]] std::optional<ClockSample> process_reply(
      const TimePacket& reply, util::SimTime local_recv);

  [[nodiscard]] std::optional<ReplyError> last_error() const noexcept {
    return last_error_;
  }

  /// The RFC 5905 clock filter: of the last eight valid samples, the one
  /// with minimum delay (nullopt until a sample exists).
  [[nodiscard]] std::optional<ClockSample> best_sample() const;

  [[nodiscard]] std::size_t samples_recorded() const noexcept {
    return count_;
  }

 private:
  std::uint64_t outstanding_origin_ = 0;  ///< transmit ts of last request
  std::array<ClockSample, 8> filter_{};
  std::size_t next_slot_ = 0;
  std::size_t count_ = 0;
  std::optional<ReplyError> last_error_;
};

}  // namespace gorilla::ntp
