#include "client.h"

#include <algorithm>

namespace gorilla::ntp {

TimePacket NtpClient::make_request(util::SimTime local_now) {
  TimePacket request;
  request.mode = Mode::kClient;
  request.version = 4;
  request.transmit_ts = to_ntp_timestamp(local_now);
  outstanding_origin_ = request.transmit_ts;
  return request;
}

std::optional<ClockSample> NtpClient::process_reply(
    const TimePacket& reply, util::SimTime local_recv) {
  last_error_.reset();
  if (reply.mode != Mode::kServer) {
    last_error_ = ReplyError::kNotServerMode;
    return std::nullopt;
  }
  // Origin check defeats off-path spoofing: the reply must echo the
  // transmit timestamp of a request we actually sent.
  if (outstanding_origin_ == 0 || reply.origin_ts != outstanding_origin_) {
    last_error_ = ReplyError::kBogusOrigin;
    return std::nullopt;
  }
  outstanding_origin_ = 0;
  // Stratum 0 with a kiss code is an explicit back-off demand.
  if (reply.stratum == 0 && (reply.reference_id == kKissRate ||
                             reply.reference_id == kKissDeny)) {
    last_error_ = ReplyError::kKissOfDeath;
    return std::nullopt;
  }
  // An unsynchronized server (stratum 0/16, leap=3) serves no time; §3.3
  // found a fifth of the population in this state.
  if (reply.stratum == 0 || reply.stratum >= kStratumUnsynchronized ||
      reply.leap == 3) {
    last_error_ = ReplyError::kUnsynchronized;
    return std::nullopt;
  }

  // RFC 5905 §8: theta = ((T2-T1)+(T3-T4))/2, delta = (T4-T1)-(T3-T2).
  const double t1 = from_ntp_timestamp(reply.origin_ts);
  const double t2 = from_ntp_timestamp(reply.receive_ts);
  const double t3 = from_ntp_timestamp(reply.transmit_ts);
  const double t4 = static_cast<double>(local_recv);
  ClockSample sample;
  sample.offset = ((t2 - t1) + (t3 - t4)) / 2.0;
  sample.delay = std::max(0.0, (t4 - t1) - (t3 - t2));
  sample.local_time = local_recv;
  sample.stratum = reply.stratum;

  filter_[next_slot_] = sample;
  next_slot_ = (next_slot_ + 1) % filter_.size();
  count_ = std::min(count_ + 1, filter_.size());
  return sample;
}

std::optional<ClockSample> NtpClient::best_sample() const {
  if (count_ == 0) return std::nullopt;
  const ClockSample* best = nullptr;
  for (std::size_t i = 0; i < count_; ++i) {
    if (best == nullptr || filter_[i].delay < best->delay) {
      best = &filter_[i];
    }
  }
  return *best;
}

}  // namespace gorilla::ntp
