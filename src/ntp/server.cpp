#include "ntp/server.h"

#include <algorithm>
#include <string_view>

namespace gorilla::ntp {

namespace {

/// NTP-era timestamp (seconds since 1900) for a SimTime; the 2013-11-01
/// simulation epoch is 3593548800 seconds into the NTP era.
constexpr std::uint64_t kNtpEraSimEpoch = 3593548800ULL;

std::uint64_t ntp_timestamp(util::SimTime t) {
  return (kNtpEraSimEpoch + static_cast<std::uint64_t>(t)) << 32;
}

void account(ResponseSummary& summary, const net::UdpPacket& pkt,
             std::uint64_t copies) {
  summary.total_packets += copies;
  summary.total_udp_payload_bytes += copies * pkt.payload.size();
  summary.total_on_wire_bytes += copies * pkt.on_wire_bytes();
}

/// Materializes `copies` back-to-back runs of `one_run` into
/// summary.packets and sets `truncated`. The common single-run reply moves
/// the run in instead of copying it.
void emit_copies(ResponseSummary& summary,
                 std::vector<net::UdpPacket>&& one_run, std::uint64_t copies) {
  if (copies == 1) {
    summary.packets = std::move(one_run);
  } else {
    summary.packets.reserve(copies * one_run.size());
    for (std::uint64_t c = 0; c < copies; ++c) {
      summary.packets.insert(summary.packets.end(), one_run.begin(),
                             one_run.end());
    }
  }
  summary.truncated = summary.packets.size() < summary.total_packets;
}

}  // namespace

net::UdpPacket NtpServer::make_reply(const net::UdpPacket& request,
                                     std::vector<std::uint8_t> payload,
                                     util::SimTime now) const {
  net::UdpPacket reply;
  reply.src = config_.address;
  reply.dst = request.src;  // to the (possibly spoofed) source — reflection
  reply.src_port = net::kNtpPort;
  reply.dst_port = request.src_port;
  reply.ttl = config_.initial_ttl;
  reply.timestamp = now;
  reply.payload = std::move(payload);
  return reply;
}

ResponseSummary NtpServer::handle(const net::UdpPacket& request,
                                  util::SimTime now,
                                  std::size_t materialize_cap) {
  const auto mode = peek_mode(request.payload);
  if (!mode) return {};

  switch (*mode) {
    case Mode::kClient:
      monitor_.observe(request.src, request.src_port,
                       static_cast<std::uint8_t>(*mode),
                       peek_version(request.payload).value_or(4), now);
      return respond_time(request, now);
    case Mode::kPrivate: {
      const auto parsed = parse_mode7_packet(request.payload);
      if (!parsed || parsed->response) return {};
      return respond_monlist(request, *parsed, now, materialize_cap);
    }
    case Mode::kControl: {
      const auto parsed = parse_control_packet(request.payload);
      if (!parsed || parsed->response) return {};
      return respond_readvar(request, *parsed, now, materialize_cap);
    }
    default:
      // Symmetric/broadcast modes: monitored but unanswered in this model.
      monitor_.observe(request.src, request.src_port,
                       static_cast<std::uint8_t>(*mode),
                       peek_version(request.payload).value_or(4), now);
      return {};
  }
}

ResponseSummary NtpServer::respond_time(const net::UdpPacket& request,
                                        util::SimTime now) {
  const auto query = parse_time_packet(request.payload);
  TimePacket reply;
  reply.mode = Mode::kServer;
  reply.version = query ? query->version : 4;
  reply.stratum = static_cast<std::uint8_t>(config_.identity.stratum);
  reply.leap = config_.identity.stratum == kStratumUnsynchronized ? 3 : 0;
  reply.origin_ts = query ? query->transmit_ts : 0;
  reply.receive_ts = ntp_timestamp(now);
  reply.transmit_ts = ntp_timestamp(now);
  ResponseSummary summary;
  summary.packets.push_back(make_reply(request, serialize(reply), now));
  account(summary, summary.packets.back(), 1);
  return summary;
}

ResponseSummary NtpServer::respond_monlist(const net::UdpPacket& request,
                                           const Mode7Packet& parsed,
                                           util::SimTime now,
                                           std::size_t materialize_cap) {
  // Repeat count: a loop fault re-delivers the request, so the server
  // processes (and answers) it dumps times.
  const std::uint64_t dumps = std::uint64_t{config_.loop_repeat} + 1;
  monitor_.observe_many(request.src, request.src_port,
                        static_cast<std::uint8_t>(Mode::kPrivate),
                        kNtpVersion, dumps, now, now);

  if (!config_.monlist_enabled) return {};  // restrict noquery: silence

  if (!mode7_rate_allows(now)) {
    if (!config_.kod_on_rate_limit) return {};  // rate-limited: silence
    // Kiss-of-Death: stratum 0, refid "RATE".
    TimePacket kod;
    kod.mode = Mode::kServer;
    kod.stratum = 0;
    kod.leap = 3;
    kod.reference_id = 0x52415445;  // "RATE"
    ResponseSummary summary;
    summary.packets.push_back(make_reply(request, serialize(kod), now));
    account(summary, summary.packets.back(), 1);
    return summary;
  }

  ResponseSummary summary;
  if (parsed.implementation != config_.accepted_impl &&
      parsed.implementation != Implementation::kUniv) {
    // Wrong implementation number: a tiny error reply, no amplification.
    const auto err = make_mode7_error(Mode7Error::kImplMismatch,
                                      config_.accepted_impl, parsed.request);
    summary.packets.push_back(make_reply(request, serialize(err), now));
    account(summary, summary.packets.back(), 1);
    return summary;
  }
  if (parsed.request == RequestCode::kPeerList) {
    return respond_peer_list(request, now);
  }
  if (parsed.request != RequestCode::kMonGetList1 &&
      parsed.request != RequestCode::kMonGetList) {
    const auto err = make_mode7_error(Mode7Error::kReqUnknown,
                                      config_.accepted_impl, parsed.request);
    summary.packets.push_back(make_reply(request, serialize(err), now));
    account(summary, summary.packets.back(), 1);
    return summary;
  }

  // The final dump's table (all loop observations already recorded above);
  // intermediate dumps differ only in the probe entry's count, not in size,
  // so totals scale exactly. Old ntpd builds answer the legacy request
  // code with the compact 32-byte item layout.
  const auto entries = monitor_.dump(now, config_.address);
  const auto wire_packets =
      parsed.request == RequestCode::kMonGetList
          ? make_legacy_monlist_response(entries, config_.accepted_impl)
          : make_monlist_response(entries, config_.accepted_impl);

  std::vector<net::UdpPacket> one_dump;
  one_dump.reserve(wire_packets.size());
  std::uint64_t dump_udp = 0, dump_wire = 0;
  for (const auto& wp : wire_packets) {
    one_dump.push_back(make_reply(request, serialize(wp), now));
    dump_udp += one_dump.back().payload.size();
    dump_wire += one_dump.back().on_wire_bytes();
  }
  summary.total_packets = dumps * one_dump.size();
  summary.total_udp_payload_bytes = dumps * dump_udp;
  summary.total_on_wire_bytes = dumps * dump_wire;

  // Materialize the *final* dumps up to the cap so reassemble_monlist() sees
  // a faithful last run.
  const std::uint64_t dumps_to_emit =
      one_dump.empty()
          ? 0
          : std::min<std::uint64_t>(dumps,
                                    std::max<std::uint64_t>(
                                        1, materialize_cap / one_dump.size()));
  emit_copies(summary, std::move(one_dump), dumps_to_emit);
  return summary;
}

bool NtpServer::mode7_rate_allows(util::SimTime now) {
  if (config_.mode7_responses_per_minute == 0) return true;
  if (now - rate_window_start_ >= 60) {
    rate_window_start_ = now - (now % 60);
    rate_window_used_ = 0;
  }
  if (rate_window_used_ >= config_.mode7_responses_per_minute) return false;
  ++rate_window_used_;
  return true;
}

ResponseSummary NtpServer::respond_peer_list(const net::UdpPacket& request,
                                             util::SimTime now) {
  ResponseSummary summary;
  const auto wire_packets =
      make_peer_list_response(config_.peers, config_.accepted_impl);
  for (const auto& wp : wire_packets) {
    summary.packets.push_back(make_reply(request, serialize(wp), now));
    account(summary, summary.packets.back(), 1);
  }
  return summary;
}

ResponseSummary NtpServer::respond_readvar(const net::UdpPacket& request,
                                           const ControlPacket& parsed,
                                           util::SimTime now,
                                           std::size_t materialize_cap) {
  const std::uint64_t sends = std::uint64_t{config_.loop_repeat} + 1;
  monitor_.observe_many(request.src, request.src_port,
                        static_cast<std::uint8_t>(Mode::kControl), kNtpVersion,
                        sends, now, now);

  if (!config_.mode6_enabled) return {};
  if (parsed.opcode != ControlOp::kReadVariables) return {};

  // Fragments are cut from the stored text straight onto the wire.
  const std::string_view text = config_.identity.readvar;
  const std::size_t fragments = readvar_fragment_count(text.size());
  std::vector<net::UdpPacket> one_send;
  one_send.reserve(fragments);
  std::uint64_t send_udp = 0, send_wire = 0;
  for (std::size_t i = 0; i < fragments; ++i) {
    one_send.push_back(make_reply(
        request, serialize_readvar_fragment(text, i, parsed.sequence), now));
    send_udp += one_send.back().payload.size();
    send_wire += one_send.back().on_wire_bytes();
  }
  ResponseSummary summary;
  summary.total_packets = sends * one_send.size();
  summary.total_udp_payload_bytes = sends * send_udp;
  summary.total_on_wire_bytes = sends * send_wire;
  const std::uint64_t sends_to_emit =
      one_send.empty()
          ? 0
          : std::min<std::uint64_t>(sends,
                                    std::max<std::uint64_t>(
                                        1, materialize_cap / one_send.size()));
  emit_copies(summary, std::move(one_send), sends_to_emit);
  return summary;
}

}  // namespace gorilla::ntp
