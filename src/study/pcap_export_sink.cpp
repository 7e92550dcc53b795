#include "study/pcap_export_sink.h"

#include "scan/prober.h"

namespace gorilla::study {

PcapExportSink::PcapExportSink(std::ostream& out,
                               const PcapExportSinkConfig& config)
    : out_(out),
      writer_(out),
      config_(config),
      windows_(config.windows),
      auto_windows_(config.windows.empty()) {}

void PcapExportSink::on_attack_label(const telemetry::LabeledAttack& label) {
  if (!auto_windows_) return;
  if (label.vector != telemetry::AttackVector::kNtp) return;
  if (label.peak_bps < config_.auto_min_peak_bps) return;
  windows_.push_back({label.start - config_.auto_pad_seconds,
                      label.start + config_.auto_pad_seconds});
}

bool PcapExportSink::in_window(util::SimTime start, util::SimTime end) const {
  for (const auto& w : windows_) {
    if (start < w.end && end >= w.start) return true;
  }
  return false;
}

void PcapExportSink::on_probe_observation(
    int /*week*/, const scan::AmplifierObservation& obs) {
  if (windows_.empty()) return;
  // The full chained response is identical for every victim in this table;
  // serialize it once, lazily, only if some entry actually matches.
  std::vector<std::vector<std::uint8_t>> response_datagrams;
  for (const auto& entry : obs.table) {
    const auto witnessed =
        core::derive_attack(entry, obs.probe_time, obs.address);
    if (!witnessed) continue;
    if (!in_window(witnessed->start_time, witnessed->end_time)) continue;
    if (exchanges_ >= config_.max_exchanges) {
      ++skipped_;
      continue;
    }
    if (response_datagrams.empty()) {
      const std::uint64_t n = ntp::monlist_dump_packets(obs.table.size());
      response_datagrams.reserve(n);
      for (std::size_t k = 0; k < n; ++k) {
        response_datagrams.push_back(
            ntp::serialize_monlist_packet(obs.table, k, config_.impl));
      }
    }
    const std::uint16_t victim_port =
        witnessed->victim_port != 0 ? witnessed->victim_port : net::kNtpPort;
    net::UdpPacket req;
    req.src = witnessed->victim;
    req.src_port = victim_port;
    req.dst = obs.address;
    req.dst_port = net::kNtpPort;
    req.timestamp = witnessed->start_time;
    req.payload = ntp::serialize(ntp::make_monlist_request(config_.impl));
    writer_.write(req);
    for (const auto& datagram : response_datagrams) {
      net::UdpPacket resp;
      resp.src = obs.address;
      resp.src_port = net::kNtpPort;
      resp.dst = witnessed->victim;
      resp.dst_port = victim_port;
      resp.timestamp = witnessed->start_time;
      resp.payload = datagram;
      writer_.write(resp);
    }
    ++exchanges_;
  }
}

}  // namespace gorilla::study
