// A buffered segment of the typed event stream, for day-sharded producers.
//
// A day shard runs produce() on a worker thread (DESIGN.md §3d), where it
// must not touch the shared bus; instead it records its typed emissions
// here — in emission order, via a tag tape like the Recorder's — and the
// calling thread replays them into the real sink during the ordered
// consume. The buffer mirrors the downstream sink's wants_*() capability
// bits so producers skip exactly the RNG draws they would have skipped
// when emitting directly (stream fidelity, §3d layer 2).
//
// Only the traffic-generation events (global bytes, labels, flows, darknet
// scans) are buffered: day shards never emit the weekly probe bracket,
// which stays on the calling thread.
#pragma once

#include <cstdint>
#include <vector>

#include "study/events.h"
#include "util/mem_stats.h"

namespace gorilla::study {

class EventBuffer final : public EventSink {
 public:
  EventBuffer() = default;
  EventBuffer(bool wants_flows, bool wants_labels)
      : wants_flows_(wants_flows), wants_labels_(wants_labels) {}

  [[nodiscard]] bool wants_flows() const override { return wants_flows_; }
  [[nodiscard]] bool wants_labels() const override { return wants_labels_; }

  void on_global_bytes(int day, telemetry::ProtocolClass p,
                       double bytes) override {
    tape_.push_back(kGlobalBytes);
    global_.push_back(GlobalBytes{day, p, bytes});
  }
  void on_attack_label(const telemetry::LabeledAttack& label) override {
    tape_.push_back(kAttackLabel);
    labels_.push_back(label);
  }
  void on_flow(const telemetry::FlowRecord& flow, int vantage) override {
    tape_.push_back(kFlow);
    flows_.push_back(Flow{flow, vantage});
  }
  void on_darknet_scan(net::Ipv4Address scanner, int day,
                       std::uint64_t packets, bool benign) override {
    tape_.push_back(kDarknetScan);
    darknet_.push_back(DarknetScan{scanner, day, packets, benign});
  }

  /// Re-emits every buffered event into `sink`, preserving total order.
  /// Replay is the natural batch boundary, so the buffer reports its
  /// footprint into the "study.event_buffer" gauge here (the gauge tracks
  /// the largest single shard buffer, which is what bounds a worker).
  void replay_into(EventSink& sink) const {
    static auto& gauge =
        util::MemStats::instance().counter("study.event_buffer");
    gauge.observe(footprint_bytes());
    std::size_t gi = 0, li = 0, fi = 0, di = 0;
    for (const auto tag : tape_) {
      switch (tag) {
        case kGlobalBytes: {
          const auto& e = global_[gi++];
          sink.on_global_bytes(e.day, e.protocol, e.bytes);
          break;
        }
        case kAttackLabel:
          sink.on_attack_label(labels_[li++]);
          break;
        case kFlow: {
          const auto& e = flows_[fi++];
          sink.on_flow(e.flow, e.vantage);
          break;
        }
        case kDarknetScan:
        default: {
          const auto& e = darknet_[di++];
          sink.on_darknet_scan(e.scanner, e.day, e.packets, e.benign);
          break;
        }
      }
    }
  }

  [[nodiscard]] std::size_t size() const noexcept { return tape_.size(); }
  [[nodiscard]] bool empty() const noexcept { return tape_.empty(); }

  /// Bytes of buffered-event storage (capacities, not sizes — what the
  /// allocator actually holds).
  [[nodiscard]] std::size_t footprint_bytes() const noexcept {
    return tape_.capacity() * sizeof(std::uint8_t) +
           global_.capacity() * sizeof(GlobalBytes) +
           labels_.capacity() * sizeof(telemetry::LabeledAttack) +
           flows_.capacity() * sizeof(Flow) +
           darknet_.capacity() * sizeof(DarknetScan);
  }

 private:
  enum Tag : std::uint8_t { kGlobalBytes, kAttackLabel, kFlow, kDarknetScan };

  struct GlobalBytes {
    int day;
    telemetry::ProtocolClass protocol;
    double bytes;
  };
  struct Flow {
    telemetry::FlowRecord flow;
    int vantage;
  };
  struct DarknetScan {
    net::Ipv4Address scanner;
    int day;
    std::uint64_t packets;
    bool benign;
  };

  bool wants_flows_ = false;
  bool wants_labels_ = false;
  std::vector<std::uint8_t> tape_;
  std::vector<GlobalBytes> global_;
  std::vector<telemetry::LabeledAttack> labels_;
  std::vector<Flow> flows_;
  std::vector<DarknetScan> darknet_;
};

}  // namespace gorilla::study
