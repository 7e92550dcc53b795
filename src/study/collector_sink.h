// Routes bus events back into the telemetry collectors — the bridge that
// makes the event-stream engine produce the exact collector state the
// pre-bus engine produced by calling collectors directly.
//
// Header-only on purpose: sim::ScanTraffic's collector-pointer run_day()
// wraps its collectors in one, and sim cannot link the gorilla_study
// library. Null members are simply skipped.
#pragma once

#include <cstddef>
#include <vector>

#include "study/events.h"
// The bridge's whole job is routing events into the telemetry collectors,
// and it is header-only (see above) — the upward includes are its contract.
#include "telemetry/darknet.h"  // NOLINT(layer-break)
#include "telemetry/flow.h"     // NOLINT(layer-break)
#include "telemetry/traffic.h"  // NOLINT(layer-break)

namespace gorilla::study {

struct CollectorSink final : EventSink {
  telemetry::GlobalTrafficCollector* global = nullptr;
  telemetry::AttackLabelStore* labels = nullptr;
  std::vector<telemetry::FlowCollector*> vantages;
  telemetry::DarknetTelescope* darknet = nullptr;

  [[nodiscard]] bool wants_flows() const override { return !vantages.empty(); }
  [[nodiscard]] bool wants_labels() const override {
    return labels != nullptr;
  }

  void on_global_bytes(int day, telemetry::ProtocolClass p,
                       double bytes) override {
    if (global != nullptr) global->add_bytes(day, p, bytes);
  }

  void on_attack_label(const telemetry::LabeledAttack& label) override {
    if (labels != nullptr) labels->add(label);
  }

  void on_flow(const telemetry::FlowRecord& flow, int vantage) override {
    if (vantage == kAllVantages) {
      for (auto* v : vantages) v->add(flow);
    } else if (vantage >= 0 &&
               static_cast<std::size_t>(vantage) < vantages.size()) {
      vantages[static_cast<std::size_t>(vantage)]->add(flow);
    }
  }

  void on_darknet_scan(net::Ipv4Address scanner, int day,
                       std::uint64_t packets, bool benign) override {
    if (darknet != nullptr) darknet->observe_scan(scanner, day, packets, benign);
  }
};

}  // namespace gorilla::study
