// Tracing for the benchmark driver, taken from outside the program: spans
// around the calls the driver makes into each layer, and forwarding sinks
// that time and count every bus call a subscriber receives.
//
// Everything is kept in memory and written as JSON when the driver ends.
// With tracing off, spans cost nothing and subscribers are not wrapped, so
// the end-to-end numbers are taken on the plain pipeline.
#pragma once

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "scan/prober.h"
#include "study/events.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_between(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double>(to - from).count();
}

/// Spans (name, start, end, parent) on one thread. Sink time reported by a
/// TimedSink is charged to the innermost open span, so a span's self time
/// is its duration minus its child spans minus the sink calls made inside
/// it (the subscribers' work, which belongs to other layers).
class Trace {
 public:
  struct Span {
    std::string name;
    double start = 0.0;  ///< seconds since the trace began
    double end = 0.0;
    int parent = -1;
    double children_s = 0.0;  ///< summed duration of direct child spans
    double sink_s = 0.0;      ///< sink calls made while this span was innermost
    [[nodiscard]] double duration() const { return end - start; }
    [[nodiscard]] double self() const { return duration() - children_s - sink_s; }
  };

  /// Ends its span when it goes out of scope.
  class Scope {
   public:
    Scope(Trace* trace, int id) : trace_(trace), id_(id) {}
    ~Scope() {
      if (trace_ != nullptr) trace_->end(id_);
    }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Trace* trace_;
    int id_;
  };

  explicit Trace(Clock::time_point epoch) : epoch_(epoch) {}

  [[nodiscard]] bool enabled() const noexcept { return enabled_; }
  void set_enabled(bool on) noexcept { enabled_ = on; }

  /// Opens a span under the innermost open one; a no-op when disabled.
  [[nodiscard]] Scope span(const char* name) {
    if (!enabled_) return Scope(nullptr, -1);
    Span s;
    s.name = name;
    s.start = now();
    s.parent = open_.empty() ? -1 : open_.back();
    spans_.push_back(std::move(s));
    open_.push_back(static_cast<int>(spans_.size()) - 1);
    return Scope(this, open_.back());
  }

  void charge_sink(double seconds) noexcept {
    if (!open_.empty()) spans_[static_cast<std::size_t>(open_.back())].sink_s += seconds;
  }

  /// Summed duration (or self time) of the spans named `name`.
  [[nodiscard]] double total(const std::string& name, bool self_time) const {
    double sum = 0.0;
    for (const auto& s : spans_) {
      if (s.name == name) sum += self_time ? s.self() : s.duration();
    }
    return sum;
  }

  void write_json(std::FILE* out) const;

 private:
  [[nodiscard]] double now() const { return seconds_between(epoch_, Clock::now()); }

  void end(int id) {
    Span& s = spans_[static_cast<std::size_t>(id)];
    s.end = now();
    open_.pop_back();
    if (s.parent >= 0) spans_[static_cast<std::size_t>(s.parent)].children_s += s.duration();
  }

  Clock::time_point epoch_;
  bool enabled_ = false;
  std::vector<Span> spans_;
  std::vector<int> open_;
};

/// Forwards every event to `inner`, timing and counting each call and
/// charging the time to the innermost open span. Capabilities are forwarded
/// unchanged, so wrapping a subscriber never changes the event stream.
/// Bus dispatch happens on the calling thread only (day shards and probe
/// chunks merge there), so the plain counters need no synchronisation.
class TimedSink final : public gorilla::study::EventSink {
 public:
  TimedSink(gorilla::study::EventSink& inner, Trace& trace)
      : inner_(inner), trace_(trace) {}

  [[nodiscard]] bool wants_flows() const override { return inner_.wants_flows(); }
  [[nodiscard]] bool wants_labels() const override { return inner_.wants_labels(); }

  void on_global_bytes(int day, gorilla::telemetry::ProtocolClass p,
                       double bytes) override {
    const auto t0 = Clock::now();
    inner_.on_global_bytes(day, p, bytes);
    done(t0);
  }
  void on_attack_label(const gorilla::telemetry::LabeledAttack& label) override {
    const auto t0 = Clock::now();
    inner_.on_attack_label(label);
    done(t0);
  }
  void on_flow(const gorilla::telemetry::FlowRecord& flow, int vantage) override {
    const auto t0 = Clock::now();
    inner_.on_flow(flow, vantage);
    done(t0);
  }
  void on_darknet_scan(gorilla::net::Ipv4Address scanner, int day,
                       std::uint64_t packets, bool benign) override {
    const auto t0 = Clock::now();
    inner_.on_darknet_scan(scanner, day, packets, benign);
    done(t0);
  }
  void on_sample_begin(int week, const gorilla::util::Date& date) override {
    const auto t0 = Clock::now();
    inner_.on_sample_begin(week, date);
    done(t0);
  }
  void on_probe_observation(int week,
                            const gorilla::scan::AmplifierObservation& obs) override {
    const auto t0 = Clock::now();
    inner_.on_probe_observation(week, obs);
    done(t0);
  }
  void on_monlist_summary(const gorilla::scan::MonlistSampleSummary& summary) override {
    const auto t0 = Clock::now();
    inner_.on_monlist_summary(summary);
    done(t0);
  }
  void on_sample_end(int week) override {
    const auto t0 = Clock::now();
    inner_.on_sample_end(week);
    done(t0);
  }

  double seconds = 0.0;
  std::uint64_t calls = 0;

 private:
  void done(Clock::time_point t0) {
    const double dt = seconds_between(t0, Clock::now());
    seconds += dt;
    ++calls;
    trace_.charge_sink(dt);
  }

  gorilla::study::EventSink& inner_;
  Trace& trace_;
};

/// Counts the events on the bus by type. It elects no capability, so
/// subscribing it never changes what the producers emit.
struct EventCounter final : gorilla::study::EventSink {
  std::uint64_t events = 0, flows = 0, labels = 0, observations = 0,
                entries = 0;

  void on_global_bytes(int, gorilla::telemetry::ProtocolClass, double) override {
    ++events;
  }
  void on_attack_label(const gorilla::telemetry::LabeledAttack&) override {
    ++events;
    ++labels;
  }
  void on_flow(const gorilla::telemetry::FlowRecord&, int) override {
    ++events;
    ++flows;
  }
  void on_darknet_scan(gorilla::net::Ipv4Address, int, std::uint64_t, bool) override {
    ++events;
  }
  void on_sample_begin(int, const gorilla::util::Date&) override { ++events; }
  void on_probe_observation(int, const gorilla::scan::AmplifierObservation& obs) override {
    ++events;
    ++observations;
    entries += obs.table.size();
  }
  void on_monlist_summary(const gorilla::scan::MonlistSampleSummary&) override {
    ++events;
  }
  void on_sample_end(int) override { ++events; }
};

}  // namespace perfbench
