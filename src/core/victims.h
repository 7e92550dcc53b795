// Victimology — §4 (who is attacked, where, on which ports, how hard).
//
// VictimAnalysis streams the same weekly amplifier observations as the
// census, applies the §4.2 client filter to every monlist table entry, and
// maintains the paper's victim-side results: per-sample victim populations
// (Table 1 right), attacked-port tallies (Table 4), per-AS packet
// concentration (Figure 5), per-victim packet totals (Figure 6), derived
// attack counts per hour (Figure 7), and the §6.3 remediation-effect
// trends (amplifiers per victim, packets per amplifier).
#pragma once

#include <cstdint>
#include <map>
#include <unordered_map>
#include <vector>

#include "core/monlist_analysis.h"
#include "core/stats.h"
#include "net/pbl.h"
#include "net/registry.h"
#include "scan/prober.h"
#include "util/time.h"

namespace gorilla::core {

struct VictimSampleRow {
  int week = 0;
  util::Date date;
  std::uint64_t ips = 0;
  std::uint64_t routed_blocks = 0;
  std::uint64_t asns = 0;
  std::uint64_t end_hosts = 0;
  double end_host_pct = 0.0;
  double ips_per_block = 0.0;
  /// Per-victim total packets received this sample (Figure 6).
  double packets_mean = 0.0;
  double packets_median = 0.0;
  double packets_p95 = 0.0;
  /// Mean number of amplifiers witnessed attacking each victim (§6.3).
  double amplifiers_per_victim = 0.0;
  /// Median over amplifiers of the table's largest last-seen (the §4.2
  /// observation-window estimate; the paper's overall median is ~44 h).
  double median_window_seconds = 0.0;
  /// Victim/scanner interest in version (mode 6) vs monlist (mode 7), §3.3.
  double scanner_mode6_share = 0.0;
  double victim_mode6_share = 0.0;
};

class VictimAnalysis {
 public:
  VictimAnalysis(const net::Registry& registry,
                 const net::PolicyBlockList& pbl);

  /// add() appends each witnessed attack to the open sample's flat vector;
  /// end_sample() sorts it once by (victim, start) and folds each victim's
  /// run. So unique_victims() and the per-AS packet totals below are
  /// complete only after end_sample(): read them between samples.
  void begin_sample(int week, util::Date date);
  void add(const scan::AmplifierObservation& obs);
  void end_sample();

  [[nodiscard]] const std::vector<VictimSampleRow>& rows() const noexcept {
    return rows_;
  }

  /// Cumulative unique victim IPs (the paper's 437K).
  [[nodiscard]] std::uint64_t unique_victims() const noexcept {
    return victim_ever_.size();
  }
  /// Cumulative victim packets across all samples (the paper's 2.92T).
  [[nodiscard]] std::uint64_t total_packets() const noexcept {
    return total_packets_;
  }

  /// Table 4: attacked ports ranked by amplifier/victim-pair fraction.
  [[nodiscard]] std::vector<std::pair<std::uint16_t, double>> top_ports(
      std::size_t n) const;

  /// Figure 5 inputs: per-AS cumulative victim packets, for victim-side and
  /// amplifier-side attribution. Values are unsorted contribution lists.
  [[nodiscard]] std::vector<double> victim_as_packets() const;
  [[nodiscard]] std::vector<double> amplifier_as_packets() const;
  [[nodiscard]] std::size_t victim_as_count() const noexcept {
    return packets_by_victim_as_.size();
  }
  [[nodiscard]] std::size_t amplifier_as_count() const noexcept {
    return packets_by_amplifier_as_.size();
  }

  /// Top victim ASes by cumulative packets (for §4.4 validation).
  [[nodiscard]] std::vector<std::pair<net::Asn, std::uint64_t>> top_victim_ases(
      std::size_t n) const;

  /// Full per-AS amplifier-side packet breakdown (unordered).
  [[nodiscard]] std::vector<std::pair<net::Asn, std::uint64_t>>
  amplifier_as_breakdown() const;

  /// Figure 7: derived attacks per hour (hour index since sim epoch).
  [[nodiscard]] const std::map<std::int64_t, std::uint64_t>& attacks_per_hour()
      const noexcept {
    return attacks_per_hour_;
  }

  /// Attack duration quantiles for samples closed so far (§4.3.4), seconds.
  [[nodiscard]] const std::vector<std::pair<double, double>>&
  duration_median_p95_by_sample() const noexcept {
    return durations_;
  }

 private:
  /// One attack of the open sample, as one amplifier's table witnessed it.
  struct Hit {
    std::uint32_t victim = 0;
    std::uint64_t packets = 0;
    util::SimTime start = 0;
  };

  const net::Registry& registry_;
  const net::PolicyBlockList& pbl_;

  std::vector<VictimSampleRow> rows_;
  /// Every victim address of the closed samples, sorted.
  std::vector<std::uint32_t> victim_ever_;
  std::uint64_t total_packets_ = 0;
  /// Amplifier/victim pairs by attacked port, indexed by port number.
  std::vector<std::uint64_t> port_pairs_;
  std::uint64_t port_pairs_total_ = 0;
  std::unordered_map<net::Asn, std::uint64_t> packets_by_victim_as_;
  std::unordered_map<net::Asn, std::uint64_t> packets_by_amplifier_as_;
  std::map<std::int64_t, std::uint64_t> attacks_per_hour_;
  std::vector<std::pair<double, double>> durations_;

  // Open-sample state.
  bool sample_open_ = false;
  VictimSampleRow current_;
  std::vector<Hit> cur_hits_;
  SampleAccumulator cur_windows_;
  SampleAccumulator cur_durations_;
  std::uint64_t cur_scanner_mode6_ = 0, cur_scanner_total_ = 0;
  std::uint64_t cur_victim_mode6_ = 0, cur_victim_total_ = 0;
};

}  // namespace gorilla::core
