// Amplifier-pool analyses — §3 (population, power, version threat, megas).
//
// AmplifierCensus consumes streamed weekly monlist observations and
// maintains everything §3 reports: per-sample population aggregations
// (IPs, /24s, routed blocks, ASNs — Figure 3 / Table 1), end-host fractions,
// per-sample on-wire BAF boxplots (Figure 4b), the per-amplifier
// bytes-returned rank curve (Figure 4a), churn across samples, and the
// mega-amplifier roster (§3.4). VersionCensus does the same for the mode 6
// version pool (Figure 4c, Table 2, stratum and compile-year census).
#pragma once

#include <array>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "core/stats.h"
#include "net/pbl.h"
#include "net/registry.h"
#include "scan/prober.h"
#include "util/time.h"

namespace gorilla::core {

/// The paper's BAF denominator: a minimal query's 84 on-wire bytes (§3.2).
inline constexpr double kBafDenominatorBytes = 84.0;

/// Response size above which an amplifier counts as "mega" for a sample
/// (§3.4: ~10K amplifiers returned >100KB, double the command's maximum).
inline constexpr std::uint64_t kMegaThresholdBytes = 100'000;

struct AmplifierSampleRow {
  int week = 0;
  util::Date date;
  std::uint64_t ips = 0;
  std::uint64_t slash24s = 0;
  std::uint64_t routed_blocks = 0;
  std::uint64_t asns = 0;
  std::uint64_t end_hosts = 0;
  double end_host_pct = 0.0;
  double ips_per_block = 0.0;
  BoxplotSummary baf;            ///< on-wire BAF distribution (Fig 4b)
  double bytes_median = 0.0;     ///< response wire bytes per amplifier
  double bytes_p95 = 0.0;
  double bytes_max = 0.0;
  std::uint64_t mega_count = 0;  ///< responders over kMegaThresholdBytes
  /// Responders whose monlist arrived damaged (dropped/truncated segments).
  /// Zero on a clean scan; under impairment these rows undercount bytes,
  /// and the census reports rather than hides that.
  std::uint64_t partial_tables = 0;
  std::array<std::uint64_t, net::kContinentCount> by_continent{};
};

class AmplifierCensus {
 public:
  AmplifierCensus(const net::Registry& registry,
                  const net::PolicyBlockList& pbl);

  /// Streaming interface: begin_sample, add() for every observation the
  /// prober visits, end_sample to close the row. add() only appends to the
  /// open sample's vectors; end_sample() sorts and folds them, so the churn
  /// views below (unique_ips() through mega_roster()) cover closed samples
  /// only.
  void begin_sample(int week, util::Date date);
  void add(const scan::AmplifierObservation& obs);
  void end_sample();

  [[nodiscard]] const std::vector<AmplifierSampleRow>& rows() const noexcept {
    return rows_;
  }

  /// Churn statistics across all closed samples (§3.1).
  [[nodiscard]] std::uint64_t unique_ips() const noexcept {
    return per_ip_.size();
  }
  [[nodiscard]] double first_sample_fraction() const;  ///< ~0.60 in the paper
  [[nodiscard]] double seen_once_fraction() const;     ///< ~0.5 in the paper

  /// Figure 4a: average response wire bytes per amplifier across its
  /// samples, sorted descending (rank curve).
  [[nodiscard]] std::vector<double> bytes_rank_curve() const;

  /// Mega roster: amplifier IPs whose response exceeded the threshold in
  /// any sample, with their largest single-sample response.
  [[nodiscard]] std::vector<std::pair<net::Ipv4Address, std::uint64_t>>
  mega_roster() const;

  /// Weeks in [0, expected_weeks) with no closed sample row — passes an
  /// impaired scan lost entirely. Consumers flag these and interpolate or
  /// skip; a clean study returns an empty vector.
  [[nodiscard]] std::vector<int> missing_weeks(int expected_weeks) const;

 private:
  struct PerIp {
    std::uint64_t total_bytes = 0;
    std::uint64_t max_bytes = 0;
    std::uint32_t address = 0;
    std::uint32_t samples_seen = 0;
  };
  /// One observation of the open sample.
  struct Hit {
    std::uint32_t address = 0;
    std::uint64_t wire_bytes = 0;
  };

  /// Folds the open sample's address-sorted hits into per_ip_.
  void merge_per_ip();

  const net::Registry& registry_;
  const net::PolicyBlockList& pbl_;

  std::vector<AmplifierSampleRow> rows_;
  /// Every amplifier address of the closed samples, sorted by address.
  std::vector<PerIp> per_ip_;
  /// Distinct addresses of the first closed sample.
  std::uint64_t first_sample_ips_ = 0;

  // Open-sample state.
  bool sample_open_ = false;
  AmplifierSampleRow current_;
  std::vector<Hit> cur_hits_;
  /// (origin AS << 32 | block index) of each allocated observation.
  std::vector<std::uint64_t> cur_routes_;
  SampleAccumulator cur_baf_;
  SampleAccumulator cur_bytes_;
};

struct VersionSampleRow {
  int week = 0;  ///< version-week (0 = 2014-02-21)
  util::Date date;
  std::uint64_t responders_total = 0;
  std::uint64_t responders_detailed = 0;
  BoxplotSummary baf;  ///< Figure 4c
  double bytes_median = 0.0;
};

class VersionCensus {
 public:
  void begin_sample(int vweek, util::Date date);
  void add(const scan::VersionObservation& obs);
  void end_sample(std::uint64_t responders_total);

  [[nodiscard]] const std::vector<VersionSampleRow>& rows() const noexcept {
    return rows_;
  }

  /// Table 2-style OS ranking over all samples: label -> percent.
  [[nodiscard]] std::vector<std::pair<std::string, double>> os_ranking() const;

  /// §3.3: fraction of responders reporting stratum 16 (unsynchronized).
  [[nodiscard]] double stratum16_fraction() const;

  /// §3.3: cumulative fraction of version strings compiled before `year`.
  [[nodiscard]] double compiled_before_fraction(int year) const;

 private:
  std::vector<VersionSampleRow> rows_;
  bool sample_open_ = false;
  VersionSampleRow current_;
  SampleAccumulator cur_baf_;
  SampleAccumulator cur_bytes_;
  std::map<std::string, std::uint64_t> os_counts_;
  std::uint64_t stratum16_ = 0;
  std::uint64_t responders_seen_ = 0;
  std::map<int, std::uint64_t> compile_years_;
  std::uint64_t compile_year_samples_ = 0;
};

}  // namespace gorilla::core
