#include "core/amplifiers.h"

#include <algorithm>
#include <stdexcept>

#include "ntp/sysinfo.h"

namespace gorilla::core {

AmplifierCensus::AmplifierCensus(const net::Registry& registry,
                                 const net::PolicyBlockList& pbl)
    : registry_(registry), pbl_(pbl) {}

void AmplifierCensus::begin_sample(int week, util::Date date) {
  if (sample_open_)
    throw std::logic_error("AmplifierCensus: sample already open");
  sample_open_ = true;
  current_ = AmplifierSampleRow{};
  current_.week = week;
  current_.date = date;
  cur_hits_.clear();
  cur_routes_.clear();
  cur_baf_.clear();
  cur_bytes_.clear();
}

void AmplifierCensus::add(const scan::AmplifierObservation& obs) {
  if (!sample_open_)
    throw std::logic_error("AmplifierCensus: no open sample");
  ++current_.ips;
  cur_hits_.push_back(Hit{obs.address.value(), obs.response_wire_bytes});
  if (const auto where = registry_.attribute(obs.address)) {
    cur_routes_.push_back(std::uint64_t{where->asn} << 32 | where->block_index);
    ++current_.by_continent[static_cast<std::size_t>(where->continent)];
  }
  if (pbl_.is_end_host(obs.address)) ++current_.end_hosts;

  const double bytes = static_cast<double>(obs.response_wire_bytes);
  cur_bytes_.add(bytes);
  cur_baf_.add(bytes / kBafDenominatorBytes);
  if (obs.response_wire_bytes > kMegaThresholdBytes) ++current_.mega_count;
  if (obs.table_partial) ++current_.partial_tables;
}

void AmplifierCensus::end_sample() {
  if (!sample_open_)
    throw std::logic_error("AmplifierCensus: no open sample");
  std::sort(cur_hits_.begin(), cur_hits_.end(),
            [](const Hit& a, const Hit& b) { return a.address < b.address; });
  std::uint64_t slash24s = 0;
  for (std::size_t i = 0; i < cur_hits_.size(); ++i) {
    if (i == 0 ||
        cur_hits_[i].address >> 8 != cur_hits_[i - 1].address >> 8) {
      ++slash24s;
    }
  }
  current_.slash24s = slash24s;
  const auto routes = distinct_routes(cur_routes_);
  current_.routed_blocks = routes.blocks;
  current_.asns = routes.asns;
  merge_per_ip();
  current_.end_host_pct =
      current_.ips ? 100.0 * static_cast<double>(current_.end_hosts) /
                         static_cast<double>(current_.ips)
                   : 0.0;
  current_.ips_per_block =
      current_.routed_blocks
          ? static_cast<double>(current_.ips) /
                static_cast<double>(current_.routed_blocks)
          : 0.0;
  current_.baf = cur_baf_.boxplot();
  current_.bytes_median = cur_bytes_.quantile(0.5);
  current_.bytes_p95 = cur_bytes_.quantile(0.95);
  current_.bytes_max = cur_bytes_.quantile(1.0);
  rows_.push_back(current_);
  sample_open_ = false;
}

void AmplifierCensus::merge_per_ip() {
  // Both sides are address-sorted: fold each of the sample's address runs
  // into its closed record in place, collect first sightings, then merge
  // those in from the back.
  std::vector<PerIp> fresh;
  std::size_t closed = 0;
  for (std::size_t i = 0; i < cur_hits_.size();) {
    PerIp run;
    run.address = cur_hits_[i].address;
    for (; i < cur_hits_.size() && cur_hits_[i].address == run.address; ++i) {
      run.total_bytes += cur_hits_[i].wire_bytes;
      run.max_bytes = std::max(run.max_bytes, cur_hits_[i].wire_bytes);
      ++run.samples_seen;
    }
    while (closed < per_ip_.size() && per_ip_[closed].address < run.address) {
      ++closed;
    }
    if (closed < per_ip_.size() && per_ip_[closed].address == run.address) {
      PerIp& into = per_ip_[closed];
      into.total_bytes += run.total_bytes;
      into.max_bytes = std::max(into.max_bytes, run.max_bytes);
      into.samples_seen += run.samples_seen;
    } else {
      fresh.push_back(run);
    }
  }
  // Every address of the first sample is a first sighting.
  if (rows_.empty()) first_sample_ips_ = fresh.size();
  std::size_t old = per_ip_.size();
  std::size_t add = fresh.size();
  per_ip_.resize(old + add);
  for (std::size_t out = old + add; add > 0;) {
    if (old > 0 && per_ip_[old - 1].address > fresh[add - 1].address) {
      per_ip_[--out] = per_ip_[--old];
    } else {
      per_ip_[--out] = fresh[--add];
    }
  }
}

double AmplifierCensus::first_sample_fraction() const {
  if (per_ip_.empty()) return 0.0;
  return static_cast<double>(first_sample_ips_) /
         static_cast<double>(per_ip_.size());
}

double AmplifierCensus::seen_once_fraction() const {
  if (per_ip_.empty()) return 0.0;
  const auto once = std::count_if(
      per_ip_.begin(), per_ip_.end(),
      [](const PerIp& info) { return info.samples_seen == 1; });
  return static_cast<double>(once) / static_cast<double>(per_ip_.size());
}

std::vector<double> AmplifierCensus::bytes_rank_curve() const {
  std::vector<double> curve;
  curve.reserve(per_ip_.size());
  for (const auto& info : per_ip_) {
    curve.push_back(static_cast<double>(info.total_bytes) /
                    static_cast<double>(info.samples_seen));
  }
  std::sort(curve.begin(), curve.end(), std::greater<>());
  return curve;
}

std::vector<std::pair<net::Ipv4Address, std::uint64_t>>
AmplifierCensus::mega_roster() const {
  // Address-sorted roster + stable_sort = rank by peak response size with
  // the address as deterministic tie-break.
  std::vector<std::pair<net::Ipv4Address, std::uint64_t>> roster;
  for (const auto& info : per_ip_) {
    if (info.max_bytes > kMegaThresholdBytes) {
      roster.emplace_back(net::Ipv4Address{info.address}, info.max_bytes);
    }
  }
  std::stable_sort(
      roster.begin(), roster.end(),
      [](const auto& a, const auto& b) { return a.second > b.second; });
  return roster;
}

std::vector<int> AmplifierCensus::missing_weeks(int expected_weeks) const {
  std::vector<int> missing;
  for (int w = 0; w < expected_weeks; ++w) {
    const bool present =
        std::any_of(rows_.begin(), rows_.end(),
                    [w](const AmplifierSampleRow& r) { return r.week == w; });
    if (!present) missing.push_back(w);
  }
  return missing;
}

void VersionCensus::begin_sample(int vweek, util::Date date) {
  if (sample_open_)
    throw std::logic_error("VersionCensus: sample already open");
  sample_open_ = true;
  current_ = VersionSampleRow{};
  current_.week = vweek;
  current_.date = date;
  cur_baf_.clear();
  cur_bytes_.clear();
}

void VersionCensus::add(const scan::VersionObservation& obs) {
  if (!sample_open_)
    throw std::logic_error("VersionCensus: no open sample");
  ++current_.responders_detailed;
  ++responders_seen_;
  const double bytes = static_cast<double>(obs.response_wire_bytes);
  cur_bytes_.add(bytes);
  cur_baf_.add(bytes / kBafDenominatorBytes);
  ++os_counts_[ntp::normalize_os_label(obs.system)];
  if (obs.stratum == ntp::kStratumUnsynchronized) ++stratum16_;
  if (const int year = ntp::extract_compile_year(obs.version); year > 0) {
    ++compile_years_[year];
    ++compile_year_samples_;
  }
}

void VersionCensus::end_sample(std::uint64_t responders_total) {
  if (!sample_open_)
    throw std::logic_error("VersionCensus: no open sample");
  current_.responders_total = responders_total;
  current_.baf = cur_baf_.boxplot();
  current_.bytes_median = cur_bytes_.quantile(0.5);
  rows_.push_back(current_);
  sample_open_ = false;
}

std::vector<std::pair<std::string, double>> VersionCensus::os_ranking() const {
  std::uint64_t total = 0;
  for (const auto& [_, n] : os_counts_) total += n;
  std::vector<std::pair<std::string, double>> ranking;
  for (const auto& [label, n] : os_counts_) {
    ranking.emplace_back(label, total ? 100.0 * static_cast<double>(n) /
                                            static_cast<double>(total)
                                      : 0.0);
  }
  std::sort(ranking.begin(), ranking.end(),
            [](const auto& a, const auto& b) { return a.second > b.second; });
  return ranking;
}

double VersionCensus::stratum16_fraction() const {
  return responders_seen_ ? static_cast<double>(stratum16_) /
                                static_cast<double>(responders_seen_)
                          : 0.0;
}

double VersionCensus::compiled_before_fraction(int year) const {
  if (compile_year_samples_ == 0) return 0.0;
  std::uint64_t before = 0;
  for (const auto& [y, n] : compile_years_) {
    if (y < year) before += n;
  }
  return static_cast<double>(before) /
         static_cast<double>(compile_year_samples_);
}

}  // namespace gorilla::core
