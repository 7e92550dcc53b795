#include "sim/world.h"

#include <algorithm>
#include <cmath>

#include "ntp/sysinfo.h"
#include "sim/remediation.h"
#include "util/mem_stats.h"

namespace gorilla::sim {

namespace {

constexpr std::uint64_t kSaltAvailability = 0xa11;
constexpr std::uint64_t kSaltRehomeRoll = 0xd4c9;
constexpr std::uint64_t kSaltRehomeAddr = 0xadd6;

std::uint64_t mix64(std::uint64_t x) noexcept {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

std::uint8_t initial_ttl_for_system(const std::string& system) noexcept {
  if (system == "cisco") return 255;
  if (system == "windows" || system == "cygwin") return 128;
  return 64;
}

}  // namespace

namespace {

net::RegistryConfig scaled_registry_config(const WorldConfig& config) {
  net::RegistryConfig reg = config.registry;
  const net::RegistryConfig defaults;
  if (config.auto_scale_registry && reg.num_ases == defaults.num_ases &&
      config.scale > 1) {
    reg.num_ases = std::max<std::uint32_t>(
        500, static_cast<std::uint32_t>(
                 static_cast<double>(reg.num_ases) /
                 std::sqrt(static_cast<double>(config.scale))));
  }
  if (reg.seed == util::Rng::kDefaultSeed) reg.seed = config.seed;
  return reg;
}

}  // namespace

World::World(const WorldConfig& config)
    : config_(config),
      registry_(scaled_registry_config(config)),
      pbl_(registry_),
      monitor_arena_(&util::MemStats::instance().counter("ntp.monitor"),
                     util::Arena::kDefaultBlockBytes,
                     &util::MemStats::instance().counter("ntp.monitor.live")) {
  util::Rng rng(config_.seed ^ 0x3017ULL);
  build_population(rng);
  assign_detail_tier(rng);
}

void World::build_population(util::Rng& rng) {
  const std::uint64_t scale = std::max<std::uint32_t>(1, config_.scale);
  // Visible pool target is config_.ever_amplifiers; servers answering only
  // the other implementation number ride on top (invisible to the scan).
  const std::uint64_t n_amp = static_cast<std::uint64_t>(
      std::llround(static_cast<double>(config_.ever_amplifiers / scale) /
                   (1.0 - config_.other_impl_fraction)));
  const std::uint64_t n_total =
      std::max(config_.total_ntp_servers / scale, n_amp + 1);

  traits_.reserve(n_total);

  // Partition registry blocks once for placement draws.
  std::vector<std::uint32_t> residential_blocks;
  std::vector<std::uint32_t> infra_blocks;
  const auto& blocks = registry_.blocks();
  for (std::uint32_t i = 0; i < blocks.size(); ++i) {
    (blocks[i].residential ? residential_blocks : infra_blocks).push_back(i);
  }

  auto block_hazard = [&](std::uint32_t block_index) {
    const auto& as_info = registry_.as_info(blocks[block_index].asn);
    return continent_hazard(as_info.continent);
  };

  auto add_amplifier = [&](net::Ipv4Address addr, bool end_host, double u,
                           double hazard) {
    ServerTraits t;
    t.home_address = addr;
    t.ever_amplifier = true;
    t.end_host = end_host;
    t.dhcp_churn = end_host;
    t.other_impl = rng.chance(config_.other_impl_fraction);
    t.mode6_responder = rng.chance(0.55);
    int fix = -1;
    if (config_.remediation_speed > 0.0) {
      fix = sample_monlist_fix_week(hazard * config_.remediation_speed, u);
      if (fix < 0) {
        // Survivors of the study window keep getting fixed slowly (§3.4's
        // April-June follow-up saw the remnant shrink ~13%/week).
        fix = sample_post_study_fix_week(rng.uniform01());
      }
    }
    t.monlist_fix_week = static_cast<std::int16_t>(fix);
    if (t.mode6_responder) {
      t.version_fix_week = static_cast<std::int16_t>(
          sample_version_fix_week(1.0, rng.uniform01(), 40));
    }
    amplifier_indices_.push_back(static_cast<std::uint32_t>(traits_.size()));
    traits_.push_back(t);
  };

  // --- Amplifier pool: farms (co-addressed, co-managed) and solo hosts. ---
  const double solo_end_host_p =
      std::min(1.0, config_.amplifier_end_host_fraction /
                        std::max(1e-9, 1.0 - config_.farm_fraction));
  // farm_fraction is the fraction of *amplifiers* living in farms, so track
  // a farm quota rather than flipping a coin per placement (farms place
  // ~mean_farm_size hosts at once).
  const auto farm_quota = static_cast<std::uint64_t>(
      static_cast<double>(n_amp) * config_.farm_fraction);
  std::uint64_t farm_placed = 0;
  std::uint64_t placed = 0;
  while (placed < n_amp) {
    if (farm_placed < farm_quota && !infra_blocks.empty()) {
      // A managed farm: geometric size, consecutive addresses, one shared
      // remediation draw (the whole farm is patched together).
      const std::uint32_t bi =
          infra_blocks[rng.uniform(infra_blocks.size())];
      const auto& prefix = blocks[bi].prefix;
      std::uint64_t size =
          1 + rng.poisson(config_.mean_farm_size - 1.0);
      size = std::min<std::uint64_t>({size, n_amp - placed, prefix.size()});
      const std::uint64_t start = rng.uniform(prefix.size() - size + 1);
      const double shared_u = rng.uniform01();
      const double hazard =
          block_hazard(bi) * host_type_hazard(/*end_host=*/false);
      for (std::uint64_t k = 0; k < size; ++k) {
        add_amplifier(prefix.at(start + k), /*end_host=*/false, shared_u,
                      hazard);
      }
      placed += size;
      farm_placed += size;
    } else {
      const bool end_host = rng.chance(solo_end_host_p);
      const auto& pool = end_host && !residential_blocks.empty()
                             ? residential_blocks
                             : infra_blocks;
      const std::uint32_t bi = pool[rng.uniform(pool.size())];
      const auto& prefix = blocks[bi].prefix;
      const double hazard = block_hazard(bi) * host_type_hazard(end_host);
      add_amplifier(prefix.at(rng.uniform(prefix.size())), end_host,
                    rng.uniform01(), hazard);
      ++placed;
    }
  }

  // --- Regional cast for the §7 local views: amplifiers force-placed in
  // Merit, CSU, and FRGP space with the remediation timelines the paper
  // reports (CSU patched within a day on Jan 24 = week 2; Merit tracked
  // tickets over weeks; parts of FRGP lagged or never fixed). ---
  const auto& named = registry_.named();
  auto place_regional = [&](const net::Prefix& space, std::uint32_t count,
                            std::vector<std::uint32_t>& out,
                            auto&& fix_week_for) {
    for (std::uint32_t k = 0; k < count; ++k) {
      const net::Ipv4Address addr = space.at(rng.uniform(space.size()));
      out.push_back(static_cast<std::uint32_t>(traits_.size()));
      add_amplifier(addr, /*end_host=*/false, rng.uniform01(), 1.0);
      traits_.back().monlist_fix_week =
          static_cast<std::int16_t>(fix_week_for(k));
      traits_.back().other_impl = false;  // all locally visible
    }
  };
  place_regional(named.merit_space, config_.merit_amplifiers,
                 merit_amplifiers_, [&](std::uint32_t) {
                   return static_cast<int>(rng.uniform_int(2, 10));
                 });
  place_regional(named.csu_space, config_.csu_amplifiers, csu_amplifiers_,
                 [](std::uint32_t) { return 2; });  // secured Jan 24
  place_regional(
      net::Prefix{named.frgp_space.at(std::uint64_t{1} << 16), 16},
      config_.frgp_amplifiers, frgp_amplifiers_, [&](std::uint32_t) {
        return rng.chance(0.3) ? -1
                               : static_cast<int>(rng.uniform_int(4, 14));
      });

  // --- Mega amplifiers: prefer Asia (the paper's nine giants were all in
  // one country there), drawn from the amplifier pool. ---
  const std::uint64_t n_mega =
      std::max<std::uint64_t>(1, config_.mega_amplifiers / scale);
  std::vector<std::uint32_t> asia;
  for (const auto ai : amplifier_indices_) {
    const auto cont = registry_.continent_of(traits_[ai].home_address);
    if (cont == net::Continent::kAsia) asia.push_back(ai);
  }
  std::uint64_t assigned = 0;
  while (assigned < n_mega && !asia.empty()) {
    const auto pick = rng.uniform(asia.size());
    if (!traits_[asia[pick]].mega) {
      traits_[asia[pick]].mega = true;
      ++assigned;
    }
    if (assigned >= asia.size()) break;  // pool exhausted
  }
  for (std::uint64_t i = 0; assigned < n_mega && i < amplifier_indices_.size();
       ++i) {
    auto& t = traits_[amplifier_indices_[i]];
    if (!t.mega) {
      t.mega = true;
      ++assigned;
    }
  }
  // Megas are systematically misconfigured boxes that lingered for months:
  // the paper was still triggering them in June, and they only went quiet
  // weeks after JPCERT notified the operators (§3.4).
  for (const auto ai : amplifier_indices_) {
    if (traits_[ai].mega && rng.chance(0.85)) {
      // The JPCERT notification is part of the community response; in the
      // no-response counterfactual the megas never go quiet either.
      traits_[ai].monlist_fix_week =
          config_.remediation_speed > 0.0
              ? static_cast<std::int16_t>(rng.uniform_int(32, 40))  // ~June
              : std::int16_t{-1};
    }
  }

  // --- The rest of the NTP population: version responders and quiet
  // servers; never monlist amplifiers. ---
  const std::uint64_t n_versioners = config_.version_responders / scale;
  std::uint64_t amp_mode6 = 0;
  for (const auto ai : amplifier_indices_) {
    if (traits_[ai].mode6_responder) ++amp_mode6;
  }
  const std::uint64_t n_rest = n_total - traits_.size();
  const double rest_mode6_p =
      n_rest == 0 ? 0.0
                  : std::clamp(static_cast<double>(
                                   n_versioners > amp_mode6
                                       ? n_versioners - amp_mode6
                                       : 0) /
                                   static_cast<double>(n_rest),
                               0.0, 1.0);
  for (std::uint64_t i = 0; i < n_rest; ++i) {
    ServerTraits t;
    t.end_host = rng.chance(0.10);
    t.dhcp_churn = t.end_host;
    const auto& pool = t.end_host && !residential_blocks.empty()
                           ? residential_blocks
                           : infra_blocks;
    const std::uint32_t bi = pool[rng.uniform(pool.size())];
    t.home_address = blocks[bi].prefix.at(rng.uniform(blocks[bi].prefix.size()));
    t.mode6_responder = rng.chance(rest_mode6_p);
    if (t.mode6_responder) {
      t.version_fix_week = static_cast<std::int16_t>(
          sample_version_fix_week(1.0, rng.uniform01(), 40));
    }
    traits_.push_back(t);
  }
}

void World::assign_detail_tier(util::Rng& rng) {
  const std::uint64_t scale = std::max<std::uint32_t>(1, config_.scale);
  util::Rng detail_rng = rng.fork(0xde7a11);

  std::vector<std::uint32_t> detail_members = amplifier_indices_;
  // Plus a subsample of version-only responders for census experiments.
  const std::uint64_t want_versioners =
      config_.detailed_version_subsample / scale;
  std::uint64_t seen = 0;
  for (std::uint32_t i = 0; i < traits_.size() && seen < want_versioners; ++i) {
    if (!traits_[i].ever_amplifier && traits_[i].mode6_responder) {
      detail_members.push_back(i);
      ++seen;
    }
  }

  detailed_.reserve(detail_members.size());
  std::size_t mega_rank = 0;
  for (const auto idx : detail_members) {
    ServerTraits& t = traits_[idx];
    ntp::NtpServerConfig cfg;
    cfg.address = t.home_address;
    cfg.accepted_impl = t.other_impl ? ntp::Implementation::kXntpdOld
                                     : ntp::Implementation::kXntpd;
    const auto pool = t.mega ? ntp::SystemPool::kMega
                     : t.ever_amplifier ? ntp::SystemPool::kAllAmplifiers
                                        : ntp::SystemPool::kNonAmplifier;
    const std::string system = ntp::sample_system_string(pool, detail_rng);
    cfg.identity = ntp::make_system_variables(
        system, ntp::sample_compile_year(detail_rng),
        ntp::sample_stratum(detail_rng), detail_rng);
    cfg.initial_ttl = initial_ttl_for_system(system);
    if (t.mega) {
      // §3.4's giants are specific boxes: the worst returned ~136 GB to one
      // probe, six exceeded 1 GB. The first few megas get that deterministic
      // ladder (so the roster's top survives any world scale); the rest draw
      // a Pareto(xm=2, alpha=0.5) tail capped at the same order.
      static constexpr std::uint32_t kGiantLadder[] = {
          270'000'000, 50'000'000, 20'000'000, 8'000'000, 4'000'000,
          2'500'000};
      if (mega_rank < sizeof(kGiantLadder) / sizeof(kGiantLadder[0])) {
        cfg.loop_repeat = kGiantLadder[mega_rank];
      } else {
        const double repeat = detail_rng.pareto(2.0, 0.5);
        cfg.loop_repeat =
            static_cast<std::uint32_t>(std::min(repeat, 3.0e8));
      }
      ++mega_rank;
    }
    t.detailed_index = static_cast<std::uint32_t>(detailed_.size());
    detailed_.emplace_back(std::move(cfg), &monitor_arena_);
  }
}

ntp::NtpServer* World::detailed(std::uint32_t server_index) {
  const auto di = traits_[server_index].detailed_index;
  return di == ServerTraits::kNoDetail ? nullptr : &detailed_[di];
}

const ntp::NtpServer* World::detailed(std::uint32_t server_index) const {
  const auto di = traits_[server_index].detailed_index;
  return di == ServerTraits::kNoDetail ? nullptr : &detailed_[di];
}

double World::stable_uniform(std::uint32_t server_index, int week,
                             std::uint64_t salt) const noexcept {
  const std::uint64_t h =
      mix64(config_.seed ^ mix64(server_index * 0x9e3779b97f4a7c15ULL ^
                                 mix64(static_cast<std::uint64_t>(week + 64) ^
                                       mix64(salt))));
  return static_cast<double>(h >> 11) * 0x1.0p-53;
}

util::SimTime World::last_restart_before(std::uint32_t server_index, int week,
                                         util::SimTime now) const {
  // Characteristic mean uptime: lognormal, median ~2.6 days, heavy tail
  // (infrastructure boxes run for months). Drawn once per server.
  const double u_uptime =
      stable_uniform(server_index, /*week=*/-1, 0x0b7131ULL);
  const double z = [&] {
    // Inverse-normal via Box-Muller with a second stable draw.
    const double u2 = stable_uniform(server_index, -1, 0x0b7132ULL);
    const double r = std::sqrt(-2.0 * std::log(std::max(u_uptime, 1e-12)));
    return r * std::cos(6.283185307179586 * u2);
  }();
  const double mean_uptime_days = std::clamp(2.6 * std::exp(1.4 * z), 0.25,
                                             400.0);
  // Memoryless age since last restart, re-drawn per sample week.
  const double u_age = stable_uniform(server_index, week, 0xa9e5ULL);
  const double age_days =
      -mean_uptime_days * std::log(std::max(1.0 - u_age, 1e-12));
  return now - static_cast<util::SimTime>(age_days * 86400.0);
}

net::Ipv4Address World::address_at(std::uint32_t server_index, int week) const {
  const ServerTraits& t = traits_[server_index];
  if (!t.dhcp_churn || week <= 0) return t.home_address;
  // Latest rehome at or before `week` determines the current lease.
  int lease_epoch = 0;
  for (int w = 1; w <= week; ++w) {
    if (stable_uniform(server_index, w, kSaltRehomeRoll) <
        config_.dhcp_rehome_rate) {
      lease_epoch = w;
    }
  }
  if (lease_epoch == 0) return t.home_address;
  const auto block = registry_.block_index_of(t.home_address);
  if (!block) return t.home_address;
  const auto& prefix = registry_.blocks()[*block].prefix;
  const std::uint64_t offset = mix64(config_.seed ^ (server_index * 0x51ed2701ULL) ^
                                     (static_cast<std::uint64_t>(lease_epoch)
                                      << 32) ^
                                     kSaltRehomeAddr) %
                               prefix.size();
  return prefix.at(offset);
}

bool World::reachable(std::uint32_t server_index, int week) const {
  return stable_uniform(server_index, week, kSaltAvailability) <
         config_.availability;
}

bool World::responds_monlist(std::uint32_t server_index, int week) const {
  const ServerTraits& t = traits_[server_index];
  if (!t.ever_amplifier) return false;
  if (t.monlist_fix_week >= 0 && week >= t.monlist_fix_week) return false;
  return reachable(server_index, week);
}

bool World::responds_version(std::uint32_t server_index, int week) const {
  const ServerTraits& t = traits_[server_index];
  if (!t.mode6_responder) return false;
  if (t.version_fix_week >= 0 && week >= t.version_fix_week) return false;
  return stable_uniform(server_index, week, kSaltAvailability ^ 0x6ULL) <
         config_.availability;
}

std::uint64_t World::live_amplifier_count(int week) const {
  std::uint64_t count = 0;
  for (const auto ai : amplifier_indices_) {
    const auto& t = traits_[ai];
    if (t.monlist_fix_week < 0 || week < t.monlist_fix_week) ++count;
  }
  return count;
}

}  // namespace gorilla::sim
