// Synthetic Internet registry: autonomous systems, routed blocks, geography.
//
// The paper attributes amplifiers and victims to routed blocks, origin ASes,
// and continents using BGP tables and GeoIP data we do not have. This module
// generates a deterministic synthetic registry with the same *structural*
// properties the analyses depend on: a heavy-tailed block-per-AS
// distribution, AS categories (hosting, telecom, residential, ...), a
// continent for every AS, and a handful of named analogue networks the
// evaluation references (an OVH-like hosting firm, Merit-like and FRGP-like
// regional ISPs with a CSU-like customer, a /8 darknet, and a JP-like region
// that hosts the mega amplifiers).
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "net/ipv4.h"
#include "net/prefix_trie.h"
#include "util/rng.h"

namespace gorilla::net {

using Asn = std::uint32_t;

/// Business category of an AS; drives block sizes, end-host density, NTP
/// server density, and remediation speed.
enum class AsCategory : std::uint8_t {
  kHosting,
  kTelecom,
  kResidentialIsp,
  kEnterprise,
  kUniversity,
  kRegionalIsp,
};

[[nodiscard]] const char* to_string(AsCategory c) noexcept;

/// Continent of an AS (the paper's §6.1 regional remediation axis).
enum class Continent : std::uint8_t {
  kNorthAmerica,
  kOceania,
  kEurope,
  kAsia,
  kAfrica,
  kSouthAmerica,
};

inline constexpr int kContinentCount = 6;

[[nodiscard]] const char* to_string(Continent c) noexcept;

struct AsInfo {
  Asn asn = 0;
  AsCategory category = AsCategory::kEnterprise;
  Continent continent = Continent::kNorthAmerica;
  std::string name;
  /// Indices into Registry::blocks() of this AS's routed blocks.
  std::vector<std::uint32_t> block_indices;
};

struct RoutedBlock {
  Prefix prefix;
  Asn asn = 0;
  /// True for access-network space whose hosts are end-user machines; feeds
  /// the PolicyBlockList (Spamhaus PBL analogue).
  bool residential = false;
};

struct RegistryConfig {
  std::uint64_t seed = util::Rng::kDefaultSeed;
  /// Number of ordinary (generated) ASes, in addition to the named analogues.
  std::uint32_t num_ases = 18000;
  /// Zipf exponent for blocks-per-AS (heavier -> a few very large carriers).
  double blocks_per_as_zipf = 1.3;
  /// Maximum blocks a single generated AS may hold.
  std::uint32_t max_blocks_per_as = 64;
};

/// The named analogue networks, resolvable via Registry accessors.
struct NamedNetworks {
  Asn ovh_analogue = 0;       ///< large hosting provider (top victim AS, §4.4)
  Asn cloudflare_analogue = 0;///< DDoS-protection network (victim rank ~18)
  Asn merit = 0;              ///< regional ISP A (operational space)
  Asn frgp = 0;               ///< regional ISP B
  Asn csu = 0;                ///< university customer inside FRGP
  Prefix darknet;             ///< /8 telescope space (~75% effectively dark)
  Prefix merit_space;         ///< Merit operational covering prefix
  Prefix frgp_space;          ///< FRGP covering prefix
  Prefix csu_space;           ///< CSU covering prefix (inside frgp_space)
};

/// Where an address sits in the registry: its routed block, that block's
/// origin AS and the AS's continent.
struct Attribution {
  std::uint32_t block_index = 0;  ///< index into Registry::blocks()
  Asn asn = 0;
  Continent continent = Continent::kNorthAmerica;
};

/// Deterministic synthetic registry; all lookups are O(32) trie walks.
class Registry {
 public:
  explicit Registry(const RegistryConfig& config = {});

  [[nodiscard]] const std::vector<AsInfo>& ases() const noexcept {
    return ases_;
  }
  [[nodiscard]] const std::vector<RoutedBlock>& blocks() const noexcept {
    return blocks_;
  }
  [[nodiscard]] const NamedNetworks& named() const noexcept { return named_; }

  /// Origin AS of an address; nullopt for unallocated space.
  [[nodiscard]] std::optional<Asn> asn_of(Ipv4Address a) const;

  /// Index into blocks() of the routed block covering an address.
  [[nodiscard]] std::optional<std::uint32_t> block_index_of(Ipv4Address a) const;

  [[nodiscard]] const AsInfo& as_info(Asn asn) const;

  /// Continent of the AS owning an address (nullopt if unallocated).
  [[nodiscard]] std::optional<Continent> continent_of(Ipv4Address a) const;

  /// Block, AS and continent of an address from one trie walk, for callers
  /// that need more than one of them (nullopt if unallocated).
  [[nodiscard]] std::optional<Attribution> attribute(Ipv4Address a) const;

  /// Draws a uniformly random allocated address whose block satisfies `pred`;
  /// at most `max_tries` rejections before giving up (nullopt).
  template <typename Pred>
  [[nodiscard]] std::optional<Ipv4Address> random_address(
      util::Rng& rng, Pred&& pred, int max_tries = 256) const {
    for (int i = 0; i < max_tries; ++i) {
      const auto& blk =
          blocks_[weighted_block_sample(rng)];
      if (!pred(blk)) continue;
      return blk.prefix.at(rng.uniform(blk.prefix.size()));
    }
    return std::nullopt;
  }

  /// Uniformly random allocated address (weighted by block size).
  [[nodiscard]] Ipv4Address random_address(util::Rng& rng) const;

  /// Total allocated address count across all routed blocks.
  [[nodiscard]] std::uint64_t allocated_addresses() const noexcept {
    return total_addresses_;
  }

 private:
  [[nodiscard]] std::uint32_t weighted_block_sample(util::Rng& rng) const;

  std::vector<AsInfo> ases_;
  std::vector<RoutedBlock> blocks_;
  PrefixTrie<std::uint32_t> block_trie_;  // block index by prefix
  std::vector<std::uint64_t> cumulative_sizes_;
  std::uint64_t total_addresses_ = 0;
  NamedNetworks named_;
};

}  // namespace gorilla::net
