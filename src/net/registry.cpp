#include "net/registry.h"

#include <algorithm>
#include <array>
#include <stdexcept>

namespace gorilla::net {

const char* to_string(AsCategory c) noexcept {
  switch (c) {
    case AsCategory::kHosting: return "hosting";
    case AsCategory::kTelecom: return "telecom";
    case AsCategory::kResidentialIsp: return "residential";
    case AsCategory::kEnterprise: return "enterprise";
    case AsCategory::kUniversity: return "university";
    case AsCategory::kRegionalIsp: return "regional";
  }
  return "?";
}

const char* to_string(Continent c) noexcept {
  switch (c) {
    case Continent::kNorthAmerica: return "North America";
    case Continent::kOceania: return "Oceania";
    case Continent::kEurope: return "Europe";
    case Continent::kAsia: return "Asia";
    case Continent::kAfrica: return "Africa";
    case Continent::kSouthAmerica: return "South America";
  }
  return "?";
}

namespace {

/// Sequential aligned allocator over the IPv4 space, starting above 1.0.0.0.
class AddressAllocator {
 public:
  /// Returns an aligned prefix of the given length and advances the cursor.
  Prefix allocate(int length) {
    const std::uint64_t size = std::uint64_t{1} << (32 - length);
    std::uint64_t base = (cursor_ + size - 1) / size * size;  // align up
    if (base + size > (std::uint64_t{1} << 32))
      throw std::runtime_error("registry: IPv4 space exhausted");
    cursor_ = base + size;
    return Prefix{Ipv4Address{static_cast<std::uint32_t>(base)}, length};
  }

 private:
  std::uint64_t cursor_ = std::uint64_t{1} << 24;  // skip 0.0.0.0/8
};

}  // namespace

Registry::Registry(const RegistryConfig& config) {
  util::Rng rng(config.seed);

  AddressAllocator alloc;

  auto add_as = [&](AsCategory cat, Continent cont, std::string name) -> Asn {
    const Asn asn = static_cast<Asn>(ases_.size() + 1);
    ases_.push_back(AsInfo{asn, cat, cont, std::move(name), {}});
    return asn;
  };

  auto add_block = [&](Asn asn, const Prefix& prefix, bool residential) {
    const auto idx = static_cast<std::uint32_t>(blocks_.size());
    blocks_.push_back(RoutedBlock{prefix, asn, residential});
    ases_[asn - 1].block_indices.push_back(idx);
  };

  // --- Named analogue networks (fixed, allocated first so their addresses
  // are stable across config changes to num_ases). ---
  named_.darknet = alloc.allocate(8);  // telescope space; intentionally NOT
                                       // added to blocks_: it is dark.

  named_.merit = add_as(AsCategory::kRegionalIsp, Continent::kNorthAmerica,
                        "MERIT-ANALOGUE");
  named_.merit_space = alloc.allocate(14);
  // Merit serves multiple institutions: expose its space as four /16 blocks.
  for (int i = 0; i < 4; ++i) {
    const Prefix p{named_.merit_space.at(static_cast<std::uint64_t>(i) << 16),
                   16};
    add_block(named_.merit, p, /*residential=*/i == 3);  // one access block
  }

  named_.frgp = add_as(AsCategory::kRegionalIsp, Continent::kNorthAmerica,
                       "FRGP-ANALOGUE");
  named_.csu = add_as(AsCategory::kUniversity, Continent::kNorthAmerica,
                      "CSU-ANALOGUE");
  named_.frgp_space = alloc.allocate(14);
  named_.csu_space = Prefix{named_.frgp_space.base(), 16};
  add_block(named_.csu, named_.csu_space, /*residential=*/false);
  for (int i = 1; i < 4; ++i) {
    const Prefix p{named_.frgp_space.at(static_cast<std::uint64_t>(i) << 16),
                   16};
    add_block(named_.frgp, p, /*residential=*/i == 3);
  }

  named_.ovh_analogue =
      add_as(AsCategory::kHosting, Continent::kEurope, "OVH-ANALOGUE");
  for (int i = 0; i < 4; ++i) {
    add_block(named_.ovh_analogue, alloc.allocate(16), /*residential=*/false);
  }

  named_.cloudflare_analogue = add_as(AsCategory::kHosting,
                                      Continent::kNorthAmerica,
                                      "CDN-SHIELD-ANALOGUE");
  add_block(named_.cloudflare_analogue, alloc.allocate(16), false);

  // --- Generated ASes. ---
  static constexpr std::array<AsCategory, 6> kCats = {
      AsCategory::kHosting,       AsCategory::kTelecom,
      AsCategory::kResidentialIsp, AsCategory::kEnterprise,
      AsCategory::kUniversity,    AsCategory::kRegionalIsp};
  static constexpr std::array<double, 6> kCatWeights = {0.08, 0.10, 0.25,
                                                        0.40, 0.12, 0.05};
  static constexpr std::array<Continent, 6> kConts = {
      Continent::kNorthAmerica, Continent::kOceania, Continent::kEurope,
      Continent::kAsia,         Continent::kAfrica,  Continent::kSouthAmerica};
  static constexpr std::array<double, 6> kContWeights = {0.30, 0.04, 0.25,
                                                         0.25, 0.08, 0.08};
  const util::WeightedSampler cat_sampler{
      std::span<const double>(kCatWeights)};
  const util::WeightedSampler cont_sampler{
      std::span<const double>(kContWeights)};
  const util::ZipfSampler blocks_sampler(config.max_blocks_per_as,
                                         config.blocks_per_as_zipf);

  for (std::uint32_t i = 0; i < config.num_ases; ++i) {
    const AsCategory cat = kCats[cat_sampler.sample(rng)];
    const Continent cont = kConts[cont_sampler.sample(rng)];
    const Asn asn = add_as(cat, cont, "AS-GEN-" + std::to_string(i));
    const auto nblocks = static_cast<std::uint32_t>(blocks_sampler.sample(rng)) + 1;
    for (std::uint32_t b = 0; b < nblocks; ++b) {
      int len = 24;
      bool residential = false;
      switch (cat) {
        case AsCategory::kResidentialIsp:
          len = static_cast<int>(rng.uniform_int(17, 20));
          residential = true;
          break;
        case AsCategory::kTelecom:
          len = static_cast<int>(rng.uniform_int(16, 19));
          residential = rng.chance(0.5);
          break;
        case AsCategory::kHosting:
          len = static_cast<int>(rng.uniform_int(18, 21));
          break;
        case AsCategory::kEnterprise:
          len = static_cast<int>(rng.uniform_int(21, 24));
          residential = rng.chance(0.05);
          break;
        case AsCategory::kUniversity:
          len = static_cast<int>(rng.uniform_int(17, 20));
          residential = rng.chance(0.15);
          break;
        case AsCategory::kRegionalIsp:
          len = static_cast<int>(rng.uniform_int(16, 19));
          residential = rng.chance(0.3);
          break;
      }
      add_block(asn, alloc.allocate(len), residential);
    }
  }

  // --- Index structures. ---
  cumulative_sizes_.reserve(blocks_.size());
  for (std::uint32_t idx = 0; idx < blocks_.size(); ++idx) {
    block_trie_.insert(blocks_[idx].prefix, idx);
    total_addresses_ += blocks_[idx].prefix.size();
    cumulative_sizes_.push_back(total_addresses_);
  }
}

std::optional<Asn> Registry::asn_of(Ipv4Address a) const {
  const auto idx = block_trie_.lookup(a);
  if (!idx) return std::nullopt;
  return blocks_[*idx].asn;
}

std::optional<std::uint32_t> Registry::block_index_of(Ipv4Address a) const {
  return block_trie_.lookup(a);
}

const AsInfo& Registry::as_info(Asn asn) const {
  if (asn == 0 || asn > ases_.size())
    throw std::out_of_range("Registry::as_info: unknown ASN");
  return ases_[asn - 1];
}

std::optional<Continent> Registry::continent_of(Ipv4Address a) const {
  const auto asn = asn_of(a);
  if (!asn) return std::nullopt;
  return as_info(*asn).continent;
}

std::optional<Attribution> Registry::attribute(Ipv4Address a) const {
  const auto idx = block_trie_.lookup(a);
  if (!idx) return std::nullopt;
  const Asn asn = blocks_[*idx].asn;
  return Attribution{*idx, asn, as_info(asn).continent};
}

std::uint32_t Registry::weighted_block_sample(util::Rng& rng) const {
  const std::uint64_t u = rng.uniform(total_addresses_);
  const auto it =
      std::upper_bound(cumulative_sizes_.begin(), cumulative_sizes_.end(), u);
  return static_cast<std::uint32_t>(it - cumulative_sizes_.begin());
}

Ipv4Address Registry::random_address(util::Rng& rng) const {
  const auto& blk = blocks_[weighted_block_sample(rng)];
  return blk.prefix.at(rng.uniform(blk.prefix.size()));
}

}  // namespace gorilla::net
