// §2.2 methodology check: how much does a threshold attack-labeler miss?
//
// The paper leans on a proprietary vendor labeler and warns it "is likely
// to miss some attacks — especially small ones". We run an open EWMA +
// k-sigma detector over the Merit border's NTP rate series and score it
// against the simulator's ground-truth attack records, quantifying that
// visibility bias: recall by attack size class.
#include <algorithm>
#include <cstdio>

#include "common.h"
#include "telemetry/detector.h"

namespace gorilla {
namespace {

int run(const bench::Options& opt) {
  bench::print_header("§2.2: attack-labeler visibility bias", opt);

  sim::World world(bench::world_config(opt));
  const auto& named = world.registry().named();
  telemetry::FlowCollector merit("Merit", {named.merit_space});
  study::CollectorSink sinks;
  sinks.vantages = {&merit};
  sim::AttackEngine attacks(world, bench::attack_config(opt), sinks);

  // Ground truth: attacks that touched Merit (any amplifier or victim in
  // its space), by size class.
  std::vector<telemetry::TruthInterval> truth_all;
  std::vector<telemetry::TruthInterval> truth_by_size[3];
  const int from = 70, to = opt.quick ? 92 : 106;
  for (int day = from; day < to; ++day) {
    for (const auto& rec : attacks.run_day(day)) {
      bool touches = merit.is_local(rec.victim);
      if (!touches) {
        for (const auto amp : rec.amplifiers) {
          if (merit.is_local(world.servers()[amp].home_address)) {
            touches = true;
            break;
          }
        }
      }
      if (!touches) continue;
      const telemetry::TruthInterval interval{rec.start, rec.end};
      truth_all.push_back(interval);
      truth_by_size[static_cast<int>(telemetry::classify_size(rec.peak_bps))]
          .push_back(interval);
    }
  }

  // The detector sees what an operator sees: the 5-minute NTP rate series.
  const util::SimTime start = from * util::kSecondsPerDay;
  const util::SimTime end = to * util::kSecondsPerDay;
  const auto series = merit.volume_series(
      start, end, 300, [](const telemetry::FlowRecord& f) {
        return f.src_port == net::kNtpPort || f.dst_port == net::kNtpPort;
      });
  telemetry::DetectorConfig dcfg;
  dcfg.floor_bps = 5e6;
  const auto detections = telemetry::detect_attacks(series, dcfg);

  util::TextTable table({"truth class", "episodes", "recall"});
  static constexpr const char* kNames[] = {"small (<2G)", "medium (2-20G)",
                                           "large (>20G)"};
  for (int s = 0; s < 3; ++s) {
    const auto q =
        telemetry::score_detections(detections, truth_by_size[s]);
    table.add_row({kNames[s], std::to_string(q.truth_count),
                   q.truth_count ? util::fixed(q.recall(), 2) : "-"});
  }
  std::printf("%s\n", table.to_string().c_str());

  const auto overall = telemetry::score_detections(detections, truth_all);
  std::printf("detected episodes: %zu; overall recall %.2f, precision %.2f\n",
              detections.size(), overall.recall(), overall.precision());
  std::printf("\nreading: recall climbs with attack size — the labeler sees\n"
              "nearly every large attack and misses many small ones, which\n"
              "is precisely the bias the paper flags before trusting Fig 2's\n"
              "relative trends (and why our Arbor-analogue feed samples\n"
              "small attacks at the lowest rate).\n");
  return 0;
}

}  // namespace
}  // namespace gorilla

int main(int argc, char** argv) {
  return gorilla::run(gorilla::bench::standalone_options(argc, argv, 40));
}
