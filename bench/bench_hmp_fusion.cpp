// Experiment C3 — §3.2's data-fusion claim: combining (1) the user's own
// motion, (2) cross-user viewing statistics, and (3) context (pose, speed
// bound) improves head-movement prediction, especially at long horizons
// where pure motion extrapolation collapses.
//
// Part A: point-prediction accuracy of the motion predictors vs horizon.
// Part B: tile hit-rate of the probability maps (motion-only vs +crowd vs
//         +crowd+context) under a fixed tile budget, vs horizon.
// Part C: end-to-end session QoE with and without the crowd prior.
#include <iostream>
#include <memory>
#include <vector>

#include "common.h"
#include "hmp/accuracy.h"
#include "hmp/fusion.h"
#include "util/stats.h"
#include "util/table.h"

namespace {

using namespace sperke;
using namespace sperke::bench;

// Tile hit-rate of a fusion configuration at one horizon, averaged over a
// replayed trace.
double fusion_hit_rate(const media::VideoModel& video, const hmp::HeadTrace& trace,
                       const hmp::ViewingHeatmap* crowd, hmp::ViewingContext context,
                       sim::Duration horizon, int budget_tiles) {
  hmp::FusionPredictor fusion(video.geometry_ptr(), {100.0, 90.0},
                              std::make_unique<hmp::LinearRegressionPredictor>(),
                              crowd, context);
  RunningStats hits;
  for (const auto& sample : trace.samples()) {
    fusion.observe(sample);
    const sim::Time target = sample.t + horizon;
    if (target > trace.duration() ||
        target >= video.chunk_duration() * video.chunk_count()) {
      break;
    }
    const auto chunk = video.chunk_at_time(target);
    const auto probs = fusion.tile_probabilities(horizon, chunk);
    const auto actual = video.geometry().visible_tiles(
        trace.orientation_at(target), {100.0, 90.0});
    hits.add(hmp::tile_hit_rate(probs, actual, budget_tiles));
  }
  return hits.mean();
}

}  // namespace

int main() {
  auto video = standard_video();
  const auto crowd = standard_crowd(*video, /*users=*/12);
  const std::vector<double> horizons_s = {0.2, 0.5, 1.0, 2.0, 3.0};

  std::cout << "C3: big-data-assisted HMP (SS3.2)\n\n";

  // Part A: point predictors.
  std::cout << "A. Point-prediction mean angular error (deg) vs horizon\n";
  TextTable point({"Horizon s", "static", "dead-reckoning", "linear-regression"});
  const auto eval_trace = standard_trace(501);
  for (double h : horizons_s) {
    std::vector<std::string> row{TextTable::num(h, 1)};
    for (const char* name : {"static", "dead-reckoning", "linear-regression"}) {
      auto predictor = hmp::make_orientation_predictor(name);
      const auto report = hmp::evaluate_predictor(
          *predictor, eval_trace, sim::seconds(h), video->geometry(), {100.0, 90.0});
      row.push_back(TextTable::num(report.mean_error_deg, 1));
    }
    point.add_row(std::move(row));
  }
  std::cout << point.str() << '\n';

  // Part B: probability-map hit rate under a 10-tile budget (24-tile grid).
  std::cout << "B. Tile hit-rate (budget 10 of 24 tiles) vs horizon\n";
  TextTable fusion_table(
      {"Horizon s", "motion only", "+crowd", "+crowd+context"});
  hmp::ViewingContext speed_context;
  speed_context.max_speed_dps = 130.0;  // learned per-user bound
  const auto test_trace = standard_trace(502);
  for (double h : horizons_s) {
    const auto horizon = sim::seconds(h);
    fusion_table.add_row(
        {TextTable::num(h, 1),
         TextTable::num(
             fusion_hit_rate(*video, test_trace, nullptr, {}, horizon, 10), 3),
         TextTable::num(
             fusion_hit_rate(*video, test_trace, &crowd, {}, horizon, 10), 3),
         TextTable::num(fusion_hit_rate(*video, test_trace, &crowd, speed_context,
                                        horizon, 10),
                        3)});
  }
  std::cout << fusion_table.str() << '\n';

  // Part C: end-to-end QoE. The paper's claim is that crowd statistics
  // make *long-term* prefetch feasible: with motion-only HMP the planner
  // must stay within a short horizon (predictions collapse beyond ~2 s),
  // while crowd priors let it prefetch deep — which is what survives
  // bandwidth dips. Evaluate under a fluctuating (two-state) link.
  std::cout << "C. Session QoE under fluctuating bandwidth (18 Mbps <-> 1.5 Mbps)\n";
  TextTable qoe({"Configuration", "Prefetch horizon", "Viewport utility",
                 "Stall s", "Waste %"});
  struct Setup {
    const char* label;
    bool use_crowd;
    int horizon;
  };
  for (const Setup& setup : {Setup{"motion only, short", false, 4},
                             Setup{"motion only, deep", false, 10},
                             Setup{"fusion + crowd, deep", true, 10}}) {
    RunningStats utility, stall, waste;
    for (std::uint64_t seed = 0; seed < 4; ++seed) {
      const auto bandwidth = net::BandwidthTrace::markov_two_state(
          18'000.0, 1'500.0, 10.0, 4.0, kVideoSeconds + 600.0, 42 + seed);
      core::SessionConfig config;
      config.prefetch_horizon_chunks = setup.horizon;
      const auto report =
          run_vod(bandwidth, config, standard_trace_config(600 + seed),
                  setup.use_crowd ? &crowd : nullptr);
      utility.add(report.qoe.mean_viewport_utility);
      stall.add(report.qoe.stall_seconds);
      waste.add(100.0 * static_cast<double>(report.qoe.bytes_wasted) /
                std::max<std::int64_t>(1, report.qoe.bytes_downloaded));
    }
    qoe.add_row({setup.label, std::to_string(setup.horizon),
                 TextTable::num(utility.mean(), 3), TextTable::num(stall.mean(), 2),
                 TextTable::num(waste.mean(), 1)});
  }
  std::cout << qoe.str() << '\n';
  return 0;
}
