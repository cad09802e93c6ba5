// Experiment C6 — §3.4.2's viewer-side proposal: crowd-sourced HMP for
// live 360°. Viewers of the same live stream sit at very different E2E
// latencies (Table 2); the head movements of *low-latency* viewers on
// chunk c are already known by the time a high-latency viewer has to
// prefetch c. The higher the viewer's latency, the more crowd data is
// usable — exactly the population that needs FoV-guided streaming most.
//
// Method: 16 low-latency viewers (3..12 s) report displayed tiles into a
// time-gated LiveCrowdHmp. A laggard viewer prefetches each chunk 2 s
// before display using motion-only vs motion+crowd probabilities; we
// report tile hit-rate under a 10-of-24-tile budget and the tile budget
// needed to reach 95% hit-rate (a direct bandwidth proxy).
#include <cmath>
#include <iostream>
#include <memory>
#include <vector>

#include "common.h"
#include "hmp/accuracy.h"
#include "hmp/fusion.h"
#include "live/crowd.h"
#include "live/tiled_viewer.h"
#include "util/stats.h"
#include "util/table.h"

namespace {

using namespace sperke;
using namespace sperke::bench;

constexpr double kPrefetchLeadS = 2.0;
constexpr double kReportDelayS = 0.3;
constexpr int kBudgetTiles = 10;

// Blend motion fusion output with the live crowd snapshot the same way the
// VOD fusion blends its offline heatmap.
std::vector<double> blend(const std::vector<double>& motion,
                          const std::vector<double>& crowd, double horizon_s) {
  const double w = std::exp(-horizon_s / 1.5);
  std::vector<double> out(motion.size());
  double total = 0.0;
  for (std::size_t i = 0; i < motion.size(); ++i) {
    out[i] = w * motion[i] + (1.0 - w) * crowd[i];
    total += out[i];
  }
  for (double& p : out) p /= total;
  return out;
}

struct LaggardResult {
  double hit_rate_motion = 0.0;
  double hit_rate_crowd = 0.0;
  double budget95_motion = 0.0;  // tiles needed for 95% hit-rate
  double budget95_crowd = 0.0;
  double crowd_observations = 0.0;
};

LaggardResult evaluate_laggard(const media::VideoModel& video,
                               const live::LiveCrowdHmp& crowd_map,
                               double latency_s) {
  const auto trace = standard_trace(901);
  hmp::FusionPredictor fusion(video.geometry_ptr(), {100.0, 90.0},
                              std::make_unique<hmp::LinearRegressionPredictor>(),
                              nullptr, {});
  const auto horizon = sim::seconds(kPrefetchLeadS);
  const double chunk_s = sim::to_seconds(video.chunk_duration());

  RunningStats hit_motion, hit_crowd, b95_motion, b95_crowd, observations;
  std::size_t sample_index = 0;
  for (media::ChunkIndex c = 2; c < video.chunk_count(); ++c) {
    // Content time when the prefetch decision is made.
    const sim::Time decision_content = video.chunk_start_time(c) - horizon;
    // Feed the motion predictor all samples up to the decision point.
    while (sample_index < trace.samples().size() &&
           trace.samples()[sample_index].t <= decision_content) {
      fusion.observe(trace.samples()[sample_index]);
      ++sample_index;
    }
    // Wall time of the decision: live edge + viewer latency - lead.
    const sim::Time decision_wall =
        video.chunk_start_time(c) + sim::seconds(latency_s - kPrefetchLeadS);
    const auto motion = fusion.tile_probabilities(horizon, c);
    const auto crowd = crowd_map.probabilities(c, decision_wall);
    const auto blended = blend(motion, crowd, kPrefetchLeadS);

    const auto actual = video.geometry().visible_tiles(
        trace.orientation_at(video.chunk_start_time(c)), {100.0, 90.0});
    hit_motion.add(hmp::tile_hit_rate(motion, actual, kBudgetTiles));
    hit_crowd.add(hmp::tile_hit_rate(blended, actual, kBudgetTiles));
    observations.add(crowd_map.observations(c, decision_wall));

    auto budget_for = [&](const std::vector<double>& probs) {
      for (int budget = 1; budget <= video.tile_count(); ++budget) {
        if (hmp::tile_hit_rate(probs, actual, budget) >= 0.95) return budget;
      }
      return video.tile_count();
    };
    b95_motion.add(budget_for(motion));
    b95_crowd.add(budget_for(blended));
    (void)chunk_s;
  }
  return {hit_motion.mean(), hit_crowd.mean(), b95_motion.mean(),
          b95_crowd.mean(), observations.mean()};
}

}  // namespace

int main() {
  auto video = standard_video();

  // Low-latency viewers populate the live crowd map as they watch.
  live::LiveCrowdHmp crowd_map(video->tile_count(), video->chunk_count());
  const int kLowLatencyViewers = 16;
  for (int v = 0; v < kLowLatencyViewers; ++v) {
    const double latency_s = 3.0 + 9.0 * v / kLowLatencyViewers;
    const auto trace = standard_trace(800 + v);
    for (media::ChunkIndex c = 0; c < video->chunk_count(); ++c) {
      const auto visible = video->geometry().visible_tiles(
          trace.orientation_at(video->chunk_start_time(c)), {100.0, 90.0});
      const sim::Time report_wall = video->chunk_start_time(c) +
                                    sim::seconds(latency_s + kReportDelayS);
      crowd_map.record(c, visible, report_wall);
    }
  }

  std::cout << "C6: crowd-sourced live HMP for high-latency viewers (SS3.4.2)\n"
            << "(expected shape: the more the viewer lags the live edge, the\n"
            << " more crowd data is usable and the bigger the HMP gain)\n\n";
  TextTable table({"Viewer E2E latency s", "Crowd obs usable",
                   "Hit-rate motion", "Hit-rate +crowd",
                   "Tiles for 95% (motion)", "Tiles for 95% (+crowd)"});
  for (double latency_s : {4.0, 8.0, 15.0, 25.0, 45.0}) {
    const auto r = evaluate_laggard(*video, crowd_map, latency_s);
    table.add_row({TextTable::num(latency_s, 0), TextTable::num(r.crowd_observations, 1),
                   TextTable::num(r.hit_rate_motion, 3),
                   TextTable::num(r.hit_rate_crowd, 3),
                   TextTable::num(r.budget95_motion, 1),
                   TextTable::num(r.budget95_crowd, 1)});
  }
  std::cout << table.str() << '\n'
            << "Bandwidth proxy: fewer tiles for the same 95% coverage = direct\n"
            << "byte saving for FoV-guided live delivery.\n\n";

  // End-to-end: a shared live world. Eight low-latency viewers (4..11 s)
  // populate the crowd map *as they watch*; a bandwidth-constrained laggard
  // streams FoV-guided with or without that prior.
  std::cout << "End-to-end tiled live sessions (8 low-latency feeders, laggard\n"
            << "on a 2.2 Mbps link):\n";
  TextTable e2e({"Laggard latency s", "Utility (motion)", "Utility (+crowd)",
                 "Blank% (motion)", "Blank% (+crowd)", "Skips m/c"});
  auto run_world = [&](double laggard_latency_s, bool use_crowd) {
    sim::Simulator simulator;
    auto world_video = standard_video();
    live::LiveCrowdHmp world_crowd(world_video->tile_count(),
                                   world_video->chunk_count());
    std::vector<std::unique_ptr<net::Link>> links;
    std::vector<std::unique_ptr<net::LinkSource>> sources;
    std::vector<std::unique_ptr<core::SingleLinkTransport>> transports;
    std::vector<std::unique_ptr<hmp::HeadTrace>> traces;
    std::vector<std::unique_ptr<live::TiledLiveSession>> sessions;
    auto add_viewer = [&](double latency_s, double kbps, std::uint64_t seed,
                          live::LiveCrowdHmp* crowd_ptr) {
      links.push_back(std::make_unique<net::Link>(
          simulator,
          net::LinkConfig{.bandwidth = net::BandwidthTrace::constant(kbps),
                          .rtt = sim::milliseconds(30), .faults = {}}));
      sources.push_back(std::make_unique<net::LinkSource>(*links.back()));
      transports.push_back(
          std::make_unique<core::SingleLinkTransport>(*sources.back(),
                                                      core::TransportOptions{.max_concurrent = 12, .recovery = {}}));
      traces.push_back(std::make_unique<hmp::HeadTrace>(standard_trace(seed)));
      live::TiledLiveConfig cfg;
      cfg.e2e_target_s = latency_s;
      sessions.push_back(std::make_unique<live::TiledLiveSession>(
          simulator, world_video, *transports.back(), *traces.back(), cfg,
          crowd_ptr));
      sessions.back()->start();
    };
    for (int v = 0; v < 8; ++v) {
      add_viewer(4.0 + v, 30'000.0, 820 + v, &world_crowd);
    }
    add_viewer(laggard_latency_s, 2'200.0, 901,
               use_crowd ? &world_crowd : nullptr);
    simulator.run_until(sim::seconds(kVideoSeconds + 120.0));
    return sessions.back()->report();
  };
  for (double latency_s : {8.0, 15.0, 30.0}) {
    const auto motion = run_world(latency_s, false);
    const auto crowd_run = run_world(latency_s, true);
    e2e.add_row({TextTable::num(latency_s, 0),
                 TextTable::num(motion.qoe.mean_viewport_utility, 3),
                 TextTable::num(crowd_run.qoe.mean_viewport_utility, 3),
                 TextTable::num(100.0 * motion.mean_blank_fraction, 1),
                 TextTable::num(100.0 * crowd_run.mean_blank_fraction, 1),
                 std::to_string(motion.chunks_skipped) + "/" +
                     std::to_string(crowd_run.chunks_skipped)});
  }
  std::cout << e2e.str();
  return 0;
}
