#include "replay.h"

#include <algorithm>
#include <span>
#include <vector>

#include "abr/plan.h"
#include "hmp/fusion.h"
#include "hmp/predictor.h"

namespace perfbench {

using namespace sperke;

void replay_viewer(const std::shared_ptr<const media::VideoModel>& video,
                   const abr::TileAbrConfig& abr_config,
                   const geo::Viewport& viewport, const ReplayViewer& viewer,
                   LayerTimes& out) {
  const hmp::HeadTrace& trace = *viewer.trace;
  hmp::FusionPredictor fusion(video->geometry_ptr(), viewport,
                              hmp::make_orientation_predictor("linear-regression"),
                              /*crowd=*/nullptr);
  const auto policy = abr::make_policy(video, abr_config);
  geo::TileGeometry::Scratch scratch;
  abr::TileAbrPolicy::PlanWorkspace workspace;
  abr::ChunkPlan plan;
  std::vector<geo::TileId> motion_fov;
  std::vector<geo::TileId> fov;
  std::vector<geo::TileId> visible;
  std::vector<double> probs;
  media::QualityLevel last_quality = 0;

  // Head samples arrive at the sessions' 25 Hz observation cadence.
  const sim::Duration sample_period = sim::seconds(1.0 / 25.0);
  sim::Time next_sample = sim::kTimeZero;
  for (media::ChunkIndex c = 0; c < video->chunk_count(); ++c) {
    const Decision d = viewer.decision(c);
    while (next_sample <= d.content) {
      fusion.observe({next_sample, trace.orientation_at(next_sample)});
      next_sample += sample_period;
    }
    const geo::Orientation predicted = fusion.predict_orientation(d.horizon);
    timed(out.visible_tiles, [&] {
      video->geometry().visible_tiles(predicted, viewport, motion_fov, scratch);
    });
    timed(out.tile_probabilities,
          [&] { fusion.tile_probabilities_into(d.horizon, c, probs); });
    // FoV = the motion-sized set of most probable tiles, as sessions pick it.
    fov.resize(probs.size());
    for (std::size_t i = 0; i < probs.size(); ++i) {
      fov[i] = static_cast<geo::TileId>(i);
    }
    std::stable_sort(fov.begin(), fov.end(), [&](geo::TileId a, geo::TileId b) {
      return probs[static_cast<std::size_t>(a)] > probs[static_cast<std::size_t>(b)];
    });
    fov.resize(std::min(fov.size(), motion_fov.size()));
    std::sort(fov.begin(), fov.end());
    timed(out.plan, [&] {
      policy->plan_chunk_into(c, fov, std::span<const double>(probs),
                              viewer.estimated_kbps, d.buffer_level, last_quality,
                              workspace, plan);
    });
    last_quality = plan.fov_quality;
    // Play-time coverage check on the true orientation.
    timed(out.visible_tiles, [&] {
      video->geometry().visible_tiles(trace.orientation_at(video->chunk_start_time(c)),
                                      viewport, visible, scratch);
    });
  }
}

void add_layer_metrics(const LayerTimes& times, const std::string& policy,
                       Outcome& outcome) {
  outcome.add("geo.visible_tiles.calls", times.visible_tiles.count(), "count");
  outcome.add("geo.visible_tiles.us_p50", times.visible_tiles.us(0.50), "us");
  outcome.add("geo.visible_tiles.us_p99", times.visible_tiles.us(0.99), "us");
  outcome.add("hmp.tile_probabilities.calls", times.tile_probabilities.count(),
              "count");
  outcome.add("hmp.tile_probabilities.us_p50", times.tile_probabilities.us(0.50), "us");
  outcome.add("hmp.tile_probabilities.us_p99", times.tile_probabilities.us(0.99), "us");
  outcome.add("abr." + policy + ".plan.us_p50", times.plan.us(0.50), "us");
  outcome.add("abr." + policy + ".plan.us_p99", times.plan.us(0.99), "us");
}

}  // namespace perfbench
