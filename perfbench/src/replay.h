// Per-layer replay of the traced run: feeds a workload's own head traces
// through the public geo / hmp / abr entry points a session calls, at the
// session's decision cadence, and times every call from outside.
//
// The replay mirrors one planning decision per chunk (plus the play-time
// visibility check), not the upgrade scans, so its call counts are the
// replay's own, not the program's. Its per-call times are what a change to
// TileGeometry::visible_tiles, FusionPredictor::tile_probabilities_into or
// TileAbrPolicy::plan_chunk_into moves.
#pragma once

#include <functional>
#include <memory>

#include "harness.h"
#include "abr/factory.h"
#include "geo/visibility.h"
#include "hmp/head_trace.h"
#include "media/video_model.h"
#include "sim/time.h"

namespace perfbench {

struct LayerTimes {
  CallTimes visible_tiles;       // geo
  CallTimes tile_probabilities;  // hmp
  CallTimes plan;                // abr
};

// When a viewer plans chunk c: the content (media) time it has seen up to,
// how far ahead chunk c starts, and how much buffer it has before c's
// deadline.
struct Decision {
  sperke::sim::Time content{sperke::sim::kTimeZero};
  sperke::sim::Duration horizon{0};
  sperke::sim::Duration buffer_level{0};
};

struct ReplayViewer {
  const sperke::hmp::HeadTrace* trace = nullptr;
  double estimated_kbps = 0.0;  // the viewer's fair share of its link
  std::function<Decision(sperke::media::ChunkIndex)> decision;
};

// Replays one viewer with fresh per-viewer state (predictor, memo scratch,
// policy workspace), as a new session would have.
void replay_viewer(const std::shared_ptr<const sperke::media::VideoModel>& video,
                   const sperke::abr::TileAbrConfig& abr,
                   const sperke::geo::Viewport& viewport,
                   const ReplayViewer& viewer, LayerTimes& out);

// Adds the per-layer metrics of `times` to `outcome`.
void add_layer_metrics(const LayerTimes& times, const std::string& policy,
                       Outcome& outcome);

}  // namespace perfbench
