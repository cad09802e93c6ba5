// Shared workload construction for the experiment benches (DESIGN.md §3).
#pragma once

#include <memory>
#include <optional>
#include <vector>

#include "core/session.h"
#include "core/transport.h"
#include "hmp/head_trace.h"
#include "hmp/heatmap.h"
#include "media/video_model.h"
#include "net/bandwidth_trace.h"
#include "net/link.h"
#include "obs/sim_monitor.h"
#include "obs/telemetry.h"
#include "sim/simulator.h"

namespace sperke::bench {

inline constexpr double kVideoSeconds = 60.0;

// The canonical VOD workload: 60 s equirect video, 4x6 tiles, 1 s chunks,
// default 5-rung ladder.
inline std::shared_ptr<media::VideoModel> standard_video(std::uint64_t seed = 7) {
  media::VideoModelConfig cfg;
  cfg.duration_s = kVideoSeconds;
  cfg.chunk_duration_s = 1.0;
  cfg.tile_rows = 4;
  cfg.tile_cols = 6;
  cfg.seed = seed;
  return std::make_shared<media::VideoModel>(cfg);
}

// One synthetic user watching the standard video (shared ROI attractors
// give traces the cross-user correlation crowd features exploit).
inline hmp::HeadTrace standard_trace(std::uint64_t user_seed,
                                     hmp::UserProfile profile = hmp::UserProfile::adult(),
                                     double duration_s = kVideoSeconds + 120.0) {
  hmp::HeadTraceConfig cfg;
  cfg.duration_s = duration_s;
  cfg.sample_rate_hz = 25.0;
  cfg.profile = profile;
  cfg.attractors = hmp::default_attractors(duration_s, /*seed=*/4242);
  cfg.seed = user_seed;
  return hmp::generate_head_trace(cfg);
}

// Crowd heatmap built from `users` synthetic viewers of the same video.
inline hmp::ViewingHeatmap standard_crowd(const media::VideoModel& video,
                                          int users, std::uint64_t seed_base = 1000) {
  hmp::ViewingHeatmap crowd(video.tile_count(), video.chunk_count());
  for (int u = 0; u < users; ++u) {
    crowd.add_trace(standard_trace(seed_base + u), video.geometry(),
                    {100.0, 90.0}, video.chunk_duration());
  }
  return crowd;
}

// Run one VOD session of `trace` over a single link and return the report.
// With a telemetry sink the session, transport, and sim monitor all record
// into it, so benches can print figures straight from the shared metrics
// instead of keeping parallel hand-rolled counters.
inline core::SessionReport run_vod(const net::BandwidthTrace& bandwidth,
                                   core::SessionConfig config,
                                   const hmp::HeadTrace& trace,
                                   const hmp::ViewingHeatmap* crowd = nullptr,
                                   std::shared_ptr<media::VideoModel> video = nullptr,
                                   obs::Telemetry* telemetry = nullptr) {
  sim::Simulator simulator;
  net::Link link(simulator, net::LinkConfig{.name = "link",
                                            .bandwidth = bandwidth,
                                            .rtt = sim::milliseconds(30),
                                            .loss_rate = 0.0, .faults = {}});
  // HTTP/2-style multiplexing: fine tile grids issue hundreds of small
  // requests per chunk, which would otherwise serialize on the RTT.
  net::LinkSource source(link);
  core::SingleLinkTransport transport(
      source, {.max_concurrent = 16, .telemetry = telemetry, .recovery = {}});
  if (!video) video = standard_video();
  config.telemetry = telemetry;
  core::StreamingSession session(simulator, video, transport, trace, config, crowd);
  std::optional<obs::SimMonitor> monitor;
  if (telemetry != nullptr) monitor.emplace(simulator, *telemetry);
  session.start();
  simulator.run_until(sim::seconds(kVideoSeconds + 600.0));
  return session.report();
}

}  // namespace sperke::bench
