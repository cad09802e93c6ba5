// Shared workload construction for the experiment benches (DESIGN.md §3).
#pragma once

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "core/session.h"
#include "engine/engine.h"
#include "engine/world.h"
#include "hmp/head_trace.h"
#include "hmp/heatmap.h"
#include "media/video_model.h"
#include "net/bandwidth_trace.h"

namespace sperke::bench {

inline constexpr double kVideoSeconds = 60.0;

// The canonical content: equirect video, 4x6 tiles, 1 s chunks, default
// 5-rung ladder, seed 7.
inline media::VideoModelConfig standard_video_config(
    double duration_s = kVideoSeconds) {
  media::VideoModelConfig cfg;
  cfg.duration_s = duration_s;
  cfg.chunk_duration_s = 1.0;
  cfg.tile_rows = 4;
  cfg.tile_cols = 6;
  cfg.seed = 7;
  return cfg;
}

// The canonical 60 s VOD video, built.
inline std::shared_ptr<media::VideoModel> standard_video() {
  return std::make_shared<media::VideoModel>(standard_video_config());
}

// One synthetic user watching the standard video (shared ROI attractors
// give traces the cross-user correlation crowd features exploit).
inline hmp::HeadTraceConfig standard_trace_config(
    std::uint64_t user_seed,
    hmp::UserProfile profile = hmp::UserProfile::adult(),
    double duration_s = kVideoSeconds + 120.0) {
  hmp::HeadTraceConfig cfg;
  cfg.duration_s = duration_s;
  cfg.sample_rate_hz = 25.0;
  cfg.profile = std::move(profile);
  cfg.attractors = hmp::default_attractors(duration_s, /*seed=*/4242);
  cfg.seed = user_seed;
  return cfg;
}

inline hmp::HeadTrace standard_trace(std::uint64_t user_seed) {
  return hmp::generate_head_trace(standard_trace_config(user_seed));
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

// Run one VOD session of `trace` over a single 30 ms, lossless link as a
// one-session engine world, and return its report.
inline core::SessionReport run_vod(const net::BandwidthTrace& bandwidth,
                                   core::SessionConfig config,
                                   const hmp::HeadTraceConfig& trace,
                                   const hmp::ViewingHeatmap* crowd = nullptr,
                                   const media::VideoModelConfig& video =
                                       standard_video_config()) {
  engine::WorldSpec spec;
  spec.video = video;
  spec.trace_template = trace;
  spec.link = {.name = "link", .bandwidth = bandwidth,
               .rtt = sim::milliseconds(30), .loss_rate = 0.0, .faults = {}};
  // HTTP/2-style multiplexing: fine tile grids issue hundreds of small
  // requests per chunk, which would otherwise serialize on the RTT.
  spec.transport_max_concurrent = 16;
  spec.session = std::move(config);
  spec.crowd = crowd;
  spec.horizon = sim::seconds(video.duration_s + 600.0);
  return engine::run_world(std::move(spec)).reports[0];
}

// One google-benchmark row: `value` lands in "real_time" (unit "s").
struct JsonRow {
  std::string name;
  double value = 0.0;
};

// Write `rows` as google-benchmark-compatible JSON for
// tools/bench_compare.py. `extra_context` is appended verbatim to the
// "context" object after "executable" (e.g. R"("num_cpus": 4)"). Exits 1
// when `path` cannot be written.
inline void write_benchmark_json(const std::string& path,
                                 std::string_view executable,
                                 const std::vector<JsonRow>& rows,
                                 std::string_view extra_context = {}) {
  std::ofstream out(path);
  if (!out) {
    std::fprintf(stderr, "error: cannot write %s\n", path.c_str());
    std::exit(1);
  }
  out << "{\n  \"context\": {\"executable\": \"" << executable << "\"";
  if (!extra_context.empty()) out << ", " << extra_context;
  out << "},\n  \"benchmarks\": [\n";
  for (std::size_t i = 0; i < rows.size(); ++i) {
    char buf[256];
    std::snprintf(buf, sizeof buf,
                  "    {\"name\": \"%s\", \"run_type\": \"iteration\", "
                  "\"real_time\": %.6f, \"time_unit\": \"s\"}%s\n",
                  rows[i].name.c_str(), rows[i].value,
                  i + 1 < rows.size() ? "," : "");
    out << buf;
  }
  out << "  ]\n}\n";
}

}  // namespace sperke::bench
