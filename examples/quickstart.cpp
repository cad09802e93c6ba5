// Quickstart: stream one synthetic 360° video through a Sperke session and
// print the QoE report.
//
//   $ ./quickstart
//
// This is the smallest end-to-end use of the public API:
//   1. synthesize a tiled 360° video (media::VideoModel),
//   2. synthesize a viewer's head movement (hmp::generate_head_trace),
//   3. build a network link + transport (net::Link, net::LinkSource,
//      core::SingleLinkTransport),
//   4. run the FoV-guided adaptive session (core::StreamingSession).
#include <iostream>

#include "core/session.h"
#include "core/transport.h"
#include "hmp/head_trace.h"
#include "media/manifest.h"
#include "net/link.h"
#include "sim/simulator.h"
#include "util/table.h"

int main() {
  using namespace sperke;

  // 1. The video: 60 s, 4x6 equirectangular tiles, 1 s chunks, 5 qualities.
  media::VideoModelConfig video_cfg;
  video_cfg.duration_s = 60.0;
  video_cfg.tile_rows = 4;
  video_cfg.tile_cols = 6;
  video_cfg.seed = 1;
  auto video = std::make_shared<media::VideoModel>(video_cfg);
  std::cout << media::Manifest(video).describe() << '\n';

  // 2. The viewer: an adult following the video's regions of interest.
  hmp::HeadTraceConfig trace_cfg;
  trace_cfg.duration_s = 120.0;
  trace_cfg.profile = hmp::UserProfile::adult();
  trace_cfg.attractors = hmp::default_attractors(120.0, 7);
  trace_cfg.seed = 42;
  const hmp::HeadTrace head = hmp::generate_head_trace(trace_cfg);

  // 3. The network: a 12 Mbps LTE-like link with 40 ms RTT.
  sim::Simulator simulator;
  net::Link link(simulator,
                 net::LinkConfig{.name = "lte",
                                 .bandwidth = net::BandwidthTrace::random_walk(
                                     12'000.0, 0.3, 1.0, 300.0, 3),
                                 .rtt = sim::milliseconds(40), .faults = {}});
  net::LinkSource source(link);
  core::SingleLinkTransport transport(source, {.max_concurrent = 8, .recovery = {}});

  // 4. The session: FoV-guided, SVC incremental upgrades, LR head prediction.
  core::SessionConfig session_cfg;
  session_cfg.abr.sperke.mode = abr::EncodingMode::kSvc;
  core::StreamingSession session(simulator, video, transport, head, session_cfg);
  session.start();
  simulator.run_until(sim::seconds(600.0));

  const core::SessionReport report = session.report();
  TextTable table({"Metric", "Value"});
  table.add_row({"Chunks played", std::to_string(report.qoe.chunks_played)});
  table.add_row({"Mean viewport utility",
                 TextTable::num(report.qoe.mean_viewport_utility, 3)});
  table.add_row({"Startup delay (s)",
                 TextTable::num(sim::to_seconds(report.startup_delay), 2)});
  table.add_row({"Stalls", std::to_string(report.qoe.stall_events) + " (" +
                               TextTable::num(report.qoe.stall_seconds, 2) + " s)"});
  table.add_row({"Downloaded (MB)",
                 TextTable::num(report.qoe.bytes_downloaded / 1e6, 1)});
  table.add_row({"Wasted (MB)", TextTable::num(report.qoe.bytes_wasted / 1e6, 1)});
  table.add_row({"Incremental upgrades", std::to_string(report.upgrades)});
  table.add_row({"Urgent fetches", std::to_string(report.urgent_fetches)});
  table.add_row({"QoE score", TextTable::num(report.qoe.score, 1)});
  std::cout << table.str();
  return report.completed ? 0 : 1;
}
