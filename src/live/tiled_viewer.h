// Tiled FoV-guided *live* viewing (§3.4.2's endpoint): the Sperke client
// applied to a live stream, where chunks appear at the ingest edge as the
// event unfolds and playback deadlines are wall-clock-hard — a chunk that
// is not ready when its deadline arrives is skipped (or shown with blank
// tiles), never rebuffered.
//
// TiledLiveSession is the live PlaybackClock over the one tile-session
// core, core::StreamingSession (DESIGN.md §17): the core observes the head,
// selects and fetches tiles, recovers failed fetches at the base tier,
// scans for upgrades and accounts waste; this class decides content time
// (now − e2e target), deadlines, when a chunk is planned (at ingest),
// blank/skip display, and the crowd prior.
//
// Several TiledLiveSession instances can share one simulator, one video
// (the live content) and one LiveCrowdHmp: low-latency viewers' displayed
// tiles become, in wall-clock order, the crowd prior that high-latency
// viewers use for FoV-guided prefetch — the paper's crowd-sourced live HMP
// made end-to-end.
#pragma once

#include <memory>
#include <span>
#include <string>

#include "abr/factory.h"
#include "abr/qoe.h"
#include "core/playback_clock.h"
#include "core/session.h"
#include "core/transport.h"
#include "live/crowd.h"
#include "obs/telemetry.h"
#include "sim/simulator.h"

namespace sperke::live {

struct TiledLiveConfig {
  // The viewer plays chunk i at wall time chunk_start(i) + e2e_target.
  // Must leave room for ingest_delay plus at least one chunk of fetching.
  double e2e_target_s = 8.0;
  // Capture + upload + transcode pipeline: chunk i becomes fetchable at
  // wall time chunk_end(i) + ingest_delay.
  sim::Duration ingest_delay{sim::seconds(3.0)};
  geo::Viewport viewport{100.0, 90.0};
  // Tile-ABR policy (name + per-policy params), built via abr::make_policy.
  abr::TileAbrConfig abr;
  std::string predictor = "linear-regression";
  double head_sample_hz = 25.0;
  sim::Duration upgrade_scan_period{sim::milliseconds(250)};
  bool enable_upgrades = true;
  // Blend weight of the live crowd prior mirrors hmp::FusionConfig.
  double crowd_tau_s = 1.5;
  double crowd_grace_s = 0.5;
  // Delay before this viewer's own displayed tiles reach the crowd map.
  sim::Duration crowd_report_delay{sim::milliseconds(300)};
  abr::QoeWeights qoe;
  // Telemetry sink (not owned; must outlive the session). Null = disabled.
  // When set, the viewer records the session core's metrics and trace;
  // fetch events carry causal request ids, so blank re-requests nest under
  // the fetch they replace in the exported trace.
  obs::Telemetry* telemetry = nullptr;
  // Graceful degradation on fetch failures (DESIGN.md §10): re-request a
  // failed FoV tile at the base quality tier while its live deadline still
  // stands. Off by default (byte-identical without faults).
  bool fetch_recovery = false;
};

struct TiledLiveReport {
  abr::QoeSummary qoe;
  int chunks_played = 0;      // displayed (possibly with blanks)
  int chunks_skipped = 0;     // nothing displayable at the deadline
  double mean_blank_fraction = 0.0;
  int fetches = 0;
  int upgrades = 0;
  int fetch_failures = 0;    // fetches that timed out / failed outright
  int degraded_retries = 0;  // failed FoV fetches re-issued at base tier
  bool finished = false;
};

class TiledLiveSession final : private core::PlaybackClock {
 public:
  // `crowd` (optional) is both read (prefetch prior) and written (this
  // viewer's displayed tiles, after crowd_report_delay). All referenced
  // objects must outlive the session.
  TiledLiveSession(sim::Simulator& simulator,
                   std::shared_ptr<const media::VideoModel> video,
                   core::ChunkTransport& transport,
                   const hmp::HeadTrace& head_trace, TiledLiveConfig config,
                   LiveCrowdHmp* crowd = nullptr);

  void start() { session_.start(); }

  [[nodiscard]] bool finished() const { return session_.finished(); }
  [[nodiscard]] TiledLiveReport report() const;

 private:
  // core::PlaybackClock: the live clock.
  void on_start() override;
  [[nodiscard]] sim::Time content_now() const override;
  [[nodiscard]] sim::Time deadline(media::ChunkIndex index) const override;
  [[nodiscard]] media::ChunkIndex first_showable() const override {
    return next_play_;
  }
  // A fetch that lands after the last chunk's deadline is not billed.
  [[nodiscard]] bool counts_after_finish() const override { return false; }
  void blend_prior(media::ChunkIndex index, sim::Duration horizon,
                   std::span<double> probs) const override;
  // Live never rebuffers: a late chunk shows blank tiles, or is skipped.
  bool hold(media::ChunkIndex /*index*/,
            std::span<const geo::TileId> /*missing*/) override {
    return false;
  }
  void played(media::ChunkIndex index,
              std::span<const geo::TileId> shown) override;

  sim::Simulator& simulator_;
  std::shared_ptr<const media::VideoModel> video_;
  TiledLiveConfig config_;
  LiveCrowdHmp* crowd_;
  media::ChunkIndex next_play_ = 0;  // first chunk not yet shown or skipped
  // Declared last: constructed with *this as its clock.
  core::StreamingSession session_;
};

}  // namespace sperke::live
