#include "live/tiled_viewer.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <vector>

namespace sperke::live {
namespace {

// The session core's view of a live viewer. A live fetch is urgent once
// less than one chunk duration remains before its deadline.
core::SessionConfig session_config(const TiledLiveConfig& live,
                                   const media::VideoModel& video) {
  core::SessionConfig config;
  config.abr = live.abr;
  config.viewport = live.viewport;
  config.head_sample_hz = live.head_sample_hz;
  config.urgent_slack = video.chunk_duration();
  config.upgrade_scan_period = live.upgrade_scan_period;
  config.enable_upgrades = live.enable_upgrades;
  config.qoe = live.qoe;
  config.predictor = live.predictor;
  config.telemetry = live.telemetry;
  config.fetch_recovery = live.fetch_recovery;
  return config;
}

}  // namespace

TiledLiveSession::TiledLiveSession(sim::Simulator& simulator,
                                   std::shared_ptr<const media::VideoModel> video,
                                   core::ChunkTransport& transport,
                                   const hmp::HeadTrace& head_trace,
                                   TiledLiveConfig config, LiveCrowdHmp* crowd)
    : simulator_(simulator),
      video_(std::move(video)),
      config_(std::move(config)),
      crowd_(crowd),
      session_(simulator, video_, transport, head_trace,
               session_config(config_, *video_), *this) {
  const double min_latency = sim::to_seconds(config_.ingest_delay) +
                             sim::to_seconds(video_->chunk_duration());
  if (config_.e2e_target_s < min_latency) {
    throw std::invalid_argument(
        "TiledLiveSession: e2e target below ingest + one chunk");
  }
  if (crowd_ != nullptr && crowd_->tile_count() != video_->tile_count()) {
    throw std::invalid_argument("TiledLiveSession: crowd/grid mismatch");
  }
}

void TiledLiveSession::on_start() {
  // Plan each chunk the moment it becomes available at the ingest edge
  // (chunk i at the end of its capture plus the ingest delay, so in index
  // order), and play it at its wall-clock deadline.
  for (media::ChunkIndex index = 0; index < video_->chunk_count(); ++index) {
    const sim::Time available = video_->chunk_start_time(index) +
                                video_->chunk_duration() + config_.ingest_delay;
    simulator_.schedule_at(available, [this] {
      if (!finished()) plan_next();
    });
    simulator_.schedule_at(deadline(index), [this, index] {
      if (!finished()) play(index);
    });
  }
}

sim::Time TiledLiveSession::content_now() const {
  const sim::Time now = simulator_.now();
  const auto latency = sim::seconds(config_.e2e_target_s);
  return now > latency ? now - latency : sim::kTimeZero;
}

sim::Time TiledLiveSession::deadline(media::ChunkIndex index) const {
  return video_->chunk_start_time(index) + sim::seconds(config_.e2e_target_s);
}

void TiledLiveSession::blend_prior(media::ChunkIndex index,
                                   sim::Duration horizon,
                                   std::span<double> probs) const {
  // Blend in the *time-gated* live crowd snapshot: only what other viewers
  // have already displayed (and reported) by now is usable.
  if (crowd_ == nullptr || crowd_->observations(index, simulator_.now()) <= 0) {
    return;
  }
  const auto crowd_probs = crowd_->probabilities(index, simulator_.now());
  const double h = std::max(0.0, sim::to_seconds(horizon));
  const double w =
      std::exp(-std::max(0.0, h - config_.crowd_grace_s) / config_.crowd_tau_s);
  double total = 0.0;
  for (std::size_t i = 0; i < probs.size(); ++i) {
    probs[i] = w * probs[i] + (1.0 - w) * crowd_probs[i];
    total += probs[i];
  }
  for (double& p : probs) p /= total;
}

void TiledLiveSession::played(media::ChunkIndex index,
                              std::span<const geo::TileId> shown) {
  if (!shown.empty() && crowd_ != nullptr) {
    // Report what this viewer actually watched; other (higher-latency)
    // viewers can use it once the report lands.
    const sim::Time when = simulator_.now() + config_.crowd_report_delay;
    simulator_.schedule_at(
        when, [this, index, when,
               tiles = std::vector<geo::TileId>(shown.begin(), shown.end())] {
          crowd_->record(index, tiles, when);
        });
  }
  next_play_ = index + 1;
  if (next_play_ >= video_->chunk_count()) finish();
}

TiledLiveReport TiledLiveSession::report() const {
  const core::SessionReport core = session_.report();
  return {.qoe = core.qoe,
          .chunks_played = core.qoe.chunks_played,
          .chunks_skipped = core.qoe.skipped_chunks,
          .mean_blank_fraction = core.qoe.blank_fraction_mean,
          .fetches = core.fetches,
          .upgrades = core.upgrades,
          .fetch_failures = core.fetch_failures,
          .degraded_retries = core.degraded_retries,
          .finished = core.completed};
}

}  // namespace sperke::live
