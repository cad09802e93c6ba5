#include "core/session.h"

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <span>
#include <stdexcept>

#include "geo/orientation.h"
#include "util/check.h"
#include "util/log.h"

namespace sperke::core {
namespace {

std::unique_ptr<hmp::OrientationPredictor> motion_for(const SessionConfig& config) {
  return hmp::make_orientation_predictor(config.predictor);
}

}  // namespace

// The on-demand clock: content time is the playhead's media time, frozen
// during a stall; chunks are planned up to prefetch_horizon_chunks ahead of
// the playhead; a chunk missing visible tiles at its deadline stalls
// playback while they are fetched at the base tier.
class StreamingSession::VodClock final : public PlaybackClock {
 public:
  explicit VodClock(StreamingSession& session) : s_(session) {}

  void on_start() override { plan_window(); }

  sim::Time content_now() const override {
    const sim::Time base = s_.video_->chunk_start_time(current_chunk_);
    if (!playing_ || stalled_) return base;
    return base + (s_.simulator_.now() - chunk_play_started_);
  }

  sim::Time deadline(media::ChunkIndex index) const override {
    const auto ahead = s_.video_->chunk_duration() * (index - current_chunk_);
    if (playing_ && !stalled_) return chunk_play_started_ + ahead;
    return s_.simulator_.now() + ahead;  // startup/stall: assume immediate resume
  }

  // While playing, the chunk at the playhead (the next one due) already
  // counts as late; only during startup or a stall are its tiles buffered.
  media::ChunkIndex first_showable() const override {
    return current_chunk_ + (playing_ && !stalled_ ? 1 : 0);
  }

  bool counts_after_finish() const override { return true; }

  void on_settled() override {
    // Re-check a stalled chunk: playback resumes once its coverage is
    // complete, and tiles whose emergency fetch failed are re-issued.
    if (stalled_) play(current_chunk_);
    attempt_start();
    plan_window();
  }

  bool hold(media::ChunkIndex index,
            std::span<const geo::TileId> missing) override {
    const sim::Time now = s_.simulator_.now();
    if (!missing.empty()) {
      if (!stalled_) {
        stalled_ = true;
        stall_started_ = now;
        if (s_.config_.telemetry != nullptr) s_.metrics_.stalled->add(1.0);
        s_.record_trace({.type = obs::TraceEventType::kStallBegin,
                         .ts = stall_started_,
                         .chunk = index,
                         .value = static_cast<double>(missing.size())});
      }
      // Emergency fetch of the missing tiles at the base quality (Table 1's
      // "urgent chunks": very short deadline after an HMP correction).
      for (geo::TileId tile : missing) {
        const media::ChunkAddress address{{tile, index},
                                          s_.policy_->base_tier_encoding(), 0};
        s_.dispatch(address, abr::SpatialClass::kFov, now, false, false);
      }
      return true;  // resume when a settled fetch completes the coverage
    }
    if (stalled_) {
      stalled_ = false;
      const sim::Duration stall = now - stall_started_;
      s_.qoe_.record_stall(stall);
      if (s_.config_.telemetry != nullptr) {
        s_.metrics_.stalled->add(-1.0);
        s_.metrics_.stall_events->increment();
        s_.metrics_.stall_s->observe(sim::to_seconds(stall));
        s_.record_trace({.type = obs::TraceEventType::kStallEnd,
                         .ts = now,
                         .chunk = index,
                         .value = sim::to_seconds(stall)});
      }
      chunk_play_started_ = now;
    }
    return false;
  }

  void played(media::ChunkIndex index,
              std::span<const geo::TileId> /*shown*/) override {
    if (index + 1 >= s_.video_->chunk_count()) {
      s_.simulator_.schedule_after(s_.video_->chunk_duration(),
                                   [this, alive = s_.alive_] {
                                     if (*alive) finish();
                                   });
      return;
    }
    current_chunk_ = index + 1;
    chunk_play_started_ += s_.video_->chunk_duration();
    plan_window();
    s_.simulator_.schedule_at(chunk_play_started_, [this, alive = s_.alive_] {
      if (*alive) play(current_chunk_);
    });
  }

 private:
  void plan_window() {
    if (s_.finished_) return;
    while (s_.next_plan_ < s_.video_->chunk_count() &&
           s_.next_plan_ < current_chunk_ + s_.config_.prefetch_horizon_chunks) {
      plan_next();
    }
    attempt_start();
  }

  // Startup condition: the tiles visible at media time 0 are displayable
  // for the first `startup_chunks` chunks.
  void attempt_start() {
    if (playing_ || s_.finished_) return;
    std::vector<geo::TileId>& visible = s_.visible_scratch_;
    s_.video_->geometry().visible_tiles(
        s_.head_trace_.orientation_at(sim::kTimeZero), s_.config_.viewport,
        visible, s_.geo_scratch_);
    const int want =
        std::min<int>(s_.config_.startup_chunks, s_.video_->chunk_count());
    if (s_.buffer_.contiguous_chunks(0, visible) < want) return;
    playing_ = true;
    s_.startup_done_ = s_.simulator_.now();
    chunk_play_started_ = s_.simulator_.now();
    play(current_chunk_);
  }

  StreamingSession& s_;
  bool playing_ = false;
  bool stalled_ = false;
  media::ChunkIndex current_chunk_ = 0;  // chunk being (or next to be) played
  sim::Time chunk_play_started_{sim::kTimeZero};
  sim::Time stall_started_{sim::kTimeZero};
};

void PlaybackClock::plan_next() { session_->plan_next(); }
void PlaybackClock::play(media::ChunkIndex index) {
  session_->play_chunk(index);
}
void PlaybackClock::finish() { session_->finish(); }

StreamingSession::StreamingSession(sim::Simulator& simulator,
                                   std::shared_ptr<const media::VideoModel> video,
                                   ChunkTransport& transport,
                                   const hmp::HeadTrace& head_trace,
                                   SessionConfig config,
                                   const hmp::ViewingHeatmap* crowd,
                                   SessionBatch* batch)
    : StreamingSession(simulator, std::move(video), transport, head_trace,
                       std::move(config), crowd, batch,
                       std::make_unique<VodClock>(*this), nullptr) {}

StreamingSession::StreamingSession(sim::Simulator& simulator,
                                   std::shared_ptr<const media::VideoModel> video,
                                   ChunkTransport& transport,
                                   const hmp::HeadTrace& head_trace,
                                   SessionConfig config, PlaybackClock& clock)
    : StreamingSession(simulator, std::move(video), transport, head_trace,
                       std::move(config), nullptr, nullptr, nullptr, &clock) {}

StreamingSession::StreamingSession(sim::Simulator& simulator,
                                   std::shared_ptr<const media::VideoModel> video,
                                   ChunkTransport& transport,
                                   const hmp::HeadTrace& head_trace,
                                   SessionConfig config,
                                   const hmp::ViewingHeatmap* crowd,
                                   SessionBatch* batch,
                                   std::unique_ptr<PlaybackClock> own_clock,
                                   PlaybackClock* clock)
    : simulator_(simulator),
      video_(std::move(video)),
      transport_(transport),
      head_trace_(head_trace),
      config_(std::move(config)),
      fusion_(video_->geometry_ptr(), config_.viewport, motion_for(config_), crowd,
              config_.context, config_.fusion),
      own_batch_(batch == nullptr ? std::make_unique<SessionBatch>(video_, 1)
                                  : nullptr),
      batch_(batch == nullptr ? own_batch_.get() : batch),
      slot_(batch_->acquire()),
      buffer_(video_, batch_->cells(slot_)),
      policy_(abr::make_policy(video_, config_.abr)),
      qoe_(config_.qoe),
      own_clock_(std::move(own_clock)),
      clock_(clock != nullptr ? *clock : *own_clock_) {
  clock_.session_ = this;
  planned_ = batch_->planned_quality(slot_);
  in_flight_ = batch_->in_flight(slot_);
  probs_ = batch_->probs(slot_);
  if (config_.telemetry != nullptr) {
    obs::MetricsRegistry& m = config_.telemetry->metrics();
    metrics_.fetches = &m.counter("session.fetches");
    metrics_.urgent_fetches = &m.counter("session.urgent_fetches");
    metrics_.upgrades = &m.counter("session.upgrades");
    metrics_.late_corrections = &m.counter("session.late_corrections");
    metrics_.chunks_played = &m.counter("session.chunks_played");
    metrics_.stall_events = &m.counter("session.stall_events");
    metrics_.stalled = &m.gauge("session.stalled");
    metrics_.fetch_latency_ms = &m.histogram("session.fetch_latency_ms");
    metrics_.stall_s = &m.histogram(
        "session.stall_s", {0.05, 0.1, 0.25, 0.5, 1.0, 2.0, 5.0, 10.0, 30.0});
    metrics_.viewport_utility = &m.histogram(
        "session.viewport_utility",
        {0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0});
    metrics_.hmp_error_deg = &m.histogram(
        "session.hmp_error_deg", {5.0, 10.0, 20.0, 30.0, 45.0, 60.0, 90.0, 180.0});
    metrics_.bytes_downloaded = &m.counter("session.bytes_downloaded");
    metrics_.bytes_wasted = &m.counter("session.bytes_wasted");
    // The counter name embeds the factory policy name (all [a-z0-9_]+,
    // enforced by abr::make_policy's closed name set), so mixed-population
    // worlds merge into one row per policy.
    metrics_.abr_plans =
        &m.counter("abr." + std::string(policy_->name()) + ".plans");
    if (config_.fetch_recovery) {
      metrics_.fetch_failures = &m.counter("session.fetch_failures");
      metrics_.degraded_retries = &m.counter("session.degraded_retries");
    }
  }
  if (config_.prefetch_horizon_chunks < 1) {
    throw std::invalid_argument("Session: prefetch horizon < 1");
  }
  if (config_.startup_chunks < 1) {
    throw std::invalid_argument("Session: startup chunks < 1");
  }
  if (config_.head_sample_hz <= 0.0) {
    throw std::invalid_argument("Session: bad head sample rate");
  }
}

std::uint64_t StreamingSession::inflight_bit(const media::ChunkAddress& address) {
  // 64-bit cell masks split evenly: AVC levels in the low half, SVC layers
  // in the high half, so one cell tracks both encodings of a tile chunk.
  SPERKE_DCHECK(address.level >= 0 && address.level < 32,
                "Session: quality/layer outside in-flight mask range ",
                address.level);
  const int shift = address.encoding == media::Encoding::kAvc
                        ? address.level
                        : 32 + address.level;
  return std::uint64_t{1} << shift;
}

std::size_t StreamingSession::inflight_cell(const media::ChunkKey& key) const {
  SPERKE_DCHECK(key.tile >= 0 && key.tile < video_->tile_count() &&
                    key.index >= 0 && key.index < video_->chunk_count(),
                "Session: in-flight cell out of range");
  return static_cast<std::size_t>(key.index) *
             static_cast<std::size_t>(video_->tile_count()) +
         static_cast<std::size_t>(key.tile);
}

bool StreamingSession::inflight_contains(const media::ChunkAddress& address) const {
  return (in_flight_[inflight_cell(address.key)] & inflight_bit(address)) != 0;
}

void StreamingSession::record_trace(const obs::TraceEvent& event) {
  if (config_.telemetry != nullptr) config_.telemetry->trace().record(event);
}

void StreamingSession::start() {
  if (started_) throw std::logic_error("Session already started");
  started_ = true;
  session_started_ = simulator_.now();
  record_trace({.type = obs::TraceEventType::kSessionStart,
                .ts = simulator_.now()});
  observe_head();  // prime the predictor with the initial pose
  head_task_.emplace(simulator_, sim::seconds(1.0 / config_.head_sample_hz),
                     [this] { observe_head(); });
  if (config_.enable_upgrades && config_.planner == PlannerMode::kFovGuided &&
      policy_->upgrade_window() > sim::Duration{0}) {
    upgrade_task_.emplace(simulator_, config_.upgrade_scan_period,
                          [this] { scan_upgrades(); });
  }
  clock_.on_start();
}

void StreamingSession::observe_head() {
  if (finished_) return;
  const sim::Time t = clock_.content_now();
  if (t <= last_observed_) return;  // content time frozen during stall
  last_observed_ = t;
  fusion_.observe({t, head_trace_.orientation_at(t)});
}

void StreamingSession::plan_next() {
  const media::ChunkIndex index = next_plan_++;
  const sim::Time deadline = clock_.deadline(index);
  const sim::Duration horizon =
      video_->chunk_start_time(index) - clock_.content_now();

  std::vector<geo::TileId>& fov = fov_scratch_;
  // Empty for the FoV-agnostic planner (no OOS concept); the batch slot's
  // probability span otherwise.
  std::span<const double> probs;
  if (config_.planner == PlannerMode::kFovAgnostic) {
    // Whole panorama, no OOS concept.
    fov.resize(static_cast<std::size_t>(video_->tile_count()));
    for (geo::TileId t = 0; t < video_->tile_count(); ++t) {
      fov[static_cast<std::size_t>(t)] = t;
    }
  } else {
    // Size the super chunk from the motion-predicted viewport, but pick
    // the *tiles* from the fused probability map: at short horizons the
    // map is motion-dominated (same tiles), at long horizons the crowd
    // prior takes over, which is what makes deep prefetch viable (§3.2).
    const geo::Orientation predicted = fusion_.predict_orientation(horizon);
    if (config_.telemetry != nullptr) predicted_at_plan_[index] = predicted;
    std::vector<geo::TileId>& motion_fov = motion_fov_scratch_;
    video_->geometry().visible_tiles(predicted, config_.viewport, motion_fov,
                                     geo_scratch_);
    fusion_.tile_probabilities_into(horizon, index, probs_);
    clock_.blend_prior(index, horizon, probs_);
    probs = probs_;
    std::vector<geo::TileId>& order = fov;
    order.resize(probs.size());
    for (std::size_t i = 0; i < probs.size(); ++i) {
      order[i] = static_cast<geo::TileId>(i);
    }
    std::stable_sort(order.begin(), order.end(), [&](geo::TileId a, geo::TileId b) {
      return probs[static_cast<std::size_t>(a)] > probs[static_cast<std::size_t>(b)];
    });
    order.resize(std::min(order.size(), motion_fov.size()));
    std::sort(fov.begin(), fov.end());
  }

  // Media time buffered ahead of the playhead: time left to the deadline.
  const sim::Duration buffer_level = deadline - simulator_.now();
  // Data budget: treat the remaining allowance, spread over the remaining
  // chunks, as a second throughput ceiling for the regular VRA.
  double effective_kbps = transport_.estimated_kbps();
  if (config_.data_budget_bytes > 0) {
    const std::int64_t spent = qoe_.summary().bytes_downloaded;
    const std::int64_t remaining_bytes =
        std::max<std::int64_t>(0, config_.data_budget_bytes - spent);
    const int remaining_chunks = video_->chunk_count() - index;
    const double budget_kbps =
        static_cast<double>(remaining_bytes) * 8.0 /
        std::max(1.0, remaining_chunks *
                          sim::to_seconds(video_->chunk_duration())) /
        1000.0;
    effective_kbps = effective_kbps > 0.0
                         ? std::min(effective_kbps, budget_kbps)
                         : budget_kbps;
  }
  policy_->plan_chunk_into(index, fov, probs, effective_kbps, buffer_level,
                           last_fov_quality_, vra_workspace_, plan_scratch_);
  const abr::ChunkPlan& plan = plan_scratch_;
  planned_[static_cast<std::size_t>(index)] = plan.fov_quality;
  last_fov_quality_ = plan.fov_quality;
  if (config_.telemetry != nullptr) {
    metrics_.abr_plans->increment();
    record_trace({.type = obs::TraceEventType::kPlanComputed,
                  .ts = simulator_.now(),
                  .chunk = index,
                  .quality = plan.fov_quality,
                  .bytes = plan.total_bytes(*video_),
                  .value = static_cast<double>(plan.fetches.size())});
  }

  for (const auto& fetch : plan.fetches) {
    dispatch(fetch.address, fetch.spatial, deadline, false, false);
  }
}

void StreamingSession::dispatch(const media::ChunkAddress& address,
                                abr::SpatialClass spatial, sim::Time deadline,
                                bool count_as_upgrade, bool count_as_correction,
                                std::int64_t parent_request_id) {
  if (buffer_.contains(address) || inflight_contains(address)) return;
  in_flight_[inflight_cell(address.key)] |= inflight_bit(address);
  ++fetches_;
  const bool urgent = (deadline - simulator_.now()) < config_.urgent_slack;
  if (urgent) ++urgent_fetches_;
  if (count_as_upgrade) ++upgrades_;
  if (count_as_correction) ++late_corrections_;
  const std::int64_t bytes = video_->size_bytes(address);
  const sim::Time dispatched = simulator_.now();
  std::int64_t request_id = 0;
  if (config_.telemetry != nullptr) {
    request_id = config_.telemetry->next_request_id();
    metrics_.fetches->increment();
    if (urgent) metrics_.urgent_fetches->increment();
    if (count_as_upgrade) metrics_.upgrades->increment();
    if (count_as_correction) metrics_.late_corrections->increment();
    record_trace({.type = obs::TraceEventType::kFetchDispatched,
                  .ts = dispatched,
                  .tile = address.key.tile,
                  .chunk = address.key.index,
                  .quality = address.level,
                  .bytes = bytes,
                  .urgent = urgent,
                  .request = request_id,
                  .parent = parent_request_id});
  }
  ChunkRequest request;
  request.id = net::to_chunk_id(address);
  request.bytes = bytes;
  request.spatial = spatial;
  request.urgent = urgent;
  request.deadline = deadline;
  request.request_id = request_id;
  request.parent_id = parent_request_id;
  request.on_done = [this, alive = alive_, address, bytes, dispatched, urgent,
                     spatial, deadline, request_id,
                     parent_request_id](sim::Time finished, FetchOutcome outcome) {
    if (!*alive) return;
    in_flight_[inflight_cell(address.key)] &= ~inflight_bit(address);
    const bool ok = delivered(outcome);
    if (config_.telemetry != nullptr) {
      if (ok) {
        metrics_.fetch_latency_ms->observe(
            sim::to_milliseconds(finished - dispatched));
      }
      obs::TraceEvent event{.type = ok ? obs::TraceEventType::kFetchDone
                                       : obs::TraceEventType::kFetchDropped,
                            .ts = finished,
                            .tile = address.key.tile,
                            .chunk = address.key.index,
                            .quality = address.level,
                            .bytes = bytes,
                            .urgent = urgent,
                            .request = request_id,
                            .parent = parent_request_id};
      // Fault outcomes ride the kFetchDropped event with the outcome in
      // `value`; kDropped keeps value 0.0 so fault-free traces stay
      // byte-identical.
      if (outcome == FetchOutcome::kTimedOut || outcome == FetchOutcome::kFailed) {
        event.value = static_cast<double>(outcome);
      }
      record_trace(event);
    }
    if (finished_ && !clock_.counts_after_finish()) return;
    if (ok) {
      on_fetch_done(address, bytes);
      return;
    }
    if (outcome == FetchOutcome::kDropped) return;  // best-effort loss
    // Injected-fault loss (timed out / failed after retries).
    ++fetch_failures_;
    if (metrics_.fetch_failures != nullptr) metrics_.fetch_failures->increment();
    // A chunk is shown no earlier than the deadline its fetches carry, so
    // a deadline still ahead means the tile can still be shown.
    if (config_.fetch_recovery && spatial == abr::SpatialClass::kFov &&
        deadline > simulator_.now()) {
      // Graceful degradation: re-request the tile at the base tier while
      // the deadline still stands rather than leaving a hole in the FoV.
      const media::ChunkAddress fallback{address.key,
                                         policy_->base_tier_encoding(), 0};
      if (!buffer_.contains(fallback) && !inflight_contains(fallback)) {
        ++degraded_retries_;
        if (metrics_.degraded_retries != nullptr) {
          metrics_.degraded_retries->increment();
        }
        // The re-request cites the failed request as its causal parent, so
        // the exported trace nests the degraded retry under the original.
        dispatch(fallback, abr::SpatialClass::kFov, deadline, false, false,
                 request_id);
      }
    }
    clock_.on_settled();
  };
  transport_.fetch(std::move(request));
}

void StreamingSession::on_fetch_done(const media::ChunkAddress& address,
                                     std::int64_t bytes) {
  qoe_.record_downloaded(bytes);
  if (metrics_.bytes_downloaded != nullptr) {
    metrics_.bytes_downloaded->add(bytes);
  }
  if (finished_ || address.key.index < clock_.first_showable()) {
    // Arrived too late to be shown: pure waste.
    qoe_.record_wasted(bytes);
    if (metrics_.bytes_wasted != nullptr) {
      metrics_.bytes_wasted->add(bytes);
    }
  } else {
    buffer_.add(address);
  }
  clock_.on_settled();
}

void StreamingSession::play_chunk(media::ChunkIndex index) {
  if (finished_) return;
  const sim::Time media = video_->chunk_start_time(index);
  std::vector<geo::TileId>& visible = visible_scratch_;
  video_->geometry().visible_tiles(head_trace_.orientation_at(media),
                                   config_.viewport, visible, geo_scratch_);

  // Coverage check: which visible tiles are displayable, and at what
  // utility.
  std::vector<geo::TileId>& shown = shown_scratch_;
  std::vector<geo::TileId>& missing = missing_scratch_;
  shown.clear();
  missing.clear();
  double utility_sum = 0.0;
  for (geo::TileId tile : visible) {
    const media::QualityLevel quality =
        buffer_.displayable_quality({tile, index});
    if (quality < 0) {
      missing.push_back(tile);
      continue;
    }
    shown.push_back(tile);
    utility_sum += video_->ladder().utility(quality);
  }
  if (clock_.hold(index, missing)) return;

  if (shown.empty()) {
    qoe_.record_skip();  // nothing to show at the deadline
  } else {
    // Record the displayed viewport quality; missing tiles show blank.
    const auto n_visible = static_cast<double>(visible.size());
    const double viewport_utility = utility_sum / n_visible;
    const double blank = 1.0 - static_cast<double>(shown.size()) / n_visible;
    qoe_.record_played_chunk(viewport_utility, blank);
    utility_per_chunk_.push_back(viewport_utility);
    if (config_.telemetry != nullptr) {
      metrics_.chunks_played->increment();
      metrics_.viewport_utility->observe(viewport_utility);
      const auto predicted_it = predicted_at_plan_.find(index);
      if (predicted_it != predicted_at_plan_.end()) {
        metrics_.hmp_error_deg->observe(geo::angular_distance_deg(
            predicted_it->second, head_trace_.orientation_at(media)));
        predicted_at_plan_.erase(predicted_it);
      }
      record_trace({.type = obs::TraceEventType::kChunkPlayed,
                    .ts = simulator_.now(),
                    .chunk = index,
                    .quality =
                        buffer_.displayable_quality({visible.front(), index}),
                    .value = viewport_utility});
    }
  }

  // Waste accounting for every cell of this chunk.
  std::vector<char>& is_visible = is_visible_scratch_;
  is_visible.assign(static_cast<std::size_t>(video_->tile_count()), 0);
  for (geo::TileId tile : visible) is_visible[static_cast<std::size_t>(tile)] = 1;
  for (geo::TileId tile = 0; tile < video_->tile_count(); ++tile) {
    const media::ChunkKey key{tile, index};
    const std::int64_t held = buffer_.cell_bytes(key);
    if (held == 0) continue;
    std::int64_t used = 0;
    if (is_visible[static_cast<std::size_t>(tile)]) {
      used = buffer_.cell_bytes_used(key, buffer_.displayable_quality(key));
    }
    qoe_.record_wasted(held - used);
    if (metrics_.bytes_wasted != nullptr && held > used) {
      metrics_.bytes_wasted->add(held - used);
    }
  }
  buffer_.evict_before(index + 1);
  clock_.played(index, shown);
}

void StreamingSession::scan_upgrades() {
  if (finished_ || config_.planner != PlannerMode::kFovGuided) return;
  const double est = transport_.estimated_kbps();
  for (media::ChunkIndex index = clock_.first_showable(); index < next_plan_;
       ++index) {
    const sim::Time deadline = clock_.deadline(index);
    const sim::Duration slack = deadline - simulator_.now();
    if (slack <= sim::Duration{0}) continue;
    // Hoisted from consider_upgrade: outside the policy's upgrade window
    // it rejects every tile on slack alone, so the per-chunk prediction,
    // visible set, and probability map would be dead work.
    if (slack > policy_->upgrade_window()) continue;
    const sim::Duration horizon =
        video_->chunk_start_time(index) - clock_.content_now();
    const geo::Orientation predicted = fusion_.predict_orientation(horizon);
    std::vector<geo::TileId>& visible = visible_scratch_;
    video_->geometry().visible_tiles(predicted, config_.viewport, visible,
                                     geo_scratch_);
    fusion_.tile_probabilities_into(horizon, index, probs_);
    clock_.blend_prior(index, horizon, probs_);
    const std::span<const double> probs = probs_;
    // -1 marks a chunk the planner has not reached; planned qualities are
    // never negative.
    const media::QualityLevel target = planned_[static_cast<std::size_t>(index)];
    if (target < 0) continue;
    for (geo::TileId tile : visible) {
      const media::ChunkKey key{tile, index};
      const media::QualityLevel current = buffer_.displayable_quality(key);
      if (current >= target) continue;
      const auto decision = policy_->consider_upgrade(
          key, current, buffer_.svc_contiguous_quality(key), target,
          probs[static_cast<std::size_t>(tile)], slack, est);
      if (!decision.upgrade) continue;
      // Trace the decision only when it commits new work; re-scans that find
      // every layer already buffered or in flight are not new decisions.
      const bool commits = std::any_of(
          decision.fetches.begin(), decision.fetches.end(),
          [this](const media::ChunkAddress& address) {
            return !buffer_.contains(address) && !inflight_contains(address);
          });
      if (config_.telemetry != nullptr && commits) {
        record_trace({.type = obs::TraceEventType::kUpgradeDecided,
                      .ts = simulator_.now(),
                      .tile = tile,
                      .chunk = index,
                      .quality = target,
                      .value = static_cast<double>(current)});
      }
      for (const auto& address : decision.fetches) {
        dispatch(address, abr::SpatialClass::kFov, deadline,
                 /*count_as_upgrade=*/current >= 0,
                 /*count_as_correction=*/current < 0);
      }
    }
  }
}

void StreamingSession::finish() {
  if (finished_) return;
  finished_ = true;
  session_ended_ = simulator_.now();
  record_trace({.type = obs::TraceEventType::kSessionEnd,
                .ts = session_ended_,
                .value = sim::to_seconds(session_ended_ - session_started_)});
  if (head_task_) head_task_->stop();
  if (upgrade_task_) upgrade_task_->stop();
}

SessionReport StreamingSession::report() const {
  SessionReport report;
  report.qoe = qoe_.summary();
  report.startup_delay = startup_done_ - session_started_;
  report.wall_duration =
      (finished_ ? session_ended_ : simulator_.now()) - session_started_;
  report.fetches = fetches_;
  report.urgent_fetches = urgent_fetches_;
  report.upgrades = upgrades_;
  report.late_corrections = late_corrections_;
  report.fetch_failures = fetch_failures_;
  report.degraded_retries = degraded_retries_;
  report.viewport_utility_per_chunk = utility_per_chunk_;
  report.completed = finished_;
  return report;
}

}  // namespace sperke::core
