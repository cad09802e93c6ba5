#include "live/broadcast.h"

#include <algorithm>
#include <stdexcept>

namespace sperke::live {

LiveBroadcastSession::LiveBroadcastSession(Config config)
    : config_(std::move(config)) {
  if (config_.platform.ladder_kbps.empty()) {
    throw std::invalid_argument("LiveBroadcastSession: empty ladder");
  }
  if (config_.platform.segment_s <= 0.0) {
    throw std::invalid_argument("LiveBroadcastSession: bad segment length");
  }
  const double up = config_.network.up_kbps > 0.0 ? config_.network.up_kbps
                                                  : config_.unconstrained_kbps;
  const double down = config_.network.down_kbps > 0.0
                          ? config_.network.down_kbps
                          : config_.unconstrained_kbps;
  // The broadcaster's physical first-mile pipes, not a chunk-fetch path.
  // sperke: allow(link-construction) no CDN tier sits on the first mile
  uplink_ = std::make_unique<net::Link>(
      simulator_, net::LinkConfig{.name = "uplink",
                                  .bandwidth = net::BandwidthTrace::constant(up),
                                  .rtt = config_.link_rtt,
                                  .loss_rate = 0.0,
                                  .faults = config_.uplink_faults});
  // sperke: allow(link-construction) first-mile pipe, as above
  downlink_ = std::make_unique<net::Link>(
      simulator_, net::LinkConfig{.name = "downlink",
                                  .bandwidth = net::BandwidthTrace::constant(down),
                                  .rtt = config_.link_rtt,
                                  .loss_rate = 0.0,
                                  .faults = config_.downlink_faults});
  downlink_est_kbps_ = config_.platform.initial_downlink_estimate_kbps;
  if (config_.telemetry != nullptr) {
    obs::MetricsRegistry& m = config_.telemetry->metrics();
    e2e_latency_s_metric_ = &m.histogram(
        "live.e2e_latency_s", {2.0, 5.0, 10.0, 15.0, 20.0, 30.0, 45.0, 60.0, 90.0});
    displayed_metric_ = &m.counter("live.segments_displayed");
    dropped_metric_ = &m.counter("live.segments_dropped_at_broadcaster");
    rebuffers_metric_ = &m.counter("live.viewer_rebuffer_events");
    catchup_skips_metric_ = &m.counter("live.viewer_catchup_skips");
  }
}

void LiveBroadcastSession::record_trace(const obs::TraceEvent& event) {
  if (config_.telemetry != nullptr) config_.telemetry->trace().record(event);
}

LiveSessionResult LiveBroadcastSession::run() {
  const sim::Duration seg = sim::seconds(config_.platform.segment_s);
  // First segment completes capture one segment length in.
  sim::PeriodicTask capture(simulator_, seg, seg, [this] { capture_segment(); });
  std::optional<sim::PeriodicTask> poll;
  if (config_.platform.delivery == Delivery::kDashPull) {
    poll.emplace(simulator_, config_.platform.mpd_poll_period,
                 [this] { viewer_poll(); });
  }
  simulator_.run_until(config_.broadcast_length +
                       sim::seconds(60.0));  // drain the tail
  capture.stop();
  if (poll) poll->stop();

  LiveSessionResult result;
  result.segments_displayed = static_cast<int>(latencies_s_.size());
  if (!latencies_s_.empty()) {
    result.mean_e2e_latency_s = mean_of(latencies_s_);
    result.stddev_e2e_latency_s = stddev_of(latencies_s_);
  }
  result.segments_dropped_at_broadcaster = dropped_;
  result.viewer_rebuffer_events = rebuffers_;
  result.viewer_catchup_skips = catchup_skips_;
  result.mean_uploaded_kbps = uploaded_kbps_.mean();
  result.mean_uploaded_horizon_deg =
      uploaded_horizon_deg_.count() > 0 ? uploaded_horizon_deg_.mean() : 360.0;
  result.mean_displayed_kbps = displayed_kbps_.mean();
  return result;
}

void LiveBroadcastSession::capture_segment() {
  if (simulator_.now() > config_.broadcast_length) return;
  const double seg_s = config_.platform.segment_s;
  // Broadcaster-side upload VRA (§3.4.2), when configured; the status-quo
  // platforms upload at a fixed bitrate and full 360°.
  double upload_kbps = config_.platform.upload_kbps;
  double horizon_deg = 360.0;
  if (config_.upload_policy != nullptr) {
    const UploadDecision decision =
        config_.upload_policy->decide(uplink_->capacity_kbps_now());
    upload_kbps = decision.upload_kbps;
    horizon_deg = decision.horizon_deg;
  }
  uploaded_kbps_.add(upload_kbps);
  uploaded_horizon_deg_.add(horizon_deg);

  Segment segment;
  segment.index = next_capture_index_++;
  segment.capture_start = simulator_.now() - sim::seconds(seg_s);
  segment.bytes = static_cast<std::int64_t>(upload_kbps * 1000.0 / 8.0 * seg_s);

  // Continuous RTMP upload (fluid model): while this segment was being
  // captured, the uplink drained up to capacity x segment_s of the stream;
  // only the excess joins the encoder's queue.
  const double cap_kbps = uplink_->capacity_kbps_now();
  const double seg_kbits = upload_kbps * seg_s;
  upload_backlog_kbits_ =
      std::max(0.0, upload_backlog_kbits_ - cap_kbps * seg_s);
  // No upload rate adaptation (§3.4.1): while the queue still holds more
  // than its bound of *older* data, the encoder drops the new segment.
  if (upload_backlog_kbits_ >
      config_.platform.broadcaster_queue_mbits * 1000.0) {
    ++dropped_;
    if (config_.telemetry != nullptr) {
      dropped_metric_->increment();
      record_trace({.type = obs::TraceEventType::kSegmentDropped,
                    .ts = simulator_.now(),
                    .chunk = segment.index,
                    .bytes = segment.bytes});
    }
    return;
  }
  upload_backlog_kbits_ += seg_kbits;
  record_trace({.type = obs::TraceEventType::kSegmentCaptured,
                .ts = simulator_.now(),
                .chunk = segment.index,
                .bytes = segment.bytes,
                .value = upload_kbps});
  const double upload_delay_s =
      cap_kbps > 0.0 ? upload_backlog_kbits_ / cap_kbps : 1e9;
  simulator_.schedule_after(
      sim::seconds(upload_delay_s) + uplink_->rtt() +
          config_.platform.transcode_delay,
      [this, segment] { on_segment_ingested(segment); });
}

void LiveBroadcastSession::on_segment_ingested(Segment segment) {
  available_.emplace(segment.index, segment);
  if (config_.platform.delivery == Delivery::kRtmpPush) server_push();
}

void LiveBroadcastSession::server_push() {
  if (pushing_) return;
  // RTMP fan-out to a slow viewer: when too many segments queue up behind
  // the viewer's socket, the server drops the oldest (frame dropping).
  int latest = -1;
  for (const auto& [index, seg] : available_) latest = std::max(latest, index);
  if (latest >= 0 && latest - push_next_ > config_.platform.push_max_backlog) {
    push_next_ = latest - config_.platform.push_max_backlog;
  }
  const auto it = available_.find(push_next_);
  if (it == available_.end()) {
    // The broadcaster may have dropped this index entirely; skip over gaps
    // that can no longer arrive.
    if (!available_.empty() && latest >= push_next_) {
      for (const auto& [index, seg] : available_) {
        if (index >= push_next_) {
          push_next_ = index;
          break;
        }
      }
      server_push();
    }
    return;
  }
  pushing_ = true;
  const Segment segment = it->second;
  const double rung = config_.platform.ladder_kbps.back();
  const auto bytes = static_cast<std::int64_t>(rung * 1000.0 / 8.0 *
                                               config_.platform.segment_s);
  ++push_next_;
  // A first-mile transfer on the broadcaster's own pipe.
  // sperke: allow(link-construction) not a chunk fetch behind the CDN seam
  downlink_->start_transfer(bytes, [this, segment, rung](const net::TransferResult& r) {
    pushing_ = false;
    if (!r.completed()) {
      // Push failed mid-flight: retry from this segment (the backlog cap in
      // the next round decides whether it is still worth pushing).
      push_next_ = std::min(push_next_, segment.index);
      server_push();
      return;
    }
    viewer_buffer_.emplace(segment.index, std::make_pair(segment, rung));
    viewer_play_loop();
    server_push();
  });
}

void LiveBroadcastSession::viewer_poll() {
  // MPD refresh: learn about newly available segments.
  int max_index = -1;
  for (const auto& [index, seg] : available_) max_index = std::max(max_index, index);
  if (max_index >= viewer_known_) {
    viewer_known_ = max_index + 1;
    viewer_maybe_request();
  }
}

void LiveBroadcastSession::viewer_maybe_request() {
  if (viewer_fetching_ || config_.platform.delivery != Delivery::kDashPull) return;
  // "Skip to live": a pull viewer that has fallen too far behind the live
  // edge jumps forward instead of fetching stale segments.
  if (config_.platform.viewer_max_behind_s > 0.0) {
    int latest = -1;
    for (const auto& [index, seg] : available_) latest = std::max(latest, index);
    const double behind_s =
        (latest - viewer_next_fetch_) * config_.platform.segment_s;
    if (latest >= 0 && behind_s > config_.platform.viewer_max_behind_s) {
      viewer_next_fetch_ =
          std::max(viewer_next_fetch_,
                   latest - config_.platform.viewer_buffer_segments);
      ++catchup_skips_;
      if (config_.telemetry != nullptr) catchup_skips_metric_->increment();
    }
  }
  // Sequential fetch of the next needed segment, if announced & available.
  while (viewer_next_fetch_ < viewer_known_ &&
         !available_.contains(viewer_next_fetch_)) {
    // Dropped at the broadcaster: skip the gap.
    bool exists_later = false;
    for (const auto& [index, seg] : available_) {
      if (index > viewer_next_fetch_) exists_later = true;
    }
    if (!exists_later) return;
    ++viewer_next_fetch_;
  }
  const auto it = available_.find(viewer_next_fetch_);
  if (it == available_.end()) return;
  const Segment segment = it->second;

  // DASH rate adaptation on the download path (§3.4.1): highest rung that
  // fits a safety-discounted estimate.
  double rung = config_.platform.ladder_kbps.front();
  for (double level : config_.platform.ladder_kbps) {
    if (level <= 0.8 * downlink_est_kbps_) rung = std::max(rung, level);
  }
  const auto bytes = static_cast<std::int64_t>(rung * 1000.0 / 8.0 *
                                               config_.platform.segment_s);
  viewer_fetching_ = true;
  ++viewer_next_fetch_;
  const sim::Time started = simulator_.now();
  // sperke: allow(link-construction) viewer pull on the first-mile pipe
  downlink_->start_transfer(bytes, [this, segment, rung, bytes,
                                    started](const net::TransferResult& r) {
    viewer_fetching_ = false;
    if (!r.completed()) {
      // Fetch failed: re-request from this segment (skip-to-live in the
      // next round decides whether it is still worth fetching).
      viewer_next_fetch_ = std::min(viewer_next_fetch_, segment.index);
      viewer_maybe_request();
      return;
    }
    const double secs = sim::to_seconds(r.time - started);
    if (secs > 0.0) {
      const double sample = static_cast<double>(bytes) * 8.0 / secs / 1000.0;
      downlink_est_kbps_ = 0.4 * sample + 0.6 * downlink_est_kbps_;
    }
    viewer_buffer_.emplace(segment.index, std::make_pair(segment, rung));
    viewer_play_loop();
    viewer_maybe_request();
  });
}

void LiveBroadcastSession::viewer_play_loop() {
  if (viewer_playing_) return;
  // (Re-)buffering: wait until the buffer holds its target, or — when
  // arrivals are too slow to ever fill it — until a wall-clock timer at
  // twice the target expires and playback proceeds with what is there.
  if (static_cast<int>(viewer_buffer_.size()) <
          config_.platform.viewer_buffer_segments &&
      !viewer_force_start_) {
    if (!viewer_prebuffer_timer_armed_ && !viewer_buffer_.empty()) {
      viewer_prebuffer_timer_armed_ = true;
      simulator_.schedule_after(
          sim::seconds(2.0 * config_.platform.viewer_buffer_segments *
                       config_.platform.segment_s),
          [this] {
            viewer_force_start_ = true;
            viewer_play_loop();
          });
    }
    return;
  }
  // Skip over segments that will never arrive (dropped upstream).
  if (!viewer_buffer_.empty() &&
      viewer_buffer_.begin()->first > viewer_play_next_) {
    viewer_play_next_ = viewer_buffer_.begin()->first;
  }
  const auto it = viewer_buffer_.find(viewer_play_next_);
  if (it == viewer_buffer_.end()) {
    // Starved at a boundary: count a rebuffer event and re-enter
    // buffering (players re-accumulate their target before resuming).
    if (!viewer_waiting_ && !latencies_s_.empty()) {
      ++rebuffers_;
      if (config_.telemetry != nullptr) rebuffers_metric_->increment();
    }
    viewer_waiting_ = true;
    viewer_force_start_ = false;
    viewer_prebuffer_timer_armed_ = false;
    return;
  }
  viewer_waiting_ = false;
  viewer_playing_ = true;
  const Segment segment = it->second.first;
  const double rung = it->second.second;
  viewer_buffer_.erase(it);
  ++viewer_play_next_;

  // Display starts now; record the E2E latency of the first frame.
  const double latency = sim::to_seconds(simulator_.now() - segment.capture_start);
  if (simulator_.now() >= config_.measure_from &&
      simulator_.now() <= config_.measure_to) {
    latencies_s_.push_back(latency);
    displayed_kbps_.add(rung);
    if (config_.telemetry != nullptr) {
      e2e_latency_s_metric_->observe(latency);
      // Mirrors LiveSessionResult.segments_displayed (window only).
      displayed_metric_->increment();
    }
  }
  if (config_.telemetry != nullptr) {
    record_trace({.type = obs::TraceEventType::kSegmentDisplayed,
                  .ts = simulator_.now(),
                  .chunk = segment.index,
                  .quality = static_cast<std::int32_t>(rung),
                  .value = latency});
  }
  simulator_.schedule_after(sim::seconds(config_.platform.segment_s), [this] {
    viewer_playing_ = false;
    viewer_play_loop();
  });
}

}  // namespace sperke::live
