#include "mp/multipath.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>
#include <string>

namespace sperke::mp {
namespace {

// Static path quality used by the content-aware policy: usable rate
// (capacity tempered by the Mathis cap), discounted by latency.
double quality_of(const net::Link& link) {
  const double rate = std::min(link.capacity_kbps_now(), link.mathis_cap_kbps());
  const double rtt_penalty = 1.0 + sim::to_seconds(link.rtt()) * 5.0;
  return rate / rtt_penalty;
}

}  // namespace

std::size_t MinRttScheduler::pick(const core::ChunkRequest& request,
                                  const std::vector<PathState>& paths) {
  (void)request;  // content-agnostic by definition
  // Earliest-available path: smallest drain time of the queued bytes.
  std::size_t best = 0;
  double best_drain = std::numeric_limits<double>::infinity();
  for (std::size_t i = 0; i < paths.size(); ++i) {
    const double rate =
        std::max(paths[i].estimated_kbps,
                 std::min(paths[i].link->capacity_kbps_now(),
                          paths[i].link->mathis_cap_kbps()));
    const double drain =
        rate > 0.0
            ? static_cast<double>(paths[i].queued_bytes) * 8.0 / (rate * 1000.0) +
                  sim::to_seconds(paths[i].link->rtt())
            : std::numeric_limits<double>::infinity();
    if (drain < best_drain) {
      best_drain = drain;
      best = i;
    }
  }
  return best;
}

std::size_t RoundRobinScheduler::pick(const core::ChunkRequest& request,
                                      const std::vector<PathState>& paths) {
  (void)request;
  const std::size_t pick = next_ % paths.size();
  ++next_;
  return pick;
}

std::size_t SinglePathScheduler::pick(const core::ChunkRequest& request,
                                      const std::vector<PathState>& paths) {
  (void)request;
  if (index_ >= paths.size()) throw std::out_of_range("SinglePathScheduler: bad index");
  return index_;
}

namespace {

// Earliest-available path by queue drain time (the aggregation choice).
std::size_t earliest_available(const std::vector<PathState>& paths) {
  std::size_t best = 0;
  double best_drain = std::numeric_limits<double>::infinity();
  for (std::size_t i = 0; i < paths.size(); ++i) {
    const double rate = std::max(paths[i].estimated_kbps, paths[i].quality_score);
    const double drain =
        rate > 0.0
            ? static_cast<double>(paths[i].queued_bytes) * 8.0 / (rate * 1000.0) +
                  sim::to_seconds(paths[i].link->rtt())
            : std::numeric_limits<double>::infinity();
    if (drain < best_drain) {
      best_drain = drain;
      best = i;
    }
  }
  return best;
}

}  // namespace

std::size_t ContentAwareScheduler::pick(const core::ChunkRequest& request,
                                        const std::vector<PathState>& paths) {
  // Strategic assignment (§3.3):
  //  * urgent chunks ride the single best path — lowest delivery risk;
  //  * regular FoV chunks aggregate across all paths (earliest available),
  //    still with reliable delivery;
  //  * OOS prefetch is sacrificed to the worst path, best-effort, so it
  //    can never delay FoV traffic.
  std::size_t best = 0, worst = 0;
  for (std::size_t i = 1; i < paths.size(); ++i) {
    if (paths[i].quality_score > paths[best].quality_score) best = i;
    if (paths[i].quality_score < paths[worst].quality_score) worst = i;
  }
  const PriorityClass priority = classify(request);
  if (priority.temporal == TemporalClass::kUrgent) return best;
  if (priority.spatial == abr::SpatialClass::kFov) {
    return earliest_available(paths);
  }
  return worst;
}

bool ContentAwareScheduler::best_effort(const core::ChunkRequest& request) const {
  // OOS prefetches are delivered best-effort: if they cannot make their
  // deadline they are dropped instead of delaying later chunks (§3.3).
  return request.spatial == abr::SpatialClass::kOos && !request.urgent;
}

std::unique_ptr<PathScheduler> make_path_scheduler(std::string_view name) {
  if (name == "minrtt") return std::make_unique<MinRttScheduler>();
  if (name == "round-robin") return std::make_unique<RoundRobinScheduler>();
  if (name == "content-aware") return std::make_unique<ContentAwareScheduler>();
  throw std::invalid_argument("unknown path scheduler: " + std::string(name));
}

MultipathTransport::MultipathTransport(sim::Simulator& simulator,
                                       std::vector<net::Link*> links,
                                       std::unique_ptr<PathScheduler> scheduler,
                                       core::TransportOptions options)
    : simulator_(simulator),
      options_(std::move(options)),
      scheduler_(std::move(scheduler)),
      telemetry_(options_.telemetry) {
  if (links.empty()) throw std::invalid_argument("MultipathTransport: no links");
  if (!scheduler_) throw std::invalid_argument("MultipathTransport: null scheduler");
  if (options_.max_concurrent < 1) {
    throw std::invalid_argument("MultipathTransport: max_concurrent < 1");
  }
  core::validate(options_.recovery);
  for (net::Link* link : links) {
    if (link == nullptr) throw std::invalid_argument("MultipathTransport: null link");
    Path& path = paths_.emplace_back(
        *link, options_, static_cast<core::DispatchLane::Owner&>(*this),
        static_cast<std::int32_t>(paths_.size()));
    if (telemetry_ != nullptr) {
      // "mp.pathN.*": a fixed suffix set under a path-indexed prefix, still
      // within the [a-z0-9_.]+ name style sperke_analyze enforces.
      const std::string prefix = "mp.path" + std::to_string(paths_.size() - 1);
      path.requests_metric = &telemetry_->metrics().counter(prefix + ".requests");  // sperke: allow(metric-name) path-indexed prefix
      path.lane.metrics().bytes = &telemetry_->metrics().counter(prefix + ".bytes");  // sperke: allow(metric-name) path-indexed prefix
      if (options_.recovery.enabled) {
        path.down_events_metric =
            &telemetry_->metrics().counter(prefix + ".down_events");  // sperke: allow(metric-name) path-indexed prefix
      }
    }
  }
  if (telemetry_ != nullptr) {
    for (std::size_t r = 0; r < class_metrics_.size(); ++r) {
      class_metrics_[r] =
          &telemetry_->metrics().counter("mp.class" + std::to_string(r) +
                                         ".requests");
    }
    dropped_metric_ = &telemetry_->metrics().counter("mp.dropped_best_effort");
    // Recovery metrics exist iff recovery is on, so fault-free worlds keep
    // their exact pre-fault metric set.
    if (options_.recovery.enabled) {
      // One "mp.*" set shared by every lane (registration is get-or-create).
      for (Path& path : paths_) path.lane.metrics().bind_recovery(*telemetry_, "mp");
      failovers_metric_ = &telemetry_->metrics().counter("mp.failovers");
      path_downtime_metric_ = &telemetry_->metrics().histogram("mp.path_downtime_s");
    }
  }
  path_states_.resize(paths_.size());
  stats_.bytes_per_path.assign(paths_.size(), 0);
  stats_.requests_per_path.assign(paths_.size(), 0);
}

MultipathTransport::~MultipathTransport() { *alive_ = false; }

void MultipathTransport::fetch(core::ChunkRequest request) {
  if (request.bytes <= 0) throw std::invalid_argument("fetch: non-positive bytes");
  if (telemetry_ != nullptr && request.request_id == 0) {
    // Sessions assign ids at dispatch; a bare transport assigns here so
    // attempt spans always have a request to nest under.
    request.request_id = telemetry_->next_request_id();
  }
  const int priority = rank(classify(request));
  ++stats_.class_counts[static_cast<std::size_t>(priority)];
  for (std::size_t i = 0; i < paths_.size(); ++i) {
    const Path& path = paths_[i];
    PathState& state = path_states_[i];
    state.link = &path.source.link();
    state.estimated_kbps = path.lane.estimated_kbps();
    state.queued_bytes = path.lane.outstanding_bytes();
    state.queued_requests = path.lane.active() + static_cast<int>(path.lane.queued());
    state.quality_score = quality_of(*state.link);
  }
  std::size_t index = scheduler_->pick(request, path_states_);
  if (index >= paths_.size()) throw std::out_of_range("scheduler picked bad path");
  // Route around a path currently declared down (recovery only; without
  // recovery no path is ever down).
  if (paths_[index].lane.paused()) {
    const std::size_t up = best_up_path();
    if (up < paths_.size()) index = up;
  }
  ++stats_.requests_per_path[index];
  if (telemetry_ != nullptr) {
    class_metrics_[static_cast<std::size_t>(priority)]->increment();
    paths_[index].requests_metric->increment();
    telemetry_->trace().record(
        {.type = obs::TraceEventType::kPathAssigned,
         .ts = simulator_.now(),
         .tile = request.id.tile,
         .chunk = request.id.chunk,
         .quality = request.id.level(),
         .path = static_cast<std::int32_t>(index),
         .bytes = request.bytes,
         .urgent = request.urgent,
         .value = static_cast<double>(priority),
         .request = request.request_id,
         .parent = request.parent_id});
  }
  const bool best_effort = scheduler_->best_effort(request);
  core::DispatchLane& lane = paths_[index].lane;
  // The lane pops by (rank, seq): Table 1 priority first, FIFO within it.
  lane.enqueue({.request = std::move(request),
                .seq = next_seq_++,
                .cls = static_cast<std::uint8_t>(priority),
                .best_effort = best_effort});
  lane.pump();
}

void MultipathTransport::attempt_settled(core::DispatchLane& lane,
                                         const core::ChunkRequest& request,
                                         const net::TransferResult& result) {
  const auto index = static_cast<std::size_t>(lane.path());
  Path& path = paths_[index];
  if (result.completed()) {
    path.consecutive_failures = 0;
    stats_.bytes_per_path[index] += request.bytes;
    return;
  }
  // Only the lane's own deadline timeout cancels; it says nothing about
  // the path.
  if (result.status == net::TransferStatus::kCancelled) return;
  // Injected fault: feed path-failure detection before the lane decides on
  // a retry, so the retry sees the path's new state.
  ++path.consecutive_failures;
  if (options_.recovery.enabled && !lane.paused() &&
      (path.consecutive_failures >= options_.recovery.path_failure_threshold ||
       path.source.link().in_outage())) {
    mark_down(index);
  }
}

void MultipathTransport::best_effort_dropped() {
  ++stats_.dropped_best_effort;
  if (dropped_metric_ != nullptr) dropped_metric_->increment();
}

core::DispatchLane& MultipathTransport::retry_lane(core::DispatchLane& lane) {
  // Reroute a retry away from a path that is down, if any path is up.
  if (!lane.paused()) return lane;
  const std::size_t up = best_up_path();
  if (up == paths_.size()) return lane;
  ++stats_.failovers;
  if (failovers_metric_ != nullptr) failovers_metric_->increment();
  return paths_[up].lane;
}

std::size_t MultipathTransport::best_up_path() const {
  std::size_t best = paths_.size();
  double best_score = -1.0;
  for (std::size_t i = 0; i < paths_.size(); ++i) {
    if (paths_[i].lane.paused()) continue;
    const double score = quality_of(paths_[i].source.link());
    if (score > best_score) {
      best_score = score;
      best = i;
    }
  }
  return best;
}

void MultipathTransport::mark_down(std::size_t path_index) {
  Path& path = paths_[path_index];
  path.lane.set_paused(true);
  path.down_since = simulator_.now();
  ++stats_.path_down_events;
  if (path.down_events_metric != nullptr) path.down_events_metric->increment();
  // Fail queued FoV/urgent work over to the best surviving path; queued OOS
  // prefetch waits for recovery (abandon OOS first).
  const std::size_t up = best_up_path();
  if (up < paths_.size()) {
    const int moved = path.lane.move_queued_if(
        paths_[up].lane, [](const core::ChunkRequest& request) {
          return request.urgent || request.spatial == abr::SpatialClass::kFov;
        });
    stats_.failovers += moved;
    if (failovers_metric_ != nullptr) failovers_metric_->add(moved);
    paths_[up].lane.pump();
  }
  simulator_.schedule_after(options_.recovery.probe_interval,
                            [this, alive = alive_, path_index] {
                              if (!*alive) return;
                              probe_path(path_index);
                            });
}

void MultipathTransport::probe_path(std::size_t path_index) {
  Path& path = paths_[path_index];
  if (!path.lane.paused()) return;
  if (path.source.link().in_outage()) {
    // Still dark; probe again later.
    simulator_.schedule_after(options_.recovery.probe_interval,
                              [this, alive = alive_, path_index] {
                                if (!*alive) return;
                                probe_path(path_index);
                              });
    return;
  }
  path.lane.set_paused(false);
  // Probation: one more failure sends the path straight back down.
  path.consecutive_failures =
      std::max(0, options_.recovery.path_failure_threshold - 1);
  const double downtime_s = sim::to_seconds(simulator_.now() - path.down_since);
  stats_.path_downtime_s += downtime_s;
  if (path_downtime_metric_ != nullptr) path_downtime_metric_->observe(downtime_s);
  path.lane.pump();
}

double MultipathTransport::estimated_kbps() const {
  // Aggregate: sum of per-path estimates, falling back to link capacity for
  // paths that have not carried traffic yet.
  double total = 0.0;
  for (const Path& path : paths_) {
    const double est = path.lane.estimated_kbps();
    const net::Link& link = path.source.link();
    total += est > 0.0 ? est
                       : std::min(link.capacity_kbps_now(), link.mathis_cap_kbps());
  }
  return total;
}

int MultipathTransport::in_flight() const {
  int total = 0;
  for (const Path& path : paths_) total += path.lane.in_flight();
  return total;
}

std::int64_t MultipathTransport::bytes_fetched() const {
  std::int64_t total = 0;
  for (const Path& path : paths_) total += path.lane.bytes_fetched();
  return total;
}

}  // namespace sperke::mp
