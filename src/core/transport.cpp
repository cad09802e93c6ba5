#include "core/transport.h"

#include <algorithm>
#include <iterator>
#include <stdexcept>
#include <string>

#include "util/check.h"

namespace sperke::core {

void LaneMetrics::bind_recovery(obs::Telemetry& telemetry, const char* prefix) {
  obs::MetricsRegistry& m = telemetry.metrics();
  const std::string p(prefix);
  // The prefix parameterizes one fixed suffix set ("transport"/"mp"),
  // so the names stay within the [a-z0-9_.]+ style of the metric-name rule.
  retries = &m.counter(p + ".retries");  // sperke: allow(metric-name) fixed suffix set
  timeouts = &m.counter(p + ".timeouts");  // sperke: allow(metric-name) fixed suffix set
  failed_requests = &m.counter(p + ".failed_requests");  // sperke: allow(metric-name) fixed suffix set
  recovered_requests = &m.counter(p + ".recovered_requests");  // sperke: allow(metric-name) fixed suffix set
  recovery_latency_ms = &m.histogram(p + ".recovery_latency_ms");  // sperke: allow(metric-name) fixed suffix set
}

void validate(const RecoveryPolicy& policy, std::string_view field) {
  const auto fail = [field](const char* what) {
    throw std::invalid_argument(std::string(field) + ": " + what);
  };
  if (policy.max_retries < 0) fail("negative retry budget");
  if (!(policy.backoff_multiplier >= 1.0)) fail("backoff multiplier < 1");
  if (policy.path_failure_threshold < 1) fail("path_failure_threshold < 1");
  // A non-positive interval would re-probe a dark path at the same virtual
  // instant forever.
  if (policy.probe_interval <= sim::Duration{0}) fail("probe_interval <= 0");
}

sim::Duration retry_backoff(const RecoveryPolicy& policy, int retry_number) {
  double scale = 1.0;
  for (int i = 1; i < retry_number; ++i) scale *= policy.backoff_multiplier;
  return sim::seconds(sim::to_seconds(policy.base_backoff) * scale);
}

bool retry_allowed(const RecoveryPolicy& policy, const ChunkRequest& request,
                   int attempts) {
  if (!policy.enabled || attempts >= policy.max_retries) return false;
  // Abandon OOS first: regular out-of-sight prefetch never competes with
  // FoV traffic for retry capacity.
  if (policy.abandon_oos && request.spatial == abr::SpatialClass::kOos &&
      !request.urgent) {
    return false;
  }
  return true;
}

DispatchLane::DispatchLane(net::ChunkSource& source,
                           const TransportOptions& options, std::size_t classes,
                           Owner* owner, std::int32_t path)
    : source_(source),
      options_(options),
      owner_(owner),
      path_(path),
      queues_(classes) {}

DispatchLane::~DispatchLane() { *alive_ = false; }

std::size_t DispatchLane::queued() const {
  std::size_t total = 0;
  for (const std::deque<Pending>& queue : queues_) total += queue.size();
  return total;
}

void DispatchLane::enqueue(Pending pending) {
  SPERKE_DCHECK(pending.cls < queues_.size(), "queue class ",
                static_cast<int>(pending.cls), " out of range");
  pending.enqueued = source_.simulator().now();
  queued_bytes_ += pending.request.bytes;
  // A retry or failover keeps its original submission seq, which may
  // predate requests already queued — find its seq-ordered slot from the
  // back. A fresh request holds the newest seq and lands at the tail.
  std::deque<Pending>& queue = queues_[pending.cls];
  auto it = queue.end();
  while (it != queue.begin() && std::prev(it)->seq > pending.seq) --it;
  queue.insert(it, std::move(pending));
}

int DispatchLane::move_queued_if(DispatchLane& target,
                                 bool (*pred)(const ChunkRequest&)) {
  int moved = 0;
  for (std::deque<Pending>& queue : queues_) {
    for (auto it = queue.begin(); it != queue.end();) {
      if (!pred(it->request)) {
        ++it;
        continue;
      }
      queued_bytes_ -= it->request.bytes;
      target.enqueue(std::move(*it));
      it = queue.erase(it);
      ++moved;
    }
  }
  return moved;
}

void DispatchLane::finish_without_delivery(ChunkRequest& request, sim::Time when,
                                           FetchOutcome outcome) {
  if (outcome == FetchOutcome::kFailed &&
      metrics_.failed_requests != nullptr) {
    metrics_.failed_requests->increment();
  }
  if (outcome == FetchOutcome::kTimedOut &&
      metrics_.timeouts != nullptr) {
    metrics_.timeouts->increment();
  }
  if (request.on_done) request.on_done(when, outcome);
}

void DispatchLane::pump() {
  if (paused_) return;  // queued work waits for the owner to resume the lane
  while (active_ < options_.max_concurrent) {
    // Lowest non-empty class, then its front: the lowest queued seq.
    const auto queue = std::find_if(queues_.begin(), queues_.end(),
                                    [](const auto& q) { return !q.empty(); });
    if (queue == queues_.end()) return;
    Pending pending = std::move(queue->front());
    queue->pop_front();
    const std::int64_t bytes = pending.request.bytes;
    queued_bytes_ -= bytes;
    const sim::Time started = source_.simulator().now();
    // Best-effort requests that already blew their deadline are dropped
    // before wasting capacity.
    if (pending.best_effort && pending.request.deadline <= started) {
      if (owner_ != nullptr) owner_->best_effort_dropped();
      if (pending.request.on_done) {
        pending.request.on_done(started, FetchOutcome::kDropped);
      }
      continue;
    }
    // A retry never starts at or past the playback deadline: fetching a
    // chunk the player has already given up on only wastes capacity.
    if (pending.attempts > 0 && pending.request.deadline <= started) {
      finish_without_delivery(pending.request, started, FetchOutcome::kTimedOut);
      continue;
    }
    ++active_;
    active_bytes_ += bytes;
    if (metrics_.queue_wait_ms != nullptr) {
      metrics_.queue_wait_ms->observe(sim::to_milliseconds(started - pending.enqueued));
    }
    // HTTP/2-style stream weights: urgent chunks outweigh regular ones,
    // and within a class FoV outweighs OOS (Table 1).
    const double weight = (pending.request.urgent ? 4.0 : 1.0) *
                          (pending.request.spatial == abr::SpatialClass::kFov ? 2.0 : 1.0);
    if (pending.attempts == 0) pending.first_dispatched = started;
    pending.settled = false;
    auto flight = std::make_shared<Pending>(std::move(pending));
    if (options_.telemetry != nullptr) {
      options_.telemetry->trace().record(
          {.type = obs::TraceEventType::kFetchAttemptStart,
           .ts = started,
           .tile = flight->request.id.tile,
           .chunk = flight->request.id.chunk,
           .quality = flight->request.id.level(),
           .path = path_,
           .bytes = bytes,
           .urgent = flight->request.urgent,
           .value = static_cast<double>(flight->attempts),
           .request = flight->request.request_id,
           .parent = flight->request.parent_id});
    }
    const net::FetchId id = source_.fetch(
        {.id = flight->request.id,
         .bytes = bytes,
         .weight = weight,
         .deadline = flight->request.deadline},
        [this, alive = alive_, flight, started](const net::TransferResult& r) {
          if (*alive) settle(flight, started, r);
        });
    if (options_.recovery.enabled) {
      // Deadline-derived timeout on the in-flight transfer. The min_timeout
      // floor keeps already-late emergency fetches (deadline == now) alive
      // long enough to have a chance.
      const sim::Time timeout_at = std::max(
          flight->request.deadline, started + options_.recovery.min_timeout);
      source_.simulator().schedule_at(timeout_at, [this, alive = alive_, flight, id] {
        if (!*alive || flight->settled) return;
        source_.cancel(id);  // fires the kCancelled completion synchronously
      });
    }
  }
}

void DispatchLane::settle(const std::shared_ptr<Pending>& flight,
                          sim::Time started, const net::TransferResult& r) {
  flight->settled = true;
  --active_;
  const std::int64_t bytes = flight->request.bytes;
  active_bytes_ -= bytes;
  if (options_.telemetry != nullptr) {
    options_.telemetry->trace().record(
        {.type = obs::TraceEventType::kFetchAttemptEnd,
         .ts = r.time,
         .tile = flight->request.id.tile,
         .chunk = flight->request.id.chunk,
         .quality = flight->request.id.level(),
         .path = path_,
         .bytes = r.completed() ? bytes : 0,
         .urgent = flight->request.urgent,
         .value = static_cast<double>(flight->attempts),
         .request = flight->request.request_id,
         .parent = flight->request.parent_id});
  }
  if (r.completed()) {
    bytes_fetched_ += bytes;
    // Small tile objects are RTT-dominated; measure from the start of data
    // flow, and let the aggregate estimator fold in concurrency.
    estimator_.record(started + source_.rtt(), r.time, bytes);
    if (metrics_.bytes != nullptr) metrics_.bytes->add(bytes);
  }
  if (metrics_.in_flight != nullptr) metrics_.in_flight->set(in_flight());
  if (owner_ != nullptr) owner_->attempt_settled(*this, flight->request, r);
  if (r.completed()) {
    if (flight->attempts > 0 && metrics_.recovered_requests != nullptr) {
      metrics_.recovered_requests->increment();
      metrics_.recovery_latency_ms->observe(
          sim::to_milliseconds(r.time - flight->first_dispatched));
    }
    if (flight->request.on_done) {
      flight->request.on_done(r.time, FetchOutcome::kDelivered);
    }
    pump();
    return;
  }
  if (r.status == net::TransferStatus::kCancelled) {
    // Only our own deadline timeout cancels transfers.
    finish_without_delivery(flight->request, r.time, FetchOutcome::kTimedOut);
    pump();
    return;
  }
  // Injected fault (kFailed): retry with exponential backoff while the
  // budget and the deadline both allow it.
  const sim::Duration backoff =
      retry_backoff(options_.recovery, flight->attempts + 1);
  const bool budget_left =
      retry_allowed(options_.recovery, flight->request, flight->attempts);
  const bool deadline_left = r.time + backoff < flight->request.deadline;
  if (budget_left && deadline_left) {
    ++flight->attempts;
    if (metrics_.retries != nullptr) {
      metrics_.retries->increment();
    }
    ++retry_waiting_;
    source_.simulator().schedule_after(backoff, [this, alive = alive_, flight] {
      if (!*alive) return;
      --retry_waiting_;
      DispatchLane& lane = owner_ != nullptr ? owner_->retry_lane(*this) : *this;
      lane.enqueue(std::move(*flight));
      lane.pump();
    });
  } else {
    finish_without_delivery(flight->request, r.time,
                            budget_left ? FetchOutcome::kTimedOut
                                        : FetchOutcome::kFailed);
  }
  pump();
}

SingleLinkTransport::SingleLinkTransport(net::ChunkSource& source,
                                         TransportOptions options)
    : options_(std::move(options)),
      lane_(source, options_, /*classes=*/2) {
  if (options_.max_concurrent < 1) {
    throw std::invalid_argument("SingleLinkTransport: max_concurrent < 1");
  }
  validate(options_.recovery);
  if (options_.telemetry != nullptr) {
    obs::MetricsRegistry& m = options_.telemetry->metrics();
    requests_metric_ = &m.counter("transport.requests");
    LaneMetrics& lane = lane_.metrics();
    lane.bytes = &m.counter("transport.bytes");
    lane.queue_wait_ms = &m.histogram("transport.queue_wait_ms");
    lane.in_flight = &m.gauge("transport.in_flight");
    if (options_.recovery.enabled) {
      lane.bind_recovery(*options_.telemetry, "transport");
    }
  }
}

void SingleLinkTransport::fetch(ChunkRequest request) {
  if (request.bytes <= 0) throw std::invalid_argument("fetch: non-positive bytes");
  if (options_.telemetry != nullptr) {
    requests_metric_->increment();
    // Sessions assign ids at dispatch; a bare transport (benches, tests)
    // assigns here so attempt spans always have a request to nest under.
    if (request.request_id == 0) {
      request.request_id = options_.telemetry->next_request_id();
    }
  }
  const std::uint8_t cls = request.urgent ? 0 : 1;
  lane_.enqueue({.request = std::move(request), .seq = next_seq_++, .cls = cls});
  lane_.pump();
  if (options_.telemetry != nullptr) lane_.metrics().in_flight->set(in_flight());
}

}  // namespace sperke::core
