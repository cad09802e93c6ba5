#include "core/transport.h"

#include <algorithm>
#include <stdexcept>
#include <string>

namespace sperke::core {

void RecoveryMetrics::bind(obs::Telemetry& telemetry, const char* prefix) {
  obs::MetricsRegistry& m = telemetry.metrics();
  const std::string p(prefix);
  // The prefix parameterizes one fixed suffix set ("transport"/"mp.pathN"),
  // so the names stay within the [a-z0-9_.]+ style the lint rule enforces.
  retries = &m.counter(p + ".retries");  // sperke-lint: allow(metric-name)
  timeouts = &m.counter(p + ".timeouts");  // sperke-lint: allow(metric-name)
  failed_requests = &m.counter(p + ".failed_requests");  // sperke-lint: allow(metric-name)
  recovered_requests = &m.counter(p + ".recovered_requests");  // sperke-lint: allow(metric-name)
  recovery_latency_ms = &m.histogram(p + ".recovery_latency_ms");  // sperke-lint: allow(metric-name)
}

SingleLinkTransport::SingleLinkTransport(net::ChunkSource& source,
                                         TransportOptions options)
    : source_(source), options_(std::move(options)) {
  if (options_.max_concurrent < 1) {
    throw std::invalid_argument("SingleLinkTransport: max_concurrent < 1");
  }
  if (options_.recovery.enabled) {
    if (options_.recovery.max_retries < 0) {
      throw std::invalid_argument("RecoveryPolicy: negative retry budget");
    }
    if (options_.recovery.backoff_multiplier < 1.0) {
      throw std::invalid_argument("RecoveryPolicy: backoff multiplier < 1");
    }
  }
  if (options_.telemetry != nullptr) {
    obs::MetricsRegistry& m = options_.telemetry->metrics();
    requests_metric_ = &m.counter("transport.requests");
    bytes_metric_ = &m.counter("transport.bytes");
    queue_wait_ms_metric_ = &m.histogram("transport.queue_wait_ms");
    in_flight_metric_ = &m.gauge("transport.in_flight");
    // Recovery metrics exist iff recovery is on, so fault-free worlds keep
    // their exact pre-fault metric set.
    if (options_.recovery.enabled) {
      recovery_metrics_.bind(*options_.telemetry, "transport");
    }
  }
}

SingleLinkTransport::~SingleLinkTransport() { *alive_ = false; }

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
  std::deque<Pending>& queue = request.urgent ? urgent_queue_ : regular_queue_;
  queue.push_back({std::move(request), next_seq_++, source_.simulator().now()});
  pump();
  if (options_.telemetry != nullptr) in_flight_metric_->set(in_flight());
}

double SingleLinkTransport::estimated_kbps() const {
  return estimator_.estimate_kbps();
}

int SingleLinkTransport::in_flight() const {
  return active_ + static_cast<int>(queued()) + retry_waiting_;
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

void SingleLinkTransport::finish_without_delivery(ChunkRequest& request,
                                                  sim::Time when,
                                                  FetchOutcome outcome) {
  if (outcome == FetchOutcome::kFailed &&
      recovery_metrics_.failed_requests != nullptr) {
    recovery_metrics_.failed_requests->increment();
  }
  if (outcome == FetchOutcome::kTimedOut &&
      recovery_metrics_.timeouts != nullptr) {
    recovery_metrics_.timeouts->increment();
  }
  if (request.on_done) request.on_done(when, outcome);
}

void SingleLinkTransport::enqueue_retry(Pending pending) {
  // A retry keeps its original submission seq, which may predate requests
  // already queued — find its seq-ordered slot from the back. Retries are
  // rare (faulted worlds only), so the linear walk never shows up hot.
  std::deque<Pending>& queue =
      pending.request.urgent ? urgent_queue_ : regular_queue_;
  auto it = queue.end();
  while (it != queue.begin() && std::prev(it)->seq > pending.seq) --it;
  queue.insert(it, std::move(pending));
}

void SingleLinkTransport::pump() {
  while (active_ < options_.max_concurrent &&
         (!urgent_queue_.empty() || !regular_queue_.empty())) {
    // Pick the best queued request: urgent beats non-urgent; within a
    // class, earlier submission (lower seq) wins — both deques are
    // seq-ascending, so that is the front of the urgent queue if any,
    // else the front of the regular queue.
    std::deque<Pending>& queue =
        urgent_queue_.empty() ? regular_queue_ : urgent_queue_;
    Pending pending = std::move(queue.front());
    queue.pop_front();
    const sim::Time started = source_.simulator().now();
    // A retry never starts at or past the playback deadline: fetching a
    // chunk the player has already given up on only wastes capacity.
    if (pending.attempts > 0 && pending.request.deadline <= started) {
      finish_without_delivery(pending.request, started, FetchOutcome::kTimedOut);
      continue;
    }
    ++active_;
    if (options_.telemetry != nullptr) {
      queue_wait_ms_metric_->observe(sim::to_milliseconds(started - pending.enqueued));
    }
    const std::int64_t bytes = pending.request.bytes;
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
        [this, alive = alive_, flight, started, bytes](const net::TransferResult& r) {
          if (!*alive) return;
          flight->settled = true;
          --active_;
          if (options_.telemetry != nullptr) {
            options_.telemetry->trace().record(
                {.type = obs::TraceEventType::kFetchAttemptEnd,
                 .ts = r.time,
                 .tile = flight->request.id.tile,
                 .chunk = flight->request.id.chunk,
                 .quality = flight->request.id.level(),
                 .bytes = r.completed() ? bytes : 0,
                 .urgent = flight->request.urgent,
                 .value = static_cast<double>(flight->attempts),
                 .request = flight->request.request_id,
                 .parent = flight->request.parent_id});
          }
          if (r.completed()) {
            bytes_fetched_ += bytes;
            // Small tile objects are RTT-dominated; measure from the start
            // of data flow, and let the aggregate estimator fold in
            // concurrency.
            estimator_.record(started + source_.rtt(), r.time, bytes);
            if (options_.telemetry != nullptr) {
              bytes_metric_->add(bytes);
              in_flight_metric_->set(in_flight());
            }
            if (flight->attempts > 0 &&
                recovery_metrics_.recovered_requests != nullptr) {
              recovery_metrics_.recovered_requests->increment();
              recovery_metrics_.recovery_latency_ms->observe(
                  sim::to_milliseconds(r.time - flight->first_dispatched));
            }
            if (flight->request.on_done) {
              flight->request.on_done(r.time, FetchOutcome::kDelivered);
            }
            pump();
            return;
          }
          if (options_.telemetry != nullptr) in_flight_metric_->set(in_flight());
          if (r.status == net::TransferStatus::kCancelled) {
            // Only our own deadline timeout cancels transfers.
            finish_without_delivery(flight->request, r.time, FetchOutcome::kTimedOut);
            pump();
            return;
          }
          // Injected fault (kFailed): retry with exponential backoff while
          // the budget and the deadline both allow it.
          const sim::Duration backoff =
              retry_backoff(options_.recovery, flight->attempts + 1);
          const bool budget_left =
              retry_allowed(options_.recovery, flight->request, flight->attempts);
          const bool deadline_left =
              r.time + backoff < flight->request.deadline;
          if (budget_left && deadline_left) {
            ++flight->attempts;
            if (recovery_metrics_.retries != nullptr) {
              recovery_metrics_.retries->increment();
            }
            ++retry_waiting_;
            source_.simulator().schedule_after(
                backoff, [this, alive2 = alive_, flight] {
                  if (!*alive2) return;
                  --retry_waiting_;
                  flight->enqueued = source_.simulator().now();
                  enqueue_retry(std::move(*flight));
                  pump();
                });
          } else {
            finish_without_delivery(flight->request, r.time,
                                    budget_left ? FetchOutcome::kTimedOut
                                                : FetchOutcome::kFailed);
          }
          pump();
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

}  // namespace sperke::core
