// Transport abstraction between the streaming client and the network:
// the client submits chunk requests tagged with the Table 1 priorities;
// a transport delivers them over one net::ChunkSource (SingleLinkTransport)
// or one per path (mp::MultipathTransport). Both run every fetch attempt
// through the same DispatchLane, so the attempt/retry/timeout lifecycle
// exists once; the transports differ only in how many lanes they hold and
// how requests are assigned to them.
//
// Failure recovery (DESIGN.md §10): with RecoveryPolicy::enabled a
// transport retries failed transfers with exponential backoff under a
// per-request retry budget, arms a deadline-derived timeout on every
// in-flight transfer, and reports how each request ended through the typed
// FetchOutcome instead of a bare bool.
#pragma once

#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <string_view>
#include <vector>

#include "abr/plan.h"
#include "net/chunk_source.h"
#include "net/throughput_estimator.h"
#include "obs/telemetry.h"
#include "sim/time.h"

namespace sperke::core {

// How a chunk request ended, from the client's point of view.
enum class FetchOutcome : std::uint8_t {
  kDelivered,  // every byte arrived
  kDropped,    // transport abandoned it (best-effort deadline miss)
  kTimedOut,   // deadline-derived timeout expired while fetching/retrying
  kFailed,     // transfer failed and the retry budget is exhausted
};

[[nodiscard]] constexpr bool delivered(FetchOutcome outcome) {
  return outcome == FetchOutcome::kDelivered;
}

struct ChunkRequest {
  // Canonical object identity (what caches key on and trace labels carry).
  // Sessions build it from the planned media::ChunkAddress via
  // net::to_chunk_id.
  net::ChunkId id;
  std::int64_t bytes = 0;
  abr::SpatialClass spatial = abr::SpatialClass::kFov;
  bool urgent = false;                 // temporal priority (Table 1)
  sim::Time deadline{sim::kTimeZero};  // playback deadline (wall clock)
  // Causal span identity (obs): per-shard monotonic id from
  // Telemetry::next_request_id(), assigned by the session — or by the
  // transport when it first sees id 0 with telemetry attached. 0 means
  // untraced. `parent_id` links a degraded retry / blank re-request to the
  // request it replaces, so exporters can nest the spans.
  std::int64_t request_id = 0;
  std::int64_t parent_id = 0;
  // Called exactly once with the time the request settled and its outcome.
  std::function<void(sim::Time, FetchOutcome)> on_done;
};

// Failure-recovery policy shared by both transports (DESIGN.md §10).
// Disabled by default: a transport without recovery never retries, never
// times out, and is byte-identical to the pre-fault-model behaviour.
struct RecoveryPolicy {
  bool enabled = false;
  // Per-request retry budget: a request is attempted at most 1 + max_retries
  // times. Retry k (1-based) waits base_backoff * backoff_multiplier^(k-1).
  int max_retries = 2;
  sim::Duration base_backoff{sim::milliseconds(100)};
  double backoff_multiplier = 2.0;
  // In-flight timeout = max(deadline, start + min_timeout): a transfer may
  // run slightly past an already-blown deadline, but a retry is never
  // *started* at or past the deadline.
  sim::Duration min_timeout{sim::milliseconds(250)};
  // Graceful degradation order (§3.3): regular OOS prefetch is abandoned on
  // first failure instead of competing with FoV traffic for retries.
  bool abandon_oos = true;
  // Multipath path-failure detection: this many consecutive transfer
  // failures (or an outage signal) marks a path down; a down path is
  // re-probed every probe_interval until it carries traffic again.
  int path_failure_threshold = 3;
  sim::Duration probe_interval{sim::seconds(1.0)};
};

// Construction options shared by SingleLinkTransport and
// mp::MultipathTransport (per-path concurrency for the latter).
struct TransportOptions {
  int max_concurrent = 4;
  // Optional metrics/trace sink (not owned; must outlive the transport).
  obs::Telemetry* telemetry = nullptr;
  RecoveryPolicy recovery;
};

// Throws std::invalid_argument, prefixed with `field`, unless
// max_retries >= 0, backoff_multiplier >= 1, path_failure_threshold >= 1
// and probe_interval > 0. Checked whether or not the policy is enabled.
void validate(const RecoveryPolicy& policy,
              std::string_view field = "RecoveryPolicy");

// Backoff before retry k (1-based): base_backoff * multiplier^(k-1).
[[nodiscard]] sim::Duration retry_backoff(const RecoveryPolicy& policy,
                                          int retry_number);

// Whether a request that has already consumed `attempts` retries may retry
// again (budget + abandon-OOS rule); the deadline gate is checked separately.
[[nodiscard]] bool retry_allowed(const RecoveryPolicy& policy,
                                 const ChunkRequest& request, int attempts);

class ChunkTransport {
 public:
  virtual ~ChunkTransport() = default;

  virtual void fetch(ChunkRequest request) = 0;

  // Aggregate goodput estimate (kbps) for rate adaptation.
  [[nodiscard]] virtual double estimated_kbps() const = 0;

  // Requests accepted but not yet completed/dropped.
  [[nodiscard]] virtual int in_flight() const = 0;

  [[nodiscard]] virtual std::int64_t bytes_fetched() const = 0;
};

// Instruments one DispatchLane records into; null handles record nothing.
// The recovery handles are bound iff telemetry and recovery are both on,
// so fault-free worlds keep their metric set.
struct LaneMetrics {
  obs::Counter* bytes = nullptr;            // bytes delivered
  obs::Histogram* queue_wait_ms = nullptr;  // enqueue -> dispatch
  obs::Gauge* in_flight = nullptr;          // lane in_flight(), per settle
  obs::Counter* retries = nullptr;
  obs::Counter* timeouts = nullptr;
  obs::Counter* failed_requests = nullptr;
  obs::Counter* recovered_requests = nullptr;  // delivered after >= 1 retry
  obs::Histogram* recovery_latency_ms = nullptr;  // first dispatch -> delivery

  void bind_recovery(obs::Telemetry& telemetry, const char* prefix);
};

// The one fetch-attempt lifecycle (DESIGN.md §10): a class-ordered request
// queue plus bounded-concurrency dispatch over one net::ChunkSource — a
// direct link (net::LinkSource) or a CDN edge (cdn::EdgeSource).
// SingleLinkTransport is one lane with classes {urgent, regular};
// mp::MultipathTransport is one lane per path with classes = mp::rank().
//
// Requests pop lowest class first, then lowest submission seq. Each class
// is a seq-ascending deque, so admitting a fresh request (the newest seq)
// is O(1): with thousands of queued tile requests per link an O(queue)
// scan here is the simulator's hottest path (DESIGN.md §13). Only a retry
// or failover, which carries an old seq, pays an ordered insert, and those
// exist only in faulted worlds.
class DispatchLane {
 public:
  struct Pending {
    ChunkRequest request;
    std::uint64_t seq = 0;  // submission order; lower pops first in a class
    sim::Time enqueued{sim::kTimeZero};
    sim::Time first_dispatched{sim::kTimeZero};
    int attempts = 0;         // completed (failed) dispatch attempts so far
    std::uint8_t cls = 0;     // queue class; lower pops first
    bool best_effort = false; // dropped, not dispatched, once past deadline
    bool settled = false;     // guards the timeout event against re-fire
  };

  // What a multi-lane transport adds around the lifecycle. A lane without
  // an owner re-enqueues its retries on itself.
  class Owner {
   public:
    // Every settled attempt, after its end span and before the lane acts
    // on the outcome (delivery, timeout or retry).
    virtual void attempt_settled(DispatchLane& lane, const ChunkRequest& request,
                                 const net::TransferResult& result) = 0;
    // A best-effort request was dropped at its deadline, before dispatch.
    virtual void best_effort_dropped() = 0;
    // The lane a retry re-enqueues on once its backoff has elapsed.
    virtual DispatchLane& retry_lane(DispatchLane& lane) = 0;

   protected:
    ~Owner() = default;
  };

  // `source`, `options` and `owner` must outlive the lane. `classes` is the
  // number of queue classes; `path` labels the lane's attempt spans (-1 for
  // none).
  DispatchLane(net::ChunkSource& source, const TransportOptions& options,
               std::size_t classes, Owner* owner = nullptr,
               std::int32_t path = -1);
  ~DispatchLane();
  DispatchLane(const DispatchLane&) = delete;
  DispatchLane& operator=(const DispatchLane&) = delete;

  // Queue `pending` in class `pending.cls` at its seq position, stamped with
  // the current time.
  void enqueue(Pending pending);
  // Dispatch queued requests while below max_concurrent (none while paused).
  void pump();
  // Move every queued request matching `pred` onto `target` (failover);
  // returns how many moved.
  int move_queued_if(DispatchLane& target, bool (*pred)(const ChunkRequest&));

  void set_paused(bool paused) { paused_ = paused; }
  [[nodiscard]] bool paused() const { return paused_; }

  [[nodiscard]] int active() const { return active_; }
  [[nodiscard]] std::size_t queued() const;
  // Accepted and not yet settled: active + queued + parked in a backoff.
  [[nodiscard]] int in_flight() const {
    return active_ + static_cast<int>(queued()) + retry_waiting_;
  }
  // Bytes queued or on the wire (retries parked in a backoff excluded).
  [[nodiscard]] std::int64_t outstanding_bytes() const {
    return queued_bytes_ + active_bytes_;
  }
  [[nodiscard]] double estimated_kbps() const { return estimator_.estimate_kbps(); }
  [[nodiscard]] std::int64_t bytes_fetched() const { return bytes_fetched_; }
  [[nodiscard]] std::int32_t path() const { return path_; }
  [[nodiscard]] LaneMetrics& metrics() { return metrics_; }

 private:
  void settle(const std::shared_ptr<Pending>& flight, sim::Time started,
              const net::TransferResult& result);
  void finish_without_delivery(ChunkRequest& request, sim::Time when,
                               FetchOutcome outcome);

  net::ChunkSource& source_;
  const TransportOptions& options_;
  Owner* owner_;
  std::int32_t path_;
  LaneMetrics metrics_;
  net::AggregateWindowEstimator estimator_;
  // One deque per class, each strictly seq-ascending front-to-back.
  std::vector<std::deque<Pending>> queues_;
  bool paused_ = false;
  int active_ = 0;
  int retry_waiting_ = 0;  // retries parked in a backoff wait
  std::int64_t queued_bytes_ = 0;
  std::int64_t active_bytes_ = 0;
  std::int64_t bytes_fetched_ = 0;
  std::shared_ptr<bool> alive_ = std::make_shared<bool>(true);
};

// One DispatchLane over a single net::ChunkSource, with two classes:
// urgent requests jump the queue (ahead of non-urgent, behind other
// urgent); ties keep FIFO order.
class SingleLinkTransport final : public ChunkTransport {
 public:
  // `source` must outlive the transport.
  explicit SingleLinkTransport(net::ChunkSource& source,
                               TransportOptions options = {});

  void fetch(ChunkRequest request) override;
  [[nodiscard]] double estimated_kbps() const override {
    return lane_.estimated_kbps();
  }
  [[nodiscard]] int in_flight() const override { return lane_.in_flight(); }
  [[nodiscard]] std::int64_t bytes_fetched() const override {
    return lane_.bytes_fetched();
  }

  [[nodiscard]] const TransportOptions& options() const { return options_; }

 private:
  TransportOptions options_;
  obs::Counter* requests_metric_ = nullptr;
  std::uint64_t next_seq_ = 0;
  DispatchLane lane_;
};

}  // namespace sperke::core
