// Transport abstraction between the streaming client and the network:
// the client submits chunk requests tagged with the Table 1 priorities;
// a transport delivers them over one link (SingleLinkTransport) or several
// (mp::MultipathTransport).
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

// Recovery metric handles, resolved once per transport when both telemetry
// and recovery are on (so fault-free worlds keep their metric set).
struct RecoveryMetrics {
  obs::Counter* retries = nullptr;
  obs::Counter* timeouts = nullptr;
  obs::Counter* failed_requests = nullptr;
  obs::Counter* recovered_requests = nullptr;  // delivered after >= 1 retry
  obs::Histogram* recovery_latency_ms = nullptr;  // first dispatch -> delivery

  void bind(obs::Telemetry& telemetry, const char* prefix);
};

// Queued dispatch over a single net::ChunkSource with bounded concurrency
// — a direct link (net::LinkSource) or a CDN edge (cdn::EdgeSource); the
// transport neither knows nor cares which topology serves its fetches.
// Urgent requests jump the queue (ahead of non-urgent, behind other
// urgent); ties keep FIFO order. Throughput is estimated aggregate-wise
// across concurrent transfers (net::AggregateWindowEstimator).
//
// The wait queue is two seq-ascending deques (urgent / regular), so
// admitting a request is O(1) instead of the former O(queue) scan +
// erase — with thousands of queued tile requests per link that scan was
// the single hottest path of the whole simulator (DESIGN.md §13). The
// pop order (urgent first, then lowest submission seq) is exactly the
// order the scan produced, so behaviour is byte-identical. Only a retry
// re-enqueue, which carries an old seq, pays an ordered insert — O(queue)
// worst case, and retries exist only in faulted worlds.
class SingleLinkTransport final : public ChunkTransport {
 public:
  // `source` must outlive the transport.
  explicit SingleLinkTransport(net::ChunkSource& source,
                               TransportOptions options = {});

  void fetch(ChunkRequest request) override;
  [[nodiscard]] double estimated_kbps() const override;
  [[nodiscard]] int in_flight() const override;
  [[nodiscard]] std::int64_t bytes_fetched() const override { return bytes_fetched_; }

  [[nodiscard]] const TransportOptions& options() const { return options_; }

 private:
  struct Pending {
    ChunkRequest request;
    std::uint64_t seq = 0;
    sim::Time enqueued{sim::kTimeZero};
    int attempts = 0;  // completed (failed) dispatch attempts so far
    sim::Time first_dispatched{sim::kTimeZero};
    bool settled = false;  // guards the timeout event against re-fire
  };

  void pump();
  void finish_without_delivery(ChunkRequest& request, sim::Time when,
                               FetchOutcome outcome);
  // Re-queue a retry whose seq predates the queue tails (ordered insert).
  void enqueue_retry(Pending pending);
  [[nodiscard]] std::size_t queued() const {
    return urgent_queue_.size() + regular_queue_.size();
  }

  net::ChunkSource& source_;
  TransportOptions options_;
  obs::Counter* requests_metric_ = nullptr;
  obs::Counter* bytes_metric_ = nullptr;
  obs::Histogram* queue_wait_ms_metric_ = nullptr;
  obs::Gauge* in_flight_metric_ = nullptr;
  RecoveryMetrics recovery_metrics_;
  net::AggregateWindowEstimator estimator_;
  // Both deques hold strictly ascending seq values front-to-back.
  std::deque<Pending> urgent_queue_;
  std::deque<Pending> regular_queue_;
  std::uint64_t next_seq_ = 0;
  int active_ = 0;
  int retry_waiting_ = 0;  // retries parked in a backoff wait
  std::int64_t bytes_fetched_ = 0;
  std::shared_ptr<bool> alive_ = std::make_shared<bool>(true);

 public:
  ~SingleLinkTransport() override;
};

}  // namespace sperke::core
