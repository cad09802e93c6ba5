// Multipath streaming support (§3.3).
//
// A MultipathTransport runs one core::DispatchLane per network path (e.g.
// WiFi + LTE), each fetching through a net::LinkSource on its link, so the
// attempt/retry/timeout lifecycle is the one SingleLinkTransport runs.
// Paths are fully decoupled, so there is no cross-path head-of-line
// blocking by construction (the transport-layer benefit the paper notes).
// What is multipath lives here: the pluggable PathScheduler decides which
// path serves each request, lanes order their queues by Table 1 rank,
// best-effort requests are dropped at their deadline, and with recovery on
// consecutive failures mark a path down, fail its work over and probe it
// back into service.
//
//   * MinRttScheduler    — content-agnostic splitting: earliest-available
//                          path by queue drain time (the MPTCP baseline);
//   * RoundRobinScheduler— naive alternation;
//   * SinglePathScheduler— pin everything to one path;
//   * ContentAwareScheduler — the paper's proposal: FoV/urgent chunks ride
//                          the best path with reliable delivery; OOS chunks
//                          ride the secondary path *best-effort* — if an
//                          OOS chunk misses its deadline it is dropped
//                          rather than allowed to clog the path.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <memory>
#include <string_view>
#include <vector>

#include "core/transport.h"
#include "mp/priority.h"
#include "net/chunk_source.h"
#include "net/link.h"
#include "obs/telemetry.h"
#include "sim/simulator.h"

namespace sperke::mp {

// Live view of one path, offered to the scheduler.
struct PathState {
  const net::Link* link = nullptr;
  double estimated_kbps = 0.0;   // per-path goodput estimate
  std::int64_t queued_bytes = 0; // waiting + in-flight bytes
  int queued_requests = 0;
  // Static quality score: higher is better (bandwidth-, loss-, rtt-aware).
  double quality_score = 0.0;
};

class PathScheduler {
 public:
  virtual ~PathScheduler() = default;
  // Return the index of the path that should carry `request`.
  [[nodiscard]] virtual std::size_t pick(const core::ChunkRequest& request,
                                         const std::vector<PathState>& paths) = 0;
  // Should this request be treated best-effort (droppable at deadline)?
  [[nodiscard]] virtual bool best_effort(const core::ChunkRequest& request) const {
    (void)request;
    return false;
  }
  [[nodiscard]] virtual std::string_view name() const = 0;
};

class MinRttScheduler final : public PathScheduler {
 public:
  [[nodiscard]] std::size_t pick(const core::ChunkRequest& request,
                                 const std::vector<PathState>& paths) override;
  [[nodiscard]] std::string_view name() const override { return "minrtt"; }
};

class RoundRobinScheduler final : public PathScheduler {
 public:
  [[nodiscard]] std::size_t pick(const core::ChunkRequest& request,
                                 const std::vector<PathState>& paths) override;
  [[nodiscard]] std::string_view name() const override { return "round-robin"; }

 private:
  std::size_t next_ = 0;
};

class SinglePathScheduler final : public PathScheduler {
 public:
  explicit SinglePathScheduler(std::size_t path_index) : index_(path_index) {}
  [[nodiscard]] std::size_t pick(const core::ChunkRequest& request,
                                 const std::vector<PathState>& paths) override;
  [[nodiscard]] std::string_view name() const override { return "single-path"; }

 private:
  std::size_t index_;
};

class ContentAwareScheduler final : public PathScheduler {
 public:
  [[nodiscard]] std::size_t pick(const core::ChunkRequest& request,
                                 const std::vector<PathState>& paths) override;
  [[nodiscard]] bool best_effort(const core::ChunkRequest& request) const override;
  [[nodiscard]] std::string_view name() const override { return "content-aware"; }
};

[[nodiscard]] std::unique_ptr<PathScheduler> make_path_scheduler(std::string_view name);

struct MultipathStats {
  std::vector<std::int64_t> bytes_per_path;
  std::vector<int> requests_per_path;
  int dropped_best_effort = 0;
  // Table 1 accounting: requests observed per priority class, indexed by
  // rank() (0..3).
  std::array<int, 4> class_counts{};
  // Failure-recovery accounting (zero unless RecoveryPolicy::enabled).
  int failovers = 0;         // requests moved to a surviving path
  int path_down_events = 0;  // times a path was declared down
  double path_downtime_s = 0.0;  // total down-time across paths (recovered)
};

class MultipathTransport final : public core::ChunkTransport,
                                 private core::DispatchLane::Owner {
 public:
  // Links must outlive the transport; all links must share one simulator.
  // `options.max_concurrent` is the per-path concurrency (default 2 per
  // path, tighter than the single-link default of 4); the optional
  // telemetry sink receives per-path assignment traces and per-class/
  // per-path counters. With options.recovery.enabled the transport detects
  // failed paths (consecutive failures or an outage signal), fails queued
  // and in-flight FoV/urgent work over to the best surviving path, and
  // probes down paths back into service (DESIGN.md §10).
  MultipathTransport(sim::Simulator& simulator, std::vector<net::Link*> links,
                     std::unique_ptr<PathScheduler> scheduler,
                     core::TransportOptions options = {.max_concurrent = 2,
                                                       .telemetry = nullptr,
                                                       .recovery = {}});
  ~MultipathTransport() override;

  void fetch(core::ChunkRequest request) override;
  [[nodiscard]] double estimated_kbps() const override;
  [[nodiscard]] int in_flight() const override;
  [[nodiscard]] std::int64_t bytes_fetched() const override;

  [[nodiscard]] const MultipathStats& stats() const { return stats_; }
  [[nodiscard]] const PathScheduler& scheduler() const { return *scheduler_; }
  [[nodiscard]] const core::TransportOptions& options() const { return options_; }
  [[nodiscard]] bool path_down(std::size_t path_index) const {
    return paths_.at(path_index).lane.paused();
  }

 private:
  // One network path: its link's ChunkSource and the lane dispatching on
  // it; the lane is paused while the path is down.
  struct Path {
    // One lane queue class per Table 1 rank (rank() is 0..3).
    Path(net::Link& link, const core::TransportOptions& options,
         core::DispatchLane::Owner& owner, std::int32_t index)
        : source(link), lane(source, options, 4, &owner, index) {}

    net::LinkSource source;
    core::DispatchLane lane;
    obs::Counter* requests_metric = nullptr;  // set iff telemetry attached
    // Path-failure detection state (RecoveryPolicy::enabled only).
    int consecutive_failures = 0;
    sim::Time down_since{sim::kTimeZero};
    obs::Counter* down_events_metric = nullptr;
  };

  // core::DispatchLane::Owner: path-failure detection, drop accounting and
  // retry rerouting around down paths.
  void attempt_settled(core::DispatchLane& lane, const core::ChunkRequest& request,
                       const net::TransferResult& result) override;
  void best_effort_dropped() override;
  core::DispatchLane& retry_lane(core::DispatchLane& lane) override;

  // Declare `path_index` down, fail queued FoV/urgent work over to the best
  // surviving path, and start probing for recovery.
  void mark_down(std::size_t path_index);
  void probe_path(std::size_t path_index);
  // Best up path by quality score, or paths_.size() if every path is down.
  [[nodiscard]] std::size_t best_up_path() const;

  sim::Simulator& simulator_;
  core::TransportOptions options_;
  // A deque keeps each Path (and the lane callbacks pointing into it) at a
  // fixed address.
  std::deque<Path> paths_;
  std::unique_ptr<PathScheduler> scheduler_;
  // The scheduler's view of paths_, refilled in place on every fetch.
  std::vector<PathState> path_states_;
  std::uint64_t next_seq_ = 0;
  MultipathStats stats_;
  obs::Telemetry* telemetry_ = nullptr;
  // Table 1 class counters, indexed by rank(); mirror stats_.class_counts.
  std::array<obs::Counter*, 4> class_metrics_{};
  obs::Counter* dropped_metric_ = nullptr;
  // Recovery metrics, bound iff telemetry && recovery.enabled.
  obs::Counter* failovers_metric_ = nullptr;
  obs::Histogram* path_downtime_metric_ = nullptr;
  std::shared_ptr<bool> alive_ = std::make_shared<bool>(true);
};

}  // namespace sperke::mp
