// Fluid-flow network link.
//
// Substitutes for a packet-level TCP path (DESIGN.md §4): concurrent
// transfers share the link's time-varying capacity by max-min fair
// water-filling, each transfer additionally capped by a Mathis-style
// loss/RTT throughput ceiling (rate <= 1.22*MSS/(RTT*sqrt(p))). A transfer
// delivers its first byte one RTT after it starts (request + ramp), then
// progresses at its allocated rate; completions and bandwidth-trace steps
// are simulation events.
//
// Links are also where faults happen (DESIGN.md §10): a seeded FaultPlan on
// the config injects outages, capacity collapses, RTT spikes and
// per-transfer failures as ordinary simulation events, and every transfer
// reports how it ended through a typed TransferResult.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "net/bandwidth_trace.h"
#include "net/fault.h"
#include "sim/simulator.h"
#include "util/check.h"
#include "util/rng.h"

namespace sperke::net {

using TransferId = std::uint64_t;

struct LinkConfig {
  std::string name = "link";
  BandwidthTrace bandwidth = BandwidthTrace::constant(10'000.0);
  sim::Duration rtt = sim::milliseconds(40);
  double loss_rate = 0.0;  // [0,1); enters via the Mathis throughput cap
  FaultPlan faults;        // empty = the link never fails (byte-identical)
};

enum class TransferStatus : std::uint8_t {
  kCompleted,  // every byte delivered
  kFailed,     // injected fault: outage or seeded mid-flight failure
  kCancelled,  // caller aborted via Link::cancel
};

// How a transfer ended. `bytes_delivered` is what actually flowed: the full
// size for kCompleted, the partial progress for kFailed/kCancelled.
struct TransferResult {
  TransferStatus status = TransferStatus::kCompleted;
  sim::Time time{sim::kTimeZero};
  std::int64_t bytes_delivered = 0;

  [[nodiscard]] bool completed() const {
    return status == TransferStatus::kCompleted;
  }
};

using TransferCallback = std::function<void(const TransferResult&)>;

class Link {
 public:
  Link(sim::Simulator& simulator, LinkConfig config);
  ~Link();
  Link(const Link&) = delete;
  Link& operator=(const Link&) = delete;

  // Begin transferring `bytes`; `on_complete` fires exactly once with the
  // transfer's TransferResult — kCompleted, kFailed (injected fault) or
  // kCancelled (the caller's own cancel()). `weight` sets the transfer's
  // share of the link under contention (HTTP/2-style stream priority): a
  // weight-2 transfer receives twice the bandwidth of a weight-1 transfer
  // while both are active.
  TransferId start_transfer(std::int64_t bytes, TransferCallback on_complete,
                            double weight = 1.0);

  // Abort a pending/in-flight transfer: fires its callback (synchronously)
  // with kCancelled. Bytes already delivered still count toward
  // bytes_delivered(). Returns false — and fires nothing — if the transfer
  // already finished, failed or was cancelled: the completion callback can
  // never double-fire.
  bool cancel(TransferId id);

  [[nodiscard]] sim::Simulator& simulator() { return simulator_; }
  [[nodiscard]] const std::string& name() const { return config_.name; }
  [[nodiscard]] double loss_rate() const { return config_.loss_rate; }

  // Effective RTT right now (config RTT scaled by any active spike window).
  [[nodiscard]] sim::Duration rtt() const;

  // Capacity of the link right now (kbps) per the bandwidth trace, scaled
  // by any active fault window (zero during an outage).
  [[nodiscard]] double capacity_kbps_now() const;

  // Per-transfer Mathis ceiling (kbps); infinity when loss_rate == 0.
  [[nodiscard]] double mathis_cap_kbps() const;

  // Is the link inside a scheduled outage window right now? (The path-down
  // signal mp failover listens for.)
  [[nodiscard]] bool in_outage() const;

  // Scheduled outage time already elapsed, in seconds.
  [[nodiscard]] double outage_seconds() const;

  // O(1): the active-transfer index is maintained incrementally.
  [[nodiscard]] int active_transfers() const {
    return static_cast<int>(active_.size());
  }
  [[nodiscard]] std::int64_t bytes_delivered() const { return bytes_delivered_; }

  // Current allocated rate of a transfer in kbps (0 while in RTT warmup or
  // if the id is unknown).
  [[nodiscard]] double transfer_rate_kbps(TransferId id) const;

  // Remaining bytes of an in-flight transfer (0 if unknown/done).
  [[nodiscard]] std::int64_t transfer_remaining_bytes(TransferId id) const;

 private:
  struct Transfer {
    double remaining_bytes = 0.0;
    std::int64_t total_bytes = 0;
    std::int64_t counted_bytes = 0;  // already added to bytes_delivered_
    double rate_bps = 0.0;
    double weight = 1.0;
    bool active = false;  // false while waiting out the initial RTT
    // Seeded mid-flight failure: the transfer fails once remaining_bytes
    // drops to this threshold. Negative = will not fail.
    double fail_at_remaining_bytes = -1.0;
    TransferCallback on_complete;
  };
  struct Completion {
    TransferId id = 0;
    TransferCallback callback;
    TransferResult result;
  };

  // Move all active transfers forward to now() at their current rates.
  void advance();
  // Recompute fair-share rates (recompute_rates) and (re)schedule the next
  // wake-up event (arm_wakeup). All three walk only the active index, so a
  // reflow is O(active + water-filling), independent of warmup transfers.
  void reflow();
  void recompute_rates();
  void arm_wakeup();
  void on_wakeup();
  void activate(TransferId id);
  void deactivate(TransferId id);
  // Outage start: fail every in-flight transfer (warmup included).
  void on_outage_begin();
  // Any fault-window boundary: settle progress and recompute rates.
  void on_fault_boundary();
  // Index of the bandwidth-trace segment in force at now().
  [[nodiscard]] std::size_t trace_segment_now() const;
  // Fault-window lookups at an absolute time.
  [[nodiscard]] bool in_outage_at(sim::Time t) const;
  [[nodiscard]] double fault_capacity_factor_at(sim::Time t) const;
  void fire_completions(std::vector<Completion> completions);
  // DCHECK-build verification that active_ mirrors transfers_: strictly
  // ascending ids, every entry present and flagged active, pointers fresh.
  // Compiled out entirely (if constexpr) outside the check preset.
  void dcheck_active_consistent() const;

  sim::Simulator& simulator_;
  LinkConfig config_;
  std::map<TransferId, Transfer> transfers_;
  // Active transfers sorted by ascending id — the same iteration order as
  // the transfers_ map, which the water-filling weight sums depend on for
  // bit-exact determinism. Map nodes are pointer-stable, so the raw
  // pointers survive unrelated inserts/erases.
  std::vector<std::pair<TransferId, Transfer*>> active_;
  std::vector<Completion> completed_scratch_;
  TransferId next_id_ = 1;
  sim::Time last_update_ = sim::kTimeZero;
  // Bandwidth-trace segment of the last lookup; advanced by
  // trace_segment_now() as the clock moves (mutable: a lookup cache).
  mutable std::size_t trace_segment_ = 0;
  sim::EventId wakeup_{};
  bool wakeup_armed_ = false;
  // Link capacity observed by the last recompute_rates(); lets on_wakeup()
  // skip the recompute when nothing completed and capacity is unchanged
  // (the recomputation would reproduce the current rates bit-for-bit).
  double rates_capacity_bps_ = -1.0;
  std::int64_t bytes_delivered_ = 0;
  // Check-preset-only double-fire detector: every TransferId whose
  // completion callback has already run. Populated under
  // SPERKE_DCHECK_IS_ON only; stays empty (and untouched) in release.
  std::set<TransferId> fired_ids_;
  // Fault state. has_faults_ gates every fault check so an empty plan keeps
  // the hot path (and its floating-point results) bit-identical.
  bool has_faults_ = false;
  Rng fault_rng_;
  std::shared_ptr<bool> alive_ = std::make_shared<bool>(true);
};

}  // namespace sperke::net
