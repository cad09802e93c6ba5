#include "net/link.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>

namespace sperke::net {
namespace {

constexpr double kMssBytes = 1460.0;
constexpr double kMathisConstant = 1.22;
// A transfer is complete when less than half a byte remains (absorbs
// floating-point drift in the fluid model).
constexpr double kCompleteEpsilonBytes = 0.5;

}  // namespace

Link::Link(sim::Simulator& simulator, LinkConfig config)
    : simulator_(simulator),
      config_(std::move(config)),
      fault_rng_(config_.faults.seed) {
  if (config_.rtt < sim::Duration{0}) throw std::invalid_argument("Link: negative RTT");
  if (config_.loss_rate < 0.0 || config_.loss_rate >= 1.0) {
    throw std::invalid_argument("Link: loss_rate must be in [0,1)");
  }
  validate(config_.faults);
  has_faults_ = !config_.faults.empty();
  last_update_ = simulator_.now();
  if (has_faults_) {
    // Execute the schedule as simulation events. Outage starts fail the
    // in-flight set; every other boundary just settles progress and
    // recomputes rates under the new capacity/RTT factors.
    for (const FaultWindow& w : config_.faults.outages) {
      simulator_.schedule_at(sim::seconds(w.start_s), [this, alive = alive_] {
        if (*alive) on_outage_begin();
      });
      simulator_.schedule_at(sim::seconds(w.end_s()), [this, alive = alive_] {
        if (*alive) on_fault_boundary();
      });
    }
    const auto boundary_events = [this](const std::vector<FaultWindow>& windows) {
      for (const FaultWindow& w : windows) {
        for (const double edge_s : {w.start_s, w.end_s()}) {
          simulator_.schedule_at(sim::seconds(edge_s), [this, alive = alive_] {
            if (*alive) on_fault_boundary();
          });
        }
      }
    };
    boundary_events(config_.faults.capacity_collapses);
    boundary_events(config_.faults.rtt_spikes);
  }
}

Link::~Link() { *alive_ = false; }

bool Link::in_outage_at(sim::Time t) const {
  if (!has_faults_) return false;
  const double t_s = sim::to_seconds(t);
  for (const FaultWindow& w : config_.faults.outages) {
    if (w.contains_s(t_s)) return true;
  }
  return false;
}

bool Link::in_outage() const { return in_outage_at(simulator_.now()); }

double Link::outage_seconds() const {
  if (!has_faults_) return 0.0;
  const double now_s = sim::to_seconds(simulator_.now());
  double total = 0.0;
  for (const FaultWindow& w : config_.faults.outages) {
    total += std::max(0.0, std::min(now_s, w.end_s()) - w.start_s);
  }
  return total;
}

double Link::fault_capacity_factor_at(sim::Time t) const {
  if (in_outage_at(t)) return 0.0;
  double factor = 1.0;
  const double t_s = sim::to_seconds(t);
  for (const FaultWindow& w : config_.faults.capacity_collapses) {
    if (w.contains_s(t_s)) factor *= w.factor;
  }
  return factor;
}

std::size_t Link::trace_segment_now() const {
  // The simulator clock never runs backwards, so the segment holding now()
  // only moves forward: over a link's life the cursor walks each segment
  // once instead of binary-searching the trace on every lookup.
  const auto& segments = config_.bandwidth.segments();
  const sim::Time now = simulator_.now();
  while (trace_segment_ + 1 < segments.size() &&
         segments[trace_segment_ + 1].first <= now) {
    ++trace_segment_;
  }
  return trace_segment_;
}

double Link::capacity_kbps_now() const {
  // Same value as config_.bandwidth.kbps_at(now()).
  const double base = config_.bandwidth.segments()[trace_segment_now()].second;
  if (!has_faults_) return base;
  return base * fault_capacity_factor_at(simulator_.now());
}

sim::Duration Link::rtt() const {
  if (!has_faults_) return config_.rtt;
  double factor = 1.0;
  const double now_s = sim::to_seconds(simulator_.now());
  for (const FaultWindow& w : config_.faults.rtt_spikes) {
    if (w.contains_s(now_s)) factor *= w.factor;
  }
  if (factor == 1.0) return config_.rtt;
  return sim::seconds(sim::to_seconds(config_.rtt) * factor);
}

double Link::mathis_cap_kbps() const {
  if (config_.loss_rate <= 0.0) return std::numeric_limits<double>::infinity();
  const double rtt_s = std::max(sim::to_seconds(rtt()), 1e-4);
  const double bps =
      kMathisConstant * kMssBytes * 8.0 / (rtt_s * std::sqrt(config_.loss_rate));
  return bps / 1000.0;
}

double Link::transfer_rate_kbps(TransferId id) const {
  const auto it = transfers_.find(id);
  return it != transfers_.end() && it->second.active ? it->second.rate_bps / 1000.0
                                                     : 0.0;
}

std::int64_t Link::transfer_remaining_bytes(TransferId id) const {
  const auto it = transfers_.find(id);
  return it != transfers_.end()
             ? static_cast<std::int64_t>(std::ceil(it->second.remaining_bytes))
             : 0;
}

void Link::activate(TransferId id) {
  Transfer& t = transfers_.at(id);
  // Double activation would insert a duplicate active_ entry and count the
  // transfer twice in every water-filling weight sum.
  SPERKE_CHECK(!t.active, "Link: transfer activated twice");
  t.active = true;
  // Activations arrive in id order (same RTT for every transfer), so this
  // is effectively a push_back; lower_bound keeps the id ordering an
  // invariant rather than an accident.
  const auto pos = std::lower_bound(
      active_.begin(), active_.end(), id,
      [](const auto& entry, TransferId value) { return entry.first < value; });
  active_.insert(pos, {id, &t});
}

void Link::deactivate(TransferId id) {
  const auto pos = std::lower_bound(
      active_.begin(), active_.end(), id,
      [](const auto& entry, TransferId value) { return entry.first < value; });
  if (pos != active_.end() && pos->first == id) active_.erase(pos);
}

TransferId Link::start_transfer(std::int64_t bytes, TransferCallback on_complete,
                                double weight) {
  if (bytes <= 0) throw std::invalid_argument("Link: transfer of non-positive size");
  if (weight <= 0.0) throw std::invalid_argument("Link: non-positive weight");
  const TransferId id = next_id_++;
  Transfer t;
  t.remaining_bytes = static_cast<double>(bytes);
  t.total_bytes = bytes;
  t.weight = weight;
  t.on_complete = std::move(on_complete);
  if (has_faults_ && config_.faults.transfer_failure_prob > 0.0 &&
      fault_rng_.bernoulli(config_.faults.transfer_failure_prob)) {
    // Seeded mid-flight failure: the connection dies after a uniform
    // fraction of the payload has flowed. Drawn in transfer-start order,
    // so the failure pattern is a pure function of (plan seed, workload).
    const double delivered_fraction = fault_rng_.uniform(0.05, 0.95);
    t.fail_at_remaining_bytes =
        static_cast<double>(bytes) * (1.0 - delivered_fraction);
  }
  transfers_.emplace(id, std::move(t));
  // First byte flows one RTT after the request is issued.
  simulator_.schedule_after(rtt(), [this, id, alive = alive_] {
    if (!*alive) return;
    const auto it = transfers_.find(id);
    if (it == transfers_.end()) return;  // cancelled/failed during warmup
    if (has_faults_ && in_outage()) {
      // The request hit a dead link: the handshake times out after the RTT
      // instead of ever activating.
      Completion failed{id, std::move(it->second.on_complete),
                        {TransferStatus::kFailed, simulator_.now(), 0}};
      transfers_.erase(it);
      std::vector<Completion> completions = std::move(completed_scratch_);
      completions.clear();
      completions.push_back(std::move(failed));
      fire_completions(std::move(completions));
      return;
    }
    advance();
    activate(id);
    reflow();
    dcheck_active_consistent();
  });
  return id;
}

bool Link::cancel(TransferId id) {
  const auto it = transfers_.find(id);
  if (it == transfers_.end()) return false;  // finished/failed: never re-fires
  advance();
  Completion cancelled{id, std::move(it->second.on_complete),
                       {TransferStatus::kCancelled, simulator_.now(),
                        it->second.counted_bytes}};
  if (it->second.active) deactivate(id);
  transfers_.erase(it);
  reflow();
  dcheck_active_consistent();
  std::vector<Completion> completions = std::move(completed_scratch_);
  completions.clear();
  completions.push_back(std::move(cancelled));
  fire_completions(std::move(completions));
  return true;
}

void Link::on_outage_begin() {
  advance();
  // Every transfer — active or still in RTT warmup — fails at the outage
  // edge; partial progress stays counted in bytes_delivered().
  std::vector<Completion> completions = std::move(completed_scratch_);
  completions.clear();
  const sim::Time now = simulator_.now();
  for (auto& [id, t] : transfers_) {
    completions.push_back({id, std::move(t.on_complete),
                           {TransferStatus::kFailed, now, t.counted_bytes}});
  }
  transfers_.clear();
  active_.clear();
  reflow();
  fire_completions(std::move(completions));
}

void Link::on_fault_boundary() {
  advance();
  reflow();
}

void Link::advance() {
  const sim::Time now = simulator_.now();
  const double dt = sim::to_seconds(now - last_update_);
  // last_update_ only ever moves forward with the simulator clock; a
  // negative dt means time ran backwards and every fluid integral is wrong.
  SPERKE_DCHECK(dt >= 0.0, "Link: advance with negative dt=", dt);
  if (dt > 0.0) {
    for (auto& [id, t] : active_) {
      if (t->rate_bps <= 0.0) continue;
      const double delivered =
          std::min(t->remaining_bytes, t->rate_bps / 8.0 * dt);
      t->remaining_bytes -= delivered;
      const auto inc = static_cast<std::int64_t>(std::llround(delivered));
      t->counted_bytes += inc;
      bytes_delivered_ += inc;
      // Byte conservation per transfer: the fluid model can neither deliver
      // more than the object holds nor drive the residue negative.
      SPERKE_DCHECK(t->remaining_bytes >= 0.0 &&
                        t->remaining_bytes <= static_cast<double>(t->total_bytes),
                    "Link: remaining_bytes out of [0, total] for transfer ", id);
    }
  }
  last_update_ = now;
}

void Link::reflow() {
  recompute_rates();
  arm_wakeup();
}

void Link::recompute_rates() {
  // Weighted water-filling: capacity splits proportionally to transfer
  // weights, each transfer individually Mathis-capped; capacity a capped
  // transfer cannot use redistributes among the rest in a further round.
  // Each round sums the uncapped weights in id order and hands every
  // uncapped transfer remaining * weight / total; the first round in which
  // no share reaches the cap ends the filling, and its shares are the
  // rates. A capped transfer's rate is exactly cap_bps and an uncapped
  // share is strictly below it, so the rate itself marks who is capped.
  const double capacity_bps = capacity_kbps_now() * 1000.0;
  rates_capacity_bps_ = capacity_bps;
  const double cap_bps = mathis_cap_kbps() * 1000.0;
  for (auto& [id, t] : active_) t->rate_bps = 0.0;
  double remaining_capacity = capacity_bps;
  bool someone_capped = true;
  while (someone_capped && remaining_capacity > 0.0) {
    someone_capped = false;
    double total_weight = 0.0;
    for (const auto& [id, t] : active_) {
      if (t->rate_bps < cap_bps) total_weight += t->weight;
    }
    if (total_weight == 0.0) break;  // every transfer is capped
    for (auto& [id, t] : active_) {
      if (t->rate_bps >= cap_bps) continue;
      const double share = remaining_capacity * t->weight / total_weight;
      if (share >= cap_bps) {
        t->rate_bps = cap_bps;
        remaining_capacity -= cap_bps;
        someone_capped = true;
      } else {
        t->rate_bps = share;
      }
    }
  }
  if (remaining_capacity <= 0.0) {
    // The caps used up the link: the uncapped get nothing.
    for (auto& [id, t] : active_) {
      if (t->rate_bps < cap_bps) t->rate_bps = 0.0;
    }
  }
  if constexpr (SPERKE_DCHECK_IS_ON) {
    // Rate conservation: the water-filling never allocates more than the
    // link's capacity (1e-9 relative slack for the divisions above), and
    // no transfer exceeds its Mathis ceiling.
    double allocated_bps = 0.0;
    for (const auto& [id, t] : active_) {
      allocated_bps += t->rate_bps;
      SPERKE_DCHECK(t->rate_bps <= cap_bps * (1.0 + 1e-9) + 1e-6,
                    "Link: transfer ", id, " exceeds Mathis cap");
    }
    SPERKE_DCHECK(allocated_bps <= capacity_bps * (1.0 + 1e-9) + 1e-6,
                  "Link: water-filling over-allocated ", allocated_bps,
                  " bps of ", capacity_bps);
  }
}

void Link::arm_wakeup() {
  // Next wake-up: earliest completion (or scheduled mid-flight failure) or
  // bandwidth-trace step. Fault-window boundaries have their own events.
  sim::Time next = sim::Time{std::numeric_limits<std::int64_t>::max()};
  for (const auto& [id, t] : active_) {
    if (t->rate_bps <= 0.0) continue;
    const double to_go =
        t->fail_at_remaining_bytes >= 0.0
            ? t->remaining_bytes - t->fail_at_remaining_bytes
            : t->remaining_bytes;
    const double secs = std::max(to_go, 0.0) * 8.0 / t->rate_bps;
    // Round *up* to at least one microsecond: rounding a sub-tick
    // completion down to zero would respawn this event at the same
    // instant forever.
    sim::Duration wait = sim::seconds(secs);
    if (wait <= sim::Duration{0}) wait = sim::Duration{1};
    next = std::min(next, simulator_.now() + wait);
  }
  // Next bandwidth-trace step, as config_.bandwidth.next_change_after(now()).
  const auto& segments = config_.bandwidth.segments();
  if (const std::size_t seg = trace_segment_now(); seg + 1 < segments.size()) {
    next = std::min(next, segments[seg + 1].first);
  }
  if (wakeup_armed_) {
    simulator_.cancel(wakeup_);
    wakeup_armed_ = false;
  }
  if (next != sim::Time{std::numeric_limits<std::int64_t>::max()}) {
    wakeup_ = simulator_.schedule_at(next, [this, alive = alive_] {
      if (!*alive) return;
      wakeup_armed_ = false;
      on_wakeup();
    });
    wakeup_armed_ = true;
  }
}

void Link::on_wakeup() {
  advance();
  // Collect completions before reflowing so freed capacity redistributes.
  // Compacting active_ in place preserves its ascending-id order, which is
  // also the callback firing order.
  std::vector<Completion> completions = std::move(completed_scratch_);
  completions.clear();
  const sim::Time now = simulator_.now();
  std::size_t keep = 0;
  for (std::size_t read = 0; read < active_.size(); ++read) {
    Transfer* t = active_[read].second;
    if (t->fail_at_remaining_bytes >= 0.0 &&
        t->remaining_bytes <= t->fail_at_remaining_bytes + kCompleteEpsilonBytes) {
      // Scheduled mid-flight failure: report the partial progress.
      completions.push_back({active_[read].first, std::move(t->on_complete),
                             {TransferStatus::kFailed, now, t->counted_bytes}});
      transfers_.erase(active_[read].first);
    } else if (t->remaining_bytes <= kCompleteEpsilonBytes) {
      // Square up the fluid rounding: a completed transfer delivered
      // exactly its size, no matter how the increments rounded.
      bytes_delivered_ += t->total_bytes - t->counted_bytes;
      completions.push_back(
          {active_[read].first, std::move(t->on_complete),
           {TransferStatus::kCompleted, now, t->total_bytes}});
      transfers_.erase(active_[read].first);
    } else {
      active_[keep++] = active_[read];
    }
  }
  active_.resize(keep);
  dcheck_active_consistent();
  if (completions.empty() && capacity_kbps_now() * 1000.0 == rates_capacity_bps_) {
    // Nothing changed: the active set is intact and capacity is what the
    // current rates were computed from, so recomputing would reproduce
    // them bit-for-bit. Just re-arm the next wake-up.
    arm_wakeup();
  } else {
    reflow();
  }
  fire_completions(std::move(completions));
}

void Link::fire_completions(std::vector<Completion> completions) {
  // The vector is a local (not the scratch member) while callbacks run: a
  // callback may destroy the Link, and a local stays valid through that.
  // The capacity returns to the scratch afterwards.
  const auto alive = alive_;
  for (Completion& c : completions) {
    if (*alive) {  // members are gone once a callback destroys the Link
      // No-double-fire: a completion only exists for a transfer already
      // erased from the tracked set — cancel() on a finished/failed id must
      // find nothing and return false, never re-fire (DESIGN.md §10).
      SPERKE_CHECK(transfers_.find(c.id) == transfers_.end(),
                   "Link: completion fired for still-tracked transfer ", c.id);
      if constexpr (SPERKE_DCHECK_IS_ON) {
        SPERKE_DCHECK(fired_ids_.insert(c.id).second,
                      "Link: completion double-fired for transfer ", c.id);
      }
    }
    if (c.callback) c.callback(c.result);
  }
  if (*alive) completed_scratch_ = std::move(completions);
}

void Link::dcheck_active_consistent() const {
  if constexpr (SPERKE_DCHECK_IS_ON) {
    TransferId prev = 0;
    for (const auto& [id, t] : active_) {
      SPERKE_DCHECK(prev < id || prev == 0,
                    "Link: active_ ids not strictly ascending at ", id);
      prev = id;
      const auto it = transfers_.find(id);
      SPERKE_DCHECK(it != transfers_.end(),
                    "Link: active_ references erased transfer ", id);
      SPERKE_DCHECK(&it->second == t && it->second.active,
                    "Link: active_ entry stale for transfer ", id);
    }
  }
}

}  // namespace sperke::net
