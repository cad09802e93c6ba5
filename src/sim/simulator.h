// Discrete-event simulation kernel.
//
// Single-threaded and deterministic: events scheduled for the same instant
// fire in scheduling order. Everything in Sperke — network transfers,
// playback deadlines, head-movement sampling, live broadcast pipelines —
// is driven by one Simulator instance.
//
// The pending set is a calendar queue (DESIGN.md §13): power-of-two bucket
// array indexed by (time / width) & mask, each bucket a (time, seq)-sorted
// intrusive list of slab-allocated nodes. schedule and pop are O(1)
// amortized — the queue resizes to keep roughly one event per bucket and
// recomputes the bucket width from the live event spread. A bucket's list
// is a chain of same-instant runs: each run's first node points at its
// last and the last back at the first, so insert and cancel step over a
// whole run at once. An insert costs O(runs ahead of it in its bucket) —
// a new node always carries the largest seq, so it joins a matching run at
// its end — and cancel costs the same plus a walk inside its own run. The
// pop rule is the exact (time, seq) minimum, so firing order is
// byte-identical to the former std::map implementation, including FIFO
// ties. Event closures live in EventFn inline storage inside the nodes, so
// steady-state scheduling performs no heap allocation.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "sim/event_fn.h"
#include "sim/time.h"

namespace sperke::sim {

// Handle for a scheduled event; valid until the event fires or is cancelled.
struct EventId {
  Time at{kTimeZero};
  std::uint64_t seq = 0;

  friend auto operator<=>(const EventId&, const EventId&) = default;
};

class Simulator {
 public:
  Simulator();
  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  [[nodiscard]] Time now() const { return now_; }

  // Schedule `fn` to run at absolute time `at` (clamped to now()).
  EventId schedule_at(Time at, EventFn fn);

  // Schedule `fn` to run `delay` from now (negative delays clamp to now()).
  EventId schedule_after(Duration delay, EventFn fn);

  // Cancel a pending event. Returns false if it already fired or was
  // cancelled before. Cost: O(same-instant runs ahead of the event in its
  // bucket + its position in its own run) — the id addresses the bucket
  // directly and the sorted list walk stops early.
  bool cancel(EventId id);

  // Run events until the queue empties or `deadline` passes. The clock ends
  // at min(deadline, last event time); with no events it jumps to deadline.
  void run_until(Time deadline);

  // Run until the event queue is empty.
  void run();

  // Drop every pending event (the clock keeps its value).
  void clear();

  [[nodiscard]] std::size_t pending_events() const { return size_; }
  [[nodiscard]] std::uint64_t events_executed() const { return executed_; }

 private:
  struct Node {
    Time at{kTimeZero};
    std::uint64_t seq = 0;
    EventFn fn;
    Node* next = nullptr;
    // Same-instant run link: the run's first node points at its last and
    // the last at the first (a lone node at itself). Stale on the nodes in
    // between, which nothing reads.
    Node* run_end = nullptr;
  };

  // Strict (time, seq) order — the pop rule and the within-bucket sort.
  static bool precedes(const Node& a, const Node& b) {
    return a.at < b.at || (a.at == b.at && a.seq < b.seq);
  }

  [[nodiscard]] std::size_t bucket_of(Time at) const {
    return static_cast<std::size_t>(at.count() / width_) & mask_;
  }

  Node* alloc_node();
  void release_node(Node* node);
  // Link `node` into its bucket. `node` must carry the largest seq of its
  // instant, so it always lands at the end of a matching run.
  void insert(Node* node);
  // Make `node` a run of its own, or the new end of the run ending at
  // `last` (its predecessor in the bucket, or null) when their times match.
  static void join_run(Node* node, Node* last);
  // Locate (without unlinking) the global (time, seq) minimum and advance
  // the calendar cursor to its slot. Requires size_ > 0. Returns the bucket
  // index; the minimum is that bucket's head.
  std::size_t find_min_bucket();
  // Unlink and return the head of `bucket`, maintaining the tail pointer
  // and the run ends.
  Node* unlink_head(std::size_t bucket);
  // Rebuild with `nbuckets` buckets (clamped to a power-of-two floor) and a
  // bucket width recomputed from the live event spread.
  void resize(std::size_t nbuckets);
  void maybe_shrink();

  Time now_ = kTimeZero;
  std::uint64_t next_seq_ = 0;
  std::uint64_t executed_ = 0;

  std::size_t size_ = 0;            // pending events
  std::int64_t width_ = 0;          // bucket width in Time ticks
  std::size_t mask_ = 0;            // nbuckets - 1 (nbuckets is a power of 2)
  std::vector<Node*> buckets_;      // heads, (time, seq)-sorted lists
  std::vector<Node*> tails_;        // per-bucket tails for O(1) append
  std::size_t cursor_ = 0;          // bucket of the current calendar slot
  std::int64_t cursor_upper_ = 0;   // exclusive time bound of that slot

  // Slab storage: nodes are carved from fixed arrays and recycled through a
  // free list, so the queue stops allocating once it reaches steady state.
  std::vector<std::unique_ptr<Node[]>> slabs_;
  Node* free_ = nullptr;
};

}  // namespace sperke::sim
