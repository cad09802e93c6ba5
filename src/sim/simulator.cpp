#include "sim/simulator.h"

#include <algorithm>
#include <utility>

#include "util/check.h"

namespace sperke::sim {

namespace {

constexpr std::size_t kMinBuckets = 16;  // power of two
constexpr std::size_t kSlabNodes = 256;
// Starting width before the first resize has seen any real event spread;
// most Sperke timers are in the millisecond range.
constexpr std::int64_t kDefaultWidth = 1000;

}  // namespace

Simulator::Simulator() { resize(kMinBuckets); }

Simulator::Node* Simulator::alloc_node() {
  if (free_ == nullptr) {
    auto slab = std::make_unique<Node[]>(kSlabNodes);
    for (std::size_t i = 0; i < kSlabNodes; ++i) {
      slab[i].next = free_;
      free_ = &slab[i];
    }
    slabs_.push_back(std::move(slab));
  }
  Node* node = free_;
  free_ = node->next;
  node->next = nullptr;
  return node;
}

void Simulator::release_node(Node* node) {
  node->fn.reset();
  node->next = free_;
  free_ = node;
}

void Simulator::insert(Node* node) {
  // Calendar invariant: the cursor slot start never exceeds any pending
  // event's time. An event scheduled behind the cursor (possible after a
  // peek jumped it to a far-future timer) steps the cursor back to the new
  // event's slot; without this, the lap scan would meet earlier-year events
  // in bucket order rather than time order.
  if (node->at.count() < cursor_upper_ - width_) {
    cursor_ = bucket_of(node->at);
    cursor_upper_ = (node->at.count() / width_ + 1) * width_;
  }
  const std::size_t b = bucket_of(node->at);
  // Steady state appends: seq grows monotonically and event times trend
  // forward, so the new node usually belongs after the current tail.
  Node* tail = tails_[b];
  if (tail == nullptr || tail->at <= node->at) {
    if (tail == nullptr) {
      buckets_[b] = node;
    } else {
      tail->next = node;
    }
    tails_[b] = node;
    node->next = nullptr;
    join_run(node, tail);
    return;
  }
  // Walk run by run: a run's first node leads straight to its last, so a
  // same-instant burst costs one step however long it is.
  Node* last = nullptr;  // last node of the run before `slot`
  Node** slot = &buckets_[b];
  while ((*slot)->at <= node->at) {
    last = (*slot)->run_end;
    slot = &last->next;
  }
  node->next = *slot;
  *slot = node;
  join_run(node, last);
}

void Simulator::join_run(Node* node, Node* last) {
  if (last != nullptr && last->at == node->at) {
    Node* first = last->run_end;
    first->run_end = node;
    node->run_end = first;
  } else {
    node->run_end = node;
  }
}

std::size_t Simulator::find_min_bucket() {
  std::size_t i = cursor_;
  std::int64_t upper = cursor_upper_;
  const std::size_t nbuckets = mask_ + 1;
  for (std::size_t scanned = 0; scanned < nbuckets; ++scanned) {
    const Node* head = buckets_[i];
    if (head != nullptr && head->at.count() < upper) {
      // Within the current calendar year, bucket order is time order and
      // same-time events share a bucket, so this head is the global
      // (time, seq) minimum.
      cursor_ = i;
      cursor_upper_ = upper;
      return i;
    }
    i = (i + 1) & mask_;
    upper += width_;
  }
  // Sparse tail: nothing fires within the next whole year. Direct-search
  // the bucket heads for the minimum and jump the calendar to its slot.
  const Node* best = nullptr;
  std::size_t best_bucket = 0;
  for (std::size_t b = 0; b < nbuckets; ++b) {
    const Node* head = buckets_[b];
    if (head == nullptr) continue;
    if (best == nullptr || precedes(*head, *best)) {
      best = head;
      best_bucket = b;
    }
  }
  SPERKE_CHECK(best != nullptr, "Simulator: find_min on an empty queue");
  cursor_ = best_bucket;
  cursor_upper_ = (best->at.count() / width_ + 1) * width_;
  return best_bucket;
}

Simulator::Node* Simulator::unlink_head(std::size_t bucket) {
  Node* node = buckets_[bucket];
  buckets_[bucket] = node->next;
  if (node->next == nullptr) {
    tails_[bucket] = nullptr;
  } else if (node->run_end != node) {
    // The run goes on: its second node becomes the first.
    Node* last = node->run_end;
    node->next->run_end = last;
    last->run_end = node->next;
  }
  --size_;
  return node;
}

void Simulator::resize(std::size_t nbuckets) {
  nbuckets = std::max(nbuckets, kMinBuckets);
  // Each bucket's head is its earliest event and its tail its latest, so
  // the live spread comes from the ends alone.
  Time lo = Time::max();
  Time hi = Time::min();
  for (std::size_t b = 0; b < buckets_.size(); ++b) {
    if (buckets_[b] == nullptr) continue;
    lo = std::min(lo, buckets_[b]->at);
    hi = std::max(hi, tails_[b]->at);
  }
  const std::vector<Node*> old_heads =
      std::exchange(buckets_, std::vector<Node*>(nbuckets, nullptr));
  tails_.assign(nbuckets, nullptr);
  mask_ = nbuckets - 1;
  // Aim for ~one event per occupied bucket: width ≈ spread / size. A zero
  // spread (burst of identical timestamps) degenerates to one bucket, where
  // the tail-append path keeps inserts O(1) anyway.
  width_ = size_ == 0 ? kDefaultWidth
                      : std::max<std::int64_t>(
                            (hi - lo).count() /
                                static_cast<std::int64_t>(size_ + 1),
                            1);
  cursor_ = bucket_of(now_);
  cursor_upper_ = (now_.count() / width_ + 1) * width_;
  // Re-insert bucket by bucket in list order. A same-instant run sits
  // whole in one old bucket, so its members arrive in seq order and each
  // is the largest seq of its instant so far, as insert() requires.
  std::size_t redistributed = 0;
  for (Node* node : old_heads) {
    while (node != nullptr) {
      Node* next = node->next;
      insert(node);
      node = next;
      ++redistributed;
    }
  }
  SPERKE_CHECK(redistributed == size_,
               "Simulator: resize lost events: ", redistributed, " of ", size_);
#if SPERKE_DCHECK_IS_ON
  // pending_events() must equal the nodes actually reachable from the new
  // bucket array — a miscount here means a future pop fires the wrong event
  // or a cancel silently misses. Every run's ends must point at each other,
  // or an insert or cancel would step past live events.
  std::size_t reachable = 0;
  for (const Node* head : buckets_) {
    for (const Node* node = head; node != nullptr; node = node->next) {
      ++reachable;
      const Node* last = node->run_end;
      SPERKE_DCHECK(last->run_end == node && last->at == node->at &&
                        (last->next == nullptr || last->next->at > node->at),
                    "Simulator: resize left a broken same-instant run");
      while (node != last && node->next != nullptr) {
        node = node->next;
        ++reachable;
      }
    }
  }
  SPERKE_DCHECK(reachable == size_,
                "Simulator: resize bucket walk found ", reachable,
                " events, size_ says ", size_);
#endif
}

void Simulator::maybe_shrink() {
  if (mask_ + 1 > kMinBuckets && size_ * 2 < mask_ + 1) {
    resize((mask_ + 1) / 2);
  }
}

EventId Simulator::schedule_at(Time at, EventFn fn) {
  // A null event would only be discovered when it fires, far from the
  // scheduling bug that produced it.
  SPERKE_CHECK(fn != nullptr, "Simulator: scheduling a null event");
  const EventId id{std::max(at, now_), next_seq_++};
  Node* node = alloc_node();
  node->at = id.at;
  node->seq = id.seq;
  node->fn = std::move(fn);
  ++size_;
  insert(node);
  if (size_ > 2 * (mask_ + 1)) resize(2 * (mask_ + 1));
  return id;
}

EventId Simulator::schedule_after(Duration delay, EventFn fn) {
  return schedule_at(now_ + std::max(delay, Duration{0}), std::move(fn));
}

bool Simulator::cancel(EventId id) {
  if (size_ == 0) return false;
  const std::size_t b = bucket_of(id.at);
  // Step run by run to the run at id.at; the sorted list lets the walk stop
  // as soon as it is past that instant.
  Node* prev = nullptr;
  Node* first = buckets_[b];
  while (first != nullptr && first->at < id.at) {
    prev = first->run_end;
    first = prev->next;
  }
  if (first == nullptr || first->at != id.at) return false;
  Node* last = first->run_end;
  if (id.seq < first->seq || id.seq > last->seq) return false;
  Node* node = first;
  while (node->seq < id.seq) {
    prev = node;
    node = node->next;
  }
  if (node->seq != id.seq) return false;
  if (prev == nullptr) {
    buckets_[b] = node->next;
  } else {
    prev->next = node->next;
  }
  if (tails_[b] == node) tails_[b] = prev;
  if (first != last) {
    if (node == first) {
      node->next->run_end = last;
      last->run_end = node->next;
    } else if (node == last) {
      first->run_end = prev;
      prev->run_end = first;
    }
  }
  release_node(node);
  --size_;
  maybe_shrink();
  return true;
}

void Simulator::run_until(Time deadline) {
  while (size_ > 0) {
    const std::size_t b = find_min_bucket();
    Node* node = buckets_[b];
    if (node->at > deadline) break;
    // Event-time monotonicity: the clock never runs backwards. schedule_at
    // clamps to now(), so a violation here means the queue ordering itself
    // broke — every downstream timestamp would be silently wrong.
    SPERKE_CHECK(node->at >= now_,
                 "Simulator: event time precedes now; clock would reverse");
    now_ = node->at;
    unlink_head(b);
    EventFn fn = std::move(node->fn);
    release_node(node);
    ++executed_;
    fn();
    maybe_shrink();
  }
  now_ = std::max(now_, deadline);
}

void Simulator::run() {
  while (size_ > 0) {
    const std::size_t b = find_min_bucket();
    Node* node = buckets_[b];
    SPERKE_CHECK(node->at >= now_,
                 "Simulator: event time precedes now; clock would reverse");
    now_ = node->at;
    unlink_head(b);
    EventFn fn = std::move(node->fn);
    release_node(node);
    ++executed_;
    fn();
    maybe_shrink();
  }
}

void Simulator::clear() {
  for (Node*& head : buckets_) {
    while (head != nullptr) {
      Node* node = head;
      head = node->next;
      release_node(node);
    }
  }
  std::fill(tails_.begin(), tails_.end(), nullptr);
  size_ = 0;
  resize(kMinBuckets);
}

}  // namespace sperke::sim
