// Property tests for the calendar-queue Simulator (DESIGN.md §13): random
// schedule/cancel/run_until interleavings must agree, event for event, with
// a reference implementation that keeps the former std::map<EventId, fn>
// queue — same firing order (exact (time, seq) minimum, FIFO ties), same
// events_executed, same clock — plus directed edge cases for bucket-array
// resize, epoch rollover (events far beyond one calendar year), scheduling
// behind the calendar cursor, and the same-instant runs that insert and
// cancel step over (bursts, inserts just past a run, cancels of a run's
// first/middle/last member, stale and forged ids).
#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <map>
#include <optional>
#include <random>
#include <utility>
#include <vector>

#include "sim/simulator.h"
#include "sim/time.h"

namespace sperke::sim {
namespace {

// The pre-calendar-queue Simulator, kept verbatim as the semantic oracle.
class ReferenceSimulator {
 public:
  [[nodiscard]] Time now() const { return now_; }

  EventId schedule_at(Time at, std::function<void()> fn) {
    const EventId id{std::max(at, now_), next_seq_++};
    queue_.emplace(id, std::move(fn));
    return id;
  }

  bool cancel(EventId id) { return queue_.erase(id) > 0; }

  void run_until(Time deadline) {
    while (!queue_.empty()) {
      const auto it = queue_.begin();
      if (it->first.at > deadline) break;
      now_ = it->first.at;
      auto fn = std::move(it->second);
      queue_.erase(it);
      ++executed_;
      fn();
    }
    now_ = std::max(now_, deadline);
  }

  void run() {
    while (!queue_.empty()) {
      const auto it = queue_.begin();
      now_ = it->first.at;
      auto fn = std::move(it->second);
      queue_.erase(it);
      ++executed_;
      fn();
    }
  }

  [[nodiscard]] std::size_t pending_events() const { return queue_.size(); }
  [[nodiscard]] std::uint64_t events_executed() const { return executed_; }

  // Test-side views of the pending set (not part of the former API): the
  // first pending id at or after `t`, and every pending id at instant `at`
  // in firing order — the same-instant run the calendar queue links up.
  [[nodiscard]] std::optional<EventId> pending_at_or_after(Time t) const {
    const auto it = queue_.lower_bound(EventId{t, 0});
    if (it == queue_.end()) return std::nullopt;
    return it->first;
  }
  [[nodiscard]] std::vector<EventId> run_at(Time at) const {
    std::vector<EventId> run;
    for (auto it = queue_.lower_bound(EventId{at, 0});
         it != queue_.end() && it->first.at == at; ++it) {
      run.push_back(it->first);
    }
    return run;
  }

 private:
  Time now_ = kTimeZero;
  std::uint64_t next_seq_ = 0;
  std::uint64_t executed_ = 0;
  std::map<EventId, std::function<void()>> queue_;
};

// Drives the real Simulator and the reference through an identical op
// sequence, recording each firing as (time, tag) and comparing the logs.
struct Harness {
  Simulator real;
  ReferenceSimulator ref;
  std::vector<std::pair<Time, int>> real_log;
  std::vector<std::pair<Time, int>> ref_log;
  std::vector<EventId> real_live;
  std::vector<EventId> ref_live;
  int next_tag = 0;
  bool reentrant = false;

  void schedule(Time at) {
    const int tag = next_tag++;
    real_live.push_back(
        real.schedule_at(at, [this, tag] { real_log.emplace_back(real.now(), tag); }));
    ref_live.push_back(
        ref.schedule_at(at, [this, tag] { ref_log.emplace_back(ref.now(), tag); }));
  }

  // Schedule on both sides and return the id, which the two agree on: both
  // clamp to now() and number events from 0 in scheduling order. With
  // `reentrant` set, every fourth event schedules a follow-up as it fires,
  // at its own instant or one tick later, so inserts meet a run that is
  // part-way popped.
  EventId schedule_id(Time at) {
    const int tag = next_tag++;
    const EventId id = real.schedule_at(at, [this, tag] {
      real_log.emplace_back(real.now(), tag);
      if (reentrant && tag % 4 == 0) {
        real.schedule_at(real.now() + follow_up_delay(tag),
                         [this, tag] { real_log.emplace_back(real.now(), ~tag); });
      }
    });
    const EventId ref_id = ref.schedule_at(at, [this, tag] {
      ref_log.emplace_back(ref.now(), tag);
      if (reentrant && tag % 4 == 0) {
        ref.schedule_at(ref.now() + follow_up_delay(tag),
                        [this, tag] { ref_log.emplace_back(ref.now(), ~tag); });
      }
    });
    EXPECT_EQ(id, ref_id);
    return id;
  }

  static Duration follow_up_delay(int tag) { return Duration{tag % 3 == 0 ? 0 : 1}; }

  // Cancel the same id on both sides; live, stale or forged, they must
  // agree on whether it was pending.
  bool cancel_id(EventId id) {
    const bool cancelled = real.cancel(id);
    EXPECT_EQ(cancelled, ref.cancel(id)) << "at=" << id.at.count() << " seq=" << id.seq;
    check("cancel");
    return cancelled;
  }

  void cancel_nth(std::size_t n) {
    if (real_live.empty()) return;
    n %= real_live.size();
    EXPECT_EQ(real.cancel(real_live[n]), ref.cancel(ref_live[n]));
    real_live.erase(real_live.begin() + static_cast<std::ptrdiff_t>(n));
    ref_live.erase(ref_live.begin() + static_cast<std::ptrdiff_t>(n));
  }

  void run_until(Time deadline) {
    real.run_until(deadline);
    ref.run_until(deadline);
    check("run_until");
  }

  void run() {
    real.run();
    ref.run();
    check("run");
  }

  void check(const char* where) {
    ASSERT_EQ(real_log, ref_log) << where;
    ASSERT_EQ(real.now(), ref.now()) << where;
    ASSERT_EQ(real.pending_events(), ref.pending_events()) << where;
    ASSERT_EQ(real.events_executed(), ref.events_executed()) << where;
  }
};

TEST(CalendarQueueProperty, BurstHeavyInterleavingsMatchMapReference) {
  // Crowd-shaped traffic: runs of 1–200 events at shared instants, inserts
  // just past a run (same bucket at any width above a few ticks), cancels
  // of a run's first, middle and last member, stale and forged ids, and
  // bucket-array resizes (grow and shrink) while runs are pending, and
  // follow-ups scheduled at or just past a run while it is being popped.
  for (std::uint32_t seed = 0; seed < 12; ++seed) {
    std::mt19937 rng(seed);
    Harness h;
    h.reentrant = true;
    std::vector<EventId> issued;  // every id handed out, fired or not
    std::uniform_int_distribution<int> op(0, 11);
    std::uniform_int_distribution<std::int64_t> dt(0, 400'000);
    std::uniform_int_distribution<int> run_len(1, 200);
    std::uniform_int_distribution<std::int64_t> tick(1, 3);
    // A pending instant near a random point ahead of the clock, if any.
    const auto pending_instant = [&]() -> std::optional<Time> {
      const auto id = h.ref.pending_at_or_after(h.real.now() + Duration{dt(rng)});
      if (id) return id->at;
      const auto any = h.ref.pending_at_or_after(h.real.now());
      return any ? std::optional<Time>(any->at) : std::nullopt;
    };
    for (int step = 0; step < 1500; ++step) {
      switch (op(rng)) {
        case 0:
        case 1: {  // a burst at one fresh instant
          const Time at = h.real.now() + Duration{dt(rng)};
          for (int n = run_len(rng); n > 0; --n) issued.push_back(h.schedule_id(at));
          break;
        }
        case 2: {  // extend a pending run at its end
          if (const auto at = pending_instant()) issued.push_back(h.schedule_id(*at));
          break;
        }
        case 3:
        case 4: {  // insert just after (or before) a pending run
          if (const auto at = pending_instant()) {
            const Duration off{op(rng) % 2 == 0 ? tick(rng) : -tick(rng)};
            issued.push_back(h.schedule_id(*at + off));
          }
          break;
        }
        case 5:
        case 6: {  // cancel the first, a middle or the last member of a run
          if (const auto at = pending_instant()) {
            const std::vector<EventId> run = h.ref.run_at(*at);
            const std::size_t pick[] = {0, run.size() / 2, run.size() - 1};
            h.cancel_id(run[pick[rng() % 3]]);
          }
          break;
        }
        case 7: {  // a stale id: fired, cancelled, or still pending
          if (!issued.empty()) h.cancel_id(issued[rng() % issued.size()]);
          break;
        }
        case 8: {  // a forged id: a real seq at a nearby wrong time, or a
                   // real instant with a nearby or never-issued seq
          if (!issued.empty()) {
            const EventId real_id = issued[rng() % issued.size()];
            const EventId forged[] = {
                {real_id.at + Duration{tick(rng)}, real_id.seq},
                {real_id.at - Duration{tick(rng)}, real_id.seq},
                {real_id.at, real_id.seq + static_cast<std::uint64_t>(tick(rng))},
                {real_id.at, real_id.seq + 1'000'000}};
            h.cancel_id(forged[rng() % 4]);
          }
          break;
        }
        case 9: {  // far-future backlog, widening the buckets at resize
          issued.push_back(h.schedule_id(h.real.now() + Duration{dt(rng) * 512}));
          break;
        }
        case 10:  // advance a little: fires some runs whole, shrinks
          h.run_until(h.real.now() + Duration{dt(rng) / 8});
          break;
        default:  // advance a lot
          h.run_until(h.real.now() + Duration{dt(rng)});
          break;
      }
    }
    h.run();
    h.check("final drain");
    ASSERT_EQ(h.real.pending_events(), 0u);
  }
}

TEST(CalendarQueueProperty, RandomInterleavingsMatchMapReference) {
  for (std::uint32_t seed = 0; seed < 20; ++seed) {
    std::mt19937 rng(seed);
    Harness h;
    std::uniform_int_distribution<int> op(0, 9);
    std::uniform_int_distribution<std::int64_t> dt(0, 2'000'000);  // 0..2 s
    for (int step = 0; step < 2000; ++step) {
      switch (op(rng)) {
        case 0:
        case 1:
        case 2:
        case 3:
        case 4:
        case 5:  // schedule near the clock (dense region)
          h.schedule(h.real.now() + Duration{dt(rng)});
          break;
        case 6:  // schedule far ahead (sparse region / future years)
          h.schedule(h.real.now() + Duration{dt(rng) * 4096});
          break;
        case 7:  // cancel a random still-tracked id (may have fired already)
          h.cancel_nth(rng());
          break;
        case 8:  // advance a little
          h.run_until(h.real.now() + Duration{dt(rng) / 4});
          break;
        default:  // advance a lot
          h.run_until(h.real.now() + Duration{dt(rng) * 64});
          break;
      }
    }
    h.run();
    h.check("final drain");
    ASSERT_EQ(h.real.pending_events(), 0u);
  }
}

TEST(CalendarQueueProperty, ReentrantSchedulingMatchesReference) {
  // Events that schedule more events while firing — including zero-delay
  // self-ties — exercise insertion at the exact cursor position.
  for (std::uint32_t seed = 100; seed < 105; ++seed) {
    Simulator real;
    ReferenceSimulator ref;
    std::vector<std::pair<Time, int>> real_log;
    std::vector<std::pair<Time, int>> ref_log;
    std::mt19937 real_rng(seed);
    std::mt19937 ref_rng(seed);
    std::uniform_int_distribution<std::int64_t> dt(0, 500'000);
    int real_budget = 400;
    int ref_budget = 400;
    std::function<void(int)> spawn_real = [&](int tag) {
      real_log.emplace_back(real.now(), tag);
      if (real_budget <= 0) return;
      for (int k = 0; k < 2; ++k) {
        const int child = --real_budget;
        real.schedule_after(Duration{dt(real_rng)},
                            [&spawn_real, child] { spawn_real(child); });
      }
    };
    std::function<void(int)> spawn_ref = [&](int tag) {
      ref_log.emplace_back(ref.now(), tag);
      if (ref_budget <= 0) return;
      for (int k = 0; k < 2; ++k) {
        const int child = --ref_budget;
        ref.schedule_at(ref.now() + Duration{dt(ref_rng)},
                        [&spawn_ref, child] { spawn_ref(child); });
      }
    };
    real.schedule_at(kTimeZero, [&spawn_real] { spawn_real(1000); });
    ref.schedule_at(kTimeZero, [&spawn_ref] { spawn_ref(1000); });
    real.run();
    ref.run();
    ASSERT_EQ(real_log, ref_log);
    ASSERT_EQ(real.events_executed(), ref.events_executed());
  }
}

TEST(CalendarQueue, SameInstantBurstFiresInFifoOrder) {
  // 10k events at one timestamp: a zero-spread resize degenerates every
  // event into one bucket; FIFO (seq) order must survive, O(1) via the
  // tail-append path.
  Simulator s;
  std::vector<int> order;
  for (int i = 0; i < 10'000; ++i) {
    s.schedule_at(seconds(1.0), [&order, i] { order.push_back(i); });
  }
  s.run();
  ASSERT_EQ(order.size(), 10'000u);
  for (int i = 0; i < 10'000; ++i) ASSERT_EQ(order[i], i);
}

TEST(CalendarQueue, GrowAndShrinkAcrossResizes) {
  // Pump the queue above and below the resize thresholds repeatedly; the
  // count and firing order must survive every redistribute.
  Simulator s;
  std::mt19937 rng(7);
  std::uniform_int_distribution<std::int64_t> dt(1, 10'000'000);
  std::vector<EventId> ids;
  int fired = 0;
  for (int i = 0; i < 5'000; ++i) {
    ids.push_back(s.schedule_at(Time{dt(rng)}, [&fired] { ++fired; }));
  }
  EXPECT_EQ(s.pending_events(), 5'000u);
  // Cancel 90% to force shrink resizes.
  int cancelled = 0;
  for (std::size_t i = 0; i < ids.size(); ++i) {
    if (i % 10 != 0 && s.cancel(ids[i])) ++cancelled;
  }
  EXPECT_EQ(s.pending_events(), 5'000u - static_cast<std::size_t>(cancelled));
  s.schedule_at(kTimeZero, [] {});  // sentinel behind every survivor
  s.run();
  EXPECT_EQ(s.pending_events(), 0u);
  EXPECT_EQ(fired, 5'000 - cancelled);
}

TEST(CalendarQueue, EpochRolloverSparseFarFutureEvents) {
  // Events separated by far more than one calendar year (nbuckets × width)
  // exercise the direct-search fallback and the cursor jump.
  Simulator s;
  std::vector<double> fire_s;
  // Dense cluster to fix a small width, then exponentially sparse tail out
  // to ~36 years of simulated time.
  for (int i = 0; i < 64; ++i) {
    s.schedule_at(milliseconds(i), [&fire_s, &s] { fire_s.push_back(to_seconds(s.now())); });
  }
  double t = 1.0;
  for (int i = 0; i < 30; ++i, t *= 2.0) {
    s.schedule_at(seconds(t), [&fire_s, &s] { fire_s.push_back(to_seconds(s.now())); });
  }
  s.run();
  ASSERT_EQ(fire_s.size(), 94u);
  for (std::size_t i = 1; i < fire_s.size(); ++i) {
    ASSERT_LE(fire_s[i - 1], fire_s[i]);
  }
  EXPECT_DOUBLE_EQ(fire_s.back(), 536870912.0);  // 2^29 s
}

TEST(CalendarQueue, ScheduleBehindCursorAfterFarFutureTimer) {
  // Regression for the cursor-invariant bug: a lone far-future timer pulls
  // the calendar cursor forward during a bounded run_until peek; events
  // then scheduled near the clock sit behind the cursor and must still
  // fire in exact time order.
  Simulator s;
  std::vector<int> order;
  s.schedule_at(seconds(3600.0), [&order] { order.push_back(99); });
  s.run_until(seconds(1.0));  // peeks the far timer, fires nothing
  EXPECT_EQ(s.pending_events(), 1u);
  // Behind the cursor, deliberately out of bucket order.
  s.schedule_at(seconds(30.0), [&order] { order.push_back(2); });
  s.schedule_at(seconds(5.0), [&order] { order.push_back(0); });
  s.schedule_at(seconds(17.0), [&order] { order.push_back(1); });
  s.run_until(seconds(120.0));
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2}));
  s.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 99}));
}

TEST(CalendarQueue, CancelIsExactOnTimeSeqPairs) {
  Simulator s;
  int fired = 0;
  const EventId a = s.schedule_at(seconds(1.0), [&fired] { ++fired; });
  const EventId b = s.schedule_at(seconds(1.0), [&fired] { ++fired; });
  EXPECT_TRUE(s.cancel(a));
  EXPECT_FALSE(s.cancel(a));  // already gone
  EXPECT_FALSE(s.cancel(EventId{b.at, b.seq + 100}));  // never existed
  s.run();
  EXPECT_EQ(fired, 1);
  EXPECT_FALSE(s.cancel(b));  // already fired
}

// Directed same-instant run cases. A spread-out backlog keeps the bucket
// width far above one tick, so the run and its one-tick neighbours share a
// bucket and the inserts and cancels below have to step over the run.
class SameInstantRun : public ::testing::Test {
 protected:
  static constexpr Time kAt = Time{5'000'000};

  void SetUp() override {
    for (int i = 1; i <= 40; ++i) {
      h.schedule_id(Time{i * 1'000'000 + 500'000});
    }
  }

  std::vector<EventId> burst(Time at, int n) {
    std::vector<EventId> ids;
    for (int i = 0; i < n; ++i) ids.push_back(h.schedule_id(at));
    return ids;
  }

  Harness h;
};

TEST_F(SameInstantRun, InsertJustAfterARunInItsBucket) {
  // Each insert below lands beside a 128-event run whose bucket tail is
  // already later, so it has to step over the run, not append.
  burst(kAt, 128);
  h.schedule_id(kAt + Duration{1});
  h.schedule_id(kAt - Duration{1});
  h.schedule_id(kAt);  // joins the run: after it, before kAt + 1
  h.schedule_id(kAt + Duration{1});
  h.run();
}

TEST_F(SameInstantRun, CancelFirstMiddleAndLastMember) {
  const std::vector<EventId> run = burst(kAt, 7);
  const EventId after = h.schedule_id(kAt + Duration{1});
  EXPECT_TRUE(h.cancel_id(run.front()));  // the next member becomes first
  EXPECT_TRUE(h.cancel_id(run.back()));   // its predecessor becomes last
  EXPECT_TRUE(h.cancel_id(run[3]));       // middle: the ends stay put
  // The shortened run must still be stepped over whole and extended at its
  // new end, ahead of the event one tick later.
  const EventId joined = h.schedule_id(kAt);
  h.schedule_id(kAt + Duration{1});
  EXPECT_TRUE(h.cancel_id(joined));  // last again, just before `after`
  EXPECT_TRUE(h.cancel_id(run[1]));
  EXPECT_TRUE(h.cancel_id(run[5]));
  EXPECT_TRUE(h.cancel_id(run[2]));  // first of a two-member run
  EXPECT_TRUE(h.cancel_id(run[4]));  // a lone member
  h.schedule_id(kAt);  // a fresh run where the old one was
  EXPECT_TRUE(h.cancel_id(after));
  h.run();
}

TEST_F(SameInstantRun, StaleAndForgedIdsAreRejected) {
  // Two runs interleaved in seq order, so each run's seq range covers seqs
  // that live at the other instant.
  std::vector<EventId> a;
  std::vector<EventId> b;
  for (int i = 0; i < 5; ++i) {
    a.push_back(h.schedule_id(kAt));
    b.push_back(h.schedule_id(kAt + Duration{2}));
  }
  EXPECT_FALSE(h.cancel_id({kAt, b[2].seq}));             // inside a's range
  EXPECT_FALSE(h.cancel_id({kAt + Duration{1}, a[2].seq}));  // between runs
  EXPECT_FALSE(h.cancel_id({kAt, a.front().seq - 1}));    // below the first
  EXPECT_FALSE(h.cancel_id({kAt, b.back().seq + 1}));     // above the last
  EXPECT_FALSE(h.cancel_id({kAt - Duration{1}, a[0].seq}));
  EXPECT_TRUE(h.cancel_id(a[2]));
  EXPECT_FALSE(h.cancel_id(a[2]));  // cancelled already
  h.run_until(kAt);                 // fires run a
  EXPECT_FALSE(h.cancel_id(a[0]));  // fired already
  EXPECT_FALSE(h.cancel_id(a[4]));
  EXPECT_TRUE(h.cancel_id(b[4]));
  h.run();
  EXPECT_FALSE(h.cancel_id(b[0]));
}

TEST_F(SameInstantRun, ResizeWhilePendingRunsKeepsFifoOrder) {
  // Runs scheduled out of time order grow the bucket array several times;
  // cancelling most of them shrinks it again. Each resize re-inserts runs
  // whose members were scheduled far apart in seq. Popping the survivors
  // schedules follow-ups into the runs as they drain.
  h.reentrant = true;
  std::vector<EventId> ids;
  for (int round = 0; round < 30; ++round) {
    for (int k = 0; k < 12; ++k) {
      const Time at = kAt + Duration{((k * 7) % 12) * 3};
      ids.push_back(h.schedule_id(at));
    }
  }
  EXPECT_EQ(h.real.pending_events(), 40u + 360u);
  for (std::size_t i = 0; i < ids.size(); ++i) {
    if (i % 5 != 0) h.cancel_id(ids[i]);
  }
  h.run();
}

}  // namespace
}  // namespace sperke::sim
