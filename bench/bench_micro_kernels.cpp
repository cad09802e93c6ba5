// Microbenchmarks (google-benchmark) for the hot paths of the streaming
// stack: FoV visibility sampling, fusion probability maps, VRA planning,
// the fluid link's reflow under concurrent transfers, and the telemetry
// layer's recording and trace export. These guard against performance
// regressions — the client-side logic must stay far cheaper than the
// 4-10 ms frame budget it models.
#include <benchmark/benchmark.h>

#include <cstddef>
#include <cstdint>
#include <memory>
#include <ostream>
#include <streambuf>
#include <vector>

#include "abr/factory.h"
#include "geo/visibility.h"
#include "hmp/fusion.h"
#include "hmp/head_trace.h"
#include "media/video_model.h"
#include "net/link.h"
#include "obs/export.h"
#include "obs/telemetry.h"
#include "sim/simulator.h"

namespace {

using namespace sperke;

std::shared_ptr<geo::TileGeometry> geometry_for(int rows, int cols) {
  return std::make_shared<geo::TileGeometry>(
      geo::make_projection("equirectangular"), geo::TileGrid(rows, cols));
}

void BM_VisibleTiles(benchmark::State& state) {
  const auto geometry = geometry_for(static_cast<int>(state.range(0)),
                                     static_cast<int>(state.range(1)));
  const geo::Viewport viewport{100.0, 90.0};
  double yaw = 0.0;
  for (auto _ : state) {
    yaw += 7.3;
    benchmark::DoNotOptimize(
        geometry->visible_tiles({yaw, 10.0, 0.0}, viewport));
  }
}
BENCHMARK(BM_VisibleTiles)->Args({4, 6})->Args({8, 12});

void BM_OosRings(benchmark::State& state) {
  const auto geometry = geometry_for(8, 12);
  const auto visible = geometry->visible_tiles({0.0, 0.0, 0.0}, {100.0, 90.0});
  for (auto _ : state) {
    benchmark::DoNotOptimize(geometry->oos_rings(visible));
  }
}
BENCHMARK(BM_OosRings);

void BM_FusionProbabilities(benchmark::State& state) {
  const auto geometry = geometry_for(4, 6);
  hmp::FusionPredictor fusion(geometry, {100.0, 90.0},
                              hmp::make_orientation_predictor("linear-regression"),
                              nullptr, {});
  for (int i = 0; i < 25; ++i) {
    fusion.observe({sim::milliseconds(40 * i), {i * 1.0, 0.0, 0.0}});
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(fusion.tile_probabilities(sim::seconds(1.0), 0));
  }
}
BENCHMARK(BM_FusionProbabilities);

void BM_PlanChunk(benchmark::State& state) {
  media::VideoModelConfig cfg;
  cfg.duration_s = 30.0;
  cfg.tile_rows = 4;
  cfg.tile_cols = 6;
  auto video = std::make_shared<media::VideoModel>(cfg);
  const auto policy = abr::make_policy(video, {});
  const auto fov = video->geometry().visible_tiles({0.0, 0.0, 0.0}, {100.0, 90.0});
  std::vector<double> probs(static_cast<std::size_t>(video->tile_count()),
                            1.0 / video->tile_count());
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        policy->plan_chunk(3, fov, probs, 15'000.0, sim::seconds(2.0), 2));
  }
}
BENCHMARK(BM_PlanChunk);

void BM_LinkReflowUnderLoad(benchmark::State& state) {
  // Cost of running a full simulated second with N concurrent transfers
  // churning on one link.
  const auto n = static_cast<int>(state.range(0));
  for (auto _ : state) {
    sim::Simulator simulator;
    net::Link link(simulator,
                   net::LinkConfig{.bandwidth = net::BandwidthTrace::constant(50'000.0),
                                   .rtt = sim::milliseconds(10), .faults = {}});
    for (int i = 0; i < n; ++i) {
      // Staggered small transfers keep the active set changing.
      simulator.schedule_at(sim::milliseconds(i * 7), [&link] {
        link.start_transfer(60'000, [&link](const net::TransferResult&) {
          link.start_transfer(60'000, [](const net::TransferResult&) {});
        });
      });
    }
    simulator.run_until(sim::seconds(1.0));
    benchmark::DoNotOptimize(link.bytes_delivered());
  }
}
BENCHMARK(BM_LinkReflowUnderLoad)->Arg(8)->Arg(64);

// A live-crowd-shaped pending set: 128 viewers each keep one chunk-plan
// timer on each of 32 upcoming one-second instants, so the far backlog is
// 32 runs of 128 same-instant events, and every tick re-arms it 32 s out.
// Each tick also re-arms one of 16 link wakeups a few ms past now: a cancel
// plus an insert just past the run still being popped, in its bucket. The
// wakeups re-arm themselves when they fire. crowd_queue_pass returns the
// operations done (events fired + cancels).
struct CrowdQueue {
  static constexpr int kViewers = 128;
  static constexpr int kInstants = 32;
  static constexpr int kLinks = 16;
  static constexpr std::int64_t kPeriodUs = 1'000'000;

  sim::Simulator simulator;
  std::uint64_t rng = 0x9e3779b97f4a7c15ull;  // splitmix64 stream
  std::uint64_t ops = 0;
  sim::EventId wakeup[kLinks]{};
  bool armed[kLinks]{};

  std::uint64_t next() {
    std::uint64_t z = (rng += 0x9e3779b97f4a7c15ull);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
  }
  void tick(int viewer) {
    ++ops;
    simulator.schedule_after(sim::Duration{kInstants * kPeriodUs},
                             [this, viewer] { tick(viewer); });
    arm(viewer % kLinks,
        sim::Duration{1 + static_cast<std::int64_t>(next() % 2000)});
  }
  void arm(int link, sim::Duration delay) {
    if (armed[link]) {
      simulator.cancel(wakeup[link]);
      ++ops;
    }
    wakeup[link] = simulator.schedule_after(delay, [this, link] { wake(link); });
    armed[link] = true;
  }
  void wake(int link) {
    ++ops;
    armed[link] = false;
    arm(link, sim::Duration{1 + static_cast<std::int64_t>(next() % 30'000)});
  }
};

std::uint64_t crowd_queue_pass(std::uint64_t target_ops) {
  CrowdQueue crowd;
  for (int k = 1; k <= CrowdQueue::kInstants; ++k) {
    for (int v = 0; v < CrowdQueue::kViewers; ++v) {
      crowd.simulator.schedule_at(sim::Time{k * CrowdQueue::kPeriodUs},
                                  [&crowd, v] { crowd.tick(v); });
    }
  }
  while (crowd.ops < target_ops) {
    crowd.simulator.run_until(crowd.simulator.now() +
                              sim::Duration{CrowdQueue::kPeriodUs});
  }
  return crowd.ops;
}

void BM_SimulatorEventQueue(benchmark::State& state) {
  // Calendar-queue throughput: a schedule/cancel/pop mix over 1e6 events.
  // Arg 0 selects the timestamp distribution: 0 = uniform over a wide
  // horizon (events spread across many buckets), 1 = bursty (batches
  // land on shared instants, stressing the per-bucket FIFO chains and the
  // width heuristic). Roughly one in eight events is cancelled instead of
  // fired, exercising the cancel path. 2 = crowd-shaped (crowd_queue_pass):
  // inserts and cancels just past a long same-instant run, over 1e6 ops.
  if (state.range(0) == 2) {
    std::uint64_t ops = 0;
    for (auto _ : state) {
      ops = crowd_queue_pass(1'000'000);
      benchmark::DoNotOptimize(ops);
    }
    state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(ops));
    return;
  }
  const bool bursty = state.range(0) != 0;
  constexpr int kEvents = 1'000'000;
  constexpr int kWindow = 4096;  // live events the driver keeps in flight
  for (auto _ : state) {
    sim::Simulator simulator;
    std::uint64_t rng = 0x9e3779b97f4a7c15ull;  // splitmix64 stream
    auto next = [&rng] {
      std::uint64_t z = (rng += 0x9e3779b97f4a7c15ull);
      z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
      z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
      return z ^ (z >> 31);
    };
    std::uint64_t fired = 0;
    std::vector<sim::EventId> window;
    window.reserve(kWindow);
    int scheduled = 0;
    auto schedule_one = [&] {
      const std::uint64_t r = next();
      const sim::Duration delay =
          bursty ? sim::milliseconds(static_cast<std::int64_t>(r % 16) * 10)
                 : sim::Duration{static_cast<std::int64_t>(r % 10'000'000)};
      window.push_back(
          simulator.schedule_after(delay, [&fired] { ++fired; }));
      ++scheduled;
    };
    for (int i = 0; i < kWindow; ++i) schedule_one();
    while (scheduled < kEvents) {
      // Pop a batch, then refill; cancel one of every eight refills.
      simulator.run_until(simulator.now());  // drain everything due now
      const std::size_t pending = simulator.pending_events();
      while (scheduled < kEvents &&
             simulator.pending_events() < pending + kWindow / 4) {
        schedule_one();
        if ((scheduled & 7) == 0 && !window.empty()) {
          simulator.cancel(window[next() % window.size()]);
        }
      }
      simulator.run();
      window.clear();
    }
    simulator.run();
    benchmark::DoNotOptimize(fired);
    benchmark::DoNotOptimize(simulator.events_executed());
  }
  state.SetItemsProcessed(state.iterations() * kEvents);
}
BENCHMARK(BM_SimulatorEventQueue)->Arg(0)->Arg(1)->Arg(2);

void BM_MetricsUpdate(benchmark::State& state) {
  // Cost of one counter bump + one histogram observation through stable
  // handles — what an instrumented hot path pays with telemetry attached.
  obs::Telemetry telemetry;
  obs::Counter& counter = telemetry.metrics().counter("bench.counter");
  obs::Histogram& histogram = telemetry.metrics().histogram("bench.histogram");
  double x = 0.0;
  for (auto _ : state) {
    counter.increment();
    histogram.observe(x += 1.5);
    benchmark::DoNotOptimize(counter.value());
  }
}
BENCHMARK(BM_MetricsUpdate);

void BM_TraceRecord(benchmark::State& state) {
  // Cost of appending one typed timeline event to an attached recorder.
  obs::Telemetry telemetry;
  std::int64_t ts = 0;
  for (auto _ : state) {
    telemetry.trace().record({.type = obs::TraceEventType::kFetchDone,
                              .ts = sim::Time{++ts},
                              .tile = 3,
                              .chunk = 7,
                              .quality = 2,
                              .bytes = 100'000});
    if (telemetry.trace().size() >= (std::size_t{1} << 20)) telemetry.trace().clear();
  }
  benchmark::DoNotOptimize(telemetry.trace().size());
}
BENCHMARK(BM_TraceRecord);

// A fixed 100k-event session timeline for the exporter benches: each
// group of eight events plans a chunk, dispatches one request and closes
// the previous one (one transport attempt each), decides an upgrade,
// plays a chunk, and alternately opens or closes a stall.
std::vector<obs::TraceEvent> synthetic_trace() {
  using T = obs::TraceEventType;
  std::vector<obs::TraceEvent> events;
  events.reserve(100'000);
  for (std::int64_t g = 0; g < 12'500; ++g) {
    const sim::Time t{g * 40'000};
    const auto tile = static_cast<std::int32_t>(g % 24);
    const auto chunk = static_cast<std::int32_t>(g / 24);
    events.push_back({.type = T::kPlanComputed, .ts = t, .chunk = chunk,
                      .value = 0.37 * static_cast<double>(g % 11)});
    events.push_back({.type = T::kFetchDispatched, .ts = t, .tile = tile,
                      .chunk = chunk, .quality = 2, .request = g + 1});
    events.push_back({.type = T::kFetchAttemptStart, .ts = t,
                      .request = g + 1});
    events.push_back({.type = T::kFetchAttemptEnd, .ts = t + sim::Time{900},
                      .request = g});
    events.push_back({.type = T::kFetchDone, .ts = t + sim::Time{900},
                      .tile = tile, .chunk = chunk, .quality = 2,
                      .bytes = 180'000 + g % 977, .request = g});
    events.push_back({.type = T::kUpgradeDecided, .ts = t + sim::Time{1000},
                      .tile = tile, .chunk = chunk, .quality = 3,
                      .value = 1.0 / static_cast<double>(g + 3)});
    events.push_back({.type = T::kChunkPlayed, .ts = t + sim::Time{2000},
                      .chunk = chunk, .value = 0.913});
    events.push_back({.type = g % 2 == 0 ? T::kStallBegin : T::kStallEnd,
                      .ts = t + sim::Time{3000}, .value = 0.25});
  }
  return events;
}

// Counts and drops every byte, so the benches time formatting only.
class DiscardBuf : public std::streambuf {
 public:
  [[nodiscard]] std::int64_t bytes() const { return bytes_; }

 protected:
  int_type overflow(int_type c) override {
    ++bytes_;
    return c;
  }
  std::streamsize xsputn(const char*, std::streamsize n) override {
    bytes_ += n;
    return n;
  }

 private:
  std::int64_t bytes_ = 0;
};

void BM_WriteChromeTrace(benchmark::State& state) {
  const std::vector<obs::TraceEvent> events = synthetic_trace();
  DiscardBuf buf;
  std::ostream out(&buf);
  for (auto _ : state) {
    obs::write_chrome_trace(out, events);
    benchmark::ClobberMemory();
  }
  benchmark::DoNotOptimize(buf.bytes());
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(events.size()));
  state.SetBytesProcessed(buf.bytes());
}
BENCHMARK(BM_WriteChromeTrace)->Unit(benchmark::kMillisecond);

void BM_WriteTraceJsonl(benchmark::State& state) {
  const std::vector<obs::TraceEvent> events = synthetic_trace();
  DiscardBuf buf;
  std::ostream out(&buf);
  for (auto _ : state) {
    obs::write_trace_jsonl(out, events);
    benchmark::ClobberMemory();
  }
  benchmark::DoNotOptimize(buf.bytes());
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(events.size()));
  state.SetBytesProcessed(buf.bytes());
}
BENCHMARK(BM_WriteTraceJsonl)->Unit(benchmark::kMillisecond);

void BM_HeadTraceGeneration(benchmark::State& state) {
  hmp::HeadTraceConfig cfg;
  cfg.duration_s = 60.0;
  cfg.attractors = hmp::default_attractors(60.0, 3);
  std::uint64_t seed = 0;
  for (auto _ : state) {
    cfg.seed = ++seed;
    benchmark::DoNotOptimize(hmp::generate_head_trace(cfg));
  }
}
BENCHMARK(BM_HeadTraceGeneration);

}  // namespace

BENCHMARK_MAIN();
