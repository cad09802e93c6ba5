// Many-session scale bench: N concurrent StreamingSessions multiplexed on
// shared links, built and run through engine::ShardedEngine. This is the
// guard for both the hot-path work in DESIGN.md §8 (per-session costs
// compound linearly here) and the sharded engine in DESIGN.md §9: the world
// is partitioned one shard per link group, so --threads T spreads the
// shards over T cores while the merged metrics stay byte-identical to the
// --threads 1 run (the engine determinism contract).
//
// Usage: bench_scale_sessions [N ...] [--threads T] [--json PATH]
//
//   N ...        session counts (default: 100 1000 5000)
//   --threads T  run each N with exactly T worker threads; without the
//                flag each N runs at threads=1 and threads=hardware
//                concurrency (skipped when that is also 1)
//   --json PATH  google-benchmark-compatible JSON for bench_compare.py;
//                the hardware-concurrency row is labeled "threads=hw" so
//                baselines stay machine-portable
//
// Reports, per (N, threads): wall seconds, completed sessions,
// sessions/sec, simulated events/sec (wall), and event-loop pressure from
// the merged per-shard obs::SimMonitor histograms (mean + p99 pending-event
// queue depth via obs::histogram_quantile_bound).
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "common.h"
#include "engine/engine.h"
#include "engine/world.h"
#include "hmp/head_trace.h"
#include "net/link.h"
#include "obs/metrics.h"

namespace {

using namespace sperke;

constexpr double kVideoSeconds = 20.0;
constexpr int kSessionsPerLink = 16;
constexpr int kTracePoolSize = 32;

engine::WorldSpec make_spec(int n) {
  engine::WorldSpec spec;
  spec.video = bench::standard_video_config(kVideoSeconds);

  // A fixed pool of head traces reused round-robin (by global session id):
  // trace generation is itself expensive (BM_HeadTraceGeneration) and is
  // not what this bench measures.
  spec.trace_template.duration_s = kVideoSeconds + 120.0;
  spec.trace_template.sample_rate_hz = 25.0;
  spec.trace_template.attractors =
      hmp::default_attractors(spec.trace_template.duration_s, /*seed=*/4242);
  spec.trace_template.seed = 21;
  spec.trace_pool = kTracePoolSize;

  spec.link.name = "link";
  spec.link.bandwidth = net::BandwidthTrace::constant(100'000.0);
  spec.link.rtt = sim::milliseconds(30);
  spec.link.loss_rate = 0.0;
  spec.sessions_per_link = kSessionsPerLink;
  spec.transport_max_concurrent = 16;

  spec.sessions = n;
  spec.start_stagger = sim::milliseconds(10);
  spec.horizon =
      sim::seconds(kVideoSeconds + 600.0 + 0.010 * static_cast<double>(n));
  spec.seed = 7;

  // One shard per link group: session->link mapping follows the global id
  // (i / kSessionsPerLink), so contention groups are identical at any
  // shard/thread count, and the partition exposes maximum parallelism.
  spec.shards = engine::group_count(spec);

  // Sessions run without telemetry (the zero-overhead default); each
  // shard's SimMonitor watches its own event loop and the histograms merge.
  spec.monitor = true;
  return spec;
}

struct Row {
  int n = 0;
  int threads = 0;
  double wall_s = 0.0;
  int completed = 0;
};

Row run_scale(int n, int threads) {
  const engine::WorldSpec spec = make_spec(n);
  engine::ShardedEngine engine(spec);

  const auto wall_start = std::chrono::steady_clock::now();
  const engine::EngineResult result = engine.run({.threads = threads});
  const double wall_s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - wall_start)
          .count();

  const auto& depth_hist = *result.metrics.find_histogram("sim.queue_depth_hist");
  std::printf("%7d  %7d  %8.2f  %9d  %12.1f  %12.0f  %10.0f  %9.0f\n", n,
              result.threads_used, wall_s, result.completed,
              static_cast<double>(result.completed) / wall_s,
              static_cast<double>(result.events_executed) / wall_s,
              depth_hist.mean(), obs::histogram_quantile_bound(depth_hist, 0.99));
  if (result.completed != n) {
    std::printf("WARNING: %d/%d sessions did not finish\n",
                n - result.completed, n);
  }
  return {n, threads, wall_s, result.completed};
}

void write_json(const std::string& path, const std::vector<Row>& rows,
                int hw_threads, bool alias_hw_to_serial) {
  // Each row gets a machine-portable label: the hardware-concurrency run is
  // "threads=hw", absolute counts otherwise. On a single-core machine
  // (default mode) the threads=1 run *is* the hardware-concurrency run, so
  // it is emitted twice — once under each label — keeping the baseline's
  // shape identical across machines so bench_compare.py can always derive
  // the threads=1 / threads=hw speedup row.
  std::vector<bench::JsonRow> entries;
  const auto add = [&entries](int n, const std::string& label, double wall_s) {
    entries.push_back(
        {"ScaleSessions/N=" + std::to_string(n) + "/threads=" + label, wall_s});
  };
  for (const Row& row : rows) {
    const bool is_hw = row.threads == hw_threads;
    add(row.n, is_hw && row.threads != 1 ? "hw" : std::to_string(row.threads),
        row.wall_s);
    if (alias_hw_to_serial && row.threads == 1 && hw_threads == 1) {
      add(row.n, "hw", row.wall_s);
    }
  }
  bench::write_benchmark_json(path, "bench_scale_sessions", entries,
                              "\"num_cpus\": " + std::to_string(hw_threads));
}

}  // namespace

int main(int argc, char** argv) {
  std::vector<int> sizes;
  int forced_threads = 0;
  std::string json_path;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--threads") == 0 && i + 1 < argc) {
      forced_threads = std::atoi(argv[++i]);
    } else if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc) {
      json_path = argv[++i];
    } else {
      sizes.push_back(std::atoi(argv[i]));
    }
  }
  if (sizes.empty()) sizes = {100, 1000, 5000};

  const int hw =
      std::max(1, static_cast<int>(std::thread::hardware_concurrency()));
  std::vector<int> thread_counts;
  if (forced_threads > 0) {
    thread_counts = {forced_threads};
  } else {
    thread_counts = {1};
    if (hw > 1) thread_counts.push_back(hw);
  }

  std::printf("Scale bench: N concurrent sessions, %d per 100 Mbps link, "
              "%.0f s video, one shard per link\n\n",
              kSessionsPerLink, kVideoSeconds);
  std::printf("%7s  %7s  %8s  %9s  %12s  %12s  %10s  %9s\n", "N", "threads",
              "wall s", "completed", "sessions/s", "events/s", "depth mean",
              "depth p99");
  std::vector<Row> rows;
  for (const int n : sizes) {
    for (const int threads : thread_counts) {
      rows.push_back(run_scale(n, threads));
    }
  }
  if (!json_path.empty()) {
    write_json(json_path, rows, hw, /*alias_hw_to_serial=*/forced_threads == 0);
  }
  return 0;
}
