// vod_fleet and edge_traced: VOD worlds run through engine::ShardedEngine.
#include <algorithm>
#include <map>
#include <memory>
#include <numeric>
#include <ostream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "engine/engine.h"
#include "engine/shard.h"
#include "engine/world.h"
#include "obs/export.h"
#include "obs/metrics.h"
#include "obs/slo.h"
#include "obs/trace.h"
#include "replay.h"
#include "workloads.h"

namespace perfbench {

using namespace sperke;

namespace {

constexpr double kVideoSeconds = 20.0;
constexpr double kTraceSeconds = kVideoSeconds + 120.0;

// The content is fixed, like a benchmark's video file: the video model and
// its shared regions of interest use bench_scale_sessions' seeds. The
// benchmark seed draws everything else.
constexpr std::uint64_t kVideoModelSeed = 7;
constexpr std::uint64_t kAttractorModelSeed = 4242;

// Seed streams of one benchmark seed (derive_seed's second argument).
enum SeedStream : std::uint64_t {
  kTraceSeed = 2,
  kWorldSeed = 4,
  kFaultSeed = 5,
  kAccessLinkSeed = 1000,  // + link group
  kBackhaulSeed = 100000,  // + edge
};

// A seeded bandwidth trace wandering around `mean_kbps` (about ±10%), one
// step per second.
net::LinkConfig wandering_link(const char* name, double mean_kbps, sim::Duration rtt,
                               double duration_s, std::uint64_t seed) {
  net::LinkConfig link;
  link.name = name;
  link.bandwidth = net::BandwidthTrace::random_walk(
      mean_kbps, 0.05, 1.0, duration_s, seed, 0.5 * mean_kbps, 1.5 * mean_kbps);
  link.rtt = rtt;
  return link;
}

// Content and head traces shared by both VOD workloads: the
// bench_scale_sessions world (20 s video, 4x6 tiles, a 32-trace pool).
engine::WorldSpec base_spec(std::uint64_t seed) {
  engine::WorldSpec spec;
  spec.video.duration_s = kVideoSeconds;
  spec.video.chunk_duration_s = 1.0;
  spec.video.tile_rows = 4;
  spec.video.tile_cols = 6;
  spec.video.seed = kVideoModelSeed;
  spec.trace_template.duration_s = kTraceSeconds;
  spec.trace_template.sample_rate_hz = 25.0;
  spec.trace_template.attractors =
      hmp::default_attractors(kTraceSeconds, kAttractorModelSeed);
  spec.trace_template.seed = derive_seed(seed, kTraceSeed);
  spec.trace_pool = 32;
  spec.seed = derive_seed(seed, kWorldSeed);
  spec.start_stagger = sim::milliseconds(10);
  spec.monitor = true;
  return spec;
}

constexpr double kVodLinkKbps = 100'000.0;
constexpr double kEdgeLinkKbps = 20'000.0;

engine::WorldSpec vod_fleet_spec(std::uint64_t seed) {
  engine::WorldSpec spec = base_spec(seed);
  spec.sessions = 1000;
  spec.sessions_per_link = 16;
  spec.transport_max_concurrent = 16;
  const double horizon_s = kVideoSeconds + 600.0 + 0.010 * spec.sessions;
  spec.horizon = sim::seconds(horizon_s);
  spec.link_for_group = [seed, horizon_s](int group) {
    return wandering_link("link", kVodLinkKbps, sim::milliseconds(30), horizon_s,
                          derive_seed(seed, kAccessLinkSeed + group));
  };
  // One shard per link group, the finest partition the world allows.
  spec.shards = engine::group_count(spec);
  return spec;
}

engine::WorldSpec edge_traced_spec(std::uint64_t seed) {
  engine::WorldSpec spec = base_spec(seed);
  spec.sessions = 256;
  spec.sessions_per_link = 4;
  spec.transport_max_concurrent = 8;
  const double horizon_s = 180.0;
  spec.horizon = sim::seconds(horizon_s);
  spec.link_for_group = [seed, horizon_s](int group) {
    return wandering_link("dl", kEdgeLinkKbps, sim::milliseconds(30), horizon_s,
                          derive_seed(seed, kAccessLinkSeed + group));
  };

  // Faults on every access link: a background per-transfer failure
  // probability plus one mid-stream outage, reseeded per group by the engine.
  spec.faults.transfer_failure_prob = 0.02;
  spec.faults.outages.push_back({.start_s = 6.0, .duration_s = 2.0});
  spec.faults.seed = derive_seed(seed, kFaultSeed);
  spec.transport_recovery.enabled = true;
  spec.session.fetch_recovery = true;

  // 32 sessions per edge; the cache holds less than the edge's working set,
  // so it evicts.
  spec.cdn.sessions_per_edge = 32;
  spec.cdn.backhaul_for_edge = [seed, horizon_s](int edge) {
    return wandering_link("backhaul", 100'000.0, sim::milliseconds(20), horizon_s,
                          derive_seed(seed, kBackhaulSeed + edge));
  };
  spec.cdn.cache_policy = "lru";
  spec.cdn.cache_capacity_bytes = 8LL << 20;
  spec.shards = spec.sessions / spec.cdn.sessions_per_edge;  // the edge is the shard

  spec.session_telemetry = true;
  spec.sample_period = sim::milliseconds(500);
  spec.slos = {{.name = "vod.stall_ratio",
                .metric = "session.stalled",
                .signal = obs::SloSignal::kGaugeValue,
                .threshold = 0.1 * spec.cdn.sessions_per_edge,
                .window_intervals = 1}};
  return spec;
}

// Deterministic outputs of an engine world, plus the checks every run of it
// must pass (a failed check throws, which fails the run).
SimStats world_stats(const engine::WorldSpec& spec,
                     const std::vector<core::SessionReport>& reports,
                     const obs::MetricsRegistry& metrics,
                     const obs::TimeSeriesStore& series, std::uint64_t events,
                     int engine_completed) {
  SimStats stats;
  const int chunks = static_cast<int>(spec.video.duration_s / spec.video.chunk_duration_s);
  for (const core::SessionReport& r : reports) {
    stats.add_session(r.qoe, r.completed);
    if (r.completed && r.qoe.chunks_played != chunks) {
      throw std::runtime_error("a completed session did not play every chunk");
    }
    Digest& d = stats.digest;
    d.add(std::int64_t{r.startup_delay.count()});
    d.add(std::int64_t{r.wall_duration.count()});
    d.add(std::int64_t{r.fetches});
    d.add(std::int64_t{r.urgent_fetches});
    d.add(std::int64_t{r.upgrades});
    d.add(std::int64_t{r.late_corrections});
    d.add(std::int64_t{r.fetch_failures});
    d.add(std::int64_t{r.degraded_retries});
    for (const double u : r.viewport_utility_per_chunk) d.add(u);
  }
  if (stats.completed != engine_completed) {
    throw std::runtime_error("engine completed count disagrees with the reports");
  }
  std::ostringstream csv;
  obs::write_metrics_csv(csv, metrics);
  obs::write_timeseries_csv(csv, series);
  stats.digest.add(csv.str());
  stats.digest.add(static_cast<std::int64_t>(events));
  return stats;
}

struct ExportStats {
  std::int64_t bytes = 0;
  std::int64_t series_rows = 0;
};

// Writes every shard's Chrome trace and JSONL plus the merged metrics and
// series CSVs through the obs exporters, as a traced experiment must before
// it is done. The sink counts instead of storing (see CountingBuf).
ExportStats export_world(const std::vector<const obs::Telemetry*>& shards,
                         const obs::MetricsRegistry& metrics,
                         const obs::TimeSeriesStore& series, Spans* spans) {
  std::int64_t bytes = 0;
  std::int64_t events = 0;
  for (const obs::Telemetry* telemetry : shards) {
    const std::vector<obs::TraceEvent>& trace = telemetry->trace().events();
    events += static_cast<std::int64_t>(trace.size());
    CountingBuf chrome_buf;
    std::ostream chrome(&chrome_buf);
    {
      const ScopedSpan span(spans, "obs.write_chrome_trace");
      obs::write_chrome_trace(chrome, trace);
    }
    CountingBuf jsonl_buf;
    std::ostream jsonl(&jsonl_buf);
    {
      const ScopedSpan span(spans, "obs.write_trace_jsonl");
      obs::write_trace_jsonl(jsonl, trace);
    }
    if (jsonl_buf.lines() != static_cast<std::int64_t>(trace.size())) {
      throw std::runtime_error("JSONL export lost trace events");
    }
    bytes += chrome_buf.bytes() + jsonl_buf.bytes();
  }
  if (events == 0) throw std::runtime_error("traced world recorded no events");
  CountingBuf metrics_buf;
  std::ostream metrics_out(&metrics_buf);
  {
    const ScopedSpan span(spans, "obs.write_metrics_csv");
    obs::write_metrics_csv(metrics_out, metrics);
  }
  CountingBuf series_buf;
  std::ostream series_out(&series_buf);
  {
    const ScopedSpan span(spans, "obs.write_timeseries_csv");
    obs::write_timeseries_csv(series_out, series);
  }
  if (series_buf.lines() < 2) throw std::runtime_error("series export is empty");
  return {bytes + metrics_buf.bytes() + series_buf.bytes(), series_buf.lines() - 1};
}

// One timed repetition: the serial world build (setup_s), then the timed
// ShardedEngine run (+ exports when the world records telemetry).
RepSample engine_rep(const engine::WorldSpec& spec, int threads) {
  RepSample rep;
  {
    const auto start = Clock::now();
    const std::vector<hmp::HeadTrace> pool = engine::build_trace_pool(spec);
    std::vector<std::unique_ptr<engine::Shard>> shards;
    for (int k = 0; k < spec.shards; ++k) {
      shards.push_back(std::make_unique<engine::Shard>(spec, k, pool));
    }
    rep.setup_s = seconds_since(start);
  }
  const double cpu_start = process_cpu_s();
  const auto start = Clock::now();
  const engine::EngineResult result = engine::run_world(spec, {.threads = threads});
  ExportStats exported;
  if (spec.session_telemetry) {
    std::vector<const obs::Telemetry*> shards;
    for (const auto& t : result.shard_telemetry) shards.push_back(t.get());
    exported = export_world(shards, result.metrics, result.series, nullptr);
  }
  rep.wall_s = seconds_since(start);
  rep.cpu_s = process_cpu_s() - cpu_start;
  rep.sim = world_stats(spec, result.reports, result.metrics, result.series,
                        result.events_executed, result.completed);
  rep.sim.digest.add(exported.bytes);
  return rep;
}

// When a VOD session plans chunk c: once chunk c - (horizon - 1) starts
// playing (all of the first `horizon` chunks at start-up).
Decision vod_decision(const media::VideoModel& video, int prefetch_chunks,
                      media::ChunkIndex c) {
  const media::ChunkIndex playing = std::max(0, c - (prefetch_chunks - 1));
  const sim::Time now = video.chunk_start_time(playing);
  const sim::Duration ahead = video.chunk_start_time(c) - now;
  return {.content = now, .horizon = ahead, .buffer_level = ahead};
}

// Virtual-time latency of every delivered fetch, request to delivery, from
// the sessions' kFetchDispatched / kFetchDone trace events (request ids
// are per shard).
std::vector<double> fetch_latencies_ms(const std::vector<const obs::Telemetry*>& shards) {
  std::vector<double> latencies;
  for (const obs::Telemetry* telemetry : shards) {
    std::map<std::int64_t, sim::Time> dispatched;
    for (const obs::TraceEvent& e : telemetry->trace().events()) {
      if (e.type == obs::TraceEventType::kFetchDispatched) {
        dispatched[e.request] = e.ts;
      } else if (e.type == obs::TraceEventType::kFetchDone) {
        const auto it = dispatched.find(e.request);
        if (it == dispatched.end()) throw std::runtime_error("fetch done before dispatch");
        latencies.push_back(sim::to_milliseconds(e.ts - it->second));
        dispatched.erase(it);
      }
    }
  }
  return latencies;
}

double counter(const obs::MetricsRegistry& metrics, const char* name) {
  const obs::Counter* c = metrics.find_counter(name);
  return c == nullptr ? 0.0 : static_cast<double>(c->value());
}

// The traced run: untraced repetitions at threads=N and threads=1 for
// reference, then the same world driven shard by shard under spans, then
// threads=1 again. All must produce the same outputs; the two serial
// repetitions around the traced one are the base of the tracing overhead.
// Last, the geo/hmp/abr replay of the world's head traces.
Outcome traced_engine(const engine::WorldSpec& spec, const RunOptions& options,
                      double link_kbps, const std::string& name) {
  Outcome out;
  const RepSample reference = engine_rep(spec, options.threads);
  const RepSample serial = engine_rep(spec, 1);
  out.attempted += 2 * spec.sessions;
  out.expect(serial.sim.digest.value() == reference.sim.digest.value(),
             "threads=1 digest " + hex(serial.sim.digest.value()) + " differs from threads=" +
                 std::to_string(options.threads) + " " + hex(reference.sim.digest.value()));

  Spans spans;
  const double cpu_start = process_cpu_s();
  const int root = spans.open("traced_world");
  int span = spans.open("engine.build_trace_pool");
  const std::vector<hmp::HeadTrace> pool = engine::build_trace_pool(spec);
  const double pool_s = spans.close(span);
  std::vector<std::unique_ptr<engine::Shard>> shards;
  std::vector<double> run_s;
  double build_s = 0.0;
  for (int k = 0; k < spec.shards; ++k) {
    span = spans.open("engine.shard_build", k);
    shards.push_back(std::make_unique<engine::Shard>(spec, k, pool));
    build_s += spans.close(span);
    span = spans.open("engine.shard_run", k);
    shards.back()->run();
    run_s.push_back(spans.close(span));
  }
  // Merge in shard-id order, exactly as ShardedEngine::run does.
  span = spans.open("engine.merge");
  std::vector<core::SessionReport> reports(static_cast<std::size_t>(spec.sessions));
  obs::MetricsRegistry metrics;
  obs::TimeSeriesStore series;
  std::vector<const obs::Telemetry*> telemetry;
  std::uint64_t events = 0;
  std::int64_t trace_events = 0;
  int completed = 0;
  for (const auto& shard : shards) {
    events += shard->events_executed();
    completed += shard->completed();
    const std::vector<int>& ids = shard->session_ids();
    for (std::size_t i = 0; i < ids.size(); ++i) {
      reports[static_cast<std::size_t>(ids[i])] = shard->report(static_cast<int>(i));
    }
    metrics.merge_from(shard->telemetry().metrics());
    series.merge_from(shard->series());
    telemetry.push_back(&shard->telemetry());
    trace_events += static_cast<std::int64_t>(shard->telemetry().trace().size());
  }
  spans.close(span);
  ExportStats exported;
  if (spec.session_telemetry) {
    span = spans.open("obs.export");
    exported = export_world(telemetry, metrics, series, &spans);
    spans.close(span);
  }
  spans.close(root);
  const double traced_cpu_s = process_cpu_s() - cpu_start;
  out.attempted += spec.sessions;

  const RepSample serial_after = engine_rep(spec, 1);
  out.attempted += spec.sessions;

  SimStats traced = world_stats(spec, reports, metrics, series, events, completed);
  traced.digest.add(exported.bytes);
  out.expect(traced.digest.value() == reference.sim.digest.value() &&
                 serial_after.sim.digest.value() == reference.sim.digest.value(),
             "traced run digest " + hex(traced.digest.value()) +
                 " differs from untraced " + hex(reference.sim.digest.value()));

  // Replay every session's head trace through geo / hmp / abr.
  span = spans.open("replay");
  const auto video = std::make_shared<const media::VideoModel>(spec.video);
  LayerTimes layers;
  const int prefetch = spec.session.prefetch_horizon_chunks;
  for (int i = 0; i < spec.sessions; ++i) {
    const ReplayViewer viewer{
        .trace = &pool[static_cast<std::size_t>(i % spec.trace_pool)],
        .estimated_kbps = link_kbps / spec.sessions_per_link,
        .decision = [&](media::ChunkIndex c) {
          return vod_decision(*video, prefetch, c);
        }};
    replay_viewer(video, spec.session.abr, spec.session.viewport, viewer, layers);
  }
  spans.close(span);

  const double n = spec.sessions;
  const double run_total = std::accumulate(run_s.begin(), run_s.end(), 0.0);
  const double run_max = *std::max_element(run_s.begin(), run_s.end());
  out.add("engine.trace_pool_s", pool_s, "s");
  out.add("engine.shard_build_s", build_s, "s");
  out.add("engine.shard_run_s.p50", quantile(run_s, 0.5), "s");
  out.add("engine.shard_run_s.max", run_max, "s");
  out.add("engine.shard_imbalance", run_max / (run_total / spec.shards), "ratio");
  out.add("engine.parallel_efficiency",
          (pool_s + build_s + run_total) / (options.threads * reference.wall_s), "ratio");
  out.add("sim.events", static_cast<double>(events), "count");
  out.add("sim.events_per_session", static_cast<double>(events) / n, "count");
  out.add("sim.host_ns_per_event", run_total * 1e9 / static_cast<double>(events), "ns");
  out.add("sim.queue_depth_p99",
          obs::histogram_quantile_bound(*metrics.find_histogram("sim.queue_depth_hist"),
                                        0.99),
          "count");
  add_layer_metrics(layers, spec.session.abr.policy, out);
  out.add("hmp.trace_gen_ms", pool_s * 1e3 / spec.trace_pool, "ms");

  double fetches = 0, upgrades = 0, urgent = 0, failures = 0, degraded = 0;
  for (const core::SessionReport& r : reports) {
    fetches += r.fetches;
    upgrades += r.upgrades;
    urgent += r.urgent_fetches;
    failures += r.fetch_failures;
    degraded += r.degraded_retries;
  }
  out.add("core.fetches_per_session", fetches / n, "count");
  out.add("core.upgrades_per_session", upgrades / n, "count");
  out.add("core.urgent_fetches_per_session", urgent / n, "count");
  out.add("core.fetch_failures", failures, "count");
  out.add("core.degraded_retries", degraded, "count");
  if (spec.session_telemetry) {
    const std::vector<double> latencies = fetch_latencies_ms(telemetry);
    out.add("core.fetch_latency_ms.p50", quantile(latencies, 0.50), "ms");
    out.add("core.fetch_latency_ms.p99", quantile(latencies, 0.99), "ms");
  }
  if (metrics.find_counter("transport.requests") != nullptr) {
    const double retries = counter(metrics, "transport.retries");
    out.add("net.fetch.calls", counter(metrics, "transport.requests") + retries, "count");
    out.add("net.transfer_failures", retries + counter(metrics, "transport.failed_requests"),
            "count");
    out.add("net.retries", retries, "count");
  }
  if (spec.cdn.enabled()) {
    const double hits = counter(metrics, "cdn.edge.hits");
    const double misses = counter(metrics, "cdn.edge.misses");
    out.add("cdn.hit_ratio", hits / (hits + misses), "ratio");
    out.add("cdn.coalesced", counter(metrics, "cdn.edge.coalesced"), "count");
    out.add("cdn.evictions", counter(metrics, "cdn.edge.evictions"), "count");
    out.add("cdn.origin_mb", counter(metrics, "cdn.origin.egress_bytes") / (1 << 20), "MB");
    out.expect(counter(metrics, "cdn.edge.evictions") > 0,
               "edge cache never evicted: the working set fits");
  }
  if (spec.session_telemetry) {
    out.add("obs.trace_events_per_session", static_cast<double>(trace_events) / n, "count");
    out.add("obs.trace_mb",
            static_cast<double>(trace_events) * sizeof(obs::TraceEvent) / (1 << 20), "MB");
    out.add("obs.series_rows", static_cast<double>(exported.series_rows), "count");
    out.add("obs.export_s", spans.total_s("obs.export"), "s");
  }
  out.add("trace.overhead_share",
          traced_cpu_s / (0.5 * (serial.cpu_s + serial_after.cpu_s)) - 1.0, "ratio");
  add_bypassed_layers(out);

  if (!options.out_dir.empty()) {
    const std::string path = options.out_dir + "/" + name + "-seed" +
                             std::to_string(options.seed) + ".spans.json";
    spans.write_chrome_trace(path);
    out.notes.push_back("spans written to " + path);
  }
  out.notes.push_back("output digest " + hex(reference.sim.digest.value()) +
                      " (threads=" + std::to_string(options.threads) + "), " +
                      hex(serial.sim.digest.value()) + " (threads=1), " +
                      hex(traced.digest.value()) + " (traced)");
  return out;
}

Outcome run_engine_workload(const engine::WorldSpec& spec, const RunOptions& options,
                            double link_kbps, const std::string& name) {
  if (options.trace) return traced_engine(spec, options, link_kbps, name);
  return timed_reps(options, spec.sessions,
                    [&] { return engine_rep(spec, options.threads); });
}

}  // namespace

Outcome run_vod_fleet(const RunOptions& options) {
  return run_engine_workload(vod_fleet_spec(options.seed), options, kVodLinkKbps,
                             "vod_fleet");
}

Outcome run_edge_traced(const RunOptions& options) {
  return run_engine_workload(edge_traced_spec(options.seed), options, kEdgeLinkKbps,
                             "edge_traced");
}

}  // namespace perfbench
