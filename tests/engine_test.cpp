// Sharded session engine tests: the MetricsRegistry merge semantics and the
// engine determinism contract (DESIGN.md §9) — for a given (spec, seed) the
// merged metrics are byte-identical no matter how many threads execute the
// shards, and a session's report depends only on its link group, not on the
// partitioning.
#include <gtest/gtest.h>

#include <sstream>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "abr/factory.h"
#include "engine/engine.h"
#include "engine/world.h"
#include "net/link.h"
#include "obs/export.h"
#include "obs/metrics.h"

namespace sperke {
namespace {

// ---------------------------------------------------------------- metrics

TEST(MetricsMerge, CountersAndGaugesAdd) {
  obs::MetricsRegistry a;
  obs::MetricsRegistry b;
  a.counter("c").add(3);
  b.counter("c").add(4);
  a.gauge("g").set(1.5);
  b.gauge("g").set(2.25);
  a.merge_from(b);
  EXPECT_EQ(a.counter("c").value(), 7);
  EXPECT_DOUBLE_EQ(a.gauge("g").value(), 3.75);
  // b is untouched.
  EXPECT_EQ(b.counter("c").value(), 4);
}

TEST(MetricsMerge, HistogramsMergeBucketwise) {
  obs::MetricsRegistry a;
  obs::MetricsRegistry b;
  const std::vector<double> bounds{1.0, 10.0, 100.0};
  obs::Histogram& ha = a.histogram("h", bounds);
  obs::Histogram& hb = b.histogram("h", bounds);
  ha.observe(0.5);
  ha.observe(50.0);
  hb.observe(5.0);
  hb.observe(1'000.0);  // overflow bucket
  a.merge_from(b);
  EXPECT_EQ(ha.count(), 4);
  EXPECT_DOUBLE_EQ(ha.sum(), 1'055.5);
  EXPECT_DOUBLE_EQ(ha.min(), 0.5);
  EXPECT_DOUBLE_EQ(ha.max(), 1'000.0);
  const std::vector<std::int64_t> expected{1, 1, 1, 1};
  EXPECT_EQ(ha.bucket_counts(), expected);
}

TEST(MetricsMerge, EmptySidesKeepMinMaxSane) {
  obs::Histogram empty({1.0, 2.0});
  obs::Histogram full({1.0, 2.0});
  full.observe(1.5);
  empty.merge_from(full);
  EXPECT_DOUBLE_EQ(empty.min(), 1.5);
  EXPECT_DOUBLE_EQ(empty.max(), 1.5);
  full.merge_from(obs::Histogram({1.0, 2.0}));  // merging empty changes nothing
  EXPECT_EQ(full.count(), 1);
  EXPECT_DOUBLE_EQ(full.min(), 1.5);
}

TEST(MetricsMerge, MismatchedBucketLayoutsThrow) {
  obs::MetricsRegistry a;
  obs::MetricsRegistry b;
  (void)a.histogram("h", {1.0, 2.0});
  (void)b.histogram("h", {1.0, 3.0});
  EXPECT_THROW(a.merge_from(b), std::invalid_argument);

  obs::Histogram x({1.0});
  obs::Histogram y({1.0, 2.0});
  EXPECT_THROW(x.merge_from(y), std::invalid_argument);
}

TEST(MetricsMerge, KindMismatchThrows) {
  obs::MetricsRegistry a;
  obs::MetricsRegistry b;
  (void)a.counter("m");
  (void)b.gauge("m");
  EXPECT_THROW(a.merge_from(b), std::invalid_argument);
}

TEST(MetricsMerge, NewInstrumentsAppendInRegistrationOrder) {
  obs::MetricsRegistry a;
  obs::MetricsRegistry b;
  (void)a.counter("a1");
  b.counter("b1").add(2);
  b.histogram("b2", {1.0}).observe(0.5);
  a.merge_from(b);
  ASSERT_EQ(a.size(), 3u);
  EXPECT_EQ(a.entries()[0].name, "a1");
  EXPECT_EQ(a.entries()[1].name, "b1");
  EXPECT_EQ(a.entries()[2].name, "b2");
  EXPECT_EQ(a.counter("b1").value(), 2);
  EXPECT_EQ(a.histogram("b2", {1.0}).count(), 1);
}

TEST(MetricsMerge, QuantileBound) {
  obs::Histogram h({1.0, 2.0, 5.0});
  EXPECT_DOUBLE_EQ(obs::histogram_quantile_bound(h, 0.99), 0.0);  // empty
  for (int i = 0; i < 98; ++i) h.observe(0.5);
  h.observe(1.5);
  h.observe(4.0);
  EXPECT_DOUBLE_EQ(obs::histogram_quantile_bound(h, 0.5), 1.0);
  EXPECT_DOUBLE_EQ(obs::histogram_quantile_bound(h, 0.99), 5.0);
  h.observe(50.0);  // overflow bucket holds the tail
  EXPECT_DOUBLE_EQ(obs::histogram_quantile_bound(h, 1.0), 50.0);
}

// ----------------------------------------------------------------- engine

// A small but non-trivial world: 6 link groups of 4 sessions each, every
// group on its own 20 Mbps link, full per-session telemetry.
engine::WorldSpec small_world(int shards) {
  engine::WorldSpec spec;
  spec.video.duration_s = 8.0;
  spec.video.chunk_duration_s = 1.0;
  spec.video.tile_rows = 4;
  spec.video.tile_cols = 6;
  spec.video.seed = 11;

  spec.trace_template.duration_s = 60.0;
  spec.trace_template.sample_rate_hz = 25.0;
  spec.trace_template.attractors = hmp::default_attractors(60.0, 99);
  spec.trace_template.seed = 21;
  spec.trace_pool = 5;

  spec.link.name = "link";
  spec.link.bandwidth = net::BandwidthTrace::constant(20'000.0);
  spec.link.rtt = sim::milliseconds(30);
  spec.sessions_per_link = 4;
  spec.transport_max_concurrent = 4;

  spec.sessions = 24;
  spec.horizon = sim::seconds(120.0);
  spec.shards = shards;
  spec.seed = 5;
  spec.session_telemetry = true;
  spec.monitor = true;
  return spec;
}

std::string metrics_csv(const obs::MetricsRegistry& registry) {
  std::ostringstream out;
  obs::write_metrics_csv(out, registry);
  return out.str();
}

TEST(EngineDeterminism, MergedMetricsIdenticalAcrossThreadCounts) {
  // The headline contract: threads only change wall time, never a byte of
  // the merged metrics. Compare the full CSV export — names, order, every
  // count/sum/min/max — between a serial and a heavily threaded run.
  engine::EngineResult serial = engine::run_world(small_world(6), {.threads = 1});
  engine::EngineResult threaded = engine::run_world(small_world(6), {.threads = 8});
  EXPECT_EQ(serial.threads_used, 1);
  EXPECT_EQ(threaded.threads_used, 6);  // clamped to shard count
  EXPECT_EQ(metrics_csv(serial.metrics), metrics_csv(threaded.metrics));
  EXPECT_EQ(serial.events_executed, threaded.events_executed);
  EXPECT_EQ(serial.completed, threaded.completed);
  EXPECT_EQ(serial.completed, 24);

  // Per-shard telemetry lines up too (same shard decomposition).
  ASSERT_EQ(serial.shard_telemetry.size(), threaded.shard_telemetry.size());
  for (std::size_t s = 0; s < serial.shard_telemetry.size(); ++s) {
    EXPECT_EQ(metrics_csv(serial.shard_telemetry[s]->metrics()),
              metrics_csv(threaded.shard_telemetry[s]->metrics()));
    EXPECT_EQ(serial.shard_telemetry[s]->trace().size(),
              threaded.shard_telemetry[s]->trace().size());
  }
}

TEST(EngineDeterminism, ReportsInvariantAcrossShardCounts) {
  // Sessions couple only through their link group, and the group mapping
  // follows the *global* session id — so each session's own report must be
  // bit-identical whether its group shares a simulator with every other
  // group (shards=1) or runs alone (shards=6).
  engine::EngineResult mono = engine::run_world(small_world(1), {.threads = 1});
  engine::EngineResult sharded = engine::run_world(small_world(6), {.threads = 3});
  ASSERT_EQ(mono.reports.size(), sharded.reports.size());
  for (std::size_t i = 0; i < mono.reports.size(); ++i) {
    const core::SessionReport& a = mono.reports[i];
    const core::SessionReport& b = sharded.reports[i];
    EXPECT_EQ(a.completed, b.completed) << i;
    EXPECT_EQ(a.qoe.chunks_played, b.qoe.chunks_played) << i;
    EXPECT_EQ(a.qoe.bytes_downloaded, b.qoe.bytes_downloaded) << i;
    EXPECT_EQ(a.qoe.bytes_wasted, b.qoe.bytes_wasted) << i;
    EXPECT_EQ(a.qoe.stall_seconds, b.qoe.stall_seconds) << i;
    EXPECT_EQ(a.qoe.score, b.qoe.score) << i;
    EXPECT_EQ(a.fetches, b.fetches) << i;
    EXPECT_EQ(a.upgrades, b.upgrades) << i;
    EXPECT_EQ(a.startup_delay, b.startup_delay) << i;
    EXPECT_EQ(a.viewport_utility_per_chunk, b.viewport_utility_per_chunk) << i;
  }
  // Counters are order-independent, so they survive re-partitioning too
  // (histogram double-sums may not, which is why the byte-identity
  // contract pins the shard count into the spec).
  EXPECT_EQ(mono.metrics.find_counter("session.fetches")->value(),
            sharded.metrics.find_counter("session.fetches")->value());
  EXPECT_EQ(mono.metrics.find_counter("session.chunks_played")->value(),
            sharded.metrics.find_counter("session.chunks_played")->value());
}

TEST(EngineDeterminism, FaultedWorldMergesIdenticalAcrossThreadCounts) {
  // The determinism contract must survive chaos (DESIGN.md §10): the fault
  // schedule lives in the spec, per-transfer failure streams are reseeded
  // per link group (seed + g), and retries/failovers are ordinary
  // simulation events — so a faulted world merges byte-identical metrics
  // no matter how many threads execute its shards.
  auto chaos_world = [] {
    engine::WorldSpec spec = small_world(6);
    spec.faults.outages.push_back({.start_s = 3.0, .duration_s = 2.0});
    spec.faults.capacity_collapses.push_back(
        {.start_s = 10.0, .duration_s = 5.0, .factor = 0.25});
    spec.faults.rtt_spikes.push_back(
        {.start_s = 20.0, .duration_s = 5.0, .factor = 3.0});
    spec.faults.transfer_failure_prob = 0.05;
    spec.faults.seed = 99;
    spec.transport_recovery.enabled = true;
    spec.session.fetch_recovery = true;
    spec.horizon = sim::seconds(240.0);
    return spec;
  };
  engine::EngineResult serial = engine::run_world(chaos_world(), {.threads = 1});
  engine::EngineResult threaded = engine::run_world(chaos_world(), {.threads = 8});
  EXPECT_EQ(metrics_csv(serial.metrics), metrics_csv(threaded.metrics));
  EXPECT_EQ(serial.events_executed, threaded.events_executed);
  EXPECT_EQ(serial.completed, threaded.completed);

  // The schedule actually injected faults and the recovery layer actually
  // ran — otherwise this test pins nothing beyond the fault-free one.
  const obs::Counter* failures =
      serial.metrics.find_counter("session.fetch_failures");
  ASSERT_NE(failures, nullptr);
  EXPECT_GT(failures->value(), 0);
  const obs::Counter* retries = serial.metrics.find_counter("transport.retries");
  ASSERT_NE(retries, nullptr);
  EXPECT_GT(retries->value(), 0);
}

TEST(EngineDeterminism, SeriesAndSloBreachesIdenticalAcrossThreadCounts) {
  // The observability extension of the headline contract: the sampled time
  // series and the SLO breach/clear timeline are part of the merged result,
  // so they too must be byte-identical at any thread count — under chaos,
  // where the sampler interleaves with outages, retries and stalls.
  auto observed_chaos_world = [] {
    engine::WorldSpec spec = small_world(6);
    spec.faults.outages.push_back({.start_s = 3.0, .duration_s = 2.0});
    spec.faults.transfer_failure_prob = 0.05;
    spec.faults.seed = 99;
    spec.transport_recovery.enabled = true;
    spec.session.fetch_recovery = true;
    spec.sample_period = sim::seconds(0.5);
    spec.slos = {{.name = "stall", .metric = "session.stalled",
                  .signal = obs::SloSignal::kGaugeValue, .threshold = 0.5,
                  .window_intervals = 1},
                 {.name = "retry.rate", .metric = "transport.retries",
                  .signal = obs::SloSignal::kCounterRate, .threshold = 1e9,
                  .window_intervals = 4}};
    return spec;
  };
  engine::EngineResult serial =
      engine::run_world(observed_chaos_world(), {.threads = 1});
  engine::EngineResult threaded =
      engine::run_world(observed_chaos_world(), {.threads = 8});

  // floor(horizon / period) closed intervals, no matter the partitioning.
  EXPECT_EQ(serial.series.intervals(), 240u);
  std::ostringstream series_a, series_b;
  obs::write_timeseries_csv(series_a, serial.series);
  obs::write_timeseries_csv(series_b, threaded.series);
  EXPECT_FALSE(series_a.str().empty());
  EXPECT_EQ(series_a.str(), series_b.str());

  std::ostringstream slo_a, slo_b;
  obs::write_slo_csv(slo_a, serial.slos);
  obs::write_slo_csv(slo_b, threaded.slos);
  EXPECT_EQ(slo_a.str(), slo_b.str());
  ASSERT_EQ(serial.slos.size(), 2u);
  // The outage actually tripped the stall SLO somewhere in the fleet.
  EXPECT_GT(serial.slos[0].breach_events, 0);

  // The breach/clear timelines agree shard by shard, event by event.
  std::int64_t breach_events = 0;
  ASSERT_EQ(serial.shard_telemetry.size(), threaded.shard_telemetry.size());
  for (std::size_t s = 0; s < serial.shard_telemetry.size(); ++s) {
    auto slo_timeline = [](const obs::Telemetry& telemetry) {
      std::vector<obs::TraceEvent> out;
      for (const obs::TraceEvent& e : telemetry.trace().events()) {
        if (e.type == obs::TraceEventType::kSloBreach ||
            e.type == obs::TraceEventType::kSloClear) {
          out.push_back(e);
        }
      }
      return out;
    };
    const auto timeline_a = slo_timeline(*serial.shard_telemetry[s]);
    const auto timeline_b = slo_timeline(*threaded.shard_telemetry[s]);
    ASSERT_EQ(timeline_a.size(), timeline_b.size()) << "shard " << s;
    for (std::size_t i = 0; i < timeline_a.size(); ++i) {
      EXPECT_EQ(timeline_a[i].type, timeline_b[i].type) << s << "/" << i;
      EXPECT_EQ(timeline_a[i].ts, timeline_b[i].ts) << s << "/" << i;
      EXPECT_EQ(timeline_a[i].chunk, timeline_b[i].chunk) << s << "/" << i;
      EXPECT_EQ(timeline_a[i].value, timeline_b[i].value) << s << "/" << i;
      if (timeline_a[i].type == obs::TraceEventType::kSloBreach) {
        ++breach_events;
      }
    }
  }
  EXPECT_EQ(breach_events, serial.slos[0].breach_events +
                               serial.slos[1].breach_events);
}

TEST(EngineDeterminism, EveryAbrPolicyMergesIdenticalAcrossThreadCounts) {
  // The byte-identity contract is per-policy, not a SperkeVra accident:
  // every factory policy must merge the same metrics at any thread count,
  // because each shard constructs its own instance from the shared
  // TileAbrConfig and no ABR state crosses a shard boundary.
  for (std::string_view name : abr::policy_names()) {
    engine::WorldSpec spec = small_world(6);
    spec.session.abr.policy = name;
    engine::EngineResult serial = engine::run_world(spec, {.threads = 1});
    engine::EngineResult threaded = engine::run_world(spec, {.threads = 8});
    EXPECT_EQ(metrics_csv(serial.metrics), metrics_csv(threaded.metrics))
        << name;
    EXPECT_EQ(serial.events_executed, threaded.events_executed) << name;
    EXPECT_EQ(serial.completed, 24) << name;
    // The policy-scoped plan counter surfaced in the merged registry.
    const obs::Counter* plans =
        serial.metrics.find_counter("abr." + std::string(name) + ".plans");
    ASSERT_NE(plans, nullptr) << name;
    EXPECT_GT(plans->value(), 0) << name;
    const obs::Counter* downloaded =
        serial.metrics.find_counter("session.bytes_downloaded");
    ASSERT_NE(downloaded, nullptr) << name;
    EXPECT_GT(downloaded->value(), 0) << name;
  }
}

TEST(EngineDeterminism, MixedPolicyPopulationMergesIdenticalAcrossThreadCounts) {
  // A fleet running *different* policies per session: the per-policy plan
  // counters are registered lazily by whichever session constructs first,
  // so this also exercises MetricsRegistry::merge_from's append semantics
  // across shards whose registries saw the policies in different orders.
  auto mixed_world = [] {
    engine::WorldSpec spec = small_world(6);
    spec.session_for = [base = spec.session](int i) {
      core::SessionConfig config = base;
      config.abr.policy =
          abr::policy_names()[static_cast<std::size_t>(i) %
                              abr::policy_names().size()];
      return config;
    };
    return spec;
  };
  engine::EngineResult serial = engine::run_world(mixed_world(), {.threads = 1});
  engine::EngineResult threaded =
      engine::run_world(mixed_world(), {.threads = 8});
  EXPECT_EQ(metrics_csv(serial.metrics), metrics_csv(threaded.metrics));
  EXPECT_EQ(serial.events_executed, threaded.events_executed);
  EXPECT_EQ(serial.completed, 24);
  // Every policy planned for its 6 of the 24 sessions.
  for (std::string_view name : abr::policy_names()) {
    const obs::Counter* plans =
        serial.metrics.find_counter("abr." + std::string(name) + ".plans");
    ASSERT_NE(plans, nullptr) << name;
    EXPECT_GT(plans->value(), 0) << name;
  }
}

TEST(Engine, ValidateRejectsBadPolicyName) {
  engine::WorldSpec spec = small_world(1);
  spec.session.abr.policy = "oracle";
  EXPECT_THROW(engine::validate(spec), std::invalid_argument);
}

TEST(Engine, ValidateRejectsBadObservabilitySpecs) {
  engine::WorldSpec spec = small_world(1);
  spec.sample_period = sim::Duration{-1};
  EXPECT_THROW(engine::ShardedEngine{spec}, std::invalid_argument);
  spec = small_world(1);
  spec.slos = {{.name = "x", .metric = "m"}};  // SLOs need a sampler
  EXPECT_THROW(engine::ShardedEngine{spec}, std::invalid_argument);
  spec = small_world(1);
  spec.sample_period = sim::seconds(1.0);
  spec.slos = {{.name = "Bad Name", .metric = "m"}};
  EXPECT_THROW(engine::ShardedEngine{spec}, std::invalid_argument);
  spec = small_world(1);
  spec.sample_period = sim::seconds(1.0);
  spec.slos = {{.name = "ok", .metric = "m"}};
  EXPECT_NO_THROW(engine::ShardedEngine{spec});
}

TEST(Engine, FaultsOfGroupReseedsTemplatePlanPerGroup) {
  engine::WorldSpec spec = small_world(1);
  // Empty template: groups keep whatever their LinkConfig carries.
  EXPECT_TRUE(engine::faults_of_group(spec, 0).empty());

  spec.faults.transfer_failure_prob = 0.1;
  spec.faults.seed = 40;
  EXPECT_EQ(engine::faults_of_group(spec, 0).seed, 40u);
  EXPECT_EQ(engine::faults_of_group(spec, 3).seed, 43u);

  // With the template empty, a plan that link_for_group(g) carries reaches
  // group g's link verbatim, and no other group's: only shard 2 (group 2,
  // one group per shard) observes an outage.
  spec = small_world(6);
  spec.link_for_group = [&spec](int group) {
    net::LinkConfig link = spec.link;
    if (group == 2) {
      link.faults.outages.push_back({.start_s = 1.0, .duration_s = 3.0});
    }
    return link;
  };
  const engine::EngineResult result = engine::run_world(spec, {.threads = 2});
  for (int shard = 0; shard < spec.shards; ++shard) {
    const obs::Histogram* outage =
        result.shard_telemetry[static_cast<std::size_t>(shard)]
            ->metrics().find_histogram("net.outage_s");
    if (shard != 2) {
      EXPECT_EQ(outage, nullptr) << "shard " << shard;
      continue;
    }
    ASSERT_NE(outage, nullptr);
    EXPECT_EQ(outage->count(), 1);
    EXPECT_NEAR(outage->sum(), 3.0, 1e-9);
  }
}

TEST(Engine, ValidateRejectsBadSpecs) {
  engine::WorldSpec spec = small_world(1);
  spec.sessions = 0;
  EXPECT_THROW(engine::ShardedEngine{spec}, std::invalid_argument);
  spec = small_world(1);
  spec.shards = 0;
  EXPECT_THROW(engine::ShardedEngine{spec}, std::invalid_argument);
  spec = small_world(1);
  spec.trace_pool = 0;
  EXPECT_THROW(engine::ShardedEngine{spec}, std::invalid_argument);
  spec = small_world(1);
  spec.sessions_per_link = 0;
  EXPECT_THROW(engine::ShardedEngine{spec}, std::invalid_argument);
  spec = small_world(1);
  spec.faults.transfer_failure_prob = 1.5;  // net::validate runs on the spec
  EXPECT_THROW(engine::ShardedEngine{spec}, std::invalid_argument);
}

TEST(Engine, ValidateNamesBadTransportRecovery) {
  // Fails up front in validate(), not later inside a shard thread.
  engine::WorldSpec spec = small_world(1);
  spec.transport_recovery.enabled = true;
  spec.transport_recovery.max_retries = -1;
  try {
    engine::validate(spec);
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("transport_recovery"), std::string::npos)
        << e.what();
  }
}

TEST(Engine, ShardErrorsPropagateToCaller) {
  engine::WorldSpec spec = small_world(6);
  // Session 13 (group 3 -> shard 3) gets an invalid config; the worker
  // thread's exception must surface on the calling thread.
  spec.session_for = [&spec](int i) {
    core::SessionConfig config = spec.session;
    if (i == 13) config.prefetch_horizon_chunks = 0;
    return config;
  };
  engine::ShardedEngine engine(spec);
  EXPECT_THROW((void)engine.run({.threads = 4}), std::invalid_argument);
}

TEST(Engine, PerGroupLinkFactoryIsAppliedByGlobalGroupId) {
  engine::WorldSpec spec = small_world(6);
  // Give each group a distinct capacity; group 0 (sessions 0..3) gets a
  // starved link, the rest stay fast. The starved sessions must be exactly
  // the global ids 0..3, regardless of shard assignment.
  spec.link_for_group = [&spec](int group) {
    net::LinkConfig link = spec.link;
    if (group == 0) link.bandwidth = net::BandwidthTrace::constant(600.0);
    return link;
  };
  spec.horizon = sim::seconds(400.0);
  engine::EngineResult result = engine::run_world(spec, {.threads = 2});
  ASSERT_EQ(result.reports.size(), 24u);
  for (std::size_t i = 4; i < result.reports.size(); ++i) {
    EXPECT_TRUE(result.reports[i].completed) << i;
  }
  // The starved group either stalls hard or is still crawling at the
  // horizon; either way it must look worse than the fast groups.
  for (std::size_t i = 0; i < 4; ++i) {
    EXPECT_LT(result.reports[i].qoe.score, result.reports[4].qoe.score) << i;
  }
}

// -------------------------------------------------------------- engine+CDN

// small_world with a CDN tier: 8 sessions (2 link groups) per edge, so 24
// sessions induce 3 edges, each with its own backhaul and shared cache.
engine::WorldSpec cdn_world(int shards, int sessions = 24) {
  engine::WorldSpec spec = small_world(shards);
  spec.sessions = sessions;
  spec.cdn.sessions_per_edge = 8;
  spec.cdn.backhaul.name = "backhaul";
  spec.cdn.backhaul.bandwidth = net::BandwidthTrace::constant(100'000.0);
  spec.cdn.backhaul.rtt = sim::milliseconds(20);
  spec.cdn.cache_capacity_bytes = 64LL << 20;
  return spec;
}

TEST(EngineCdn, MergedMetricsIdenticalAcrossThreadCounts) {
  // The determinism contract extends to the CDN tier: the edge is the
  // partition unit, so hit/miss/coalescing sequences — and with them every
  // merged byte, the sampled series and the SLO rollup — are independent of
  // how many threads execute the shards.
  auto observed_cdn_world = [] {
    engine::WorldSpec spec = cdn_world(3);
    spec.sample_period = sim::seconds(0.5);
    spec.slos = {{.name = "stall", .metric = "session.stalled",
                  .signal = obs::SloSignal::kGaugeValue, .threshold = 0.5,
                  .window_intervals = 1}};
    return spec;
  };
  engine::EngineResult serial =
      engine::run_world(observed_cdn_world(), {.threads = 1});
  engine::EngineResult threaded =
      engine::run_world(observed_cdn_world(), {.threads = 8});
  EXPECT_EQ(threaded.threads_used, 3);  // clamped to the edge-shard count
  EXPECT_EQ(metrics_csv(serial.metrics), metrics_csv(threaded.metrics));
  EXPECT_EQ(serial.events_executed, threaded.events_executed);
  EXPECT_EQ(serial.completed, threaded.completed);
  EXPECT_EQ(serial.completed, 24);

  std::ostringstream series_a, series_b;
  obs::write_timeseries_csv(series_a, serial.series);
  obs::write_timeseries_csv(series_b, threaded.series);
  EXPECT_FALSE(series_a.str().empty());
  EXPECT_EQ(series_a.str(), series_b.str());
  std::ostringstream slo_a, slo_b;
  obs::write_slo_csv(slo_a, serial.slos);
  obs::write_slo_csv(slo_b, threaded.slos);
  EXPECT_EQ(slo_a.str(), slo_b.str());

  // The tier actually carried traffic: sessions shared their edges.
  const obs::Counter* hits = serial.metrics.find_counter("cdn.edge.hits");
  const obs::Counter* misses = serial.metrics.find_counter("cdn.edge.misses");
  const obs::Counter* egress =
      serial.metrics.find_counter("cdn.origin.egress_bytes");
  ASSERT_NE(hits, nullptr);
  ASSERT_NE(misses, nullptr);
  ASSERT_NE(egress, nullptr);
  EXPECT_GT(hits->value(), 0);
  EXPECT_GT(misses->value(), 0);
  EXPECT_GT(egress->value(), 0);
}

TEST(EngineCdn, DisabledTierRegistersNoCdnMetrics) {
  // cdn.* counters exist only when the tier does — an empty topology stays
  // byte-identical to the pre-CDN engine, metric names included.
  engine::EngineResult result = engine::run_world(small_world(2), {.threads = 2});
  EXPECT_EQ(result.metrics.find_counter("cdn.edge.hits"), nullptr);
  EXPECT_EQ(result.metrics.find_counter("cdn.origin.egress_bytes"), nullptr);
}

TEST(EngineCdn, SharedEdgeHitRateRisesWithUserCount) {
  // The point of an edge: the more users behind it, the more their request
  // streams overlap — hit-rate rises and per-user origin egress falls.
  auto run_users = [](int sessions) {
    engine::WorldSpec spec = cdn_world(1, sessions);
    spec.cdn.sessions_per_edge = 24;  // one edge for every population size
    return engine::run_world(spec, {.threads = 2});
  };
  auto hit_rate = [](const engine::EngineResult& result) {
    const double hits =
        static_cast<double>(result.metrics.find_counter("cdn.edge.hits")->value());
    const double misses = static_cast<double>(
        result.metrics.find_counter("cdn.edge.misses")->value());
    return hits / (hits + misses);
  };
  auto egress_per_user = [](const engine::EngineResult& result, int sessions) {
    return static_cast<double>(
               result.metrics.find_counter("cdn.origin.egress_bytes")->value()) /
           sessions;
  };
  const engine::EngineResult few = run_users(8);
  const engine::EngineResult many = run_users(24);
  EXPECT_GT(hit_rate(many), hit_rate(few));
  EXPECT_LT(egress_per_user(many, 24), egress_per_user(few, 8));
}

TEST(EngineCdn, CrowdWarmedCacheBeatsColdOnEarlyHitRate) {
  // Crowd-driven warming (paper §3.2): preloading the heatmap's favourite
  // tiles converts a cold cache's compulsory misses into day-one hits.
  engine::WorldSpec cold = cdn_world(1, 8);
  cold.cdn.sessions_per_edge = 8;
  cold.horizon = sim::seconds(60.0);  // the first minute is what warming buys

  // A perfect prior: the crowd heatmap is built from the very trace pool
  // the sessions will play.
  const media::VideoModel video(cold.video);
  hmp::ViewingHeatmap crowd(video.tile_count(), video.chunk_count());
  for (const hmp::HeadTrace& trace : engine::build_trace_pool(cold)) {
    crowd.add_trace(trace, video.geometry(), {100.0, 90.0},
                    video.chunk_duration());
  }

  engine::WorldSpec warm = cold;
  warm.crowd = &crowd;
  warm.cdn.warm_tiles_per_chunk = video.tile_count();  // preload every tile
  warm.cdn.warm_level = 0;  // the baseline rung every session fetches

  const engine::EngineResult cold_result = engine::run_world(cold, {.threads = 1});
  const engine::EngineResult warm_result = engine::run_world(warm, {.threads = 1});
  auto counter = [](const engine::EngineResult& result, const char* name) {
    const obs::Counter* c = result.metrics.find_counter(name);
    return c == nullptr ? std::int64_t{0} : c->value();
  };
  EXPECT_GT(counter(warm_result, "cdn.edge.warmed"), 0);
  EXPECT_EQ(counter(cold_result, "cdn.edge.warmed"), 0);
  const auto rate = [&](const engine::EngineResult& result) {
    const double hits = static_cast<double>(counter(result, "cdn.edge.hits"));
    const double misses = static_cast<double>(counter(result, "cdn.edge.misses"));
    return hits / (hits + misses);
  };
  EXPECT_GT(rate(warm_result), rate(cold_result));
}

TEST(EngineCdn, ValidateRejectsBadTopologySections) {
  // Topology errors surface through engine::validate and list the section's
  // field names (the validate_policy_name convention).
  auto expect_cdn_error = [](engine::WorldSpec spec, const std::string& needle) {
    try {
      engine::validate(spec);
      FAIL() << "expected std::invalid_argument for " << needle;
    } catch (const std::invalid_argument& e) {
      const std::string what = e.what();
      EXPECT_NE(what.find(needle), std::string::npos) << what;
      EXPECT_NE(what.find("valid fields: sessions_per_edge"), std::string::npos)
          << what;
    }
  };
  engine::WorldSpec indivisible = cdn_world(1);
  indivisible.cdn.sessions_per_edge = 6;  // not a multiple of 4
  expect_cdn_error(indivisible, "multiple of sessions_per_link");

  engine::WorldSpec bad_policy = cdn_world(1);
  bad_policy.cdn.cache_policy = "arc";
  expect_cdn_error(bad_policy, "valid names: lru, lfu");

  engine::WorldSpec no_crowd = cdn_world(1);
  no_crowd.cdn.warm_tiles_per_chunk = 4;  // warming needs WorldSpec::crowd
  expect_cdn_error(no_crowd, "crowd heatmap");
}

TEST(EngineCdn, EdgeIsThePartitionUnit) {
  engine::WorldSpec spec = cdn_world(2);
  // 6 groups, 3 edges: groups of one edge always share a shard.
  EXPECT_EQ(engine::groups_per_edge(spec), 2);
  for (int g = 0; g < engine::group_count(spec); ++g) {
    EXPECT_EQ(engine::edge_of_group(spec, g), g / 2);
    EXPECT_EQ(engine::shard_of_group(spec, g), (g / 2) % 2);
  }
  // Disabled tier: back to per-group partitioning, edge_of_group = -1.
  engine::WorldSpec off = small_world(2);
  EXPECT_EQ(engine::edge_of_group(off, 3), -1);
  EXPECT_EQ(engine::shard_of_group(off, 3), 1);
}

}  // namespace
}  // namespace sperke
