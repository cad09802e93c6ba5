// Cross-layer chaos integration test (DESIGN.md §10).
//
// Every suite here runs a *seeded* fault schedule — outages, capacity
// collapses, mid-flight transfer failures — through the full stack and
// checks the two promises of the fault model end-to-end:
//   1. Recovery helps: with retries/degradation/failover enabled, sessions
//      strictly beat their no-recovery twins on stalls and blank tiles
//      under the same schedule (the bench_fault_recovery claim, pinned).
//   2. Chaos is deterministic: the same faulted WorldSpec produces
//      byte-identical merged metrics run after run, because failure draws
//      come from the plan's private seeded stream in transfer-start order.
#include <gtest/gtest.h>

#include <memory>
#include <sstream>
#include <string>

#include "core/session.h"
#include "core/transport.h"
#include "engine/engine.h"
#include "engine/world.h"
#include "hmp/head_trace.h"
#include "live/tiled_viewer.h"
#include "mp/multipath.h"
#include "net/link.h"
#include "obs/export.h"
#include "sim/simulator.h"

namespace sperke {
namespace {

constexpr double kVideoSeconds = 20.0;

std::shared_ptr<media::VideoModel> make_video(double duration_s = kVideoSeconds) {
  media::VideoModelConfig cfg;
  cfg.duration_s = duration_s;
  cfg.chunk_duration_s = 1.0;
  cfg.tile_rows = 4;
  cfg.tile_cols = 6;
  cfg.seed = 7;
  return std::make_shared<media::VideoModel>(cfg);
}

hmp::HeadTrace make_trace(std::uint64_t seed, double duration_s = 120.0) {
  hmp::HeadTraceConfig cfg;
  cfg.duration_s = duration_s;
  cfg.sample_rate_hz = 25.0;
  cfg.attractors = hmp::default_attractors(duration_s, 77);
  cfg.seed = seed;
  return hmp::generate_head_trace(cfg);
}

// A mid-stream storm: one hard outage plus a background of seeded
// per-transfer failures. The same plan (same seed) hits the recovery and
// no-recovery arms identically. The background probability is where the
// recovery layer earns its keep: a failed *prefetch* is retried before its
// deadline instead of surfacing as a playback stall chunks later.
net::FaultPlan stormy_plan() {
  net::FaultPlan plan;
  plan.outages.push_back({.start_s = 6.0, .duration_s = 3.0});
  plan.transfer_failure_prob = 0.05;
  plan.seed = 42;
  return plan;
}

core::SessionReport run_vod(bool recovery) {
  sim::Simulator simulator;
  net::Link link(simulator,
                 net::LinkConfig{.name = "dl",
                                 .bandwidth = net::BandwidthTrace::constant(12'000.0),
                                 .rtt = sim::milliseconds(30),
                                 .loss_rate = 0.0,
                                 .faults = stormy_plan()});
  core::TransportOptions options;
  options.recovery.enabled = recovery;
  net::LinkSource source(link);
  core::SingleLinkTransport transport(source, options);
  core::SessionConfig config;
  config.fetch_recovery = recovery;
  auto video = make_video();
  const auto trace = make_trace(33);
  core::StreamingSession session(simulator, video, transport, trace, config);
  session.start();
  simulator.run_until(sim::seconds(kVideoSeconds + 300.0));
  return session.report();
}

TEST(Chaos, VodRecoveryBeatsNoRecoveryUnderSameStorm) {
  const auto off = run_vod(false);
  const auto on = run_vod(true);
  ASSERT_TRUE(off.completed);
  ASSERT_TRUE(on.completed);
  // The storm was felt in both arms...
  EXPECT_GT(off.fetch_failures, 0);
  // ...but retries + base-tier degradation keep playback moving.
  EXPECT_LT(on.qoe.stall_seconds, off.qoe.stall_seconds);
  EXPECT_GE(on.qoe.score, off.qoe.score);
}

TEST(Chaos, VodChaosIsDeterministicAcrossRuns) {
  const auto a = run_vod(true);
  const auto b = run_vod(true);
  EXPECT_EQ(a.qoe.stall_seconds, b.qoe.stall_seconds);
  EXPECT_EQ(a.qoe.bytes_downloaded, b.qoe.bytes_downloaded);
  EXPECT_EQ(a.qoe.score, b.qoe.score);
  EXPECT_EQ(a.fetch_failures, b.fetch_failures);
  EXPECT_EQ(a.degraded_retries, b.degraded_retries);
  EXPECT_EQ(a.fetches, b.fetches);
}

TEST(Chaos, MultipathWifiOutageFailsOverAndProbesBack) {
  // WiFi (the better path) dies mid-stream; FoV traffic must fail over to
  // LTE and come back once the probe sees the outage end.
  sim::Simulator simulator;
  net::FaultPlan wifi_faults;
  wifi_faults.outages.push_back({.start_s = 5.0, .duration_s = 4.0});
  net::Link wifi(simulator,
                 net::LinkConfig{.name = "wifi",
                                 .bandwidth = net::BandwidthTrace::constant(12'000.0),
                                 .rtt = sim::milliseconds(20),
                                 .loss_rate = 0.0,
                                 .faults = std::move(wifi_faults)});
  net::Link lte(simulator,
                net::LinkConfig{.name = "lte",
                                .bandwidth = net::BandwidthTrace::constant(8'000.0),
                                .rtt = sim::milliseconds(60),
                                .loss_rate = 0.005, .faults = {}});
  core::TransportOptions options;
  options.max_concurrent = 2;
  options.recovery.enabled = true;
  mp::MultipathTransport transport(simulator, {&wifi, &lte},
                                   std::make_unique<mp::ContentAwareScheduler>(),
                                   options);
  core::SessionConfig config;
  config.fetch_recovery = true;
  auto video = make_video();
  const auto trace = make_trace(33);
  core::StreamingSession session(simulator, video, transport, trace, config);
  session.start();
  simulator.run_until(sim::seconds(kVideoSeconds + 300.0));

  const auto report = session.report();
  ASSERT_TRUE(report.completed);
  const mp::MultipathStats& stats = transport.stats();
  EXPECT_GT(stats.path_down_events, 0);
  EXPECT_GT(stats.failovers, 0);
  EXPECT_GT(stats.path_downtime_s, 0.0);
  // The probe brought WiFi back after the outage window.
  EXPECT_FALSE(transport.path_down(0));
  // Both paths ended up carrying bytes (LTE during the outage at minimum).
  EXPECT_GT(stats.bytes_per_path[0], 0);
  EXPECT_GT(stats.bytes_per_path[1], 0);
}

live::TiledLiveReport run_live(bool recovery) {
  sim::Simulator simulator;
  net::FaultPlan plan;
  plan.outages.push_back({.start_s = 12.0, .duration_s = 2.0});
  plan.transfer_failure_prob = 0.15;
  plan.seed = 7;
  net::Link link(simulator,
                 net::LinkConfig{.name = "dl",
                                 .bandwidth = net::BandwidthTrace::constant(20'000.0),
                                 .rtt = sim::milliseconds(30),
                                 .loss_rate = 0.0,
                                 .faults = std::move(plan)});
  core::TransportOptions options;
  options.max_concurrent = 12;
  options.recovery.enabled = recovery;
  net::LinkSource source(link);
  core::SingleLinkTransport transport(source, options);
  live::TiledLiveConfig config;
  config.fetch_recovery = recovery;
  auto video = make_video(30.0);
  const auto trace = make_trace(5);
  live::TiledLiveSession session(simulator, video, transport, trace, config);
  session.start();
  simulator.run_until(sim::seconds(120.0));
  return session.report();
}

TEST(Chaos, TiledLiveDegradedRetriesReduceBlankTiles) {
  const auto off = run_live(false);
  const auto on = run_live(true);
  ASSERT_TRUE(off.finished);
  ASSERT_TRUE(on.finished);
  EXPECT_GT(off.fetch_failures, 0);
  EXPECT_GT(on.degraded_retries, 0);
  // Live never stalls — losses surface as blank tiles, and base-tier
  // re-requests shrink them.
  EXPECT_LT(on.mean_blank_fraction, off.mean_blank_fraction);
  EXPECT_GE(on.chunks_played, off.chunks_played);
}

std::string metrics_csv(const obs::MetricsRegistry& registry) {
  std::ostringstream out;
  obs::write_metrics_csv(out, registry);
  return out.str();
}

TEST(Chaos, FaultedWorldIsByteIdenticalRunToRun) {
  // The engine-level chaos contract from the consumer's side: build the
  // same faulted world twice, run both multi-threaded, and demand the full
  // CSV export match byte for byte (names, order, every count/sum/min/max
  // — including the net.outage_s exposure histogram).
  auto chaos_world = [] {
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
    spec.sessions = 12;
    spec.horizon = sim::seconds(180.0);
    spec.shards = 3;
    spec.seed = 5;
    spec.session_telemetry = true;
    spec.faults = stormy_plan();
    spec.transport_recovery.enabled = true;
    spec.session.fetch_recovery = true;
    return spec;
  };
  engine::EngineResult a = engine::run_world(chaos_world(), {.threads = 3});
  engine::EngineResult b = engine::run_world(chaos_world(), {.threads = 3});
  EXPECT_EQ(metrics_csv(a.metrics), metrics_csv(b.metrics));
  EXPECT_EQ(a.events_executed, b.events_executed);
  // The world was genuinely chaotic: outage exposure was recorded for
  // every link group, and the recovery layer did real work.
  const obs::Histogram* outage = a.metrics.find_histogram("net.outage_s");
  ASSERT_NE(outage, nullptr);
  EXPECT_EQ(outage->count(), 3);  // one observation per link group
  EXPECT_GT(outage->sum(), 0.0);
  const obs::Counter* retries = a.metrics.find_counter("transport.retries");
  ASSERT_NE(retries, nullptr);
  EXPECT_GT(retries->value(), 0);
}

}  // namespace
}  // namespace sperke
