// Cross-module integration tests: whole streaming sessions exercising the
// paper's claims end to end (FoV-guided savings, SVC upgrades, crowd-aware
// HMP, multipath), at small scale so they run fast under ctest.
//
// Single-link worlds are described as engine::WorldSpec and run through
// engine::ShardedEngine — the declarative path shared with the benches and
// examples. Multipath topologies are not (yet) part of the engine's link
// model and keep wiring the simulator directly; their transport still
// fetches through a net::LinkSource per path on the same core dispatch
// lane as the single-link worlds.
#include <gtest/gtest.h>

#include <memory>
#include <utility>

#include "core/session.h"
#include "core/transport.h"
#include "engine/engine.h"
#include "engine/world.h"
#include "hmp/heatmap.h"
#include "mp/multipath.h"
#include "net/link.h"
#include "sim/simulator.h"

namespace sperke {
namespace {

constexpr double kVideoSeconds = 20.0;

media::VideoModelConfig video_config() {
  media::VideoModelConfig cfg;
  cfg.duration_s = kVideoSeconds;
  cfg.chunk_duration_s = 1.0;
  cfg.tile_rows = 4;
  cfg.tile_cols = 6;
  cfg.seed = 11;
  return cfg;
}

std::shared_ptr<media::VideoModel> make_video() {
  return std::make_shared<media::VideoModel>(video_config());
}

hmp::HeadTraceConfig trace_config(std::uint64_t seed) {
  hmp::HeadTraceConfig cfg;
  cfg.duration_s = kVideoSeconds + 60.0;
  cfg.sample_rate_hz = 25.0;
  cfg.profile = hmp::UserProfile::adult();
  cfg.attractors = hmp::default_attractors(cfg.duration_s, 99);
  cfg.seed = seed;
  return cfg;
}

hmp::HeadTrace make_trace(std::uint64_t seed) {
  return hmp::generate_head_trace(trace_config(seed));
}

// One-session world on one link, the workhorse harness of this suite.
core::SessionReport run_one_session(net::LinkConfig link,
                                    core::SessionConfig config,
                                    std::uint64_t trace_seed,
                                    const hmp::ViewingHeatmap* crowd,
                                    double horizon_s) {
  engine::WorldSpec spec;
  spec.video = video_config();
  spec.trace_template = trace_config(trace_seed);
  spec.trace_pool = 1;
  spec.link = std::move(link);
  spec.transport_max_concurrent = 4;
  spec.sessions = 1;
  spec.session = std::move(config);
  spec.crowd = crowd;
  spec.horizon = sim::seconds(horizon_s);
  spec.shards = 1;
  engine::EngineResult result = engine::run_world(std::move(spec));
  return std::move(result.reports.front());
}

core::SessionReport run_single_link(double kbps, core::SessionConfig config,
                                    std::uint64_t trace_seed = 21,
                                    const hmp::ViewingHeatmap* crowd = nullptr) {
  net::LinkConfig link{.name = "link",
                       .bandwidth = net::BandwidthTrace::constant(kbps),
                       .rtt = sim::milliseconds(30),
                       .loss_rate = 0.0, .faults = {}};
  return run_one_session(std::move(link), std::move(config), trace_seed, crowd,
                         kVideoSeconds + 200.0);
}

TEST(Integration, FovGuidedSavesSubstantialBandwidth) {
  // §2: tiling saves ~45-80% of bytes vs FoV-agnostic delivery.
  core::SessionConfig guided;
  guided.abr.sperke.regular_vra = "fixed-3";
  core::SessionConfig agnostic;
  agnostic.planner = core::PlannerMode::kFovAgnostic;
  agnostic.abr.sperke.regular_vra = "fixed-3";
  const auto g = run_single_link(60'000.0, guided);
  const auto a = run_single_link(60'000.0, agnostic);
  ASSERT_TRUE(g.completed);
  ASSERT_TRUE(a.completed);
  const double saving = 1.0 - static_cast<double>(g.qoe.bytes_downloaded) /
                                  static_cast<double>(a.qoe.bytes_downloaded);
  EXPECT_GT(saving, 0.30);
  EXPECT_LT(saving, 0.90);
}

TEST(Integration, FovGuidedMatchesAgnosticQualityAtLowerCost) {
  core::SessionConfig guided;
  core::SessionConfig agnostic;
  agnostic.planner = core::PlannerMode::kFovAgnostic;
  // At constrained bandwidth the guided client should show *better*
  // viewport quality: it spends bytes only where the user looks.
  const auto g = run_single_link(5'000.0, guided);
  const auto a = run_single_link(5'000.0, agnostic);
  ASSERT_TRUE(g.completed);
  ASSERT_TRUE(a.completed);
  EXPECT_GT(g.qoe.mean_viewport_utility, a.qoe.mean_viewport_utility);
}

TEST(Integration, SvcBeatsAvcNoUpgradeOnViewportQuality) {
  // §3.1: with imperfect HMP, the ability to upgrade mispredicted tiles
  // should lift displayed quality.
  core::SessionConfig svc;
  svc.abr.sperke.mode = abr::EncodingMode::kSvc;
  core::SessionConfig avc;
  avc.abr.sperke.mode = abr::EncodingMode::kAvcNoUpgrade;
  const auto r_svc = run_single_link(15'000.0, svc);
  const auto r_avc = run_single_link(15'000.0, avc);
  ASSERT_TRUE(r_svc.completed);
  ASSERT_TRUE(r_avc.completed);
  EXPECT_GE(r_svc.qoe.mean_viewport_utility, r_avc.qoe.mean_viewport_utility);
}

TEST(Integration, CrowdPriorDoesNotHurtQoe) {
  // Build a crowd heatmap from other users of the same video.
  auto video = make_video();
  hmp::ViewingHeatmap crowd(video->tile_count(), video->chunk_count());
  for (std::uint64_t seed = 100; seed < 110; ++seed) {
    crowd.add_trace(make_trace(seed), video->geometry(), {100.0, 90.0},
                    video->chunk_duration());
  }
  core::SessionConfig config;
  const auto with_crowd = run_single_link(15'000.0, config, 21, &crowd);
  const auto without = run_single_link(15'000.0, config, 21, nullptr);
  ASSERT_TRUE(with_crowd.completed);
  ASSERT_TRUE(without.completed);
  EXPECT_GE(with_crowd.qoe.score, without.qoe.score - 1.0);
}

TEST(Integration, SessionOverMultipathTransport) {
  sim::Simulator simulator;
  net::Link wifi(simulator,
                 net::LinkConfig{.name = "wifi",
                                 .bandwidth = net::BandwidthTrace::constant(12'000.0),
                                 .rtt = sim::milliseconds(20),
                                 .loss_rate = 0.0, .faults = {}});
  net::Link lte(simulator,
                net::LinkConfig{.name = "lte",
                                .bandwidth = net::BandwidthTrace::constant(6'000.0),
                                .rtt = sim::milliseconds(60),
                                .loss_rate = 0.005, .faults = {}});
  mp::MultipathTransport transport(simulator, {&wifi, &lte},
                                   std::make_unique<mp::ContentAwareScheduler>());
  auto video = make_video();
  const auto trace = make_trace(33);
  core::StreamingSession session(simulator, video, transport, trace,
                                 core::SessionConfig{});
  session.start();
  simulator.run_until(sim::seconds(kVideoSeconds + 200.0));
  const auto report = session.report();
  ASSERT_TRUE(report.completed);
  EXPECT_EQ(report.qoe.chunks_played, static_cast<int>(kVideoSeconds));
  // Both paths carried traffic, FoV went to the better one.
  const auto& stats = transport.stats();
  EXPECT_GT(stats.bytes_per_path[0], 0);
  EXPECT_GT(stats.bytes_per_path[1], 0);
  EXPECT_GT(stats.class_counts[2] + stats.class_counts[0], 0);  // FoV classes
  EXPECT_GT(stats.class_counts[3], 0);                          // OOS regular
}

TEST(Integration, MultipathAggregatesBandwidthUnderLoad) {
  // Pin the quality to a level whose FoV demand (~5 Mbps) exceeds one
  // path's capacity: alone, the session must stall; aggregated over both
  // paths, it should keep up.
  auto run = [&](bool use_both) {
    sim::Simulator simulator;
    net::Link wifi(simulator,
                   net::LinkConfig{.name = "wifi",
                                   .bandwidth = net::BandwidthTrace::constant(5'000.0),
                                   .rtt = sim::milliseconds(20), .faults = {}});
    net::Link lte(simulator,
                  net::LinkConfig{.name = "lte",
                                  .bandwidth = net::BandwidthTrace::constant(5'000.0),
                                  .rtt = sim::milliseconds(50), .faults = {}});
    std::unique_ptr<mp::PathScheduler> scheduler;
    if (use_both) {
      scheduler = std::make_unique<mp::MinRttScheduler>();
    } else {
      scheduler = std::make_unique<mp::SinglePathScheduler>(0);
    }
    mp::MultipathTransport transport(simulator, {&wifi, &lte}, std::move(scheduler));
    auto video = make_video();
    const auto trace = make_trace(44);
    core::SessionConfig config;
    config.abr.sperke.regular_vra = "fixed-3";
    core::StreamingSession session(simulator, video, transport, trace, config);
    session.start();
    simulator.run_until(sim::seconds(kVideoSeconds + 400.0));
    return session.report();
  };
  const auto both = run(true);
  const auto single = run(false);
  ASSERT_TRUE(both.completed);
  EXPECT_LT(both.qoe.stall_seconds, single.qoe.stall_seconds);
}

TEST(Integration, FluctuatingBandwidthStillCompletes) {
  net::LinkConfig link{.name = "lte",
                       .bandwidth = net::BandwidthTrace::random_walk(
                           10'000.0, 0.4, 1.0, 300.0, 3, 1'500.0, 40'000.0),
                       .rtt = sim::milliseconds(40),
                       .loss_rate = 0.0, .faults = {}};
  const auto report = run_one_session(std::move(link), core::SessionConfig{},
                                      55, nullptr, 400.0);
  EXPECT_TRUE(report.completed);
  EXPECT_EQ(report.qoe.chunks_played, static_cast<int>(kVideoSeconds));
}

TEST(Integration, TotalOutageStallsThenRecovers) {
  // Failure injection: the link goes fully dark for 10 s mid-session. The
  // session must stall (not crash, not skip) and finish after recovery.
  net::LinkConfig link{.name = "flaky",
                       .bandwidth = net::BandwidthTrace::steps(
                           {{0.0, 20'000.0}, {6.0, 0.0}, {16.0, 20'000.0}}),
                       .rtt = sim::milliseconds(30), .faults = {}};
  const auto report = run_one_session(std::move(link), core::SessionConfig{},
                                      66, nullptr, 300.0);
  EXPECT_TRUE(report.completed);
  EXPECT_EQ(report.qoe.chunks_played, static_cast<int>(kVideoSeconds));
  EXPECT_GT(report.qoe.stall_seconds, 1.0);   // the outage hurt...
  EXPECT_LT(report.qoe.stall_seconds, 15.0);  // ...but recovery was prompt
}

TEST(Integration, LossySpikyLinkStillCompletes) {
  // Failure injection: heavy random loss plus a bursty two-state channel.
  net::LinkConfig link{.name = "lossy",
                       .bandwidth = net::BandwidthTrace::markov_two_state(
                           12'000.0, 800.0, 6.0, 3.0, 400.0, 9),
                       .rtt = sim::milliseconds(80),
                       .loss_rate = 0.01, .faults = {}};
  const auto report = run_one_session(std::move(link), core::SessionConfig{},
                                      77, nullptr, 2'000.0);
  EXPECT_TRUE(report.completed);
  EXPECT_EQ(report.qoe.chunks_played, static_cast<int>(kVideoSeconds));
}

TEST(Integration, BufferVraAndMpcAlsoDriveSessions) {
  for (const char* vra : {"buffer", "mpc"}) {
    core::SessionConfig config;
    config.abr.sperke.regular_vra = vra;
    const auto report = run_single_link(20'000.0, config);
    EXPECT_TRUE(report.completed) << vra;
    EXPECT_EQ(report.qoe.chunks_played, static_cast<int>(kVideoSeconds)) << vra;
  }
}

}  // namespace
}  // namespace sperke
