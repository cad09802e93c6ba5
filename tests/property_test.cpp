// Property-based suites: invariants that must hold across the whole
// configuration space (projections x grids, ladders, encoding modes,
// network shapes), exercised with parameterized sweeps and seeded
// randomized inputs.
#include <gtest/gtest.h>

#include <memory>
#include <numeric>
#include <tuple>

#include "abr/oos.h"
#include "core/session.h"
#include "core/transport.h"
#include "hmp/fusion.h"
#include "hmp/head_trace.h"
#include "net/link.h"
#include "obs/telemetry.h"
#include "sim/simulator.h"
#include "util/rng.h"

namespace sperke {
namespace {

// ---------------------------------------------------------------------------
// Geometry invariants across projection x grid.

using GeoParam = std::tuple<const char*, int, int>;  // projection, rows, cols

class GeometryProperty : public ::testing::TestWithParam<GeoParam> {
 protected:
  geo::TileGeometry make() const {
    const auto& [proj, rows, cols] = GetParam();
    return geo::TileGeometry(geo::make_projection(proj), geo::TileGrid(rows, cols));
  }
};

TEST_P(GeometryProperty, SolidAnglesPartitionTheSphere) {
  const auto tg = make();
  const auto& w = tg.solid_angle_fractions();
  EXPECT_NEAR(std::accumulate(w.begin(), w.end(), 0.0), 1.0, 1e-9);
}

TEST_P(GeometryProperty, EveryOrientationSeesSomething) {
  const auto tg = make();
  Rng rng(3);
  for (int i = 0; i < 40; ++i) {
    const geo::Orientation o{rng.uniform(-180.0, 180.0), rng.uniform(-80.0, 80.0),
                             rng.uniform(-180.0, 180.0)};
    const auto visible = tg.visible_tiles(o, {100.0, 90.0});
    EXPECT_FALSE(visible.empty());
    // The tile under the gaze direction is always in the set.
    const auto center = tg.grid().tile_at(
        tg.projection().uv_from_direction(o.direction()));
    EXPECT_TRUE(std::find(visible.begin(), visible.end(), center) !=
                visible.end());
  }
}

TEST_P(GeometryProperty, RingsCoverTheGridFromAnyFov) {
  const auto tg = make();
  const auto visible = tg.visible_tiles({30.0, 10.0, 0.0}, {100.0, 90.0});
  const auto rings = tg.oos_rings(visible);
  for (geo::TileId id = 0; id < tg.grid().tile_count(); ++id) {
    EXPECT_GE(rings[static_cast<std::size_t>(id)], 0);
    EXPECT_LT(rings[static_cast<std::size_t>(id)], tg.grid().tile_count());
  }
}

INSTANTIATE_TEST_SUITE_P(
    ProjectionsAndGrids, GeometryProperty,
    ::testing::Values(GeoParam{"equirectangular", 2, 4},
                      GeoParam{"equirectangular", 4, 6},
                      GeoParam{"equirectangular", 8, 12},
                      GeoParam{"cubemap", 2, 3}, GeoParam{"cubemap", 4, 6},
                      GeoParam{"cubemap", 6, 9}));

// ---------------------------------------------------------------------------
// Video model invariants across ladders and overheads.

using MediaParam = std::tuple<int, double>;  // ladder rungs, svc overhead

class VideoModelProperty : public ::testing::TestWithParam<MediaParam> {
 protected:
  std::shared_ptr<media::VideoModel> make() const {
    const auto& [rungs, overhead] = GetParam();
    std::vector<double> ladder;
    double kbps = 800.0;
    for (int i = 0; i < rungs; ++i) {
      ladder.push_back(kbps);
      kbps *= 1.9;
    }
    media::VideoModelConfig cfg;
    cfg.duration_s = 8.0;
    cfg.tile_rows = 3;
    cfg.tile_cols = 4;
    cfg.ladder = media::QualityLadder(std::move(ladder));
    cfg.svc_overhead = overhead;
    cfg.seed = 31;
    return std::make_shared<media::VideoModel>(cfg);
  }
};

TEST_P(VideoModelProperty, SizesStrictlyIncreaseInQuality) {
  auto video = make();
  for (geo::TileId tile = 0; tile < video->tile_count(); ++tile) {
    for (media::ChunkIndex t = 0; t < video->chunk_count(); ++t) {
      for (media::QualityLevel q = 1; q < video->ladder().levels(); ++q) {
        EXPECT_GT(video->avc_size_bytes(q, {tile, t}),
                  video->avc_size_bytes(q - 1, {tile, t}));
      }
    }
  }
}

TEST_P(VideoModelProperty, SvcLayersAlwaysRecomposeExactly) {
  auto video = make();
  const auto top = video->ladder().max_level();
  for (geo::TileId tile = 0; tile < video->tile_count(); ++tile) {
    const media::ChunkKey key{tile, 1};
    std::int64_t sum = 0;
    for (media::LayerIndex l = 0; l <= top; ++l) {
      const auto layer = video->svc_layer_size_bytes(l, key);
      EXPECT_GE(layer, 0);
      sum += layer;
    }
    EXPECT_EQ(sum, video->svc_cumulative_size_bytes(top, key));
    EXPECT_GE(video->svc_cumulative_size_bytes(top, key),
              video->avc_size_bytes(top, key));
  }
}

TEST_P(VideoModelProperty, PanoramaBytesScaleWithLadder) {
  auto video = make();
  auto panorama_bytes = [&](media::QualityLevel q) {
    std::int64_t total = 0;
    for (geo::TileId tile = 0; tile < video->tile_count(); ++tile) {
      total += video->avc_size_bytes(q, {tile, 0});
    }
    return total;
  };
  for (media::QualityLevel q = 1; q < video->ladder().levels(); ++q) {
    const double ratio = static_cast<double>(panorama_bytes(q)) /
                         static_cast<double>(panorama_bytes(q - 1));
    const double ladder_ratio = video->ladder().panorama_kbps(q) /
                                video->ladder().panorama_kbps(q - 1);
    EXPECT_NEAR(ratio, ladder_ratio, ladder_ratio * 0.02);
  }
}

INSTANTIATE_TEST_SUITE_P(LaddersAndOverheads, VideoModelProperty,
                         ::testing::Combine(::testing::Values(2, 4, 6),
                                            ::testing::Values(0.0, 0.1, 0.3)));

// ---------------------------------------------------------------------------
// Link byte conservation under randomized concurrent workloads.

TEST(LinkProperty, DeliveredBytesMatchCompletedTransfers) {
  Rng rng(91);
  for (int round = 0; round < 5; ++round) {
    sim::Simulator simulator;
    net::Link link(simulator,
                   net::LinkConfig{.bandwidth = net::BandwidthTrace::random_walk(
                                       8000.0, 0.4, 0.5, 120.0, 7 + round, 500.0),
                                   .rtt = sim::milliseconds(20), .faults = {}});
    std::int64_t expected = 0;
    int completed = 0;
    int started = 0;
    for (double t = 0.0; t < 30.0; t += rng.exponential(1.0)) {
      const auto bytes = static_cast<std::int64_t>(rng.uniform(10'000.0, 2e6));
      ++started;
      simulator.schedule_at(sim::seconds(t), [&link, &expected, &completed, bytes] {
        link.start_transfer(bytes,
                            [&expected, &completed, bytes](const net::TransferResult& r) {
                              ASSERT_EQ(r.status, net::TransferStatus::kCompleted);
                              expected += bytes;
                              ++completed;
                            });
      });
    }
    simulator.run();
    EXPECT_EQ(completed, started);
    EXPECT_EQ(link.bytes_delivered(), expected);
  }
}

// ---------------------------------------------------------------------------
// Retry-with-backoff invariants (DESIGN.md §10): across randomized outage
// plans, deadlines and retry policies, a request (a) settles exactly once,
// (b) never retries past its budget, and (c) never *starts* a retry at or
// past its playback deadline.

TEST(RecoveryProperty, RetryBudgetAndDeadlineNeverExceeded) {
  Rng rng(77);
  int delivered_total = 0;
  int unfinished_total = 0;
  for (int round = 0; round < 8; ++round) {
    sim::Simulator simulator;
    obs::Telemetry telemetry;
    // One outage covering every first attempt: all requests go out at t=0
    // and fail fast (RTT), so every delivery is a retry delivery and the
    // deadline gate applies to it.
    net::FaultPlan faults;
    const double outage_s = rng.uniform(0.8, 1.2);
    faults.outages.push_back({.start_s = 0.0, .duration_s = outage_s});
    net::Link link(simulator,
                   net::LinkConfig{.bandwidth = net::BandwidthTrace::constant(8'000.0),
                                   .rtt = sim::milliseconds(20),
                                   .loss_rate = 0.0,
                                   .faults = std::move(faults)});
    core::TransportOptions options;
    options.max_concurrent = 1;
    options.telemetry = &telemetry;
    options.recovery.enabled = true;
    options.recovery.max_retries = rng.uniform_int(1, 4);
    options.recovery.base_backoff =
        sim::milliseconds(rng.uniform_int(150, 400));
    options.recovery.backoff_multiplier = rng.uniform(1.0, 2.5);
    net::LinkSource source(link);
    core::SingleLinkTransport transport(source, options);

    const int requests = 12;
    std::vector<int> fired(requests, 0);
    std::vector<sim::Time> settled(requests, sim::kTimeZero);
    std::vector<core::FetchOutcome> outcomes(
        requests, core::FetchOutcome::kDropped);
    std::vector<sim::Time> deadlines(requests, sim::kTimeZero);
    for (int i = 0; i < requests; ++i) {
      core::ChunkRequest req;
      req.id = net::to_chunk_id(
          {{static_cast<geo::TileId>(i % 8), 0}, media::Encoding::kAvc, 0});
      req.bytes = rng.uniform_int(50'000, 500'000);
      req.deadline = sim::seconds(rng.uniform(outage_s + 0.1, 5.0));
      deadlines[static_cast<std::size_t>(i)] = req.deadline;
      req.on_done = [&fired, &settled, &outcomes, i](sim::Time t,
                                                     core::FetchOutcome o) {
        ++fired[static_cast<std::size_t>(i)];
        settled[static_cast<std::size_t>(i)] = t;
        outcomes[static_cast<std::size_t>(i)] = o;
      };
      transport.fetch(std::move(req));
    }
    simulator.run_until(sim::seconds(60.0));

    const auto* retries = telemetry.metrics().find_counter("transport.retries");
    ASSERT_NE(retries, nullptr);
    // (b) Aggregate retry budget: never more than max_retries per request.
    EXPECT_LE(retries->value(),
              static_cast<std::int64_t>(requests) *
                  options.recovery.max_retries);
    // A retry dispatch is gated on `now < deadline` and (with one transfer
    // at a time on an 8 Mbps link) finishes within bytes/capacity + RTT.
    const sim::Duration max_transfer =
        sim::seconds(500'000.0 / 1'000'000.0) + sim::milliseconds(100);
    for (int i = 0; i < requests; ++i) {
      const auto s = static_cast<std::size_t>(i);
      // (a) Exactly-once settlement.
      EXPECT_EQ(fired[s], 1) << "request " << i;
      if (core::delivered(outcomes[s])) {
        ++delivered_total;
        // (c) Delivery implies its (retry) dispatch started pre-deadline.
        EXPECT_LT(settled[s], deadlines[s] + max_transfer) << "request " << i;
      } else {
        ++unfinished_total;
      }
    }
  }
  // Non-vacuity: the sweep produced both recoveries and casualties.
  EXPECT_GT(delivered_total, 0);
  EXPECT_GT(unfinished_total, 0);
}

// ---------------------------------------------------------------------------
// Fusion probability maps are distributions under any context.

TEST(FusionProperty, AlwaysADistribution) {
  auto geometry = std::make_shared<geo::TileGeometry>(
      geo::make_projection("equirectangular"), geo::TileGrid(4, 6));
  Rng rng(17);
  for (int round = 0; round < 30; ++round) {
    hmp::ViewingContext context;
    if (rng.bernoulli(0.5)) context.max_speed_dps = rng.uniform(20.0, 200.0);
    if (rng.bernoulli(0.5)) {
      context.pose = rng.bernoulli(0.5) ? hmp::Pose::kLying : hmp::Pose::kSitting;
    }
    hmp::FusionPredictor fusion(geometry, {100.0, 90.0},
                                hmp::make_orientation_predictor("dead-reckoning"),
                                nullptr, context);
    for (int i = 0; i < 5; ++i) {
      fusion.observe({sim::milliseconds(40 * i),
                      {rng.uniform(-180.0, 180.0), rng.uniform(-60.0, 60.0), 0.0}});
    }
    const auto probs =
        fusion.tile_probabilities(sim::seconds(rng.uniform(0.0, 4.0)), 0);
    double sum = 0.0;
    for (double p : probs) {
      EXPECT_GE(p, 0.0);
      sum += p;
    }
    EXPECT_NEAR(sum, 1.0, 1e-9);
  }
}

// ---------------------------------------------------------------------------
// OOS selection never duplicates FoV tiles and respects budgets.

TEST(OosProperty, NeverSelectsFovTilesAndRespectsBudget) {
  media::VideoModelConfig cfg;
  cfg.duration_s = 4.0;
  cfg.seed = 3;
  auto video = std::make_shared<media::VideoModel>(cfg);
  Rng rng(41);
  for (int round = 0; round < 25; ++round) {
    std::vector<double> probs(static_cast<std::size_t>(video->tile_count()));
    double total = 0.0;
    for (double& p : probs) {
      p = rng.uniform(0.0, 1.0);
      total += p;
    }
    for (double& p : probs) p /= total;
    std::vector<geo::TileId> fov;
    for (geo::TileId t = 0; t < video->tile_count(); ++t) {
      if (rng.bernoulli(0.3)) fov.push_back(t);
    }
    if (fov.empty()) fov.push_back(0);

    const double budget = rng.uniform(0.0, 1.5);
    abr::OosSelector selector({.budget_fraction = budget,
                               .accuracy_scaling = false});
    abr::ChunkPlan plan;
    plan.index = 1;
    plan.fov_quality = static_cast<media::QualityLevel>(rng.uniform_int(0, 4));
    for (geo::TileId t : fov) {
      plan.fetches.push_back(
          {{{t, 1}, media::Encoding::kAvc, plan.fov_quality},
           abr::SpatialClass::kFov, 0.1});
    }
    const auto fov_bytes = plan.total_bytes(*video);
    selector.select(plan, *video, fov, probs, media::Encoding::kAvc);
    std::int64_t oos_bytes = 0;
    for (const auto& f : plan.fetches) {
      if (f.spatial != abr::SpatialClass::kOos) continue;
      EXPECT_TRUE(std::find(fov.begin(), fov.end(), f.address.key.tile) ==
                  fov.end());
      EXPECT_LE(f.address.level, plan.fov_quality);
      oos_bytes += video->size_bytes(f.address);
    }
    EXPECT_LE(static_cast<double>(oos_bytes),
              budget * static_cast<double>(fov_bytes) + 1.0);
  }
}

// ---------------------------------------------------------------------------
// End-to-end session invariants across encoding modes and planners.

using SessionParam = std::tuple<abr::EncodingMode, core::PlannerMode>;

class SessionProperty : public ::testing::TestWithParam<SessionParam> {};

TEST_P(SessionProperty, InvariantsHoldEndToEnd) {
  const auto& [mode, planner] = GetParam();
  media::VideoModelConfig vcfg;
  vcfg.duration_s = 12.0;
  vcfg.tile_rows = 2;
  vcfg.tile_cols = 4;
  vcfg.seed = 9;
  auto video = std::make_shared<media::VideoModel>(vcfg);
  hmp::HeadTraceConfig tcfg;
  tcfg.duration_s = 60.0;
  tcfg.seed = 5;
  const auto trace = hmp::generate_head_trace(tcfg);

  sim::Simulator simulator;
  net::Link link(simulator,
                 net::LinkConfig{.bandwidth = net::BandwidthTrace::constant(15'000.0),
                                 .rtt = sim::milliseconds(25), .faults = {}});
  net::LinkSource source(link);
  core::SingleLinkTransport transport(source, {.max_concurrent = 8, .recovery = {}});
  core::SessionConfig config;
  config.abr.sperke.mode = mode;
  config.planner = planner;
  core::StreamingSession session(simulator, video, transport, trace, config);
  session.start();
  simulator.run_until(sim::seconds(500.0));

  const auto report = session.report();
  EXPECT_TRUE(report.completed);
  EXPECT_EQ(report.qoe.chunks_played, video->chunk_count());
  EXPECT_GE(report.qoe.mean_viewport_utility, 0.0);
  EXPECT_LE(report.qoe.mean_viewport_utility, 1.0);
  EXPECT_GE(report.qoe.bytes_downloaded, 0);
  EXPECT_LE(report.qoe.bytes_wasted, report.qoe.bytes_downloaded);
  EXPECT_EQ(static_cast<int>(report.viewport_utility_per_chunk.size()),
            video->chunk_count());
}

TEST_P(SessionProperty, DeterministicAcrossRuns) {
  const auto& [mode, planner] = GetParam();
  auto run_once = [&] {
    media::VideoModelConfig vcfg;
    vcfg.duration_s = 8.0;
    vcfg.tile_rows = 2;
    vcfg.tile_cols = 4;
    vcfg.seed = 9;
    auto video = std::make_shared<media::VideoModel>(vcfg);
    hmp::HeadTraceConfig tcfg;
    tcfg.duration_s = 40.0;
    tcfg.seed = 5;
    const auto trace = hmp::generate_head_trace(tcfg);
    sim::Simulator simulator;
    net::Link link(simulator,
                   net::LinkConfig{.bandwidth = net::BandwidthTrace::random_walk(
                                       9'000.0, 0.3, 1.0, 200.0, 4),
                                   .rtt = sim::milliseconds(25), .faults = {}});
    net::LinkSource source(link);
    core::SingleLinkTransport transport(source, {.max_concurrent = 8, .recovery = {}});
    core::SessionConfig config;
    config.abr.sperke.mode = mode;
    config.planner = planner;
    core::StreamingSession session(simulator, video, transport, trace, config);
    session.start();
    simulator.run_until(sim::seconds(400.0));
    return session.report();
  };
  const auto a = run_once();
  const auto b = run_once();
  EXPECT_EQ(a.qoe.bytes_downloaded, b.qoe.bytes_downloaded);
  EXPECT_EQ(a.qoe.bytes_wasted, b.qoe.bytes_wasted);
  EXPECT_EQ(a.fetches, b.fetches);
  EXPECT_EQ(a.upgrades, b.upgrades);
  EXPECT_DOUBLE_EQ(a.qoe.score, b.qoe.score);
}

INSTANTIATE_TEST_SUITE_P(
    ModesAndPlanners, SessionProperty,
    ::testing::Combine(::testing::Values(abr::EncodingMode::kAvcNoUpgrade,
                                         abr::EncodingMode::kAvcRefetch,
                                         abr::EncodingMode::kSvc,
                                         abr::EncodingMode::kHybrid),
                       ::testing::Values(core::PlannerMode::kFovGuided,
                                         core::PlannerMode::kFovAgnostic)));

// ---------------------------------------------------------------------------
// Head trace CSV round trip.

TEST(HeadTraceCsv, RoundTripPreservesOrientations) {
  hmp::HeadTraceConfig cfg;
  cfg.duration_s = 5.0;
  cfg.seed = 23;
  const auto trace = hmp::generate_head_trace(cfg);
  const auto restored = hmp::head_trace_from_csv(hmp::to_csv(trace), 25.0);
  ASSERT_EQ(restored.samples().size(), trace.samples().size());
  for (std::size_t i = 0; i < trace.samples().size(); i += 17) {
    EXPECT_NEAR(restored.samples()[i].orientation.yaw_deg,
                trace.samples()[i].orientation.yaw_deg, 1e-4);
    EXPECT_NEAR(restored.samples()[i].orientation.pitch_deg,
                trace.samples()[i].orientation.pitch_deg, 1e-4);
  }
}

TEST(HeadTraceCsv, RejectsMalformedInput) {
  EXPECT_THROW((void)hmp::head_trace_from_csv("", 25.0), std::runtime_error);
  EXPECT_THROW((void)hmp::head_trace_from_csv("a,b\n1,2\n", 25.0),
               std::runtime_error);
}

}  // namespace
}  // namespace sperke
