#include <gtest/gtest.h>

#include <memory>
#include <utility>
#include <vector>

#include "core/buffer.h"
#include "core/session.h"
#include "core/transport.h"
#include "hmp/head_trace.h"
#include "net/link.h"
#include "sim/simulator.h"

namespace sperke::core {
namespace {

using media::ChunkAddress;
using media::ChunkKey;
using media::Encoding;

std::shared_ptr<media::VideoModel> make_video(double duration_s = 20.0) {
  media::VideoModelConfig cfg;
  cfg.duration_s = duration_s;
  cfg.chunk_duration_s = 1.0;
  cfg.tile_rows = 2;
  cfg.tile_cols = 4;
  cfg.seed = 7;
  return std::make_shared<media::VideoModel>(cfg);
}

TEST(PlaybackBuffer, EmptyHasNothing) {
  PlaybackBuffer buffer(make_video());
  EXPECT_EQ(buffer.displayable_quality({0, 0}), -1);
  EXPECT_FALSE(buffer.has_displayable({0, 0}));
  EXPECT_EQ(buffer.total_bytes(), 0);
}

TEST(PlaybackBuffer, AvcBestCopyWins) {
  PlaybackBuffer buffer(make_video());
  buffer.add({{1, 2}, Encoding::kAvc, 1});
  buffer.add({{1, 2}, Encoding::kAvc, 3});
  buffer.add({{1, 2}, Encoding::kAvc, 0});
  EXPECT_EQ(buffer.displayable_quality({1, 2}), 3);
}

TEST(PlaybackBuffer, SvcNeedsContiguousLayers) {
  PlaybackBuffer buffer(make_video());
  buffer.add({{0, 0}, Encoding::kSvc, 0});
  buffer.add({{0, 0}, Encoding::kSvc, 2});  // layer 1 missing
  EXPECT_EQ(buffer.displayable_quality({0, 0}), 0);
  buffer.add({{0, 0}, Encoding::kSvc, 1});
  EXPECT_EQ(buffer.displayable_quality({0, 0}), 2);
}

TEST(PlaybackBuffer, SvcEnhancementAloneNotPlayable) {
  PlaybackBuffer buffer(make_video());
  buffer.add({{0, 0}, Encoding::kSvc, 1});
  EXPECT_EQ(buffer.displayable_quality({0, 0}), -1);
}

TEST(PlaybackBuffer, DuplicateAddsCountOnce) {
  auto video = make_video();
  PlaybackBuffer buffer(video);
  const ChunkAddress addr{{0, 0}, Encoding::kAvc, 2};
  buffer.add(addr);
  const auto once = buffer.total_bytes();
  buffer.add(addr);
  EXPECT_EQ(buffer.total_bytes(), once);
}

TEST(PlaybackBuffer, MixedEncodingsTakeMax) {
  PlaybackBuffer buffer(make_video());
  buffer.add({{0, 0}, Encoding::kAvc, 1});
  buffer.add({{0, 0}, Encoding::kSvc, 0});
  buffer.add({{0, 0}, Encoding::kSvc, 1});
  buffer.add({{0, 0}, Encoding::kSvc, 2});
  EXPECT_EQ(buffer.displayable_quality({0, 0}), 2);
}

TEST(PlaybackBuffer, CellBytesTracksDownloads) {
  auto video = make_video();
  PlaybackBuffer buffer(video);
  const ChunkAddress a{{0, 0}, Encoding::kSvc, 0};
  const ChunkAddress b{{0, 0}, Encoding::kSvc, 1};
  buffer.add(a);
  buffer.add(b);
  EXPECT_EQ(buffer.cell_bytes({0, 0}),
            video->size_bytes(a) + video->size_bytes(b));
}

TEST(PlaybackBuffer, CellBytesUsedSvcLayers) {
  auto video = make_video();
  PlaybackBuffer buffer(video);
  for (media::LayerIndex l = 0; l <= 2; ++l) {
    buffer.add({{0, 0}, Encoding::kSvc, l});
  }
  // Displaying at quality 1 uses layers 0..1 only.
  const auto used = buffer.cell_bytes_used({0, 0}, 1);
  EXPECT_EQ(used, video->svc_layer_size_bytes(0, {0, 0}) +
                      video->svc_layer_size_bytes(1, {0, 0}));
  EXPECT_LT(used, buffer.cell_bytes({0, 0}));
}

TEST(PlaybackBuffer, EvictBeforeDropsOldChunks) {
  PlaybackBuffer buffer(make_video());
  buffer.add({{0, 0}, Encoding::kAvc, 1});
  buffer.add({{0, 3}, Encoding::kAvc, 1});
  buffer.evict_before(2);
  EXPECT_FALSE(buffer.has_displayable({0, 0}));
  EXPECT_TRUE(buffer.has_displayable({0, 3}));
}

TEST(PlaybackBuffer, ContiguousChunksCountsRun) {
  PlaybackBuffer buffer(make_video());
  const std::vector<geo::TileId> tiles{0, 1};
  for (media::ChunkIndex i = 0; i < 3; ++i) {
    buffer.add({{0, i}, Encoding::kAvc, 0});
    buffer.add({{1, i}, Encoding::kAvc, 0});
  }
  buffer.add({{0, 4}, Encoding::kAvc, 0});  // gap at 3
  EXPECT_EQ(buffer.contiguous_chunks(0, tiles), 3);
  EXPECT_EQ(buffer.contiguous_chunks(1, tiles), 2);
  EXPECT_EQ(buffer.contiguous_chunks(3, tiles), 0);
}

class TransportTest : public ::testing::Test {
 protected:
  sim::Simulator simulator;
  net::Link link{simulator,
                 net::LinkConfig{.name = "test",
                                 .bandwidth = net::BandwidthTrace::constant(8000.0),
                                 .rtt = sim::Duration{0},
                                 .loss_rate = 0.0, .faults = {}}};
  net::LinkSource source{link};
};

TEST_F(TransportTest, DeliversAndEstimates) {
  SingleLinkTransport transport(source);
  bool done = false;
  ChunkRequest req;
  req.id = net::to_chunk_id({{0, 0}, Encoding::kAvc, 0});
  req.bytes = 1'000'000;
  req.on_done = [&](sim::Time, FetchOutcome outcome) {
    done = delivered(outcome);
  };
  transport.fetch(std::move(req));
  EXPECT_EQ(transport.in_flight(), 1);
  simulator.run();
  EXPECT_TRUE(done);
  EXPECT_EQ(transport.in_flight(), 0);
  EXPECT_EQ(transport.bytes_fetched(), 1'000'000);
  EXPECT_NEAR(transport.estimated_kbps(), 8000.0, 100.0);
}

TEST_F(TransportTest, ConcurrencyLimitQueues) {
  SingleLinkTransport transport(source, {.max_concurrent = 1, .recovery = {}});
  std::vector<int> order;
  auto submit = [&](int id, bool urgent) {
    ChunkRequest req;
    req.id = net::to_chunk_id({{id, 0}, Encoding::kAvc, 0});
    req.bytes = 100'000;
    req.urgent = urgent;
    req.on_done = [&order, id](sim::Time, FetchOutcome) { order.push_back(id); };
    transport.fetch(std::move(req));
  };
  submit(0, false);  // starts immediately
  submit(1, false);
  submit(2, true);  // urgent: should overtake request 1
  simulator.run();
  EXPECT_EQ(order, (std::vector<int>{0, 2, 1}));
}

TEST_F(TransportTest, RejectsBadRequests) {
  SingleLinkTransport transport(source);
  ChunkRequest req;
  req.bytes = 0;
  EXPECT_THROW(transport.fetch(std::move(req)), std::invalid_argument);
  EXPECT_THROW(SingleLinkTransport(source, {.max_concurrent = 0, .recovery = {}}),
               std::invalid_argument);
  TransportOptions bad_retries;
  bad_retries.recovery.enabled = true;
  bad_retries.recovery.max_retries = -1;
  EXPECT_THROW(SingleLinkTransport(source, bad_retries), std::invalid_argument);
}

TEST_F(TransportTest, RejectsPathPolicyFieldsToo) {
  // One RecoveryPolicy validation for every transport: the path-failure
  // fields are checked here even though a single link never goes down.
  TransportOptions bad_threshold;
  bad_threshold.recovery.enabled = true;
  bad_threshold.recovery.path_failure_threshold = 0;
  EXPECT_THROW(SingleLinkTransport(source, bad_threshold), std::invalid_argument);
  TransportOptions bad_probe;
  bad_probe.recovery.enabled = true;
  bad_probe.recovery.probe_interval = sim::Duration{0};
  EXPECT_THROW(SingleLinkTransport(source, bad_probe), std::invalid_argument);
}

TEST(TransportRecovery, BackoffGrowsGeometrically) {
  RecoveryPolicy policy;
  policy.base_backoff = sim::milliseconds(100);
  policy.backoff_multiplier = 2.0;
  EXPECT_EQ(retry_backoff(policy, 1), sim::milliseconds(100));
  EXPECT_EQ(retry_backoff(policy, 2), sim::milliseconds(200));
  EXPECT_EQ(retry_backoff(policy, 3), sim::milliseconds(400));
}

TEST(TransportRecovery, RetryAllowedHonoursBudgetAndOosRule) {
  RecoveryPolicy policy;
  policy.enabled = true;
  policy.max_retries = 2;
  ChunkRequest fov;
  fov.spatial = abr::SpatialClass::kFov;
  EXPECT_TRUE(retry_allowed(policy, fov, 0));
  EXPECT_TRUE(retry_allowed(policy, fov, 1));
  EXPECT_FALSE(retry_allowed(policy, fov, 2));  // budget fully consumed
  ChunkRequest oos;
  oos.spatial = abr::SpatialClass::kOos;
  EXPECT_FALSE(retry_allowed(policy, oos, 0));
  oos.urgent = true;  // urgent corrections keep their retry budget
  EXPECT_TRUE(retry_allowed(policy, oos, 0));
  policy.enabled = false;
  EXPECT_FALSE(retry_allowed(policy, fov, 0));
}

class TransportRecoveryTest : public ::testing::Test {
 protected:
  net::Link make_faulty_link(net::FaultPlan faults, double kbps = 8000.0) {
    return net::Link(simulator,
                     net::LinkConfig{.name = "chaos",
                                     .bandwidth = net::BandwidthTrace::constant(kbps),
                                     .rtt = sim::Duration{0},
                                     .loss_rate = 0.0,
                                     .faults = std::move(faults)});
  }

  static TransportOptions recovery_options(int max_retries = 2) {
    TransportOptions options;
    options.recovery.enabled = true;
    options.recovery.max_retries = max_retries;
    options.recovery.base_backoff = sim::milliseconds(100);
    options.recovery.backoff_multiplier = 2.0;
    return options;
  }

  sim::Simulator simulator;
};

TEST_F(TransportRecoveryTest, RetriesThroughOutageAndDelivers) {
  net::FaultPlan faults;
  faults.outages.push_back({.start_s = 0.2, .duration_s = 0.3});
  auto link = make_faulty_link(std::move(faults));
  net::LinkSource source(link);
  SingleLinkTransport transport(source, recovery_options());
  std::optional<FetchOutcome> outcome;
  ChunkRequest req;
  req.id = net::to_chunk_id({{0, 0}, Encoding::kAvc, 0});
  req.bytes = 1'000'000;
  req.deadline = sim::seconds(30.0);
  req.on_done = [&](sim::Time, FetchOutcome o) { outcome = o; };
  transport.fetch(std::move(req));
  simulator.run();
  // Attempt 0 dies when the outage starts; retries back off until the link
  // returns, then the request completes in full.
  ASSERT_TRUE(outcome.has_value());
  EXPECT_EQ(*outcome, FetchOutcome::kDelivered);
  EXPECT_EQ(transport.bytes_fetched(), 1'000'000);
  EXPECT_EQ(transport.in_flight(), 0);
}

TEST_F(TransportRecoveryTest, BudgetExhaustionReportsFailed) {
  net::FaultPlan faults;
  faults.outages.push_back({.start_s = 0.2, .duration_s = 60.0});
  auto link = make_faulty_link(std::move(faults));
  net::LinkSource source(link);
  SingleLinkTransport transport(source, recovery_options(/*max_retries=*/1));
  std::optional<FetchOutcome> outcome;
  sim::Time settled{sim::kTimeZero};
  ChunkRequest req;
  req.id = net::to_chunk_id({{0, 0}, Encoding::kAvc, 0});
  req.bytes = 1'000'000;
  req.deadline = sim::seconds(30.0);
  req.on_done = [&](sim::Time t, FetchOutcome o) {
    outcome = o;
    settled = t;
  };
  transport.fetch(std::move(req));
  simulator.run_until(sim::seconds(5.0));
  ASSERT_TRUE(outcome.has_value());
  EXPECT_EQ(*outcome, FetchOutcome::kFailed);
  // Original attempt + one retry, both inside the outage.
  EXPECT_LT(sim::to_seconds(settled), 1.0);
  EXPECT_EQ(transport.in_flight(), 0);
}

TEST_F(TransportRecoveryTest, DeadlineDerivedTimeoutCancelsSlowTransfer) {
  // 800 kbps = 100 kB/s: a 1 MB chunk needs 10 s, far past its deadline.
  auto link = make_faulty_link({}, /*kbps=*/800.0);
  net::LinkSource source(link);
  SingleLinkTransport transport(source, recovery_options());
  std::optional<FetchOutcome> outcome;
  sim::Time settled{sim::kTimeZero};
  ChunkRequest req;
  req.id = net::to_chunk_id({{0, 0}, Encoding::kAvc, 0});
  req.bytes = 1'000'000;
  req.deadline = sim::seconds(0.5);
  req.on_done = [&](sim::Time t, FetchOutcome o) {
    outcome = o;
    settled = t;
  };
  transport.fetch(std::move(req));
  simulator.run_until(sim::seconds(5.0));
  ASSERT_TRUE(outcome.has_value());
  EXPECT_EQ(*outcome, FetchOutcome::kTimedOut);
  EXPECT_NEAR(sim::to_seconds(settled), 0.5, 0.01);
  EXPECT_EQ(link.active_transfers(), 0);
  EXPECT_EQ(transport.in_flight(), 0);
}

TEST_F(TransportRecoveryTest, OosPrefetchAbandonedOnFirstFailure) {
  net::FaultPlan faults;
  faults.outages.push_back({.start_s = 0.2, .duration_s = 0.3});
  auto link = make_faulty_link(std::move(faults));
  net::LinkSource source(link);
  SingleLinkTransport transport(source, recovery_options());
  std::optional<FetchOutcome> outcome;
  ChunkRequest req;
  req.id = net::to_chunk_id({{0, 0}, Encoding::kAvc, 0});
  req.bytes = 1'000'000;
  req.spatial = abr::SpatialClass::kOos;
  req.deadline = sim::seconds(30.0);
  req.on_done = [&](sim::Time, FetchOutcome o) { outcome = o; };
  transport.fetch(std::move(req));
  simulator.run();
  ASSERT_TRUE(outcome.has_value());
  EXPECT_EQ(*outcome, FetchOutcome::kFailed);
}

TEST_F(TransportRecoveryTest, RecoveryDisabledKeepsLegacySemantics) {
  net::FaultPlan faults;
  faults.outages.push_back({.start_s = 0.2, .duration_s = 60.0});
  auto link = make_faulty_link(std::move(faults));
  net::LinkSource source(link);
  SingleLinkTransport transport(source);  // recovery off
  std::optional<FetchOutcome> outcome;
  ChunkRequest req;
  req.id = net::to_chunk_id({{0, 0}, Encoding::kAvc, 0});
  req.bytes = 1'000'000;
  req.deadline = sim::seconds(30.0);
  req.on_done = [&](sim::Time, FetchOutcome o) { outcome = o; };
  transport.fetch(std::move(req));
  simulator.run_until(sim::seconds(5.0));
  // No retries, no timeout: the link failure surfaces directly.
  ASSERT_TRUE(outcome.has_value());
  EXPECT_EQ(*outcome, FetchOutcome::kFailed);
  EXPECT_EQ(transport.in_flight(), 0);
}

class SessionTest : public ::testing::Test {
 protected:
  static hmp::HeadTrace steady_trace(double duration_s) {
    hmp::HeadTraceConfig cfg;
    cfg.duration_s = duration_s;
    cfg.sample_rate_hz = 25.0;
    cfg.profile = hmp::UserProfile::adult();
    cfg.seed = 3;
    return hmp::generate_head_trace(cfg);
  }

  SessionReport run_session(double link_kbps, SessionConfig config,
                            double video_s = 15.0) {
    sim::Simulator simulator;
    net::Link link(
        simulator,
        net::LinkConfig{.name = "dl",
                        .bandwidth = net::BandwidthTrace::constant(link_kbps),
                        .rtt = sim::milliseconds(30),
                        .loss_rate = 0.0, .faults = {}});
    net::LinkSource source(link);
    SingleLinkTransport transport(source);
    auto video = make_video(video_s);
    const auto trace = steady_trace(video_s + 40.0);
    StreamingSession session(simulator, video, transport, trace, config);
    session.start();
    simulator.run_until(sim::seconds(video_s + 120.0));
    return session.report();
  }
};

TEST_F(SessionTest, FastLinkPlaysSmoothlyAtHighQuality) {
  SessionConfig config;
  const auto report = run_session(50'000.0, config);
  EXPECT_TRUE(report.completed);
  EXPECT_EQ(report.qoe.chunks_played, 15);
  // HMP misses may force the occasional urgent correction, but on a fast
  // link those stalls are bounded by the RTT, not the bandwidth.
  EXPECT_LT(report.qoe.stall_seconds, 0.5);
  EXPECT_GT(report.qoe.mean_viewport_utility, 0.5);
  EXPECT_GT(report.fetches, 0);
}

TEST_F(SessionTest, SlowLinkLowersQualityButCompletes) {
  SessionConfig config;
  const auto fast = run_session(50'000.0, config);
  const auto slow = run_session(2'000.0, config);
  EXPECT_TRUE(slow.completed);
  EXPECT_EQ(slow.qoe.chunks_played, 15);
  EXPECT_LT(slow.qoe.mean_viewport_utility, fast.qoe.mean_viewport_utility);
}

TEST_F(SessionTest, FovGuidedUsesFewerBytesThanAgnostic) {
  // Equal-quality comparison: pin both to ladder level 2, then the only
  // difference is *which tiles* are fetched.
  SessionConfig guided;
  guided.abr.sperke.regular_vra = "fixed-2";
  SessionConfig agnostic;
  agnostic.planner = PlannerMode::kFovAgnostic;
  agnostic.abr.sperke.regular_vra = "fixed-2";
  const auto g = run_session(20'000.0, guided);
  const auto a = run_session(20'000.0, agnostic);
  EXPECT_TRUE(g.completed);
  EXPECT_TRUE(a.completed);
  EXPECT_LT(g.qoe.bytes_downloaded, a.qoe.bytes_downloaded);
}

TEST_F(SessionTest, AvcNoUpgradeModeRuns) {
  SessionConfig config;
  config.abr.sperke.mode = abr::EncodingMode::kAvcNoUpgrade;
  const auto report = run_session(20'000.0, config);
  EXPECT_TRUE(report.completed);
  EXPECT_EQ(report.upgrades, 0);
}

TEST_F(SessionTest, SvcModePerformsUpgradesOrCorrections) {
  SessionConfig config;
  config.abr.sperke.mode = abr::EncodingMode::kSvc;
  const auto report = run_session(20'000.0, config);
  EXPECT_TRUE(report.completed);
  // With a moving head some chunks should need upgrades or late fetches.
  EXPECT_GT(report.upgrades + report.late_corrections + report.urgent_fetches, 0);
}

TEST_F(SessionTest, ReportTracksPerChunkUtility) {
  SessionConfig config;
  const auto report = run_session(50'000.0, config);
  EXPECT_EQ(report.viewport_utility_per_chunk.size(), 15u);
  for (double u : report.viewport_utility_per_chunk) {
    EXPECT_GE(u, 0.0);
    EXPECT_LE(u, 1.0);
  }
}

TEST_F(SessionTest, StartupDelayIsPositiveAndBounded) {
  SessionConfig config;
  const auto report = run_session(50'000.0, config);
  EXPECT_GT(report.startup_delay, sim::Duration{0});
  EXPECT_LT(report.startup_delay, sim::seconds(5.0));
}

TEST_F(SessionTest, DataBudgetCapsSpending) {
  SessionConfig unlimited;
  const auto free_run = run_session(50'000.0, unlimited);
  ASSERT_TRUE(free_run.completed);
  // Grant roughly half of what the unconstrained session spent.
  SessionConfig capped;
  capped.data_budget_bytes = free_run.qoe.bytes_downloaded / 2;
  const auto budgeted = run_session(50'000.0, capped);
  EXPECT_TRUE(budgeted.completed);
  EXPECT_EQ(budgeted.qoe.chunks_played, 15);
  // The budget is respected within one chunk's worth of slack (plans are
  // committed before their bytes land).
  EXPECT_LT(budgeted.qoe.bytes_downloaded,
            capped.data_budget_bytes + capped.data_budget_bytes / 4);
  EXPECT_LT(budgeted.qoe.mean_viewport_utility,
            free_run.qoe.mean_viewport_utility);
}

TEST_F(SessionTest, EngagementExtremesStillComplete) {
  for (double engagement : {0.0, 1.0}) {
    SessionConfig config;
    config.context.engagement = engagement;
    const auto report = run_session(30'000.0, config);
    EXPECT_TRUE(report.completed) << engagement;
    EXPECT_EQ(report.qoe.chunks_played, 15) << engagement;
  }
}

TEST_F(SessionTest, ZeroBandwidthNeverStarts) {
  SessionConfig config;
  sim::Simulator simulator;
  net::Link link(simulator,
                 net::LinkConfig{.bandwidth = net::BandwidthTrace::constant(0.0), .faults = {}});
  net::LinkSource source(link);
  SingleLinkTransport transport(source);
  auto video = make_video(5.0);
  const auto trace = steady_trace(60.0);
  StreamingSession session(simulator, video, transport, trace, config);
  session.start();
  simulator.run_until(sim::seconds(30.0));
  EXPECT_FALSE(session.finished());
  EXPECT_EQ(session.report().qoe.chunks_played, 0);
}

TEST_F(SessionTest, RejectsBadConfig) {
  sim::Simulator simulator;
  net::Link link(simulator, net::LinkConfig{});
  net::LinkSource source(link);
  SingleLinkTransport transport(source);
  auto video = make_video(5.0);
  const auto trace = steady_trace(10.0);
  SessionConfig bad;
  bad.prefetch_horizon_chunks = 0;
  EXPECT_THROW(
      StreamingSession(simulator, video, transport, trace, bad),
      std::invalid_argument);
}

TEST_F(SessionTest, SessionRecoversAcrossMidStreamOutage) {
  sim::Simulator simulator;
  net::FaultPlan faults;
  faults.outages.push_back({.start_s = 4.0, .duration_s = 1.5});
  net::Link link(
      simulator,
      net::LinkConfig{.name = "dl",
                      .bandwidth = net::BandwidthTrace::constant(20'000.0),
                      .rtt = sim::milliseconds(30),
                      .loss_rate = 0.0,
                      .faults = std::move(faults)});
  TransportOptions options;
  options.recovery.enabled = true;
  net::LinkSource source(link);
  SingleLinkTransport transport(source, options);
  SessionConfig config;
  config.fetch_recovery = true;
  auto video = make_video(15.0);
  const auto trace = steady_trace(60.0);
  StreamingSession session(simulator, video, transport, trace, config);
  session.start();
  simulator.run_until(sim::seconds(120.0));
  const auto report = session.report();
  EXPECT_TRUE(report.completed);
  EXPECT_EQ(report.qoe.chunks_played, 15);
  // The outage killed in-flight fetches; the session saw and survived them.
  EXPECT_GT(report.fetch_failures, 0);
}

TEST_F(SessionTest, DoubleStartThrows) {
  sim::Simulator simulator;
  net::Link link(simulator, net::LinkConfig{});
  net::LinkSource source(link);
  SingleLinkTransport transport(source);
  auto video = make_video(5.0);
  const auto trace = steady_trace(10.0);
  StreamingSession session(simulator, video, transport, trace, SessionConfig{});
  session.start();
  EXPECT_THROW(session.start(), std::logic_error);
}

}  // namespace
}  // namespace sperke::core
