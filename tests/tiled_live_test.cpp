#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <map>
#include <memory>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "core/transport.h"
#include "live/tiled_viewer.h"
#include "net/chunk_source.h"
#include "net/link.h"
#include "obs/telemetry.h"
#include "sim/simulator.h"

namespace sperke::live {
namespace {

std::shared_ptr<media::VideoModel> live_video(double duration_s = 30.0) {
  media::VideoModelConfig cfg;
  cfg.duration_s = duration_s;
  cfg.chunk_duration_s = 1.0;
  cfg.tile_rows = 4;
  cfg.tile_cols = 6;
  cfg.seed = 13;
  return std::make_shared<media::VideoModel>(cfg);
}

hmp::HeadTrace viewer_trace(std::uint64_t seed, double duration_s = 60.0) {
  hmp::HeadTraceConfig cfg;
  cfg.duration_s = duration_s;
  cfg.attractors = hmp::default_attractors(duration_s, 77);
  cfg.seed = seed;
  return hmp::generate_head_trace(cfg);
}

TiledLiveReport run_viewer(double link_kbps, TiledLiveConfig config,
                           std::uint64_t trace_seed = 5,
                           LiveCrowdHmp* crowd = nullptr) {
  sim::Simulator simulator;
  net::Link link(simulator,
                 net::LinkConfig{.name = "dl",
                                 .bandwidth = net::BandwidthTrace::constant(link_kbps),
                                 .rtt = sim::milliseconds(30), .faults = {}});
  net::LinkSource source(link);
  core::SingleLinkTransport transport(source, {.max_concurrent = 12, .recovery = {}});
  auto video = live_video();
  const auto trace = viewer_trace(trace_seed);
  TiledLiveSession session(simulator, video, transport, trace, config, crowd);
  session.start();
  simulator.run_until(sim::seconds(120.0));
  return session.report();
}

TEST(TiledLive, FastLinkPlaysEverything) {
  const auto report = run_viewer(50'000.0, TiledLiveConfig{});
  EXPECT_TRUE(report.finished);
  EXPECT_EQ(report.chunks_played, 30);
  EXPECT_EQ(report.chunks_skipped, 0);
  EXPECT_LT(report.mean_blank_fraction, 0.05);
  EXPECT_GT(report.qoe.mean_viewport_utility, 0.4);
}

TEST(TiledLive, ZeroBandwidthSkipsEverything) {
  const auto report = run_viewer(0.001, TiledLiveConfig{});
  EXPECT_TRUE(report.finished);
  EXPECT_EQ(report.chunks_played, 0);
  EXPECT_EQ(report.chunks_skipped, 30);
  EXPECT_EQ(report.qoe.skipped_chunks, 30);
}

TEST(TiledLive, ConstrainedLinkDegradesGracefully) {
  const auto fast = run_viewer(50'000.0, TiledLiveConfig{});
  const auto slow = run_viewer(4'000.0, TiledLiveConfig{});
  EXPECT_TRUE(slow.finished);
  // Live never rebuffers: degradations appear as quality/blank/skips.
  EXPECT_EQ(slow.qoe.stall_events, 0);
  EXPECT_LE(slow.qoe.mean_viewport_utility, fast.qoe.mean_viewport_utility);
  EXPECT_EQ(slow.chunks_played + slow.chunks_skipped, 30);
}

TEST(TiledLive, RejectsInfeasibleLatencyTarget) {
  sim::Simulator simulator;
  net::Link link(simulator, net::LinkConfig{});
  net::LinkSource source(link);
  core::SingleLinkTransport transport(source);
  auto video = live_video();
  const auto trace = viewer_trace(1);
  TiledLiveConfig config;
  config.e2e_target_s = 1.0;  // below ingest (3 s) + one chunk
  EXPECT_THROW(
      TiledLiveSession(simulator, video, transport, trace, config),
      std::invalid_argument);
}

TEST(TiledLive, DoubleStartThrows) {
  sim::Simulator simulator;
  net::Link link(simulator, net::LinkConfig{});
  net::LinkSource source(link);
  core::SingleLinkTransport transport(source);
  auto video = live_video();
  const auto trace = viewer_trace(1);
  TiledLiveSession session(simulator, video, transport, trace, TiledLiveConfig{});
  session.start();
  EXPECT_THROW(session.start(), std::logic_error);
}

TEST(TiledLive, ViewerPopulatesCrowdMap) {
  auto video = live_video();
  LiveCrowdHmp crowd(video->tile_count(), video->chunk_count());
  (void)run_viewer(50'000.0, TiledLiveConfig{}, 5, &crowd);
  // A ~8 s latency viewer's views become knowable shortly after display.
  int total = 0;
  for (media::ChunkIndex c = 0; c < video->chunk_count(); ++c) {
    total += crowd.observations(c, sim::seconds(1e6));
  }
  EXPECT_EQ(total, 30);
  // Observation for chunk 0 is stamped at ~ 8 s + report delay.
  EXPECT_EQ(crowd.observations(0, sim::seconds(7.0)), 0);
  EXPECT_EQ(crowd.observations(0, sim::seconds(9.0)), 1);
}

TEST(TiledLive, CrowdMismatchThrows) {
  sim::Simulator simulator;
  net::Link link(simulator, net::LinkConfig{});
  net::LinkSource source(link);
  core::SingleLinkTransport transport(source);
  auto video = live_video();
  const auto trace = viewer_trace(1);
  LiveCrowdHmp wrong(99, 10);
  EXPECT_THROW(TiledLiveSession(simulator, video, transport, trace,
                                TiledLiveConfig{}, &wrong),
               std::invalid_argument);
}

TEST(TiledLive, SvcUpgradesHappenOnGoodLinks) {
  TiledLiveConfig config;
  config.abr.sperke.mode = abr::EncodingMode::kSvc;
  const auto report = run_viewer(40'000.0, config);
  EXPECT_TRUE(report.finished);
  EXPECT_GT(report.upgrades, 0);
}

TEST(TiledLive, EndToEndCrowdHelpsLaggard) {
  // Shared world: 6 low-latency viewers feed the crowd map while one
  // laggard (25 s behind) watches with / without the crowd prior.
  auto run_population = [&](bool laggard_uses_crowd) {
    sim::Simulator simulator;
    auto video = live_video();
    LiveCrowdHmp crowd(video->tile_count(), video->chunk_count());

    std::vector<std::unique_ptr<net::Link>> links;
    std::vector<std::unique_ptr<net::LinkSource>> sources;
    std::vector<std::unique_ptr<core::SingleLinkTransport>> transports;
    std::vector<std::unique_ptr<hmp::HeadTrace>> traces;
    std::vector<std::unique_ptr<TiledLiveSession>> sessions;
    for (int v = 0; v < 6; ++v) {
      links.push_back(std::make_unique<net::Link>(
          simulator,
          net::LinkConfig{.bandwidth = net::BandwidthTrace::constant(30'000.0),
                          .rtt = sim::milliseconds(25), .faults = {}}));
      sources.push_back(std::make_unique<net::LinkSource>(*links.back()));
      transports.push_back(
          std::make_unique<core::SingleLinkTransport>(*sources.back(),
                                                      core::TransportOptions{.max_concurrent = 12, .recovery = {}}));
      traces.push_back(
          std::make_unique<hmp::HeadTrace>(viewer_trace(100 + v)));
      TiledLiveConfig cfg;
      cfg.e2e_target_s = 5.0 + v;  // 5..10 s: the low-latency crowd
      sessions.push_back(std::make_unique<TiledLiveSession>(
          simulator, video, *transports.back(), *traces.back(), cfg, &crowd));
      sessions.back()->start();
    }
    // The laggard: 25 s behind, on a tight link where FoV accuracy counts.
    links.push_back(std::make_unique<net::Link>(
        simulator,
        net::LinkConfig{.bandwidth = net::BandwidthTrace::constant(5'000.0),
                        .rtt = sim::milliseconds(40), .faults = {}}));
    sources.push_back(std::make_unique<net::LinkSource>(*links.back()));
    transports.push_back(
        std::make_unique<core::SingleLinkTransport>(*sources.back(),
                                                      core::TransportOptions{.max_concurrent = 12, .recovery = {}}));
    traces.push_back(std::make_unique<hmp::HeadTrace>(viewer_trace(200)));
    TiledLiveConfig laggard_cfg;
    laggard_cfg.e2e_target_s = 25.0;
    sessions.push_back(std::make_unique<TiledLiveSession>(
        simulator, video, *transports.back(), *traces.back(), laggard_cfg,
        laggard_uses_crowd ? &crowd : nullptr));
    sessions.back()->start();

    simulator.run_until(sim::seconds(180.0));
    return sessions.back()->report();
  };

  const auto with_crowd = run_population(true);
  const auto without = run_population(false);
  ASSERT_TRUE(with_crowd.finished);
  ASSERT_TRUE(without.finished);
  // The crowd prior should not hurt, and typically reduces blanks/skips.
  EXPECT_LE(with_crowd.chunks_skipped, without.chunks_skipped + 1);
  EXPECT_GE(with_crowd.qoe.score, without.qoe.score - 2.0);
}

// Every TiledLiveReport field on one line; doubles as their bit patterns,
// so the pin below catches any change in the arithmetic, not just in the
// rounded value.
std::string exact_fields(const TiledLiveReport& r) {
  const auto bits = [](double d) { return std::bit_cast<std::uint64_t>(d); };
  std::ostringstream out;
  out << "played=" << r.chunks_played << " skipped=" << r.chunks_skipped
      << " fetches=" << r.fetches << " upgrades=" << r.upgrades
      << " failures=" << r.fetch_failures << " degraded=" << r.degraded_retries
      << " finished=" << r.finished << " qoe.played=" << r.qoe.chunks_played
      << " qoe.stalls=" << r.qoe.stall_events
      << " qoe.skipped=" << r.qoe.skipped_chunks
      << " qoe.downloaded=" << r.qoe.bytes_downloaded
      << " qoe.wasted=" << r.qoe.bytes_wasted << std::hex
      << " blank=" << bits(r.mean_blank_fraction)
      << " qoe.utility=" << bits(r.qoe.mean_viewport_utility)
      << " qoe.stall_s=" << bits(r.qoe.stall_seconds)
      << " qoe.switch=" << bits(r.qoe.switch_magnitude)
      << " qoe.blank=" << bits(r.qoe.blank_fraction_mean)
      << " qoe.score=" << bits(r.qoe.score);
  return out.str();
}

// Exact outputs of the live client, recorded before the VOD/live session
// core was unified: any change to them is a behaviour change, not a
// refactor.
TEST(TiledLive, PinnedMixedLatencyCrowdAndFaultedViewer) {
  std::vector<std::string> got;
  std::vector<int> observations;
  {
    // Six viewers with e2e targets spread over 4..25 s, two per link, all
    // reading and feeding one live crowd map.
    sim::Simulator simulator;
    auto video = live_video();
    LiveCrowdHmp crowd(video->tile_count(), video->chunk_count());
    std::vector<std::unique_ptr<net::Link>> links;
    std::vector<std::unique_ptr<net::LinkSource>> sources;
    std::vector<std::unique_ptr<core::SingleLinkTransport>> transports;
    std::vector<hmp::HeadTrace> traces;
    std::vector<std::unique_ptr<TiledLiveSession>> sessions;
    const std::vector<double> targets = {4.0, 8.2, 12.4, 16.6, 20.8, 25.0};
    traces.reserve(targets.size());
    for (std::size_t v = 0; v < targets.size(); ++v) {
      if (v % 2 == 0) {
        links.push_back(std::make_unique<net::Link>(
            simulator,
            net::LinkConfig{.name = "dl",
                            .bandwidth = net::BandwidthTrace::random_walk(
                                9'000.0, 0.3, 1.0, 120.0, 31 + v, 2'000.0),
                            .rtt = sim::milliseconds(30),
                            .faults = {}}));
        sources.push_back(std::make_unique<net::LinkSource>(*links.back()));
      }
      transports.push_back(std::make_unique<core::SingleLinkTransport>(
          *sources.back(),
          core::TransportOptions{.max_concurrent = 12, .recovery = {}}));
      traces.push_back(viewer_trace(300 + v));
      TiledLiveConfig config;
      config.e2e_target_s = targets[v];
      sessions.push_back(std::make_unique<TiledLiveSession>(
          simulator, video, *transports.back(), traces.back(), config, &crowd));
      sessions.back()->start();
    }
    simulator.run_until(sim::seconds(120.0));
    for (const auto& session : sessions) got.push_back(exact_fields(session->report()));
    for (media::ChunkIndex c = 0; c < video->chunk_count(); ++c) {
      observations.push_back(crowd.observations(c, sim::seconds(1e6)));
    }
  }
  {
    // One viewer on a faulted link, with transport recovery and base-tier
    // re-requests on.
    sim::Simulator simulator;
    net::FaultPlan plan;
    plan.outages.push_back({.start_s = 12.0, .duration_s = 2.0});
    plan.transfer_failure_prob = 0.15;
    plan.seed = 7;
    net::Link link(simulator,
                   net::LinkConfig{.name = "dl",
                                   .bandwidth = net::BandwidthTrace::constant(20'000.0),
                                   .rtt = sim::milliseconds(30),
                                   .faults = std::move(plan)});
    net::LinkSource source(link);
    core::TransportOptions options;
    options.max_concurrent = 12;
    options.recovery.enabled = true;
    core::SingleLinkTransport transport(source, options);
    TiledLiveConfig config;
    config.fetch_recovery = true;
    auto video = live_video();
    const auto trace = viewer_trace(5);
    TiledLiveSession session(simulator, video, transport, trace, config);
    session.start();
    simulator.run_until(sim::seconds(120.0));
    got.push_back(exact_fields(session.report()));
  }

  const std::vector<std::string> expected = {
      "played=0 skipped=30 fetches=935 upgrades=0 failures=0 degraded=0 "
      "finished=1 qoe.played=0 qoe.stalls=0 qoe.skipped=30 "
      "qoe.downloaded=7331837 qoe.wasted=7331837 blank=0 qoe.utility=0 "
      "qoe.stall_s=0 qoe.switch=0 qoe.blank=0 qoe.score=c04e000000000000",
      "played=30 skipped=0 fetches=1268 upgrades=197 failures=0 "
      "degraded=0 finished=1 qoe.played=30 qoe.stalls=0 qoe.skipped=0 "
      "qoe.downloaded=13238096 qoe.wasted=7549799 blank=3fb3743743743743 "
      "qoe.utility=3fd530588c02756b qoe.stall_s=0 "
      "qoe.switch=40220655f015425c qoe.blank=3fb3743743743743 "
      "qoe.score=c02065f6bc0fe817",
      "played=30 skipped=0 fetches=1454 upgrades=218 failures=0 "
      "degraded=0 finished=1 qoe.played=30 qoe.stalls=0 qoe.skipped=0 "
      "qoe.downloaded=16554433 qoe.wasted=7442955 blank=3f73813813813815 "
      "qoe.utility=3fe16676c736d53f qoe.stall_s=0 "
      "qoe.switch=401c4c864efde0c6 qoe.blank=3f73813813813815 "
      "qoe.score=4021554944e34d2a",
      "played=30 skipped=0 fetches=1256 upgrades=239 failures=0 "
      "degraded=0 finished=1 qoe.played=30 qoe.stalls=0 qoe.skipped=0 "
      "qoe.downloaded=12739297 qoe.wasted=4868464 blank=3fb01e573ac901e6 "
      "qoe.utility=3fdcdaea6c044a75 qoe.stall_s=0 "
      "qoe.switch=402085dd2b577050 qoe.blank=3fb01e573ac901e6 "
      "qoe.score=c002544cb4bf7126",
      "played=29 skipped=1 fetches=1081 upgrades=154 failures=0 "
      "degraded=0 finished=1 qoe.played=29 qoe.stalls=0 qoe.skipped=1 "
      "qoe.downloaded=9840340 qoe.wasted=4094146 blank=3fb3fc139dea6be4 "
      "qoe.utility=3fd8b083538d4204 qoe.stall_s=0 "
      "qoe.switch=40160977c0e1033b qoe.blank=3fb3fc139dea6be4 "
      "qoe.score=c015826d47a9df21",
      "played=30 skipped=0 fetches=1076 upgrades=155 failures=0 "
      "degraded=0 finished=1 qoe.played=30 qoe.stalls=0 qoe.skipped=0 "
      "qoe.downloaded=10146461 qoe.wasted=3845099 blank=3f76c16c16c16c15 "
      "qoe.utility=3fda680df951be21 qoe.stall_s=0 "
      "qoe.switch=4018a7b991af7dbd qoe.blank=3f76c16c16c16c15 "
      "qoe.score=401630b5f71f1c16",
      "played=30 skipped=0 fetches=2333 upgrades=227 failures=330 "
      "degraded=43 finished=1 qoe.played=30 qoe.stalls=0 qoe.skipped=0 "
      "qoe.downloaded=39639504 qoe.wasted=14193514 blank=3f92492492492493 "
      "qoe.utility=3febfdd4573f81ca qoe.stall_s=0 "
      "qoe.switch=401104a1e7b8d59b qoe.blank=3f92492492492493 "
      "qoe.score=4033d83c4eb8c1fd",
  };
  const std::vector<int> expected_observations = {
      5, 5, 5, 5, 5, 5, 5, 5, 5, 5, 5, 5, 5, 5, 5,
      5, 5, 5, 5, 5, 5, 5, 5, 5, 5, 4, 5, 5, 5, 5};
  EXPECT_EQ(got, expected);
  EXPECT_EQ(observations, expected_observations);
}

// With telemetry on, a faulted live viewer's trace is a complete causal
// record: every dispatched request settles exactly once — also the fetches
// that land after the viewer finished — and every base-tier re-request
// names the failed request it replaces as its parent.
TEST(TiledLive, FaultedViewerTraceSettlesEveryRequestOnce) {
  sim::Simulator simulator;
  net::FaultPlan plan;
  plan.outages.push_back({.start_s = 12.0, .duration_s = 2.0});
  // Capacity collapses just before the last deadline (37 s), so fetches
  // still in flight then land after the viewer finished.
  plan.capacity_collapses.push_back(
      {.start_s = 35.0, .duration_s = 10.0, .factor = 0.02});
  plan.transfer_failure_prob = 0.15;
  plan.seed = 7;
  net::Link link(simulator,
                 net::LinkConfig{.name = "dl",
                                 .bandwidth = net::BandwidthTrace::constant(8'000.0),
                                 .rtt = sim::milliseconds(30),
                                 .faults = std::move(plan)});
  net::LinkSource source(link);
  // No transport retries or deadline timeouts: a failure surfaces at once
  // and is re-requested by the viewer, and fetches still in flight at the
  // last deadline land after the viewer finished.
  core::SingleLinkTransport transport(source,
                                      {.max_concurrent = 12, .recovery = {}});
  obs::Telemetry telemetry;
  TiledLiveConfig config;
  config.fetch_recovery = true;
  config.telemetry = &telemetry;
  auto video = live_video();
  const auto trace = viewer_trace(5);
  TiledLiveSession session(simulator, video, transport, trace, config);
  session.start();
  simulator.run_until(sim::seconds(120.0));
  const TiledLiveReport report = session.report();
  ASSERT_TRUE(report.finished);
  ASSERT_GT(report.degraded_retries, 0);

  std::map<std::int64_t, obs::TraceEvent> dispatched;
  std::map<std::int64_t, int> settles;
  std::set<std::int64_t> failed;
  sim::Time ended{sim::kTimeZero};
  int settled_after_end = 0;
  for (const obs::TraceEvent& event : telemetry.trace().events()) {
    switch (event.type) {
      case obs::TraceEventType::kFetchDispatched:
        EXPECT_TRUE(dispatched.emplace(event.request, event).second)
            << "request " << event.request << " dispatched twice";
        break;
      case obs::TraceEventType::kFetchDone:
      case obs::TraceEventType::kFetchDropped:
        ++settles[event.request];
        // Timed-out / failed outcomes carry the outcome in `value`.
        if (event.value != 0.0) failed.insert(event.request);
        if (ended > sim::kTimeZero) ++settled_after_end;
        break;
      case obs::TraceEventType::kSessionEnd:
        ended = event.ts;
        break;
      default:
        break;
    }
  }
  EXPECT_EQ(static_cast<int>(dispatched.size()), report.fetches);
  EXPECT_EQ(settles.size(), dispatched.size());
  for (const auto& [id, event] : dispatched) {
    EXPECT_EQ(settles[id], 1) << "request " << id;
  }
  EXPECT_GT(settled_after_end, 0);

  int retries = 0;
  for (const auto& [id, event] : dispatched) {
    if (event.parent == 0) continue;
    ++retries;
    ASSERT_TRUE(dispatched.contains(event.parent)) << "request " << id;
    EXPECT_TRUE(failed.contains(event.parent)) << "request " << id;
    const obs::TraceEvent& parent = dispatched.at(event.parent);
    EXPECT_EQ(parent.tile, event.tile);
    EXPECT_EQ(parent.chunk, event.chunk);
  }
  EXPECT_EQ(retries, report.degraded_retries);
}

}  // namespace
}  // namespace sperke::live
