#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "core/session.h"
#include "hmp/head_trace.h"
#include "mp/multipath.h"
#include "mp/priority.h"
#include "obs/export.h"
#include "obs/telemetry.h"
#include "sim/simulator.h"

namespace sperke::mp {
namespace {

core::ChunkRequest request_of(abr::SpatialClass spatial, bool urgent,
                              std::int64_t bytes = 100'000,
                              sim::Time deadline = sim::seconds(100.0)) {
  core::ChunkRequest req;
  req.id = net::to_chunk_id({{0, 0}, media::Encoding::kAvc, 0});
  req.bytes = bytes;
  req.spatial = spatial;
  req.urgent = urgent;
  req.deadline = deadline;
  return req;
}

TEST(Priority, ClassifiesFromRequest) {
  const auto fov_urgent = classify(request_of(abr::SpatialClass::kFov, true));
  EXPECT_EQ(fov_urgent.spatial, abr::SpatialClass::kFov);
  EXPECT_EQ(fov_urgent.temporal, TemporalClass::kUrgent);
  const auto oos_regular = classify(request_of(abr::SpatialClass::kOos, false));
  EXPECT_EQ(oos_regular.spatial, abr::SpatialClass::kOos);
  EXPECT_EQ(oos_regular.temporal, TemporalClass::kRegular);
}

TEST(Priority, RankOrdersTable1) {
  const int fov_urgent = rank({abr::SpatialClass::kFov, TemporalClass::kUrgent});
  const int oos_urgent = rank({abr::SpatialClass::kOos, TemporalClass::kUrgent});
  const int fov_regular = rank({abr::SpatialClass::kFov, TemporalClass::kRegular});
  const int oos_regular = rank({abr::SpatialClass::kOos, TemporalClass::kRegular});
  EXPECT_LT(fov_urgent, oos_urgent);
  EXPECT_LT(oos_urgent, fov_regular);
  EXPECT_LT(fov_regular, oos_regular);
  EXPECT_EQ(fov_urgent, 0);
  EXPECT_EQ(oos_regular, 3);
}

TEST(Priority, ToStringReadable) {
  EXPECT_EQ(to_string({abr::SpatialClass::kFov, TemporalClass::kUrgent}),
            "FoV/urgent");
  EXPECT_EQ(to_string({abr::SpatialClass::kOos, TemporalClass::kRegular}),
            "OOS/regular");
}

class MultipathTest : public ::testing::Test {
 protected:
  MultipathTest() {
    // "WiFi": fast, clean. "LTE": slower, lossy, higher RTT.
    wifi = std::make_unique<net::Link>(
        simulator, net::LinkConfig{.name = "wifi",
                                   .bandwidth = net::BandwidthTrace::constant(20'000.0),
                                   .rtt = sim::milliseconds(20),
                                   .loss_rate = 0.0, .faults = {}});
    lte = std::make_unique<net::Link>(
        simulator, net::LinkConfig{.name = "lte",
                                   .bandwidth = net::BandwidthTrace::constant(8'000.0),
                                   .rtt = sim::milliseconds(60),
                                   .loss_rate = 0.0, .faults = {}});
  }

  MultipathTransport make(std::unique_ptr<PathScheduler> scheduler) {
    return MultipathTransport(simulator, {wifi.get(), lte.get()},
                              std::move(scheduler));
  }

  sim::Simulator simulator;
  std::unique_ptr<net::Link> wifi;
  std::unique_ptr<net::Link> lte;
};

TEST_F(MultipathTest, ContentAwareSendsFovToBestPath) {
  auto transport = make(std::make_unique<ContentAwareScheduler>());
  transport.fetch(request_of(abr::SpatialClass::kFov, false));
  transport.fetch(request_of(abr::SpatialClass::kOos, false));
  simulator.run();
  const auto& stats = transport.stats();
  // Path 0 = wifi (best), path 1 = lte (worst).
  EXPECT_EQ(stats.requests_per_path[0], 1);
  EXPECT_EQ(stats.requests_per_path[1], 1);
  EXPECT_EQ(stats.bytes_per_path[0], 100'000);
  EXPECT_EQ(stats.bytes_per_path[1], 100'000);
}

TEST_F(MultipathTest, ContentAwareUrgentAlwaysBestPath) {
  auto transport = make(std::make_unique<ContentAwareScheduler>());
  transport.fetch(request_of(abr::SpatialClass::kOos, /*urgent=*/true));
  simulator.run();
  EXPECT_EQ(transport.stats().requests_per_path[0], 1);
  EXPECT_EQ(transport.stats().requests_per_path[1], 0);
}

TEST_F(MultipathTest, ContentAwareDropsExpiredBestEffort) {
  auto transport = make(std::make_unique<ContentAwareScheduler>());
  // Saturate the LTE path so the next OOS request queues.
  for (int i = 0; i < 3; ++i) {
    transport.fetch(request_of(abr::SpatialClass::kOos, false, 2'000'000));
  }
  // This OOS fetch has a deadline that will pass while queued.
  std::optional<core::FetchOutcome> outcome;
  auto req = request_of(abr::SpatialClass::kOos, false, 100'000,
                        sim::milliseconds(500));
  req.on_done = [&](sim::Time, core::FetchOutcome o) { outcome = o; };
  transport.fetch(std::move(req));
  simulator.run();
  ASSERT_TRUE(outcome.has_value());
  EXPECT_EQ(*outcome, core::FetchOutcome::kDropped);
  EXPECT_GE(transport.stats().dropped_best_effort, 1);
}

TEST_F(MultipathTest, MinRttUsesBothPaths) {
  auto transport = make(std::make_unique<MinRttScheduler>());
  for (int i = 0; i < 8; ++i) {
    transport.fetch(request_of(abr::SpatialClass::kFov, false, 1'000'000));
  }
  simulator.run();
  const auto& stats = transport.stats();
  EXPECT_GT(stats.requests_per_path[0], 0);
  EXPECT_GT(stats.requests_per_path[1], 0);
  EXPECT_EQ(stats.requests_per_path[0] + stats.requests_per_path[1], 8);
}

TEST_F(MultipathTest, RoundRobinAlternates) {
  auto transport = make(std::make_unique<RoundRobinScheduler>());
  for (int i = 0; i < 4; ++i) {
    transport.fetch(request_of(abr::SpatialClass::kFov, false));
  }
  simulator.run();
  EXPECT_EQ(transport.stats().requests_per_path[0], 2);
  EXPECT_EQ(transport.stats().requests_per_path[1], 2);
}

TEST_F(MultipathTest, SinglePathPinsEverything) {
  auto transport = make(std::make_unique<SinglePathScheduler>(1));
  for (int i = 0; i < 3; ++i) {
    transport.fetch(request_of(abr::SpatialClass::kFov, false));
  }
  simulator.run();
  EXPECT_EQ(transport.stats().requests_per_path[0], 0);
  EXPECT_EQ(transport.stats().requests_per_path[1], 3);
}

TEST_F(MultipathTest, AggregateEstimateSumsPaths) {
  auto transport = make(std::make_unique<MinRttScheduler>());
  // Before traffic: falls back to capacities (20 + 8 Mbps).
  EXPECT_NEAR(transport.estimated_kbps(), 28'000.0, 100.0);
}

TEST_F(MultipathTest, ClassCountsTrackTable1) {
  auto transport = make(std::make_unique<ContentAwareScheduler>());
  transport.fetch(request_of(abr::SpatialClass::kFov, true));
  transport.fetch(request_of(abr::SpatialClass::kFov, false));
  transport.fetch(request_of(abr::SpatialClass::kOos, false));
  transport.fetch(request_of(abr::SpatialClass::kOos, false));
  simulator.run();
  const auto& counts = transport.stats().class_counts;
  EXPECT_EQ(counts[0], 1);  // FoV urgent
  EXPECT_EQ(counts[2], 1);  // FoV regular
  EXPECT_EQ(counts[3], 2);  // OOS regular
}

TEST_F(MultipathTest, UrgentJumpsPathQueue) {
  auto transport = MultipathTransport(simulator, {wifi.get()},
                                      std::make_unique<SinglePathScheduler>(0),
                                      {.max_concurrent = 1, .recovery = {}});
  std::vector<int> order;
  auto submit = [&](int id, bool urgent) {
    auto req = request_of(abr::SpatialClass::kFov, urgent, 200'000);
    req.on_done = [&order, id](sim::Time, core::FetchOutcome) {
      order.push_back(id);
    };
    transport.fetch(std::move(req));
  };
  submit(0, false);
  submit(1, false);
  submit(2, true);
  simulator.run();
  EXPECT_EQ(order, (std::vector<int>{0, 2, 1}));
}

TEST_F(MultipathTest, CompletionsAggregateBytes) {
  auto transport = make(std::make_unique<MinRttScheduler>());
  int done = 0;
  for (int i = 0; i < 4; ++i) {
    auto req = request_of(abr::SpatialClass::kFov, false, 250'000);
    req.on_done = [&](sim::Time, core::FetchOutcome o) {
      done += core::delivered(o) ? 1 : 0;
    };
    transport.fetch(std::move(req));
  }
  simulator.run();
  EXPECT_EQ(done, 4);
  EXPECT_EQ(transport.bytes_fetched(), 1'000'000);
  EXPECT_EQ(transport.in_flight(), 0);
}

TEST_F(MultipathTest, RejectsBadConstruction) {
  EXPECT_THROW(MultipathTransport(simulator, {},
                                  std::make_unique<MinRttScheduler>()),
               std::invalid_argument);
  EXPECT_THROW(MultipathTransport(simulator, {wifi.get()}, nullptr),
               std::invalid_argument);
  EXPECT_THROW(MultipathTransport(simulator, {wifi.get()},
                                  std::make_unique<MinRttScheduler>(),
                                  {.max_concurrent = 0, .recovery = {}}),
               std::invalid_argument);
}

TEST_F(MultipathTest, RejectsBackoffMultiplierBelowOne) {
  core::TransportOptions options;
  options.recovery.enabled = true;
  options.recovery.backoff_multiplier = 0.5;  // shrinking backoff
  EXPECT_THROW(MultipathTransport(simulator, {wifi.get(), lte.get()},
                                  std::make_unique<MinRttScheduler>(), options),
               std::invalid_argument);
}

TEST_F(MultipathTest, RejectsNonPositiveProbeInterval) {
  // A zero interval would re-probe a dark path at the same virtual instant
  // forever; the constructor refuses it instead.
  for (const sim::Duration interval : {sim::Duration{0}, sim::milliseconds(-5)}) {
    core::TransportOptions options;
    options.recovery.enabled = true;
    options.recovery.probe_interval = interval;
    EXPECT_THROW(MultipathTransport(simulator, {wifi.get(), lte.get()},
                                    std::make_unique<ContentAwareScheduler>(),
                                    options),
                 std::invalid_argument);
  }
}

class MultipathFailoverTest : public ::testing::Test {
 protected:
  // Wifi goes dark at t=0.5s; LTE stays clean throughout.
  MultipathFailoverTest() { rebuild(/*wifi_outage_s=*/60.0); }

  void rebuild(double wifi_outage_s) {
    net::FaultPlan faults;
    faults.outages.push_back({.start_s = 0.5, .duration_s = wifi_outage_s});
    wifi = std::make_unique<net::Link>(
        simulator, net::LinkConfig{.name = "wifi",
                                   .bandwidth = net::BandwidthTrace::constant(20'000.0),
                                   .rtt = sim::milliseconds(20),
                                   .loss_rate = 0.0,
                                   .faults = std::move(faults)});
    lte = std::make_unique<net::Link>(
        simulator, net::LinkConfig{.name = "lte",
                                   .bandwidth = net::BandwidthTrace::constant(8'000.0),
                                   .rtt = sim::milliseconds(60),
                                   .loss_rate = 0.0, .faults = {}});
  }

  MultipathTransport make_recovering(sim::Duration probe_interval =
                                         sim::seconds(0.5)) {
    core::TransportOptions options;
    options.recovery.enabled = true;
    options.recovery.max_retries = 3;
    options.recovery.base_backoff = sim::milliseconds(100);
    options.recovery.probe_interval = probe_interval;
    return MultipathTransport(simulator, {wifi.get(), lte.get()},
                              std::make_unique<ContentAwareScheduler>(),
                              options);
  }

  sim::Simulator simulator;
  std::unique_ptr<net::Link> wifi;
  std::unique_ptr<net::Link> lte;
};

TEST_F(MultipathFailoverTest, OutageFailsOverInFlightFovToSurvivingPath) {
  auto transport = make_recovering();
  int delivered_count = 0;
  // 2 MB at 2.5 MB/s: still in flight on wifi when the outage hits.
  for (int i = 0; i < 2; ++i) {
    auto req = request_of(abr::SpatialClass::kFov, false, 2'000'000,
                          sim::seconds(100.0));
    req.on_done = [&](sim::Time, core::FetchOutcome o) {
      delivered_count += core::delivered(o) ? 1 : 0;
    };
    transport.fetch(std::move(req));
  }
  simulator.run_until(sim::seconds(30.0));
  const auto& stats = transport.stats();
  EXPECT_EQ(delivered_count, 2);
  EXPECT_GE(stats.path_down_events, 1);
  EXPECT_GE(stats.failovers, 1);
  EXPECT_TRUE(transport.path_down(0));
  EXPECT_FALSE(transport.path_down(1));
}

TEST_F(MultipathFailoverTest, DownPathRecoversViaProbing) {
  rebuild(/*wifi_outage_s=*/1.0);  // outage [0.5, 1.5)
  auto transport = make_recovering(sim::seconds(0.5));
  auto req = request_of(abr::SpatialClass::kFov, false, 2'000'000,
                        sim::seconds(100.0));
  std::optional<core::FetchOutcome> outcome;
  req.on_done = [&](sim::Time, core::FetchOutcome o) { outcome = o; };
  transport.fetch(std::move(req));
  simulator.run_until(sim::seconds(30.0));
  ASSERT_TRUE(outcome.has_value());
  EXPECT_EQ(*outcome, core::FetchOutcome::kDelivered);
  EXPECT_GE(transport.stats().path_down_events, 1);
  // Probes at 1.0s (still dark) and 1.5s (clear): ~1s of downtime.
  EXPECT_FALSE(transport.path_down(0));
  EXPECT_NEAR(transport.stats().path_downtime_s, 1.0, 0.1);
}

TEST_F(MultipathFailoverTest, NewFetchesRouteAroundDownPath) {
  auto transport = make_recovering();
  // Trip the wifi path with one in-flight casualty.
  auto tripwire = request_of(abr::SpatialClass::kFov, false, 2'000'000,
                             sim::seconds(100.0));
  transport.fetch(std::move(tripwire));
  simulator.run_until(sim::seconds(2.0));
  ASSERT_TRUE(transport.path_down(0));
  const int lte_before = transport.stats().requests_per_path[1];
  // Content-aware would pick wifi for FoV; the down path forces LTE.
  std::optional<core::FetchOutcome> outcome;
  auto req = request_of(abr::SpatialClass::kFov, false, 100'000,
                        sim::seconds(100.0));
  req.on_done = [&](sim::Time, core::FetchOutcome o) { outcome = o; };
  transport.fetch(std::move(req));
  simulator.run_until(sim::seconds(10.0));
  ASSERT_TRUE(outcome.has_value());
  EXPECT_EQ(*outcome, core::FetchOutcome::kDelivered);
  EXPECT_EQ(transport.stats().requests_per_path[1], lte_before + 1);
}

// 64-bit FNV-1a over the bytes of `s`.
std::uint64_t fnv1a(const std::string& s) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const char c : s) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ULL;
  }
  return h;
}

// One multipath session over a faulted WiFi path and a clean LTE path, with
// transport recovery, session recovery and telemetry on; every report,
// QoE and MultipathStats field on one line (doubles as bit patterns), plus
// digests of the exported Chrome trace and metrics CSV.
std::string pinned_session(const char* scheduler_name) {
  const auto bits = [](double d) { return std::bit_cast<std::uint64_t>(d); };
  media::VideoModelConfig video_cfg;
  video_cfg.duration_s = 40.0;
  video_cfg.seed = 3;
  auto video = std::make_shared<media::VideoModel>(video_cfg);
  hmp::HeadTraceConfig trace_cfg;
  trace_cfg.duration_s = 200.0;
  trace_cfg.attractors = hmp::default_attractors(200.0, 5);
  trace_cfg.seed = 23;
  const hmp::HeadTrace head = hmp::generate_head_trace(trace_cfg);

  sim::Simulator simulator;
  obs::Telemetry telemetry;
  net::FaultPlan faults;
  faults.outages.push_back({.start_s = 6.0, .duration_s = 3.5});
  faults.capacity_collapses.push_back(
      {.start_s = 16.0, .duration_s = 6.0, .factor = 0.25});
  faults.transfer_failure_prob = 0.08;
  faults.seed = 11;
  net::Link wifi(simulator,
                 net::LinkConfig{.name = "wifi",
                                 .bandwidth = net::BandwidthTrace::markov_two_state(
                                     16'000.0, 2'000.0, 14.0, 4.0, 400.0, 7),
                                 .rtt = sim::milliseconds(18),
                                 .faults = std::move(faults)});
  net::Link lte(simulator,
                net::LinkConfig{.name = "lte",
                                .bandwidth = net::BandwidthTrace::constant(7'000.0),
                                .rtt = sim::milliseconds(55),
                                .loss_rate = 0.003, .faults = {}});
  core::TransportOptions options;
  options.max_concurrent = 2;
  options.telemetry = &telemetry;
  options.recovery.enabled = true;
  options.recovery.probe_interval = sim::milliseconds(700);
  MultipathTransport transport(simulator, {&wifi, &lte},
                               make_path_scheduler(scheduler_name), options);
  core::SessionConfig config;
  config.telemetry = &telemetry;
  config.fetch_recovery = true;
  core::StreamingSession session(simulator, video, transport, head, config);
  session.start();
  simulator.run_until(sim::seconds(300.0));

  const core::SessionReport r = session.report();
  const MultipathStats& st = transport.stats();
  std::uint64_t per_chunk = 0xcbf29ce484222325ULL;
  for (const double u : r.viewport_utility_per_chunk) {
    per_chunk = (per_chunk ^ bits(u)) * 0x100000001b3ULL;
  }
  std::ostringstream trace;
  obs::write_chrome_trace(trace, telemetry.trace().events());
  std::ostringstream metrics;
  obs::write_metrics_csv(metrics, telemetry.metrics());
  std::ostringstream out;
  out << "fetches=" << r.fetches << " urgent=" << r.urgent_fetches
      << " upgrades=" << r.upgrades << " late=" << r.late_corrections
      << " failures=" << r.fetch_failures << " degraded=" << r.degraded_retries
      << " completed=" << r.completed
      << " startup_us=" << r.startup_delay.count()
      << " wall_us=" << r.wall_duration.count()
      << " chunks=" << r.viewport_utility_per_chunk.size()
      << " qoe.played=" << r.qoe.chunks_played
      << " qoe.stalls=" << r.qoe.stall_events
      << " qoe.skipped=" << r.qoe.skipped_chunks
      << " qoe.downloaded=" << r.qoe.bytes_downloaded
      << " qoe.wasted=" << r.qoe.bytes_wasted << " path_bytes=";
  for (const std::int64_t b : st.bytes_per_path) out << b << ',';
  out << " path_requests=";
  for (const int n : st.requests_per_path) out << n << ',';
  out << " classes=";
  for (const int n : st.class_counts) out << n << ',';
  out << " dropped=" << st.dropped_best_effort << " failovers=" << st.failovers
      << " down_events=" << st.path_down_events << std::hex
      << " downtime=" << bits(st.path_downtime_s)
      << " qoe.utility=" << bits(r.qoe.mean_viewport_utility)
      << " qoe.stall_s=" << bits(r.qoe.stall_seconds)
      << " qoe.switch=" << bits(r.qoe.switch_magnitude)
      << " qoe.blank=" << bits(r.qoe.blank_fraction_mean)
      << " qoe.score=" << bits(r.qoe.score) << " per_chunk=" << per_chunk
      << " trace=" << fnv1a(trace.str()) << " metrics=" << fnv1a(metrics.str());
  return out.str();
}

// Exact outputs of the multipath transport under all three schedulers,
// recorded before its attempt lifecycle moved onto the shared core dispatch
// lane: any change to them is a behaviour change, not a refactor.
TEST(MultipathGolden, PinnedSessionsPerScheduler) {
  const std::vector<std::pair<const char*, std::string>> expected = {
      {"content-aware",
       "fetches=2993 urgent=122 upgrades=67 late=239 failures=53 "
       "degraded=3 completed=1 startup_us=278633 wall_us=50997393 "
       "chunks=40 qoe.played=40 qoe.stalls=18 qoe.skipped=0 "
       "qoe.downloaded=43346581 qoe.wasted=20757566 "
       "path_bytes=25491295,17855286, path_requests=1600,1393, "
       "classes=99,23,1707,1164, dropped=431 failovers=55 "
       "down_events=1 downtime=400c000000000000 "
       "qoe.utility=3fe4300bf2e10777 qoe.stall_s=402570014f8b588e "
       "qoe.switch=40190123f80351ec qoe.blank=0 "
       "qoe.score=c037e43cad7e3c42 per_chunk=2b3ac5e175604a47 "
       "trace=961bdd8d34837488 metrics=1a4165273d9f948"},
      // minrtt never gets past startup here: chunk-0 FoV tiles that time
      // out before playback starts are not re-requested, so the session
      // idles to the horizon. Pinned as observed.
      {"minrtt",
       "fetches=217 urgent=43 upgrades=0 late=0 failures=9 degraded=0 "
       "completed=0 startup_us=0 wall_us=300000000 chunks=0 "
       "qoe.played=0 qoe.stalls=0 qoe.skipped=0 qoe.downloaded=3416029 "
       "qoe.wasted=0 path_bytes=2616613,799416, path_requests=181,36, "
       "classes=20,23,60,114, dropped=0 failovers=0 down_events=0 "
       "downtime=0 qoe.utility=0 qoe.stall_s=0 qoe.switch=0 "
       "qoe.blank=0 qoe.score=0 per_chunk=cbf29ce484222325 "
       "trace=ce3e63dd8340367e metrics=4c04f098f08c16f0"},
      {"round-robin",
       "fetches=3021 urgent=52 upgrades=105 late=197 failures=68 "
       "degraded=0 completed=1 startup_us=410036 wall_us=71226178 "
       "chunks=40 qoe.played=40 qoe.stalls=24 qoe.skipped=0 "
       "qoe.downloaded=50797990 qoe.wasted=23064031 "
       "path_bytes=24116859,26681131, path_requests=1502,1519, "
       "classes=29,23,1763,1206, dropped=0 failovers=18 down_events=2 "
       "downtime=400c000000000000 qoe.utility=3fe8ce90f6f6e681 "
       "qoe.stall_s=403ed0eeae9ee45b qoe.switch=4017907902532bc8 "
       "qoe.blank=0 qoe.score=c0588968f196ef10 "
       "per_chunk=f4922019cea1194b trace=c391e212b375773c "
       "metrics=662ce3d1fb9dbbbf"},
  };
  for (const auto& [scheduler, fields] : expected) {
    EXPECT_EQ(pinned_session(scheduler), fields) << scheduler;
  }
}

TEST(PathSchedulerFactory, MakesKnownKinds) {
  EXPECT_EQ(make_path_scheduler("minrtt")->name(), "minrtt");
  EXPECT_EQ(make_path_scheduler("round-robin")->name(), "round-robin");
  EXPECT_EQ(make_path_scheduler("content-aware")->name(), "content-aware");
  EXPECT_THROW((void)make_path_scheduler("ecf"), std::invalid_argument);
}

}  // namespace
}  // namespace sperke::mp
