// Telemetry subsystem tests: metrics-registry semantics (handles, name
// collisions, histogram bucketing) and exporter determinism — two sessions
// with identical seeds must produce byte-identical Chrome trace JSON, and
// the metrics CSV must agree exactly with the SessionReport it mirrors.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <limits>
#include <memory>
#include <random>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "core/session.h"
#include "core/transport.h"
#include "hmp/head_trace.h"
#include "live/broadcast.h"
#include "live/platform.h"
#include "media/video_model.h"
#include "net/link.h"
#include "obs/export.h"
#include "obs/metrics.h"
#include "obs/sim_monitor.h"
#include "obs/slo.h"
#include "obs/telemetry.h"
#include "obs/timeseries.h"
#include "obs/trace.h"
#include "sim/simulator.h"
#include "util/check.h"
#include "util/csv.h"

namespace {

using namespace sperke;

TEST(Metrics, CounterAndGaugeBasics) {
  obs::MetricsRegistry registry;
  obs::Counter& c = registry.counter("fetches");
  c.increment();
  c.add(4);
  EXPECT_EQ(c.value(), 5);

  obs::Gauge& g = registry.gauge("depth");
  EXPECT_EQ(g.value(), 0.0);
  g.set(3.5);
  EXPECT_EQ(g.value(), 3.5);
}

TEST(Metrics, SameNameSameKindReturnsSameInstrument) {
  obs::MetricsRegistry registry;
  obs::Counter& a = registry.counter("x");
  a.add(7);
  obs::Counter& b = registry.counter("x");
  EXPECT_EQ(&a, &b);
  EXPECT_EQ(b.value(), 7);
  EXPECT_EQ(registry.size(), 1u);

  // Histogram bounds of the first registration win.
  obs::Histogram& h1 = registry.histogram("lat", {1.0, 2.0});
  obs::Histogram& h2 = registry.histogram("lat", {99.0});
  EXPECT_EQ(&h1, &h2);
  EXPECT_EQ(h2.upper_bounds(), (std::vector<double>{1.0, 2.0}));
}

TEST(Metrics, NameCollisionAcrossKindsThrows) {
  obs::MetricsRegistry registry;
  (void)registry.counter("clash");
  EXPECT_THROW((void)registry.gauge("clash"), std::invalid_argument);
  EXPECT_THROW((void)registry.histogram("clash"), std::invalid_argument);
  EXPECT_THROW((void)registry.counter(""), std::invalid_argument);
}

TEST(Metrics, FindDoesNotCreate) {
  obs::MetricsRegistry registry;
  EXPECT_EQ(registry.find_counter("nope"), nullptr);
  EXPECT_EQ(registry.find_gauge("nope"), nullptr);
  EXPECT_EQ(registry.find_histogram("nope"), nullptr);
  EXPECT_EQ(registry.size(), 0u);

  (void)registry.counter("c");
  EXPECT_NE(registry.find_counter("c"), nullptr);
  // Wrong-kind lookup is nullptr, not a throw.
  EXPECT_EQ(registry.find_gauge("c"), nullptr);
}

TEST(Metrics, HistogramBucketingAndStats) {
  obs::Histogram h({1.0, 5.0, 10.0});
  EXPECT_THROW(obs::Histogram({5.0, 1.0}), std::invalid_argument);

  h.observe(0.5);   // bucket le1
  h.observe(1.0);   // le1 (upper bound inclusive)
  h.observe(3.0);   // le5
  h.observe(100.0); // overflow
  EXPECT_EQ(h.count(), 4);
  EXPECT_DOUBLE_EQ(h.sum(), 104.5);
  EXPECT_DOUBLE_EQ(h.mean(), 104.5 / 4.0);
  EXPECT_DOUBLE_EQ(h.min(), 0.5);
  EXPECT_DOUBLE_EQ(h.max(), 100.0);
  EXPECT_EQ(h.bucket_counts(), (std::vector<std::int64_t>{2, 1, 0, 1}));

  obs::Histogram empty({1.0});
  EXPECT_EQ(empty.count(), 0);
  EXPECT_DOUBLE_EQ(empty.mean(), 0.0);
  EXPECT_DOUBLE_EQ(empty.min(), 0.0);
  EXPECT_DOUBLE_EQ(empty.max(), 0.0);
}

TEST(Metrics, QuantileBoundEmptyHistogramIsZero) {
  const obs::Histogram hist({1.0, 2.0});
  EXPECT_DOUBLE_EQ(obs::histogram_quantile_bound(hist, 0.0), 0.0);
  EXPECT_DOUBLE_EQ(obs::histogram_quantile_bound(hist, 0.5), 0.0);
  EXPECT_DOUBLE_EQ(obs::histogram_quantile_bound(hist, 1.0), 0.0);
}

TEST(Metrics, QuantileBoundSingleBucket) {
  obs::Histogram hist({5.0});
  hist.observe(1.0);
  hist.observe(2.0);
  hist.observe(3.0);
  // Every sample sits in the one finite bucket, so any interior quantile
  // reports its upper bound...
  EXPECT_DOUBLE_EQ(obs::histogram_quantile_bound(hist, 0.0), 5.0);
  EXPECT_DOUBLE_EQ(obs::histogram_quantile_bound(hist, 0.5), 5.0);
  // ...while q=1 walks past every finite bucket and reports the true max.
  EXPECT_DOUBLE_EQ(obs::histogram_quantile_bound(hist, 1.0), 3.0);
}

TEST(Metrics, QuantileBoundExtremeQuantiles) {
  obs::Histogram hist({1.0, 10.0, 100.0});
  for (const double x : {0.5, 5.0, 5.0, 50.0}) hist.observe(x);
  // q=0 is the first non-empty bucket's bound; q=1 is the observed max.
  EXPECT_DOUBLE_EQ(obs::histogram_quantile_bound(hist, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(obs::histogram_quantile_bound(hist, 1.0), 50.0);
}

TEST(Metrics, QuantileBoundOverflowBucketReportsMax) {
  obs::Histogram hist({1.0});
  hist.observe(42.0);  // beyond the last finite bound
  EXPECT_DOUBLE_EQ(obs::histogram_quantile_bound(hist, 0.5), 42.0);
}

TEST(Metrics, EntriesPreserveRegistrationOrder) {
  obs::MetricsRegistry registry;
  (void)registry.counter("b");
  (void)registry.gauge("a");
  (void)registry.histogram("c");
  (void)registry.counter("b");  // re-resolve must not reorder
  ASSERT_EQ(registry.entries().size(), 3u);
  EXPECT_EQ(registry.entries()[0].name, "b");
  EXPECT_EQ(registry.entries()[1].name, "a");
  EXPECT_EQ(registry.entries()[2].name, "c");
}

TEST(Trace, RecorderAppendsInOrder) {
  obs::Telemetry telemetry;
  telemetry.trace().record({.type = obs::TraceEventType::kStallBegin,
                            .ts = sim::seconds(1.0)});
  telemetry.trace().record({.type = obs::TraceEventType::kStallEnd,
                            .ts = sim::seconds(2.5),
                            .value = 1.5});
  ASSERT_EQ(telemetry.trace().size(), 2u);
  EXPECT_EQ(telemetry.trace().events()[0].type, obs::TraceEventType::kStallBegin);
  EXPECT_EQ(telemetry.trace().events()[1].value, 1.5);
  telemetry.trace().clear();
  EXPECT_EQ(telemetry.trace().size(), 0u);
}

TEST(Trace, EventNamesAndCategoriesAreStable) {
  EXPECT_EQ(obs::trace_event_name(obs::TraceEventType::kFetchDispatched),
            "FetchDispatched");
  EXPECT_EQ(obs::trace_event_category(obs::TraceEventType::kFetchDispatched),
            "fetch");
  EXPECT_EQ(obs::trace_event_name(obs::TraceEventType::kUpgradeDecided),
            "UpgradeDecided");
  EXPECT_EQ(obs::trace_event_category(obs::TraceEventType::kPathAssigned),
            "multipath");
}

// ---------------------------------------------------------------------------
// End-to-end: an instrumented seeded session.
// ---------------------------------------------------------------------------

constexpr double kVideoSeconds = 20.0;

std::shared_ptr<media::VideoModel> make_video() {
  media::VideoModelConfig cfg;
  cfg.duration_s = kVideoSeconds;
  cfg.tile_rows = 4;
  cfg.tile_cols = 6;
  cfg.seed = 11;
  return std::make_shared<media::VideoModel>(cfg);
}

hmp::HeadTrace make_trace(std::uint64_t seed) {
  hmp::HeadTraceConfig cfg;
  cfg.duration_s = kVideoSeconds + 60.0;
  cfg.profile = hmp::UserProfile::adult();
  cfg.attractors = hmp::default_attractors(cfg.duration_s, 99);
  cfg.seed = seed;
  return hmp::generate_head_trace(cfg);
}

// An outage mid-session guarantees at least one stall; SVC defaults with
// recovering bandwidth guarantee upgrades.
core::SessionReport run_instrumented(obs::Telemetry* telemetry) {
  sim::Simulator simulator;
  net::Link link(simulator,
                 net::LinkConfig{.name = "flaky",
                                 .bandwidth = net::BandwidthTrace::steps(
                                     {{0.0, 20'000.0}, {6.0, 0.0}, {16.0, 20'000.0}}),
                                 .rtt = sim::milliseconds(30), .faults = {}});
  net::LinkSource source(link);
  core::SingleLinkTransport transport(
      source, {.max_concurrent = 4, .telemetry = telemetry, .recovery = {}});
  auto video = make_video();
  const auto trace = make_trace(66);
  core::SessionConfig config;
  config.telemetry = telemetry;
  core::StreamingSession session(simulator, video, transport, trace, config);
  session.start();
  simulator.run_until(sim::seconds(300.0));
  return session.report();
}

TEST(TelemetryEndToEnd, MetricsMirrorSessionReportExactly) {
  obs::Telemetry telemetry;
  const auto report = run_instrumented(&telemetry);
  ASSERT_TRUE(report.completed);
  EXPECT_GT(report.qoe.stall_seconds, 0.0);

  const obs::MetricsRegistry& m = telemetry.metrics();
  ASSERT_NE(m.find_counter("session.fetches"), nullptr);
  EXPECT_EQ(m.find_counter("session.fetches")->value(), report.fetches);
  EXPECT_EQ(m.find_counter("session.urgent_fetches")->value(),
            report.urgent_fetches);
  EXPECT_EQ(m.find_counter("session.upgrades")->value(), report.upgrades);
  EXPECT_EQ(m.find_counter("session.late_corrections")->value(),
            report.late_corrections);
  EXPECT_EQ(m.find_counter("session.chunks_played")->value(),
            report.qoe.chunks_played);
  EXPECT_EQ(m.find_counter("session.stall_events")->value(),
            report.qoe.stall_events);
  // Bit-exact: both sides sum to_seconds(stall) per event in the same order.
  const obs::Histogram* stall_s = m.find_histogram("session.stall_s");
  ASSERT_NE(stall_s, nullptr);
  EXPECT_EQ(stall_s->sum(), report.qoe.stall_seconds);
  EXPECT_EQ(stall_s->count(), report.qoe.stall_events);
}

TEST(TelemetryEndToEnd, TraceContainsFetchStallUpgradeWithMonotonicTime) {
  obs::Telemetry telemetry;
  const auto report = run_instrumented(&telemetry);
  ASSERT_TRUE(report.completed);

  int dispatched = 0, done = 0, stalls_begin = 0, stalls_end = 0, upgrades = 0;
  sim::Time last{sim::kTimeZero};
  for (const obs::TraceEvent& e : telemetry.trace().events()) {
    EXPECT_GE(e.ts, last) << "trace timestamps must be monotonic";
    last = e.ts;
    switch (e.type) {
      case obs::TraceEventType::kFetchDispatched: ++dispatched; break;
      case obs::TraceEventType::kFetchDone: ++done; break;
      case obs::TraceEventType::kStallBegin: ++stalls_begin; break;
      case obs::TraceEventType::kStallEnd: ++stalls_end; break;
      case obs::TraceEventType::kUpgradeDecided: ++upgrades; break;
      default: break;
    }
  }
  EXPECT_EQ(dispatched, report.fetches);
  EXPECT_EQ(done, report.fetches);  // single link never drops
  EXPECT_EQ(stalls_begin, report.qoe.stall_events);
  EXPECT_EQ(stalls_end, report.qoe.stall_events);
  // One decision event per committed upgrade decision; each dispatches at
  // least one upgrade or late-correction fetch (possibly several SVC layers).
  EXPECT_GT(upgrades, 0);
  EXPECT_LE(upgrades, report.upgrades + report.late_corrections);
  EXPECT_EQ(telemetry.trace().events().front().type,
            obs::TraceEventType::kSessionStart);
}

TEST(TelemetryEndToEnd, IdenticalSeedsProduceByteIdenticalExports) {
  obs::Telemetry first;
  obs::Telemetry second;
  const auto report_a = run_instrumented(&first);
  const auto report_b = run_instrumented(&second);
  ASSERT_TRUE(report_a.completed);
  ASSERT_TRUE(report_b.completed);

  std::ostringstream json_a, json_b;
  obs::write_chrome_trace(json_a, first.trace().events());
  obs::write_chrome_trace(json_b, second.trace().events());
  EXPECT_FALSE(json_a.str().empty());
  EXPECT_EQ(json_a.str(), json_b.str());

  std::ostringstream csv_a, csv_b;
  obs::write_metrics_csv(csv_a, first.metrics());
  obs::write_metrics_csv(csv_b, second.metrics());
  EXPECT_EQ(csv_a.str(), csv_b.str());

  std::ostringstream jsonl_a, jsonl_b;
  obs::write_trace_jsonl(jsonl_a, first.trace().events());
  obs::write_trace_jsonl(jsonl_b, second.trace().events());
  EXPECT_EQ(jsonl_a.str(), jsonl_b.str());
}

TEST(TelemetryEndToEnd, ChromeTraceIsWellFormedJson) {
  obs::Telemetry telemetry;
  (void)run_instrumented(&telemetry);
  std::ostringstream out;
  obs::write_chrome_trace(out, telemetry.trace().events());
  const std::string json = out.str();

  // Structural sanity without a JSON parser: the array brackets balance,
  // every brace pairs up, and the span/metadata phases appear.
  ASSERT_GE(json.size(), 2u);
  EXPECT_EQ(json.front(), '[');
  EXPECT_EQ(json.back(), '\n');
  int depth = 0;
  bool in_string = false;
  for (std::size_t i = 0; i < json.size(); ++i) {
    const char c = json[i];
    if (in_string) {
      if (c == '\\') ++i;
      else if (c == '"') in_string = false;
      continue;
    }
    if (c == '"') in_string = true;
    else if (c == '{' || c == '[') ++depth;
    else if (c == '}' || c == ']') --depth;
    EXPECT_GE(depth, 0);
  }
  EXPECT_EQ(depth, 0);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);  // paired spans
  EXPECT_NE(json.find("\"ph\":\"M\""), std::string::npos);  // track names
  EXPECT_NE(json.find("\"name\":\"Fetch\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"Stall\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"UpgradeDecided\""), std::string::npos);
}

TEST(TelemetryEndToEnd, MetricsCsvCarriesSessionRows) {
  obs::Telemetry telemetry;
  const auto report = run_instrumented(&telemetry);
  std::ostringstream out;
  obs::write_metrics_csv(out, telemetry.metrics());
  const std::string csv = out.str();
  EXPECT_NE(csv.find("name,kind,count,sum,mean,min,max,value,buckets"),
            std::string::npos);
  EXPECT_NE(csv.find("session.fetches,counter"), std::string::npos);
  EXPECT_NE(csv.find("session.stall_s,histogram"), std::string::npos);
  EXPECT_NE(csv.find("transport.requests,counter"), std::string::npos);
  // The counter row carries the exact report value.
  EXPECT_NE(csv.find("session.fetches,counter,,,,,," +
                     std::to_string(report.fetches)),
            std::string::npos);
}

TEST(TelemetryEndToEnd, DisabledTelemetryRecordsNothing) {
  const auto report = run_instrumented(nullptr);
  EXPECT_TRUE(report.completed);  // null sink is the default-off fast path
}

TEST(SimMonitorTest, SamplesQueueDepthAndThroughput) {
  obs::Telemetry telemetry;
  sim::Simulator simulator;
  obs::SimMonitor monitor(simulator, telemetry, sim::seconds(1.0));
  for (int i = 0; i < 50; ++i) {
    simulator.schedule_at(sim::milliseconds(100 * i), [] {});
  }
  simulator.run_until(sim::seconds(10.0));
  const obs::Counter* samples = telemetry.metrics().find_counter("sim.samples");
  ASSERT_NE(samples, nullptr);
  EXPECT_GE(samples->value(), 5);
  const obs::Histogram* depth =
      telemetry.metrics().find_histogram("sim.queue_depth_hist");
  ASSERT_NE(depth, nullptr);
  EXPECT_EQ(depth->count(), samples->value());
  EXPECT_NE(telemetry.metrics().find_gauge("sim.events_per_sec"), nullptr);
}

#if SPERKE_DCHECK_IS_ON
TEST(MetricsDeathTest, CounterDecrementTripsDcheck) {
  obs::Counter c;
  EXPECT_DEATH(c.add(-1), "counter decremented");
}
#endif

TEST(Metrics, GaugeAddIsRelativeAndSigned) {
  obs::Gauge g;
  g.add(2.0);
  g.add(-0.5);
  EXPECT_DOUBLE_EQ(g.value(), 1.5);
}

// ---------------------------------------------------------------------------
// Time series sampling (DESIGN.md §12).
// ---------------------------------------------------------------------------

TEST(TimeSeriesTest, RecordsDeltasSamplesAndIntervalQuantiles) {
  obs::MetricsRegistry registry;
  obs::Counter& c = registry.counter("fetches");
  obs::Gauge& g = registry.gauge("depth");
  obs::Histogram& h = registry.histogram("lat_s", {1.0, 5.0});

  obs::TimeSeriesStore store(sim::seconds(1.0));
  EXPECT_THROW(obs::TimeSeriesStore(sim::Duration{0}), std::invalid_argument);

  c.add(3);
  g.set(2.0);
  h.observe(0.5);
  store.sample(registry);
  c.add(2);
  g.set(7.5);
  h.observe(100.0);  // overflow bucket
  store.sample(registry);

  ASSERT_EQ(store.intervals(), 2u);
  EXPECT_EQ(store.interval_end(0), sim::seconds(1.0));
  EXPECT_EQ(store.interval_end(1), sim::seconds(2.0));

  const obs::TimeSeries* fetches = store.find("fetches");
  ASSERT_NE(fetches, nullptr);
  EXPECT_EQ(fetches->counter_deltas, (std::vector<std::int64_t>{3, 2}));

  const obs::TimeSeries* depth = store.find("depth");
  ASSERT_NE(depth, nullptr);
  EXPECT_EQ(depth->gauge_samples, (std::vector<double>{2.0, 7.5}));

  const obs::TimeSeries* lat = store.find("lat_s");
  ASSERT_NE(lat, nullptr);
  EXPECT_EQ(lat->count_deltas, (std::vector<std::int64_t>{1, 1}));
  EXPECT_DOUBLE_EQ(obs::series_quantile_bound(*lat, 0, 0.5), 1.0);
  // Interval 1's only sample sits in the overflow bucket: the interval
  // quantile must read as worse-than-any-threshold, not as the lifetime max.
  EXPECT_TRUE(std::isinf(obs::series_quantile_bound(*lat, 1, 0.99)));
  // Across the two-interval window the lower quartile is still finite
  // (q=0.5 of {0.5, overflow} lands exactly on the bucket boundary, and the
  // bound semantics resolve boundary ties upward — to the overflow here).
  EXPECT_DOUBLE_EQ(obs::series_window_quantile_bound(*lat, 0, 1, 0.25), 1.0);
  EXPECT_TRUE(std::isinf(obs::series_window_quantile_bound(*lat, 0, 1, 0.5)));
}

TEST(TimeSeriesTest, LateInstrumentsZeroPadBackToIntervalZero) {
  obs::MetricsRegistry registry;
  obs::TimeSeriesStore store(sim::seconds(1.0));
  store.sample(registry);  // nothing registered yet
  registry.counter("late").add(5);
  store.sample(registry);
  const obs::TimeSeries* late = store.find("late");
  ASSERT_NE(late, nullptr);
  EXPECT_EQ(late->counter_deltas, (std::vector<std::int64_t>{0, 5}));
}

TEST(TimeSeriesTest, MergeAddsElementwiseAndValidatesShape) {
  obs::MetricsRegistry reg_a;
  obs::MetricsRegistry reg_b;
  obs::TimeSeriesStore a(sim::seconds(1.0));
  obs::TimeSeriesStore b(sim::seconds(1.0));
  reg_a.counter("c").add(1);
  reg_b.counter("c").add(10);
  reg_a.gauge("g").set(0.5);
  reg_b.gauge("g").set(2.0);
  a.sample(reg_a);
  b.sample(reg_b);

  a.merge_from(b);
  EXPECT_EQ(a.find("c")->counter_deltas, (std::vector<std::int64_t>{11}));
  // Gauge samples add across shards: the merged level is the fleet total,
  // mirroring Gauge::merge_from.
  EXPECT_EQ(a.find("g")->gauge_samples, (std::vector<double>{2.5}));

  // An inactive store adopts the other wholesale (the engine merges into a
  // default-constructed EngineResult::series).
  obs::TimeSeriesStore merged;
  merged.merge_from(b);
  EXPECT_EQ(merged.period(), sim::seconds(1.0));
  EXPECT_EQ(merged.find("c")->counter_deltas, (std::vector<std::int64_t>{10}));

  // Shape mismatches throw instead of silently corrupting SLO input.
  obs::TimeSeriesStore other_period(sim::seconds(2.0));
  other_period.sample(reg_b);
  EXPECT_THROW(a.merge_from(other_period), std::invalid_argument);
  b.sample(reg_b);  // b now has 2 intervals, a has 1
  EXPECT_THROW(a.merge_from(b), std::invalid_argument);
}

// ---------------------------------------------------------------------------
// SLO evaluation.
// ---------------------------------------------------------------------------

TEST(SloTest, ValidateRejectsMalformedSpecs) {
  obs::SloSpec ok{.name = "stall.ratio_p99", .metric = "m"};
  EXPECT_NO_THROW(obs::validate_slo(ok));
  obs::SloSpec spec = ok;
  spec.name = "Bad Name";
  EXPECT_THROW(obs::validate_slo(spec), std::invalid_argument);
  spec = ok;
  spec.metric = "";
  EXPECT_THROW(obs::validate_slo(spec), std::invalid_argument);
  spec = ok;
  // The quantile only matters (and is only validated) for quantile signals.
  spec.quantile = 1.5;
  EXPECT_NO_THROW(obs::validate_slo(spec));
  spec.signal = obs::SloSignal::kHistogramQuantile;
  EXPECT_THROW(obs::validate_slo(spec), std::invalid_argument);
  spec = ok;
  spec.window_intervals = 0;
  EXPECT_THROW(obs::validate_slo(spec), std::invalid_argument);
}

TEST(SloTest, GaugeSloBreachesClearsAndBurnsBudget) {
  obs::Telemetry telemetry;
  obs::Gauge& stalled = telemetry.metrics().gauge("session.stalled");
  obs::TimeSeriesStore store(sim::seconds(1.0));
  obs::SloEvaluator evaluator(
      {{.name = "stall", .metric = "session.stalled",
        .signal = obs::SloSignal::kGaugeValue, .threshold = 0.5,
        .window_intervals = 1}},
      store, telemetry);
  // The error-budget counter exists before any breach, so the metric set
  // does not depend on the breach pattern.
  ASSERT_NE(telemetry.metrics().find_counter("slo.stall.breached_intervals"),
            nullptr);

  stalled.set(0.0);
  store.sample(telemetry.metrics());
  evaluator.evaluate();  // healthy
  stalled.set(1.0);
  store.sample(telemetry.metrics());
  evaluator.evaluate();  // breach
  store.sample(telemetry.metrics());
  evaluator.evaluate();  // still breached: budget burns, no new event
  stalled.set(0.0);
  store.sample(telemetry.metrics());
  evaluator.evaluate();  // clear

  std::vector<obs::TraceEvent> slo_events;
  for (const obs::TraceEvent& e : telemetry.trace().events()) {
    if (e.type == obs::TraceEventType::kSloBreach ||
        e.type == obs::TraceEventType::kSloClear) {
      slo_events.push_back(e);
    }
  }
  ASSERT_EQ(slo_events.size(), 2u);
  EXPECT_EQ(slo_events[0].type, obs::TraceEventType::kSloBreach);
  EXPECT_EQ(slo_events[0].ts, sim::seconds(2.0));  // end of interval 1
  EXPECT_EQ(slo_events[0].chunk, 0);               // SLO index in the spec list
  EXPECT_DOUBLE_EQ(slo_events[0].value, 1.0);      // the breaching signal
  EXPECT_EQ(slo_events[1].type, obs::TraceEventType::kSloClear);
  EXPECT_EQ(slo_events[1].ts, sim::seconds(4.0));

  EXPECT_EQ(
      telemetry.metrics().find_counter("slo.stall.breached_intervals")->value(),
      2);
  const std::vector<obs::SloStatus> status = evaluator.status();
  ASSERT_EQ(status.size(), 1u);
  EXPECT_EQ(status[0].name, "stall");
  EXPECT_EQ(status[0].evaluated_intervals, 4);
  EXPECT_EQ(status[0].breached_intervals, 2);
  EXPECT_EQ(status[0].breach_events, 1);
  EXPECT_FALSE(status[0].breached_at_end);
  EXPECT_DOUBLE_EQ(status[0].last_signal, 0.0);
}

TEST(SloTest, CounterRateAndQuantileSignals) {
  obs::Telemetry telemetry;
  obs::Counter& reqs = telemetry.metrics().counter("reqs");
  obs::Histogram& lat = telemetry.metrics().histogram("lat_s", {1.0});
  obs::TimeSeriesStore store(sim::seconds(2.0));
  obs::SloEvaluator evaluator(
      {{.name = "rate", .metric = "reqs",
        .signal = obs::SloSignal::kCounterRate, .threshold = 4.0,
        .window_intervals = 1},
       {.name = "p99", .metric = "lat_s",
        .signal = obs::SloSignal::kHistogramQuantile, .quantile = 0.99,
        .threshold = 1e9, .window_intervals = 1}},
      store, telemetry);

  reqs.add(10);       // 10 per 2 s interval = 5/s > 4 -> rate breaches
  lat.observe(50.0);  // overflow bucket: +inf quantile beats any threshold
  store.sample(telemetry.metrics());
  evaluator.evaluate();

  const std::vector<obs::SloStatus> status = evaluator.status();
  ASSERT_EQ(status.size(), 2u);
  EXPECT_TRUE(status[0].breached_at_end);
  EXPECT_DOUBLE_EQ(status[0].last_signal, 5.0);
  EXPECT_TRUE(status[1].breached_at_end);
  EXPECT_TRUE(std::isinf(status[1].last_signal));
}

TEST(SloTest, MergeStatusSumsAcrossShardsAndRequiresSameSpecs) {
  obs::SloStatus a{.name = "s", .evaluated_intervals = 4,
                   .breached_intervals = 1, .breach_events = 1,
                   .breached_at_end = false, .last_signal = 0.5};
  obs::SloStatus b{.name = "s", .evaluated_intervals = 4,
                   .breached_intervals = 3, .breach_events = 2,
                   .breached_at_end = true, .last_signal = 1.0};
  std::vector<obs::SloStatus> into;
  obs::merge_slo_status(into, {a});  // empty side adopts
  obs::merge_slo_status(into, {b});
  ASSERT_EQ(into.size(), 1u);
  EXPECT_EQ(into[0].evaluated_intervals, 4);  // per-shard count, not a sum
  EXPECT_EQ(into[0].breached_intervals, 4);
  EXPECT_EQ(into[0].breach_events, 3);
  EXPECT_TRUE(into[0].breached_at_end);
  EXPECT_DOUBLE_EQ(into[0].last_signal, 1.5);

  std::vector<obs::SloStatus> wrong = {{.name = "other"}};
  EXPECT_THROW(obs::merge_slo_status(wrong, {a}), std::invalid_argument);

  const std::string table =
      obs::slo_table({{.name = "s", .metric = "m"}}, into);
  EXPECT_NE(table.find("s"), std::string::npos);
  EXPECT_NE(table.find("BREACHED"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Exporters: hostile names, JSONL, nested causal spans.
// ---------------------------------------------------------------------------

TEST(ExportCsv, HostileMetricNamesRoundTripQuoted) {
  // Deliberately evil instrument name: quote, comma, and newline. (tests/
  // is exempt from the lint's metric-name rule for exactly this case.)
  const std::string evil = "evil\"name,with\nnewline";
  obs::MetricsRegistry registry;
  registry.counter(evil).add(7);
  std::ostringstream out;
  obs::write_metrics_csv(out, registry);
  const std::string csv = out.str();
  // Quoted with the embedded quote doubled, per RFC 4180.
  EXPECT_NE(csv.find("\"evil\"\"name,with\nnewline\""), std::string::npos);
  const auto rows = parse_csv(csv);
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_EQ(rows[1][0], evil);
  EXPECT_EQ(rows[1][7], "7");
}

TEST(ExportJsonl, OneObjectPerEventCarryingRequestFields) {
  obs::Telemetry telemetry;
  telemetry.trace().record({.type = obs::TraceEventType::kFetchDispatched,
                            .ts = sim::seconds(1.0),
                            .tile = 3,
                            .chunk = 2,
                            .quality = 1,
                            .request = 5});
  telemetry.trace().record({.type = obs::TraceEventType::kFetchDone,
                            .ts = sim::seconds(1.5),
                            .bytes = 1234,
                            .request = 5,
                            .parent = 4});
  std::ostringstream out;
  obs::write_trace_jsonl(out, telemetry.trace().events());
  const std::string jsonl = out.str();
  std::istringstream lines(jsonl);
  std::string line;
  int count = 0;
  while (std::getline(lines, line)) {
    ++count;
    EXPECT_EQ(line.front(), '{');
    EXPECT_EQ(line.back(), '}');
  }
  EXPECT_EQ(count, 2);
  EXPECT_NE(jsonl.find("\"event\":\"FetchDispatched\""), std::string::npos);
  EXPECT_NE(jsonl.find("\"request\":5"), std::string::npos);
  EXPECT_NE(jsonl.find("\"parent\":4"), std::string::npos);
}

TEST(ExportChromeTrace, NestsAttemptAndRetrySpansByRequestId) {
  std::vector<obs::TraceEvent> events;
  // Request 1: one attempt, delivered.
  events.push_back({.type = obs::TraceEventType::kFetchDispatched,
                    .ts = sim::seconds(1.0), .tile = 0, .chunk = 0,
                    .quality = 2, .request = 1});
  events.push_back({.type = obs::TraceEventType::kFetchAttemptStart,
                    .ts = sim::seconds(1.0), .value = 0.0, .request = 1});
  events.push_back({.type = obs::TraceEventType::kFetchAttemptEnd,
                    .ts = sim::seconds(1.2), .value = 0.0, .request = 1});
  events.push_back({.type = obs::TraceEventType::kFetchDone,
                    .ts = sim::seconds(1.2), .bytes = 100, .request = 1});
  // Request 2 replaces request 1 (degraded retry): its attempt 1 is a
  // transport-level retry, and its fetch span must render as FetchRetry.
  events.push_back({.type = obs::TraceEventType::kFetchDispatched,
                    .ts = sim::seconds(2.0), .tile = 0, .chunk = 0,
                    .quality = 0, .request = 2, .parent = 1});
  events.push_back({.type = obs::TraceEventType::kFetchAttemptStart,
                    .ts = sim::seconds(2.0), .value = 1.0, .request = 2});
  events.push_back({.type = obs::TraceEventType::kFetchAttemptEnd,
                    .ts = sim::seconds(2.4), .value = 1.0, .request = 2});
  events.push_back({.type = obs::TraceEventType::kFetchDone,
                    .ts = sim::seconds(2.4), .bytes = 50, .request = 2,
                    .parent = 1});
  // Request 3 never completes: flushed as an instant, not lost.
  events.push_back({.type = obs::TraceEventType::kFetchDispatched,
                    .ts = sim::seconds(3.0), .tile = 1, .chunk = 1,
                    .quality = 1, .request = 3});

  std::ostringstream out;
  obs::write_chrome_trace(out, events);
  const std::string json = out.str();
  EXPECT_NE(json.find("\"name\":\"Fetch\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"Attempt\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"FetchRetry\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"Retry\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"FetchDispatched\""), std::string::npos);
  EXPECT_NE(json.find("\"parent\":1"), std::string::npos);
  // Both same-cell fetches must close: two X-phase fetch spans, not one.
  EXPECT_NE(json.find("\"dur\":200000"), std::string::npos);  // 1.0 -> 1.2 s
  EXPECT_NE(json.find("\"dur\":400000"), std::string::npos);  // 2.0 -> 2.4 s
}

// ---------------------------------------------------------------------------
// Exporter byte pins: the exact Chrome trace and JSONL bytes of a hand-built
// event vector, and digests of a seeded stream. A diff here is a change of
// the export format, never a refactor.
// ---------------------------------------------------------------------------

// Every pairing branch of write_chrome_trace, in one event vector: request
// spans (Fetch / FetchRetry / FetchDropped), untraced cell spans, transport
// Attempt / Retry spans, a Stall span, orphan ends of each kind, several
// unclosed leftovers per open-span table (all at one timestamp, so only
// the flush order separates them), records tied on ts, and the double /
// integer formatting edge values.
std::vector<obs::TraceEvent> golden_events() {
  using T = obs::TraceEventType;
  const auto at = [](std::int64_t us) { return sim::Time{us}; };
  const double inf = std::numeric_limits<double>::infinity();
  return {
      {.type = T::kSessionStart, .ts = at(0)},
      {.type = T::kPlanComputed, .ts = at(1000), .chunk = 0, .value = 0.0},
      // Request 1: first attempt fails, the transport retry delivers.
      {.type = T::kFetchDispatched, .ts = at(1000), .tile = 0, .chunk = 0,
       .quality = 2, .urgent = true, .request = 1},
      {.type = T::kFetchAttemptStart, .ts = at(1000), .value = 0.0,
       .request = 1},
      // Untraced cell span opening on the same tick.
      {.type = T::kFetchDispatched, .ts = at(1000), .tile = 1, .chunk = 0,
       .quality = 0},
      {.type = T::kFetchAttemptEnd, .ts = at(1500), .value = 0.0,
       .request = 1},
      {.type = T::kFetchAttemptStart, .ts = at(1500), .value = 1.0,
       .request = 1},
      {.type = T::kFetchDone, .ts = at(1800), .tile = 1, .chunk = 0,
       .quality = 0, .bytes = 4096},
      {.type = T::kFetchAttemptEnd, .ts = at(2500), .value = 1.0,
       .request = 1},
      {.type = T::kFetchDone, .ts = at(2500), .tile = 0, .chunk = 0,
       .quality = 2, .bytes = std::numeric_limits<std::int64_t>::max(),
       .request = 1},
      // Request 2 replaces request 1; only its dispatch names the parent.
      {.type = T::kFetchDispatched, .ts = at(3000), .tile = 0, .chunk = 0,
       .quality = 0, .request = 2, .parent = 1},
      {.type = T::kFetchDispatched, .ts = at(3000), .tile = 2, .chunk = 1,
       .quality = 1, .request = 3},
      {.type = T::kFetchDone, .ts = at(3400), .tile = 0, .chunk = 0,
       .quality = 0, .bytes = 512, .request = 2},
      {.type = T::kFetchDropped, .ts = at(3600), .tile = 2, .chunk = 1,
       .quality = 1, .request = 3},
      // Untraced cell dropped at its deadline.
      {.type = T::kFetchDispatched, .ts = at(3700), .tile = 3, .chunk = 1,
       .quality = 0},
      {.type = T::kFetchDropped, .ts = at(3900), .tile = 3, .chunk = 1,
       .quality = 0},
      // A stall span, then an orphan StallEnd.
      {.type = T::kStallBegin, .ts = at(4000)},
      {.type = T::kStallEnd, .ts = at(4750), .value = 0.00075},
      {.type = T::kStallEnd, .ts = at(5000), .value = 0.25},
      // Orphan ends of every fetch kind.
      {.type = T::kFetchDone, .ts = at(5000), .bytes = 7, .request = 99},
      {.type = T::kFetchDropped, .ts = at(5000), .request = 98},
      {.type = T::kFetchDone, .ts = at(5000), .tile = 9, .chunk = 9,
       .quality = 9},
      {.type = T::kFetchDropped, .ts = at(5000), .tile = 8, .chunk = 8,
       .quality = 8},
      {.type = T::kFetchAttemptEnd, .ts = at(5000), .value = 2.0,
       .request = 97},
      // Formatting edge values on the instants of every other track.
      {.type = T::kUpgradeDecided, .ts = at(6000), .tile = 4, .chunk = 2,
       .quality = 3, .value = -0.0},
      {.type = T::kChunkPlayed, .ts = at(6000), .chunk = 1, .value = 1e-7},
      {.type = T::kPathAssigned, .ts = at(6000), .path = 1, .value = 0.1},
      {.type = T::kSegmentCaptured, .ts = at(6100), .chunk = 5,
       .value = 1.0 / 3.0},
      {.type = T::kSegmentDropped, .ts = at(6100), .chunk = 6,
       .value = 123456789012.5},
      {.type = T::kSegmentDisplayed, .ts = at(6100), .chunk = 5,
       .value = 1e21},
      {.type = T::kSloBreach, .ts = at(6200), .value = -2.5},
      {.type = T::kSloClear, .ts = at(6300),
       .value = std::numeric_limits<double>::denorm_min()},
      {.type = T::kChunkPlayed, .ts = at(6400), .value = inf},
      {.type = T::kChunkPlayed, .ts = at(6400), .value = -inf},
      // A type outside the enumerators lands on the "sim" track.
      {.type = static_cast<T>(200), .ts = at(6500)},
      // Unclosed leftovers, inserted out of key order; re-opening a key
      // replaces its begin.
      {.type = T::kFetchDispatched, .ts = at(7000), .tile = 5, .chunk = 3,
       .quality = 1},
      {.type = T::kFetchDispatched, .ts = at(7000), .tile = 1, .chunk = 4,
       .quality = 0},
      {.type = T::kFetchDispatched, .ts = at(7000), .tile = 5, .chunk = 2,
       .quality = 2},
      {.type = T::kFetchDispatched, .ts = at(7000), .tile = 5, .chunk = 3,
       .quality = 0},
      {.type = T::kFetchDispatched, .ts = at(7000), .tile = 6, .request = 40},
      {.type = T::kFetchDispatched, .ts = at(7000), .tile = 7, .request = 7},
      {.type = T::kFetchDispatched, .ts = at(7000), .tile = 8, .request = 25},
      {.type = T::kFetchDispatched, .ts = at(7000), .tile = 9, .urgent = true,
       .request = 40},
      {.type = T::kFetchAttemptStart, .ts = at(7000), .value = 3.0,
       .request = 7},
      {.type = T::kFetchAttemptStart, .ts = at(7000), .value = 1.0,
       .request = 7},
      {.type = T::kFetchAttemptStart, .ts = at(7000), .value = 5.0,
       .request = 2},
      {.type = T::kFetchAttemptStart, .ts = at(7000), .value = 1.75,
       .request = 25},
      {.type = T::kStallBegin, .ts = at(7000), .value = 1.0},
      {.type = T::kStallBegin, .ts = at(7000), .value = 2.0},
      {.type = T::kSessionEnd, .ts = at(7000)},
  };
}

// A 20k-event stream drawn from raw std::mt19937_64 output (no
// distribution objects, whose algorithms are implementation-defined):
// random types, unsorted timestamps, small request / cell spaces so begins
// and ends pair, and doubles spanning many binades.
std::vector<obs::TraceEvent> seeded_events() {
  std::mt19937_64 rng(20240613);
  std::vector<obs::TraceEvent> events;
  events.reserve(20000);
  for (int i = 0; i < 20000; ++i) {
    const std::uint64_t a = rng();
    const std::uint64_t b = rng();
    obs::TraceEvent e;
    e.type = static_cast<obs::TraceEventType>(a % 18);
    e.ts = sim::Time{static_cast<std::int64_t>((a >> 8) % 60'000'000)};
    e.tile = static_cast<std::int32_t>((a >> 40) % 6) - 1;
    e.chunk = static_cast<std::int32_t>((a >> 44) % 5);
    e.quality = static_cast<std::int32_t>((a >> 48) % 3);
    e.path = static_cast<std::int32_t>((a >> 52) % 3) - 1;
    e.bytes = static_cast<std::int64_t>(b >> 20);
    e.urgent = ((a >> 56) & 1U) != 0;
    e.request = static_cast<std::int64_t>((b >> 4) % 48);
    e.parent = ((b >> 10) & 3U) == 0 ? static_cast<std::int64_t>((b >> 12) % 48)
                                      : 0;
    const bool attempt = e.type == obs::TraceEventType::kFetchAttemptStart ||
                         e.type == obs::TraceEventType::kFetchAttemptEnd;
    e.value = attempt ? static_cast<double>(b % 3)
                      : std::ldexp(static_cast<double>(b >> 11) *
                                       ((b & 1U) != 0 ? -1.0 : 1.0),
                                   static_cast<int>((a >> 57) % 80) - 100);
    events.push_back(e);
  }
  return events;
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

constexpr std::string_view kGoldenChrome = R"golden([
{"name":"thread_name","ph":"M","pid":1,"tid":1,"args":{"name":"session"}},
{"name":"thread_name","ph":"M","pid":1,"tid":2,"args":{"name":"plan"}},
{"name":"thread_name","ph":"M","pid":1,"tid":3,"args":{"name":"fetch"}},
{"name":"thread_name","ph":"M","pid":1,"tid":4,"args":{"name":"playback"}},
{"name":"thread_name","ph":"M","pid":1,"tid":5,"args":{"name":"multipath"}},
{"name":"thread_name","ph":"M","pid":1,"tid":6,"args":{"name":"live"}},
{"name":"thread_name","ph":"M","pid":1,"tid":7,"args":{"name":"sim"}},
{"name":"thread_name","ph":"M","pid":1,"tid":8,"args":{"name":"slo"}},
{"name":"SessionStart","cat":"session","ph":"i","s":"t","ts":0,"pid":1,"tid":1,"args":{"tile":-1,"chunk":-1,"quality":-1,"path":-1,"bytes":0,"urgent":false,"value":0,"request":0,"parent":0}},
{"name":"PlanComputed","cat":"plan","ph":"i","s":"t","ts":1000,"pid":1,"tid":2,"args":{"tile":-1,"chunk":0,"quality":-1,"path":-1,"bytes":0,"urgent":false,"value":0,"request":0,"parent":0}},
{"name":"Attempt","cat":"fetch","ph":"X","dur":500,"ts":1000,"pid":1,"tid":3,"args":{"tile":-1,"chunk":-1,"quality":-1,"path":-1,"bytes":0,"urgent":false,"value":0,"request":1,"parent":0}},
{"name":"Fetch","cat":"fetch","ph":"X","dur":800,"ts":1000,"pid":1,"tid":3,"args":{"tile":1,"chunk":0,"quality":0,"path":-1,"bytes":4096,"urgent":false,"value":0,"request":0,"parent":0}},
{"name":"Fetch","cat":"fetch","ph":"X","dur":1500,"ts":1000,"pid":1,"tid":3,"args":{"tile":0,"chunk":0,"quality":2,"path":-1,"bytes":9223372036854775807,"urgent":true,"value":0,"request":1,"parent":0}},
{"name":"Retry","cat":"fetch","ph":"X","dur":1000,"ts":1500,"pid":1,"tid":3,"args":{"tile":-1,"chunk":-1,"quality":-1,"path":-1,"bytes":0,"urgent":false,"value":1,"request":1,"parent":0}},
{"name":"FetchRetry","cat":"fetch","ph":"X","dur":400,"ts":3000,"pid":1,"tid":3,"args":{"tile":0,"chunk":0,"quality":0,"path":-1,"bytes":512,"urgent":false,"value":0,"request":2,"parent":1}},
{"name":"FetchDropped","cat":"fetch","ph":"X","dur":600,"ts":3000,"pid":1,"tid":3,"args":{"tile":2,"chunk":1,"quality":1,"path":-1,"bytes":0,"urgent":false,"value":0,"request":3,"parent":0}},
{"name":"FetchDropped","cat":"fetch","ph":"X","dur":200,"ts":3700,"pid":1,"tid":3,"args":{"tile":3,"chunk":1,"quality":0,"path":-1,"bytes":0,"urgent":false,"value":0,"request":0,"parent":0}},
{"name":"Stall","cat":"playback","ph":"X","dur":750,"ts":4000,"pid":1,"tid":4,"args":{"tile":-1,"chunk":-1,"quality":-1,"path":-1,"bytes":0,"urgent":false,"value":0.00075,"request":0,"parent":0}},
{"name":"StallEnd","cat":"playback","ph":"i","s":"t","ts":5000,"pid":1,"tid":4,"args":{"tile":-1,"chunk":-1,"quality":-1,"path":-1,"bytes":0,"urgent":false,"value":0.25,"request":0,"parent":0}},
{"name":"FetchDone","cat":"fetch","ph":"i","s":"t","ts":5000,"pid":1,"tid":3,"args":{"tile":-1,"chunk":-1,"quality":-1,"path":-1,"bytes":7,"urgent":false,"value":0,"request":99,"parent":0}},
{"name":"FetchDropped","cat":"fetch","ph":"i","s":"t","ts":5000,"pid":1,"tid":3,"args":{"tile":-1,"chunk":-1,"quality":-1,"path":-1,"bytes":0,"urgent":false,"value":0,"request":98,"parent":0}},
{"name":"FetchDone","cat":"fetch","ph":"i","s":"t","ts":5000,"pid":1,"tid":3,"args":{"tile":9,"chunk":9,"quality":9,"path":-1,"bytes":0,"urgent":false,"value":0,"request":0,"parent":0}},
{"name":"FetchDropped","cat":"fetch","ph":"i","s":"t","ts":5000,"pid":1,"tid":3,"args":{"tile":8,"chunk":8,"quality":8,"path":-1,"bytes":0,"urgent":false,"value":0,"request":0,"parent":0}},
{"name":"FetchAttemptEnd","cat":"fetch","ph":"i","s":"t","ts":5000,"pid":1,"tid":3,"args":{"tile":-1,"chunk":-1,"quality":-1,"path":-1,"bytes":0,"urgent":false,"value":2,"request":97,"parent":0}},
{"name":"UpgradeDecided","cat":"plan","ph":"i","s":"t","ts":6000,"pid":1,"tid":2,"args":{"tile":4,"chunk":2,"quality":3,"path":-1,"bytes":0,"urgent":false,"value":-0,"request":0,"parent":0}},
{"name":"ChunkPlayed","cat":"playback","ph":"i","s":"t","ts":6000,"pid":1,"tid":4,"args":{"tile":-1,"chunk":1,"quality":-1,"path":-1,"bytes":0,"urgent":false,"value":1e-07,"request":0,"parent":0}},
{"name":"PathAssigned","cat":"multipath","ph":"i","s":"t","ts":6000,"pid":1,"tid":5,"args":{"tile":-1,"chunk":-1,"quality":-1,"path":1,"bytes":0,"urgent":false,"value":0.1,"request":0,"parent":0}},
{"name":"SegmentCaptured","cat":"live","ph":"i","s":"t","ts":6100,"pid":1,"tid":6,"args":{"tile":-1,"chunk":5,"quality":-1,"path":-1,"bytes":0,"urgent":false,"value":0.333333333333,"request":0,"parent":0}},
{"name":"SegmentDropped","cat":"live","ph":"i","s":"t","ts":6100,"pid":1,"tid":6,"args":{"tile":-1,"chunk":6,"quality":-1,"path":-1,"bytes":0,"urgent":false,"value":123456789012,"request":0,"parent":0}},
{"name":"SegmentDisplayed","cat":"live","ph":"i","s":"t","ts":6100,"pid":1,"tid":6,"args":{"tile":-1,"chunk":5,"quality":-1,"path":-1,"bytes":0,"urgent":false,"value":1e+21,"request":0,"parent":0}},
{"name":"SloBreach","cat":"slo","ph":"i","s":"t","ts":6200,"pid":1,"tid":8,"args":{"tile":-1,"chunk":-1,"quality":-1,"path":-1,"bytes":0,"urgent":false,"value":-2.5,"request":0,"parent":0}},
{"name":"SloClear","cat":"slo","ph":"i","s":"t","ts":6300,"pid":1,"tid":8,"args":{"tile":-1,"chunk":-1,"quality":-1,"path":-1,"bytes":0,"urgent":false,"value":4.94065645841e-324,"request":0,"parent":0}},
{"name":"ChunkPlayed","cat":"playback","ph":"i","s":"t","ts":6400,"pid":1,"tid":4,"args":{"tile":-1,"chunk":-1,"quality":-1,"path":-1,"bytes":0,"urgent":false,"value":inf,"request":0,"parent":0}},
{"name":"ChunkPlayed","cat":"playback","ph":"i","s":"t","ts":6400,"pid":1,"tid":4,"args":{"tile":-1,"chunk":-1,"quality":-1,"path":-1,"bytes":0,"urgent":false,"value":-inf,"request":0,"parent":0}},
{"name":"?","cat":"?","ph":"i","s":"t","ts":6500,"pid":1,"tid":7,"args":{"tile":-1,"chunk":-1,"quality":-1,"path":-1,"bytes":0,"urgent":false,"value":0,"request":0,"parent":0}},
{"name":"SessionEnd","cat":"session","ph":"i","s":"t","ts":7000,"pid":1,"tid":1,"args":{"tile":-1,"chunk":-1,"quality":-1,"path":-1,"bytes":0,"urgent":false,"value":0,"request":0,"parent":0}},
{"name":"FetchDispatched","cat":"fetch","ph":"i","s":"t","ts":7000,"pid":1,"tid":3,"args":{"tile":1,"chunk":4,"quality":0,"path":-1,"bytes":0,"urgent":false,"value":0,"request":0,"parent":0}},
{"name":"FetchDispatched","cat":"fetch","ph":"i","s":"t","ts":7000,"pid":1,"tid":3,"args":{"tile":5,"chunk":2,"quality":2,"path":-1,"bytes":0,"urgent":false,"value":0,"request":0,"parent":0}},
{"name":"FetchDispatched","cat":"fetch","ph":"i","s":"t","ts":7000,"pid":1,"tid":3,"args":{"tile":5,"chunk":3,"quality":0,"path":-1,"bytes":0,"urgent":false,"value":0,"request":0,"parent":0}},
{"name":"FetchDispatched","cat":"fetch","ph":"i","s":"t","ts":7000,"pid":1,"tid":3,"args":{"tile":5,"chunk":3,"quality":1,"path":-1,"bytes":0,"urgent":false,"value":0,"request":0,"parent":0}},
{"name":"FetchDispatched","cat":"fetch","ph":"i","s":"t","ts":7000,"pid":1,"tid":3,"args":{"tile":7,"chunk":-1,"quality":-1,"path":-1,"bytes":0,"urgent":false,"value":0,"request":7,"parent":0}},
{"name":"FetchDispatched","cat":"fetch","ph":"i","s":"t","ts":7000,"pid":1,"tid":3,"args":{"tile":8,"chunk":-1,"quality":-1,"path":-1,"bytes":0,"urgent":false,"value":0,"request":25,"parent":0}},
{"name":"FetchDispatched","cat":"fetch","ph":"i","s":"t","ts":7000,"pid":1,"tid":3,"args":{"tile":9,"chunk":-1,"quality":-1,"path":-1,"bytes":0,"urgent":true,"value":0,"request":40,"parent":0}},
{"name":"FetchAttemptStart","cat":"fetch","ph":"i","s":"t","ts":7000,"pid":1,"tid":3,"args":{"tile":-1,"chunk":-1,"quality":-1,"path":-1,"bytes":0,"urgent":false,"value":5,"request":2,"parent":0}},
{"name":"FetchAttemptStart","cat":"fetch","ph":"i","s":"t","ts":7000,"pid":1,"tid":3,"args":{"tile":-1,"chunk":-1,"quality":-1,"path":-1,"bytes":0,"urgent":false,"value":1,"request":7,"parent":0}},
{"name":"FetchAttemptStart","cat":"fetch","ph":"i","s":"t","ts":7000,"pid":1,"tid":3,"args":{"tile":-1,"chunk":-1,"quality":-1,"path":-1,"bytes":0,"urgent":false,"value":3,"request":7,"parent":0}},
{"name":"FetchAttemptStart","cat":"fetch","ph":"i","s":"t","ts":7000,"pid":1,"tid":3,"args":{"tile":-1,"chunk":-1,"quality":-1,"path":-1,"bytes":0,"urgent":false,"value":1.75,"request":25,"parent":0}},
{"name":"StallBegin","cat":"playback","ph":"i","s":"t","ts":7000,"pid":1,"tid":4,"args":{"tile":-1,"chunk":-1,"quality":-1,"path":-1,"bytes":0,"urgent":false,"value":2,"request":0,"parent":0}}
]
)golden";

constexpr std::string_view kGoldenJsonl = R"golden({"event":"SessionStart","cat":"session","ts_us":0,"args":{"tile":-1,"chunk":-1,"quality":-1,"path":-1,"bytes":0,"urgent":false,"value":0,"request":0,"parent":0}}
{"event":"PlanComputed","cat":"plan","ts_us":1000,"args":{"tile":-1,"chunk":0,"quality":-1,"path":-1,"bytes":0,"urgent":false,"value":0,"request":0,"parent":0}}
{"event":"FetchDispatched","cat":"fetch","ts_us":1000,"args":{"tile":0,"chunk":0,"quality":2,"path":-1,"bytes":0,"urgent":true,"value":0,"request":1,"parent":0}}
{"event":"FetchAttemptStart","cat":"fetch","ts_us":1000,"args":{"tile":-1,"chunk":-1,"quality":-1,"path":-1,"bytes":0,"urgent":false,"value":0,"request":1,"parent":0}}
{"event":"FetchDispatched","cat":"fetch","ts_us":1000,"args":{"tile":1,"chunk":0,"quality":0,"path":-1,"bytes":0,"urgent":false,"value":0,"request":0,"parent":0}}
{"event":"FetchAttemptEnd","cat":"fetch","ts_us":1500,"args":{"tile":-1,"chunk":-1,"quality":-1,"path":-1,"bytes":0,"urgent":false,"value":0,"request":1,"parent":0}}
{"event":"FetchAttemptStart","cat":"fetch","ts_us":1500,"args":{"tile":-1,"chunk":-1,"quality":-1,"path":-1,"bytes":0,"urgent":false,"value":1,"request":1,"parent":0}}
{"event":"FetchDone","cat":"fetch","ts_us":1800,"args":{"tile":1,"chunk":0,"quality":0,"path":-1,"bytes":4096,"urgent":false,"value":0,"request":0,"parent":0}}
{"event":"FetchAttemptEnd","cat":"fetch","ts_us":2500,"args":{"tile":-1,"chunk":-1,"quality":-1,"path":-1,"bytes":0,"urgent":false,"value":1,"request":1,"parent":0}}
{"event":"FetchDone","cat":"fetch","ts_us":2500,"args":{"tile":0,"chunk":0,"quality":2,"path":-1,"bytes":9223372036854775807,"urgent":false,"value":0,"request":1,"parent":0}}
{"event":"FetchDispatched","cat":"fetch","ts_us":3000,"args":{"tile":0,"chunk":0,"quality":0,"path":-1,"bytes":0,"urgent":false,"value":0,"request":2,"parent":1}}
{"event":"FetchDispatched","cat":"fetch","ts_us":3000,"args":{"tile":2,"chunk":1,"quality":1,"path":-1,"bytes":0,"urgent":false,"value":0,"request":3,"parent":0}}
{"event":"FetchDone","cat":"fetch","ts_us":3400,"args":{"tile":0,"chunk":0,"quality":0,"path":-1,"bytes":512,"urgent":false,"value":0,"request":2,"parent":0}}
{"event":"FetchDropped","cat":"fetch","ts_us":3600,"args":{"tile":2,"chunk":1,"quality":1,"path":-1,"bytes":0,"urgent":false,"value":0,"request":3,"parent":0}}
{"event":"FetchDispatched","cat":"fetch","ts_us":3700,"args":{"tile":3,"chunk":1,"quality":0,"path":-1,"bytes":0,"urgent":false,"value":0,"request":0,"parent":0}}
{"event":"FetchDropped","cat":"fetch","ts_us":3900,"args":{"tile":3,"chunk":1,"quality":0,"path":-1,"bytes":0,"urgent":false,"value":0,"request":0,"parent":0}}
{"event":"StallBegin","cat":"playback","ts_us":4000,"args":{"tile":-1,"chunk":-1,"quality":-1,"path":-1,"bytes":0,"urgent":false,"value":0,"request":0,"parent":0}}
{"event":"StallEnd","cat":"playback","ts_us":4750,"args":{"tile":-1,"chunk":-1,"quality":-1,"path":-1,"bytes":0,"urgent":false,"value":0.00075,"request":0,"parent":0}}
{"event":"StallEnd","cat":"playback","ts_us":5000,"args":{"tile":-1,"chunk":-1,"quality":-1,"path":-1,"bytes":0,"urgent":false,"value":0.25,"request":0,"parent":0}}
{"event":"FetchDone","cat":"fetch","ts_us":5000,"args":{"tile":-1,"chunk":-1,"quality":-1,"path":-1,"bytes":7,"urgent":false,"value":0,"request":99,"parent":0}}
{"event":"FetchDropped","cat":"fetch","ts_us":5000,"args":{"tile":-1,"chunk":-1,"quality":-1,"path":-1,"bytes":0,"urgent":false,"value":0,"request":98,"parent":0}}
{"event":"FetchDone","cat":"fetch","ts_us":5000,"args":{"tile":9,"chunk":9,"quality":9,"path":-1,"bytes":0,"urgent":false,"value":0,"request":0,"parent":0}}
{"event":"FetchDropped","cat":"fetch","ts_us":5000,"args":{"tile":8,"chunk":8,"quality":8,"path":-1,"bytes":0,"urgent":false,"value":0,"request":0,"parent":0}}
{"event":"FetchAttemptEnd","cat":"fetch","ts_us":5000,"args":{"tile":-1,"chunk":-1,"quality":-1,"path":-1,"bytes":0,"urgent":false,"value":2,"request":97,"parent":0}}
{"event":"UpgradeDecided","cat":"plan","ts_us":6000,"args":{"tile":4,"chunk":2,"quality":3,"path":-1,"bytes":0,"urgent":false,"value":-0,"request":0,"parent":0}}
{"event":"ChunkPlayed","cat":"playback","ts_us":6000,"args":{"tile":-1,"chunk":1,"quality":-1,"path":-1,"bytes":0,"urgent":false,"value":1e-07,"request":0,"parent":0}}
{"event":"PathAssigned","cat":"multipath","ts_us":6000,"args":{"tile":-1,"chunk":-1,"quality":-1,"path":1,"bytes":0,"urgent":false,"value":0.1,"request":0,"parent":0}}
{"event":"SegmentCaptured","cat":"live","ts_us":6100,"args":{"tile":-1,"chunk":5,"quality":-1,"path":-1,"bytes":0,"urgent":false,"value":0.333333333333,"request":0,"parent":0}}
{"event":"SegmentDropped","cat":"live","ts_us":6100,"args":{"tile":-1,"chunk":6,"quality":-1,"path":-1,"bytes":0,"urgent":false,"value":123456789012,"request":0,"parent":0}}
{"event":"SegmentDisplayed","cat":"live","ts_us":6100,"args":{"tile":-1,"chunk":5,"quality":-1,"path":-1,"bytes":0,"urgent":false,"value":1e+21,"request":0,"parent":0}}
{"event":"SloBreach","cat":"slo","ts_us":6200,"args":{"tile":-1,"chunk":-1,"quality":-1,"path":-1,"bytes":0,"urgent":false,"value":-2.5,"request":0,"parent":0}}
{"event":"SloClear","cat":"slo","ts_us":6300,"args":{"tile":-1,"chunk":-1,"quality":-1,"path":-1,"bytes":0,"urgent":false,"value":4.94065645841e-324,"request":0,"parent":0}}
{"event":"ChunkPlayed","cat":"playback","ts_us":6400,"args":{"tile":-1,"chunk":-1,"quality":-1,"path":-1,"bytes":0,"urgent":false,"value":inf,"request":0,"parent":0}}
{"event":"ChunkPlayed","cat":"playback","ts_us":6400,"args":{"tile":-1,"chunk":-1,"quality":-1,"path":-1,"bytes":0,"urgent":false,"value":-inf,"request":0,"parent":0}}
{"event":"?","cat":"?","ts_us":6500,"args":{"tile":-1,"chunk":-1,"quality":-1,"path":-1,"bytes":0,"urgent":false,"value":0,"request":0,"parent":0}}
{"event":"FetchDispatched","cat":"fetch","ts_us":7000,"args":{"tile":5,"chunk":3,"quality":1,"path":-1,"bytes":0,"urgent":false,"value":0,"request":0,"parent":0}}
{"event":"FetchDispatched","cat":"fetch","ts_us":7000,"args":{"tile":1,"chunk":4,"quality":0,"path":-1,"bytes":0,"urgent":false,"value":0,"request":0,"parent":0}}
{"event":"FetchDispatched","cat":"fetch","ts_us":7000,"args":{"tile":5,"chunk":2,"quality":2,"path":-1,"bytes":0,"urgent":false,"value":0,"request":0,"parent":0}}
{"event":"FetchDispatched","cat":"fetch","ts_us":7000,"args":{"tile":5,"chunk":3,"quality":0,"path":-1,"bytes":0,"urgent":false,"value":0,"request":0,"parent":0}}
{"event":"FetchDispatched","cat":"fetch","ts_us":7000,"args":{"tile":6,"chunk":-1,"quality":-1,"path":-1,"bytes":0,"urgent":false,"value":0,"request":40,"parent":0}}
{"event":"FetchDispatched","cat":"fetch","ts_us":7000,"args":{"tile":7,"chunk":-1,"quality":-1,"path":-1,"bytes":0,"urgent":false,"value":0,"request":7,"parent":0}}
{"event":"FetchDispatched","cat":"fetch","ts_us":7000,"args":{"tile":8,"chunk":-1,"quality":-1,"path":-1,"bytes":0,"urgent":false,"value":0,"request":25,"parent":0}}
{"event":"FetchDispatched","cat":"fetch","ts_us":7000,"args":{"tile":9,"chunk":-1,"quality":-1,"path":-1,"bytes":0,"urgent":true,"value":0,"request":40,"parent":0}}
{"event":"FetchAttemptStart","cat":"fetch","ts_us":7000,"args":{"tile":-1,"chunk":-1,"quality":-1,"path":-1,"bytes":0,"urgent":false,"value":3,"request":7,"parent":0}}
{"event":"FetchAttemptStart","cat":"fetch","ts_us":7000,"args":{"tile":-1,"chunk":-1,"quality":-1,"path":-1,"bytes":0,"urgent":false,"value":1,"request":7,"parent":0}}
{"event":"FetchAttemptStart","cat":"fetch","ts_us":7000,"args":{"tile":-1,"chunk":-1,"quality":-1,"path":-1,"bytes":0,"urgent":false,"value":5,"request":2,"parent":0}}
{"event":"FetchAttemptStart","cat":"fetch","ts_us":7000,"args":{"tile":-1,"chunk":-1,"quality":-1,"path":-1,"bytes":0,"urgent":false,"value":1.75,"request":25,"parent":0}}
{"event":"StallBegin","cat":"playback","ts_us":7000,"args":{"tile":-1,"chunk":-1,"quality":-1,"path":-1,"bytes":0,"urgent":false,"value":1,"request":0,"parent":0}}
{"event":"StallBegin","cat":"playback","ts_us":7000,"args":{"tile":-1,"chunk":-1,"quality":-1,"path":-1,"bytes":0,"urgent":false,"value":2,"request":0,"parent":0}}
{"event":"SessionEnd","cat":"session","ts_us":7000,"args":{"tile":-1,"chunk":-1,"quality":-1,"path":-1,"bytes":0,"urgent":false,"value":0,"request":0,"parent":0}}
)golden";

TEST(ExportGolden, HandBuiltEventsExportExactBytes) {
  const std::vector<obs::TraceEvent> events = golden_events();
  std::ostringstream chrome;
  std::ostringstream jsonl;
  obs::write_chrome_trace(chrome, events);
  obs::write_trace_jsonl(jsonl, events);
  EXPECT_EQ(chrome.str(), kGoldenChrome);
  EXPECT_EQ(jsonl.str(), kGoldenJsonl);
}

TEST(ExportGolden, SeededStreamDigests) {
  const std::vector<obs::TraceEvent> events = seeded_events();
  std::ostringstream chrome;
  std::ostringstream jsonl;
  obs::write_chrome_trace(chrome, events);
  obs::write_trace_jsonl(jsonl, events);
  EXPECT_EQ(chrome.str().size(), 3704823u);
  EXPECT_EQ(fnv1a(chrome.str()), 0x4f7f601c39ea52b5ULL);
  EXPECT_EQ(jsonl.str().size(), 3803883u);
  EXPECT_EQ(fnv1a(jsonl.str()), 0x32693a4df7ec30a6ULL);
}

TEST(TelemetryEndToEnd, FetchEventsCarryUniqueCausalRequestIds) {
  obs::Telemetry telemetry;
  const auto report = run_instrumented(&telemetry);
  ASSERT_TRUE(report.completed);
  std::set<std::int64_t> dispatched_ids;
  int attempts = 0;
  for (const obs::TraceEvent& e : telemetry.trace().events()) {
    switch (e.type) {
      case obs::TraceEventType::kFetchDispatched:
        EXPECT_GT(e.request, 0) << "traced dispatch without a request id";
        EXPECT_TRUE(dispatched_ids.insert(e.request).second)
            << "request id " << e.request << " reused";
        break;
      case obs::TraceEventType::kFetchDone:
      case obs::TraceEventType::kFetchDropped:
        EXPECT_TRUE(dispatched_ids.count(e.request))
            << "completion for unknown request " << e.request;
        break;
      case obs::TraceEventType::kFetchAttemptStart:
        EXPECT_TRUE(dispatched_ids.count(e.request))
            << "attempt for unknown request " << e.request;
        ++attempts;
        break;
      default:
        break;
    }
  }
  EXPECT_FALSE(dispatched_ids.empty());
  // Every dispatched request puts at least one attempt on the wire.
  EXPECT_GE(attempts, static_cast<int>(dispatched_ids.size()));
}

// ---------------------------------------------------------------------------
// SimMonitor satellites.
// ---------------------------------------------------------------------------

TEST(SimMonitorTest, ZeroElapsedSampleRecordsDepthButNoRate) {
  obs::Telemetry telemetry;
  sim::Simulator simulator;
  obs::SimMonitor monitor(simulator, telemetry, sim::seconds(1.0));
  monitor.sample_now();  // elapsed == 0: must not divide by zero
  EXPECT_EQ(telemetry.metrics().find_counter("sim.samples")->value(), 1);
  EXPECT_EQ(
      telemetry.metrics().find_histogram("sim.queue_depth_hist")->count(), 1);
  EXPECT_DOUBLE_EQ(telemetry.metrics().find_gauge("sim.events_per_sec")->value(),
                   0.0);
}

TEST(SimMonitorTest, StopHaltsSamplingAndReArmContinuesCounts) {
  obs::Telemetry telemetry;
  sim::Simulator simulator;
  const obs::Counter* samples = nullptr;
  {
    obs::SimMonitor monitor(simulator, telemetry, sim::seconds(1.0));
    simulator.run_until(sim::seconds(3.0));
    samples = telemetry.metrics().find_counter("sim.samples");
    ASSERT_NE(samples, nullptr);
    EXPECT_EQ(samples->value(), 3);
    monitor.stop();
    EXPECT_FALSE(monitor.running());
    simulator.run_until(sim::seconds(6.0));
    EXPECT_EQ(samples->value(), 3);  // stopped: no further samples
  }
  // Re-arm on the same telemetry: instruments resolve by name, so the
  // counts continue instead of resetting.
  obs::SimMonitor rearmed(simulator, telemetry, sim::seconds(1.0));
  EXPECT_TRUE(rearmed.running());
  simulator.run_until(sim::seconds(8.0));
  EXPECT_EQ(samples->value(), 5);
}

TEST(SimMonitorTest, QueueDepthQuantileAgreesWithHistogramBound) {
  obs::Telemetry telemetry;
  sim::Simulator simulator;
  obs::SimMonitor monitor(simulator, telemetry, sim::seconds(1.0));
  for (int i = 0; i < 200; ++i) {
    simulator.schedule_at(sim::milliseconds(50 * i), [] {});
  }
  simulator.run_until(sim::seconds(10.0));
  const obs::Histogram* hist =
      telemetry.metrics().find_histogram("sim.queue_depth_hist");
  ASSERT_NE(hist, nullptr);
  ASSERT_GT(hist->count(), 0);
  for (const double q : {0.0, 0.5, 0.9, 0.99, 1.0}) {
    EXPECT_DOUBLE_EQ(monitor.queue_depth_quantile(q),
                     obs::histogram_quantile_bound(*hist, q))
        << "q=" << q;
  }
}

TEST(LiveTelemetry, LatencyHistogramMirrorsResult) {
  obs::Telemetry telemetry;
  live::LiveBroadcastSession::Config cfg;
  cfg.platform = live::PlatformProfile::facebook();
  cfg.telemetry = &telemetry;
  const auto result = live::LiveBroadcastSession(cfg).run();
  const obs::Histogram* latency =
      telemetry.metrics().find_histogram("live.e2e_latency_s");
  ASSERT_NE(latency, nullptr);
  EXPECT_EQ(latency->count(), result.segments_displayed);
  EXPECT_NEAR(latency->mean(), result.mean_e2e_latency_s, 1e-9);
  int displayed_events = 0;
  for (const obs::TraceEvent& e : telemetry.trace().events()) {
    if (e.type == obs::TraceEventType::kSegmentDisplayed) ++displayed_events;
  }
  EXPECT_GT(displayed_events, 0);
}

}  // namespace
