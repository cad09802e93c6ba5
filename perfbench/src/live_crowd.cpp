// live_crowd: one live broadcast watched by a crowd of tiled live viewers
// in one simulator (no engine), all reading and writing one LiveCrowdHmp.
#include <memory>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "core/transport.h"
#include "hmp/head_trace.h"
#include "live/crowd.h"
#include "live/tiled_viewer.h"
#include "media/video_model.h"
#include "net/chunk_source.h"
#include "net/link.h"
#include "obs/sim_monitor.h"
#include "obs/telemetry.h"
#include "replay.h"
#include "sim/simulator.h"
#include "workloads.h"

namespace perfbench {

using namespace sperke;

namespace {

constexpr int kViewers = 128;
constexpr int kViewersPerLink = 8;
constexpr double kBroadcastSeconds = 60.0;
constexpr double kMinTargetS = 4.0;
constexpr double kMaxTargetS = 30.0;
constexpr double kLinkKbps = 40'000.0;
constexpr double kHorizonS = kBroadcastSeconds + kMaxTargetS + 30.0;

// Fixed content (see engine_workloads.cpp); the seed draws the viewers,
// their latency targets and the links.
constexpr std::uint64_t kVideoModelSeed = 7;
constexpr std::uint64_t kAttractorModelSeed = 4242;

enum SeedStream : std::uint64_t {
  kTraceSeed = 1000,     // + viewer
  kLinkSeed = 100000,    // + link
  kShuffleSeed = 200000, // + position
};

// Host-side probes of the traced run, fed by the decorators below.
struct Probes {
  CallTimes net_fetch;        // net::ChunkSource::fetch around LinkSource
  CallTimes transport_fetch;  // core::ChunkTransport::fetch
  std::vector<double> fetch_latency_ms;  // virtual time, request to delivery
  std::int64_t transfer_failures = 0;
};

// net::ChunkSource decorator: times each fetch into the link and counts
// failed transfers; behaviour passes through unchanged.
class TimedSource final : public net::ChunkSource {
 public:
  TimedSource(net::ChunkSource& inner, Probes& probes) : inner_(inner), probes_(probes) {}

  net::FetchId fetch(const net::FetchSpec& spec, net::TransferCallback on_done) override {
    net::TransferCallback counted = [this, done = std::move(on_done)](
                                        const net::TransferResult& result) {
      if (result.status == net::TransferStatus::kFailed) ++probes_.transfer_failures;
      done(result);
    };
    return timed(probes_.net_fetch, [&] { return inner_.fetch(spec, std::move(counted)); });
  }
  bool cancel(net::FetchId id) override { return inner_.cancel(id); }
  [[nodiscard]] sim::Duration rtt() const override { return inner_.rtt(); }
  [[nodiscard]] sim::Simulator& simulator() override { return inner_.simulator(); }

 private:
  net::ChunkSource& inner_;
  Probes& probes_;
};

// core::ChunkTransport decorator: times each fetch call and records the
// virtual-time latency from request to delivery.
class TimedTransport final : public core::ChunkTransport {
 public:
  TimedTransport(core::ChunkTransport& inner, sim::Simulator& simulator, Probes& probes)
      : inner_(inner), simulator_(simulator), probes_(probes) {}

  void fetch(core::ChunkRequest request) override {
    const sim::Time sent = simulator_.now();
    request.on_done = [this, sent, done = std::move(request.on_done)](
                          sim::Time when, core::FetchOutcome outcome) {
      if (core::delivered(outcome)) {
        probes_.fetch_latency_ms.push_back(sim::to_milliseconds(when - sent));
      }
      if (done) done(when, outcome);
    };
    timed(probes_.transport_fetch, [&] { inner_.fetch(std::move(request)); });
  }
  [[nodiscard]] double estimated_kbps() const override { return inner_.estimated_kbps(); }
  [[nodiscard]] int in_flight() const override { return inner_.in_flight(); }
  [[nodiscard]] std::int64_t bytes_fetched() const override {
    return inner_.bytes_fetched();
  }

 private:
  core::ChunkTransport& inner_;
  sim::Simulator& simulator_;
  Probes& probes_;
};

// End-to-end targets evenly spread over [4, 30] s, dealt to viewers in a
// seeded order, so every link carries a mix of low- and high-latency viewers.
std::vector<double> e2e_targets(std::uint64_t seed) {
  std::vector<double> targets(kViewers);
  for (int v = 0; v < kViewers; ++v) {
    targets[static_cast<std::size_t>(v)] =
        kMinTargetS + (kMaxTargetS - kMinTargetS) * v / (kViewers - 1);
  }
  for (int i = kViewers - 1; i > 0; --i) {
    const auto j = derive_seed(seed, kShuffleSeed + static_cast<std::uint64_t>(i)) %
                   static_cast<std::uint64_t>(i + 1);
    std::swap(targets[static_cast<std::size_t>(i)], targets[j]);
  }
  return targets;
}

// The whole live world. Members are declared in dependency order, so
// destruction tears sessions down before what they reference.
struct LiveWorld {
  sim::Simulator simulator;
  std::shared_ptr<const media::VideoModel> video;
  std::vector<double> targets;
  std::vector<hmp::HeadTrace> traces;
  std::unique_ptr<live::LiveCrowdHmp> crowd;
  std::vector<std::unique_ptr<net::Link>> links;
  std::vector<std::unique_ptr<net::ChunkSource>> sources;
  std::vector<std::unique_ptr<core::ChunkTransport>> transports;
  std::vector<std::unique_ptr<live::TiledLiveSession>> sessions;

  // Builds and starts every viewer. With `probes`, the fetch path runs
  // through the timing decorators and `spans` records the build.
  LiveWorld(std::uint64_t seed, Probes* probes, Spans* spans);
};

LiveWorld::LiveWorld(std::uint64_t seed, Probes* probes, Spans* spans) {
  media::VideoModelConfig video_config;
  video_config.duration_s = kBroadcastSeconds;
  video_config.chunk_duration_s = 1.0;
  video_config.tile_rows = 4;
  video_config.tile_cols = 6;
  video_config.seed = kVideoModelSeed;
  video = std::make_shared<const media::VideoModel>(video_config);
  targets = e2e_targets(seed);

  hmp::HeadTraceConfig trace_config;
  trace_config.duration_s = kBroadcastSeconds + kMaxTargetS;
  trace_config.sample_rate_hz = 25.0;
  trace_config.attractors =
      hmp::default_attractors(trace_config.duration_s, kAttractorModelSeed);
  traces.reserve(kViewers);
  for (int v = 0; v < kViewers; ++v) {
    trace_config.seed = derive_seed(seed, kTraceSeed + static_cast<std::uint64_t>(v));
    const ScopedSpan span(spans, "hmp.generate_head_trace");
    traces.push_back(hmp::generate_head_trace(trace_config));
  }
  crowd = std::make_unique<live::LiveCrowdHmp>(video->tile_count(), video->chunk_count());

  const ScopedSpan span(spans, "live.build");
  std::vector<net::ChunkSource*> link_sources;  // what each link's viewers fetch from
  for (int l = 0; l < kViewers / kViewersPerLink; ++l) {
    net::LinkConfig link;
    link.name = "dl";
    link.bandwidth = net::BandwidthTrace::random_walk(
        kLinkKbps, 0.05, 1.0, kHorizonS,
        derive_seed(seed, kLinkSeed + static_cast<std::uint64_t>(l)), 0.5 * kLinkKbps,
        1.5 * kLinkKbps);
    link.rtt = sim::milliseconds(30);
    links.push_back(std::make_unique<net::Link>(simulator, link));
    sources.push_back(std::make_unique<net::LinkSource>(*links.back()));
    if (probes != nullptr) {
      sources.push_back(std::make_unique<TimedSource>(*sources.back(), *probes));
    }
    link_sources.push_back(sources.back().get());
  }
  for (int v = 0; v < kViewers; ++v) {
    transports.push_back(std::make_unique<core::SingleLinkTransport>(
        *link_sources[static_cast<std::size_t>(v / kViewersPerLink)],
        core::TransportOptions{.max_concurrent = 12, .recovery = {}}));
    if (probes != nullptr) {
      transports.push_back(
          std::make_unique<TimedTransport>(*transports.back(), simulator, *probes));
    }
    live::TiledLiveConfig config;
    config.e2e_target_s = targets[static_cast<std::size_t>(v)];
    sessions.push_back(std::make_unique<live::TiledLiveSession>(
        simulator, video, *transports.back(), traces[static_cast<std::size_t>(v)],
        config, crowd.get()));
    sessions.back()->start();
  }
}

// Deterministic outputs of a finished live world; a failed check throws.
SimStats world_stats(const LiveWorld& world) {
  SimStats stats;
  for (const auto& session : world.sessions) {
    const live::TiledLiveReport r = session->report();
    stats.add_session(r.qoe, r.finished);
    if (r.finished && r.chunks_played + r.chunks_skipped != world.video->chunk_count()) {
      throw std::runtime_error("a finished viewer neither played nor skipped a chunk");
    }
    Digest& d = stats.digest;
    d.add(std::int64_t{r.chunks_played});
    d.add(std::int64_t{r.chunks_skipped});
    d.add(r.mean_blank_fraction);
    d.add(std::int64_t{r.fetches});
    d.add(std::int64_t{r.upgrades});
    d.add(std::int64_t{r.fetch_failures});
    d.add(std::int64_t{r.degraded_retries});
  }
  for (media::ChunkIndex c = 0; c < world.video->chunk_count(); ++c) {
    stats.digest.add(std::int64_t{world.crowd->observations(c, sim::seconds(kHorizonS))});
  }
  return stats;
}

RepSample live_rep(std::uint64_t seed) {
  RepSample rep;
  const double cpu_start = process_cpu_s();
  const auto start = Clock::now();
  LiveWorld world(seed, nullptr, nullptr);
  rep.setup_s = seconds_since(start);
  world.simulator.run_until(sim::seconds(kHorizonS));
  rep.wall_s = seconds_since(start);
  rep.cpu_s = process_cpu_s() - cpu_start;
  rep.sim = world_stats(world);
  return rep;
}

// Wall time at which chunk c can be fetched, which is when viewers plan it.
sim::Time available_at(const media::VideoModel& video, media::ChunkIndex c) {
  return video.chunk_start_time(c) + video.chunk_duration() +
         live::TiledLiveConfig{}.ingest_delay;
}

// When a live viewer plans chunk c: the moment c is ingested, with the
// content it has watched so far and its buffer to c's deadline.
Decision live_decision(const media::VideoModel& video, double e2e_target_s,
                       media::ChunkIndex c) {
  const sim::Time available = available_at(video, c);
  const sim::Duration latency = sim::seconds(e2e_target_s);
  const sim::Time content =
      available > latency ? available - latency : sim::kTimeZero;
  return {.content = content,
          .horizon = video.chunk_start_time(c) - content,
          .buffer_level = video.chunk_start_time(c) + latency - available};
}

// The traced run: an untraced repetition, the same world with the fetch
// path decorated and a SimMonitor attached, another untraced repetition
// (the two bracket the tracing overhead), all with the same outputs; then
// the geo/hmp/abr replay of every viewer and its crowd-map reads.
Outcome traced_live(const RunOptions& options) {
  Outcome out;
  const RepSample reference = live_rep(options.seed);
  out.attempted += kViewers;

  Spans spans;
  Probes probes;
  const double cpu_start = process_cpu_s();
  const int root = spans.open("traced_world");
  int span = spans.open("live.world_build");
  LiveWorld world(options.seed, &probes, &spans);
  spans.close(span);
  obs::Telemetry telemetry;  // receives only the monitor's queue-depth samples
  obs::SimMonitor monitor(world.simulator, telemetry);
  span = spans.open("sim.run");
  world.simulator.run_until(sim::seconds(kHorizonS));
  const double run_s = spans.close(span);
  spans.close(root);
  const double trace_gen_s = spans.total_s("hmp.generate_head_trace");
  const double build_s = spans.total_s("live.build");
  const double traced_cpu_s = process_cpu_s() - cpu_start;
  const RepSample reference_after = live_rep(options.seed);
  out.attempted += 2 * kViewers;

  const SimStats traced = world_stats(world);
  out.expect(traced.digest.value() == reference.sim.digest.value() &&
                 reference_after.sim.digest.value() == reference.sim.digest.value(),
             "traced run digest " + hex(traced.digest.value()) +
                 " differs from untraced " + hex(reference.sim.digest.value()));

  // Replay each viewer through geo / hmp / abr, and its crowd-map reads.
  span = spans.open("replay");
  LayerTimes layers;
  CallTimes crowd_reads;
  const live::TiledLiveConfig defaults;
  for (int v = 0; v < kViewers; ++v) {
    const double target = world.targets[static_cast<std::size_t>(v)];
    const ReplayViewer viewer{
        .trace = &world.traces[static_cast<std::size_t>(v)],
        .estimated_kbps = kLinkKbps / kViewersPerLink,
        .decision = [&](media::ChunkIndex c) {
          return live_decision(*world.video, target, c);
        }};
    replay_viewer(world.video, defaults.abr, defaults.viewport, viewer, layers);
    for (media::ChunkIndex c = 0; c < world.video->chunk_count(); ++c) {
      const sim::Time when = available_at(*world.video, c);
      timed(crowd_reads, [&] { return world.crowd->probabilities(c, when); });
    }
  }
  spans.close(span);

  const double n = kViewers;
  // No engine here: the engine.* columns time the same phases of the one
  // unsharded simulator, so they line up with the engine workloads.
  out.add("engine.trace_pool_s", trace_gen_s, "s");
  out.add("engine.shard_build_s", build_s, "s");
  out.add("engine.shard_run_s.p50", run_s, "s");
  out.add("engine.shard_run_s.max", run_s, "s");
  out.add("engine.shard_imbalance", 1.0, "ratio");
  out.add("engine.parallel_efficiency",
          (trace_gen_s + build_s + run_s) / (0.5 * (reference.wall_s + reference_after.wall_s)),
          "ratio");
  const auto events = static_cast<double>(world.simulator.events_executed());
  out.add("sim.events", events, "count");
  out.add("sim.events_per_session", events / n, "count");
  out.add("sim.host_ns_per_event", run_s * 1e9 / events, "ns");
  out.add("sim.queue_depth_p99", monitor.queue_depth_quantile(0.99), "count");
  add_layer_metrics(layers, defaults.abr.policy, out);
  out.add("hmp.trace_gen_ms", trace_gen_s * 1e3 / n, "ms");

  double fetches = 0, upgrades = 0, failures = 0, degraded = 0, skipped = 0, blank = 0;
  for (const auto& session : world.sessions) {
    const live::TiledLiveReport r = session->report();
    fetches += r.fetches;
    upgrades += r.upgrades;
    failures += r.fetch_failures;
    degraded += r.degraded_retries;
    skipped += r.chunks_skipped;
    blank += r.mean_blank_fraction;
  }
  out.add("core.fetches_per_session", fetches / n, "count");
  out.add("core.upgrades_per_session", upgrades / n, "count");
  out.add("core.fetch_failures", failures, "count");
  out.add("core.degraded_retries", degraded, "count");
  out.add("core.transport_fetch.us_p50", probes.transport_fetch.us(0.50), "us");
  out.add("core.fetch_latency_ms.p50", quantile(probes.fetch_latency_ms, 0.50), "ms");
  out.add("core.fetch_latency_ms.p99", quantile(probes.fetch_latency_ms, 0.99), "ms");
  out.add("net.fetch.calls", probes.net_fetch.count(), "count");
  out.add("net.fetch.us_p50", probes.net_fetch.us(0.50), "us");
  out.add("net.transfer_failures", static_cast<double>(probes.transfer_failures), "count");

  double records = 0;
  for (media::ChunkIndex c = 0; c < world.video->chunk_count(); ++c) {
    records += world.crowd->observations(c, sim::seconds(kHorizonS));
  }
  out.add("live.crowd.records", records, "count");
  out.add("live.crowd.probabilities.us_p50", crowd_reads.us(0.50), "us");
  out.add("live.crowd.probabilities.us_p99", crowd_reads.us(0.99), "us");
  out.add("live.chunks_skipped", skipped, "count");
  out.add("live.blank_fraction_mean", blank / n, "ratio");
  out.add("trace.overhead_share",
          traced_cpu_s / (0.5 * (reference.cpu_s + reference_after.cpu_s)) - 1.0, "ratio");
  add_bypassed_layers(out);

  if (!options.out_dir.empty()) {
    const std::string path = options.out_dir + "/live_crowd-seed" +
                             std::to_string(options.seed) + ".spans.json";
    spans.write_chrome_trace(path);
    out.notes.push_back("spans written to " + path);
  }
  out.notes.push_back("output digest " + hex(reference.sim.digest.value()) +
                      " (untraced) = " + hex(traced.digest.value()) + " (traced)");
  return out;
}

}  // namespace

Outcome run_live_crowd(const RunOptions& options) {
  if (options.trace) return traced_live(options);
  return timed_reps(options, kViewers, [&] { return live_rep(options.seed); });
}

}  // namespace perfbench
