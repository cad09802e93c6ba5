#include "workloads.h"

#include <cstdio>
#include <exception>
#include <set>
#include <string_view>
#include <utility>
#include <vector>

namespace perfbench {

void SimStats::add_session(const sperke::abr::QoeSummary& qoe, bool done) {
  ++sessions;
  completed += done ? 1 : 0;
  never_played += !done && qoe.chunks_played == 0 ? 1 : 0;
  score_sum += qoe.score;
  // QoeSummary::score = utility_weight * (utility summed over played chunks)
  // minus the stall, skip, switch and blank penalties; sessions run with the
  // default weights.
  penalty_sum += sperke::abr::QoeWeights{}.utility_weight *
                     qoe.mean_viewport_utility * qoe.chunks_played -
                 qoe.score;
  utility_sum += qoe.mean_viewport_utility;
  bytes_downloaded += qoe.bytes_downloaded;
  bytes_wasted += qoe.bytes_wasted;
  digest.add(std::int64_t{qoe.chunks_played});
  digest.add(qoe.mean_viewport_utility);
  digest.add(qoe.stall_seconds);
  digest.add(std::int64_t{qoe.stall_events});
  digest.add(std::int64_t{qoe.skipped_chunks});
  digest.add(qoe.switch_magnitude);
  digest.add(qoe.blank_fraction_mean);
  digest.add(qoe.bytes_downloaded);
  digest.add(qoe.bytes_wasted);
  digest.add(qoe.score);
  digest.add(std::int64_t{done});
}

Outcome timed_reps(const RunOptions& options, int sessions,
                   const std::function<RepSample()>& rep) {
  Outcome out;
  std::vector<RepSample> reps;
  const auto start = Clock::now();
  while (reps.size() < 3 || seconds_since(start) < options.seconds) {
    out.attempted += sessions;
    try {
      reps.push_back(rep());
    } catch (const std::exception& error) {
      out.failed += sessions;
      out.expect(false, std::string("world run threw: ") + error.what());
      return out;
    }
  }

  const SimStats& sim = reps.front().sim;
  std::vector<double> per_s;
  std::vector<double> cpu_ms;
  std::vector<double> setup;
  for (const RepSample& r : reps) {
    out.expect(r.sim.digest.value() == sim.digest.value(),
               "repetitions disagree: digest " + hex(r.sim.digest.value()) +
                   " vs " + hex(sim.digest.value()));
    per_s.push_back(sessions / r.wall_s);
    cpu_ms.push_back(r.cpu_s * 1e3 / sessions);
    setup.push_back(r.setup_s);
    char line[128];
    std::snprintf(line, sizeof line, "rep %zu: setup %.4f s, wall %.4f s, cpu %.4f s",
                  per_s.size(), r.setup_s, r.wall_s, r.cpu_s);
    out.notes.push_back(line);
  }
  out.expect(sim.sessions == sessions, "a repetition lost sessions");
  out.expect(sim.bytes_wasted <= sim.bytes_downloaded,
             "more bytes wasted than downloaded");

  const double n = sim.sessions;
  out.add("sessions_per_s", median(per_s), "1/s");
  out.add("cpu_ms_per_session", median(cpu_ms), "ms");
  out.add("peak_rss_mb", peak_rss_mb(), "MB");
  out.add("setup_s", median(setup), "s");
  out.add("completed_share", sim.completed / n, "ratio");
  out.add("qoe_penalty_mean", sim.penalty_sum / n, "score");
  out.add("viewport_utility_mean", sim.utility_sum / n, "ratio");
  out.add("mb_per_session", static_cast<double>(sim.bytes_downloaded) / n / (1 << 20),
          "MB");
  out.add("wasted_share",
          static_cast<double>(sim.bytes_wasted) /
              static_cast<double>(sim.bytes_downloaded),
          "ratio");
  out.notes.push_back(std::to_string(reps.size()) + " repetitions, output digest " +
                      hex(sim.digest.value()) + ", failed_share " +
                      std::to_string(1.0 - sim.completed / n) + " (" +
                      std::to_string(sim.sessions - sim.completed) + " of " +
                      std::to_string(sim.sessions) + " sessions unfinished, " +
                      std::to_string(sim.never_played) + " never played a chunk)");
  out.notes.push_back("qoe_score_mean " + std::to_string(sim.score_sum / n) +
                      " (QoeSummary::score; reported through qoe_penalty_mean, "
                      "which stays positive)");
  return out;
}

namespace {

struct LayerMetric {
  std::string_view name;
  std::string_view unit;
};

// Every per-layer metric, in BENCHMARK.json order.
constexpr LayerMetric kLayerMetrics[] = {
    {"engine.trace_pool_s", "s"},
    {"engine.shard_build_s", "s"},
    {"engine.shard_run_s.p50", "s"},
    {"engine.shard_run_s.max", "s"},
    {"engine.shard_imbalance", "ratio"},
    {"engine.parallel_efficiency", "ratio"},
    {"sim.events", "count"},
    {"sim.events_per_session", "count"},
    {"sim.host_ns_per_event", "ns"},
    {"sim.queue_depth_p99", "count"},
    {"geo.visible_tiles.calls", "count"},
    {"geo.visible_tiles.us_p50", "us"},
    {"geo.visible_tiles.us_p99", "us"},
    {"hmp.tile_probabilities.calls", "count"},
    {"hmp.tile_probabilities.us_p50", "us"},
    {"hmp.tile_probabilities.us_p99", "us"},
    {"hmp.trace_gen_ms", "ms"},
    {"abr.sperke.plan.us_p50", "us"},
    {"abr.sperke.plan.us_p99", "us"},
    {"core.fetches_per_session", "count"},
    {"core.upgrades_per_session", "count"},
    {"core.urgent_fetches_per_session", "count"},
    {"core.fetch_failures", "count"},
    {"core.degraded_retries", "count"},
    {"core.transport_fetch.us_p50", "us"},
    {"core.fetch_latency_ms.p50", "ms"},
    {"core.fetch_latency_ms.p99", "ms"},
    {"net.fetch.calls", "count"},
    {"net.fetch.us_p50", "us"},
    {"net.transfer_failures", "count"},
    {"net.retries", "count"},
    {"cdn.hit_ratio", "ratio"},
    {"cdn.coalesced", "count"},
    {"cdn.evictions", "count"},
    {"cdn.origin_mb", "MB"},
    {"obs.trace_events_per_session", "count"},
    {"obs.trace_mb", "MB"},
    {"obs.series_rows", "count"},
    {"obs.export_s", "s"},
    {"live.crowd.records", "count"},
    {"live.crowd.probabilities.us_p50", "us"},
    {"live.crowd.probabilities.us_p99", "us"},
    {"live.chunks_skipped", "count"},
    {"live.blank_fraction_mean", "ratio"},
    {"trace.overhead_share", "ratio"},
};

}  // namespace

void add_bypassed_layers(Outcome& outcome) {
  std::set<std::string, std::less<>> measured;
  for (const Metric& m : outcome.metrics) measured.insert(m.name);
  for (const LayerMetric& m : kLayerMetrics) {
    if (!measured.contains(m.name)) {
      outcome.add(std::string(m.name), 0.0, std::string(m.unit));
    }
  }
}

}  // namespace perfbench
