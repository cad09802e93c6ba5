// ABR policy arena: the QoE tournament across every factory tile-ABR
// policy (abr/factory.h), swept over bandwidth regimes × head-motion
// populations through the sharded engine (engine/run_world).
//
// Each cell runs a small fleet — 8 sessions, 4 link groups, 2 shards —
// with one policy, one bandwidth family on every group link, and one
// viewer population; QoE score comes from the per-session reports, stall
// seconds and wasted bytes from the merged obs/ metrics registry (the
// session.stall_s histogram and the session.bytes_wasted counter the
// sessions mirror their QoE accounting into). The league table ranks
// policies per cell by mean QoE score.
//
// Everything is a deterministic simulation: the numbers are bit-stable
// across machines, so bench/baselines/abr_arena.json is gated by
// tools/bench_compare.py — qoe_score rows via --higher-better (a drop
// beyond threshold = the policy regressed), stall/wasted rows in the
// default lower-is-better direction.
//
// Usage: bench_abr_arena [--smoke] [--json PATH]
//
//   --smoke      one cell per policy (steady bandwidth, calm viewers)
//   --json PATH  google-benchmark-compatible JSON for bench_compare.py
#include <cstdio>
#include <cstring>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "abr/factory.h"
#include "common.h"
#include "engine/engine.h"
#include "engine/world.h"
#include "hmp/head_trace.h"
#include "net/bandwidth_trace.h"
#include "obs/metrics.h"
#include "sim/simulator.h"

namespace {

using namespace sperke;

constexpr double kVideoSeconds = 16.0;
constexpr double kHorizonSeconds = 180.0;

struct BandwidthFamily {
  const char* name;
  net::BandwidthTrace trace;
};

std::vector<BandwidthFamily> bandwidth_families(bool smoke) {
  std::vector<BandwidthFamily> families;
  // Steady broadband: the §3.4.1 fixed-cap regime.
  families.push_back({"steady", net::BandwidthTrace::constant(12'000.0)});
  if (smoke) return families;
  // LTE-like fluctuation around the same mean.
  families.push_back(
      {"lte", net::BandwidthTrace::random_walk(12'000.0, 0.3, 1.0,
                                               kHorizonSeconds, 4242)});
  // Bursty coverage: good/bad two-state Markov holding times.
  families.push_back(
      {"flaky", net::BandwidthTrace::markov_two_state(
                    16'000.0, 2'500.0, 8.0, 3.0, kHorizonSeconds, 777)});
  return families;
}

struct HeadFamily {
  const char* name;
  hmp::UserProfile profile;
};

std::vector<HeadFamily> head_families(bool smoke) {
  std::vector<HeadFamily> families;
  // Calm viewers: slow saccades, long fixations — HMP's best case.
  families.push_back({"calm", hmp::UserProfile::elderly()});
  if (smoke) return families;
  // Restless viewers: fast, frequent saccades — misprediction stress.
  families.push_back({"restless", hmp::UserProfile::teenager()});
  return families;
}

struct CellResult {
  double qoe_score = 0.0;  // mean per-session QoE score
  double stall_s = 0.0;    // total stall seconds across the fleet
  double wasted_mb = 0.0;  // bytes fetched but never displayed
  double utility = 0.0;    // mean per-chunk viewport utility
  int completed = 0;
};

CellResult run_cell(const std::string& policy, const net::BandwidthTrace& bw,
                    const hmp::UserProfile& profile) {
  engine::WorldSpec spec;
  spec.video = bench::standard_video_config(kVideoSeconds);

  spec.trace_template.duration_s = kHorizonSeconds;
  spec.trace_template.sample_rate_hz = 25.0;
  spec.trace_template.profile = profile;
  spec.trace_template.attractors = hmp::default_attractors(kHorizonSeconds, 77);
  spec.trace_template.seed = 33;
  spec.trace_pool = 4;

  spec.link.name = "dl";
  spec.link.bandwidth = bw;
  spec.link.rtt = sim::milliseconds(30);
  spec.sessions_per_link = 2;
  spec.transport_max_concurrent = 8;

  spec.sessions = 8;
  spec.session.abr.policy = policy;
  spec.horizon = sim::seconds(kHorizonSeconds);
  spec.shards = 2;
  spec.seed = 5;
  spec.session_telemetry = true;

  engine::EngineResult result = engine::run_world(spec, {.threads = 2});

  CellResult cell;
  for (const core::SessionReport& report : result.reports) {
    cell.qoe_score += report.qoe.score;
  }
  cell.qoe_score /= static_cast<double>(result.reports.size());
  cell.completed = result.completed;
  if (const obs::Histogram* stall =
          result.metrics.find_histogram("session.stall_s")) {
    cell.stall_s = stall->sum();
  }
  if (const obs::Histogram* utility =
          result.metrics.find_histogram("session.viewport_utility")) {
    cell.utility = utility->mean();
  }
  if (const obs::Counter* wasted =
          result.metrics.find_counter("session.bytes_wasted")) {
    cell.wasted_mb = static_cast<double>(wasted->value()) / 1e6;
  }
  return cell;
}

std::string row_name(const std::string& policy, const char* bw,
                     const char* head, const char* metric) {
  return "AbrArena/" + policy + "/bw=" + bw + "/head=" + head + "/" + metric;
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  std::string json_path;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      smoke = true;
    } else if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc) {
      json_path = argv[++i];
    }
  }

  const auto& policies = abr::policy_names();
  const auto bw_families = bandwidth_families(smoke);
  const auto hd_families = head_families(smoke);

  std::printf("ABR policy arena: %zu policies x %zu bandwidth x %zu head "
              "families, 8 sessions / 2 shards per cell\n",
              policies.size(), bw_families.size(), hd_families.size());

  std::vector<bench::JsonRow> rows;
  for (const auto& bw : bw_families) {
    for (const auto& head : hd_families) {
      // Rank the cell's policies by mean QoE score (the league table).
      std::multimap<double, std::pair<std::string, CellResult>,
                    std::greater<>> league;
      for (std::string_view policy_name : policies) {
        const std::string policy(policy_name);
        const CellResult cell = run_cell(policy, bw.trace, head.profile);
        league.insert({cell.qoe_score, {policy, cell}});
        rows.push_back(
            {row_name(policy, bw.name, head.name, "qoe_score"), cell.qoe_score});
        rows.push_back(
            {row_name(policy, bw.name, head.name, "stall_s"), cell.stall_s});
        rows.push_back(
            {row_name(policy, bw.name, head.name, "wasted_mb"), cell.wasted_mb});
      }

      std::printf("\nbw=%s head=%s\n", bw.name, head.name);
      std::printf("  %4s %-12s %10s %9s %10s %9s %6s\n", "rank", "policy",
                  "qoe", "stall s", "wasted MB", "utility", "done");
      int rank = 0;
      for (const auto& [score, entry] : league) {
        const auto& [policy, cell] = entry;
        std::printf("  %4d %-12s %10.3f %9.2f %10.1f %9.3f %4d/8\n", ++rank,
                    policy.c_str(), score, cell.stall_s, cell.wasted_mb,
                    cell.utility, cell.completed);
      }
    }
  }

  if (!json_path.empty()) {
    bench::write_benchmark_json(json_path, "bench_abr_arena", rows);
  }
  return 0;
}
