// The benchmark's three workloads and the timed-run loop they share.
// NOTES.md records why each workload exists and which layers it loads.
#pragma once

#include <cstdint>
#include <functional>
#include <string>

#include "abr/qoe.h"
#include "harness.h"

namespace perfbench {

// Deterministic outputs of one world run: for a given seed these are
// bit-identical on every run, at any thread count, traced or not.
struct SimStats {
  int sessions = 0;
  int completed = 0;  // VOD completed / live finished by the horizon
  int never_played = 0;  // unfinished sessions that never played a chunk
  double score_sum = 0.0;
  double penalty_sum = 0.0;  // utility points the score lost to stalls etc.
  double utility_sum = 0.0;
  std::int64_t bytes_downloaded = 0;
  std::int64_t bytes_wasted = 0;
  Digest digest;  // every per-session report field, plus merged metrics

  // Folds one session's QoE summary into the sums and the digest.
  void add_session(const sperke::abr::QoeSummary& qoe, bool completed);
};

// Host cost and outputs of one timed repetition of a workload.
struct RepSample {
  double setup_s = 0.0;  // world build before the first simulated event
  double wall_s = 0.0;   // the timed run: build + simulate (+ export)
  double cpu_s = 0.0;    // process CPU seconds of the timed run
  SimStats sim;
};

// Runs `rep` until `options.seconds` of host time have passed (and at least
// three times), checks every repetition produced the same digest, and adds
// the end-to-end metrics (medians over repetitions) to the outcome. A
// repetition that throws stops the loop and counts all of its sessions as
// failed.
Outcome timed_reps(const RunOptions& options, int sessions,
                   const std::function<RepSample()>& rep);

// Adds, at 0, every per-layer metric the workload did not measure because
// its world bypasses that layer (NOTES.md lists which), so every traced
// run reports the same metric set.
void add_bypassed_layers(Outcome& outcome);

Outcome run_vod_fleet(const RunOptions& options);
Outcome run_edge_traced(const RunOptions& options);
Outcome run_live_crowd(const RunOptions& options);

}  // namespace perfbench
