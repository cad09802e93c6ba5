// perfbench_world: runs one benchmark workload in this process and prints
// its metrics, one "name value unit" line each, then one JSON result line.
//
// Usage: perfbench_world --workload vod_fleet|edge_traced|live_crowd
//                        [--seed N] [--seconds S] [--trace 0|1] [--out DIR]
//
//   --trace 0  timed run: the end-to-end metrics, medians over repetitions
//   --trace 1  traced run of the same inputs: the per-layer metrics, with
//              spans written to DIR/<workload>-seed<N>.spans.json
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>
#include <string_view>
#include <thread>

#include "harness.h"
#include "workloads.h"

namespace {

using namespace perfbench;

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "error: %s\nusage: perfbench_world --workload vod_fleet|edge_traced|"
               "live_crowd [--seed N] [--seconds S] [--trace 0|1] [--out DIR]\n",
               why);
  std::exit(2);
}

void print_result(const Outcome& out) {
  for (const std::string& note : out.notes) std::printf("# %s\n", note.c_str());
  for (const std::string& problem : out.problems) {
    std::printf("# CHECK FAILED: %s\n", problem.c_str());
  }
  bool finite = true;
  for (const Metric& m : out.metrics) {
    std::printf("%-34s %.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
    finite = finite && std::isfinite(m.value);
  }
  std::string json = "{\"correct\": ";
  json += out.correct && finite ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(out.attempted);
  json += ", \"failed\": " + std::to_string(out.failed);
  json += ", \"metrics\": {";
  for (std::size_t i = 0; i < out.metrics.size(); ++i) {
    const Metric& m = out.metrics[i];
    char value[64];
    if (std::isfinite(m.value)) {
      std::snprintf(value, sizeof value, "%.17g", m.value);
    } else {
      std::snprintf(value, sizeof value, "null");
    }
    json += (i > 0 ? ", \"" : "\"") + m.name + "\": {\"value\": " + value +
            ", \"unit\": \"" + m.unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
}

}  // namespace

int main(int argc, char** argv) {
  RunOptions options;
  std::string workload;
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    if (i + 1 >= argc) usage("missing value after an option");
    const char* value = argv[++i];
    char* end = nullptr;
    if (arg == "--workload") {
      workload = value;
    } else if (arg == "--seed") {
      options.seed = std::strtoull(value, &end, 10);
      if (*end != '\0') usage("--seed takes a whole number");
    } else if (arg == "--seconds") {
      options.seconds = std::strtod(value, &end);
      if (*end != '\0' || !(options.seconds > 0.0)) usage("--seconds takes a positive number");
    } else if (arg == "--trace") {
      if (std::string_view(value) != "0" && std::string_view(value) != "1") {
        usage("--trace takes 0 or 1");
      }
      options.trace = value[0] == '1';
    } else if (arg == "--out") {
      options.out_dir = value;
    } else {
      usage("unknown option");
    }
  }
  options.threads =
      std::clamp(static_cast<int>(std::thread::hardware_concurrency()), 1, 4);

  Outcome (*run)(const RunOptions&) = nullptr;
  if (workload == "vod_fleet") {
    run = run_vod_fleet;
  } else if (workload == "edge_traced") {
    run = run_edge_traced;
  } else if (workload == "live_crowd") {
    run = run_live_crowd;
  } else {
    usage("unknown --workload");
  }
  std::printf("# workload %s, seed %llu, %s run, %d threads\n", workload.c_str(),
              static_cast<unsigned long long>(options.seed),
              options.trace ? "traced" : "timed", options.threads);
  try {
    print_result(run(options));
  } catch (const std::exception& error) {
    std::fprintf(stderr, "error: %s\n", error.what());
    return 1;
  }
  return 0;
}
