#!/usr/bin/env bash
# Run every correctness gate the repo has, in rough order of cost:
#
#   1. sperke_analyze (determinism/hygiene rules, layering DAG,
#      shared-state audit, telemetry contract, stale suppressions over
#      src, tests, bench, examples, tools — see DESIGN.md §11)
#      + report.py --check (the HTML report generator's self-test)
#      + bench_compare_test.py (the perf gate's own unit tests)
#   2. clang-format / clang-tidy (skipped cleanly when the tools are absent)
#   3. default preset:  build + full ctest suite, then the deterministic
#      QoE gates (fault-recovery sweep + ABR arena league table) — these
#      are bit-stable simulations, safe to compare on any machine
#   4. check preset:    build with SPERKE_DCHECKs live + full ctest suite
#   5. sanitize preset: ASan/UBSan build + full ctest suite
#   6. tsan preset:     TSan build + the threaded engine determinism tests
#
# Any failure aborts the run (set -e); a tool probe that exits 77 is
# reported as SKIPPED and does not fail the gate. Usage:
#
#   tools/verify_all.sh            # everything
#   tools/verify_all.sh --fast     # analyzer + format/tidy + default preset only
set -euo pipefail

cd "$(dirname "$0")/.."

FAST=0
if [[ "${1:-}" == "--fast" ]]; then
  FAST=1
elif [[ $# -gt 0 ]]; then
  echo "usage: tools/verify_all.sh [--fast]" >&2
  exit 2
fi

JOBS="$(nproc 2>/dev/null || echo 4)"
step() { printf '\n=== %s ===\n' "$*"; }

# Gates that probe for an optional tool exit 77 when it is missing; treat
# that as a skip, anything else nonzero as a failure.
run_optional() {
  local label="$1"
  shift
  local status=0
  "$@" || status=$?
  if [[ $status -eq 77 ]]; then
    echo "$label: SKIPPED (tool not available)"
  elif [[ $status -ne 0 ]]; then
    echo "$label: FAILED (exit $status)" >&2
    exit "$status"
  fi
}

step "sperke_analyze"
python3 tools/sperke_analyze.py --self-test
python3 tools/sperke_analyze.py

step "report.py self-check"
python3 tools/report.py --check

step "bench_compare unit tests"
python3 tools/bench_compare_test.py

step "clang-format (check only)"
run_optional "format-check" tools/run_clang_format.sh

step "default preset: build + test"
cmake --preset default >/dev/null
cmake --build --preset default -j "$JOBS"
ctest --preset default --output-on-failure

step "deterministic QoE gates: fault-recovery + ABR arena + CDN baselines"
cmake --build --preset default --target fault-recovery-check
cmake --build --preset default --target arena-check
cmake --build --preset default --target cdn-check

step "clang-tidy"
run_optional "tidy-check" tools/run_clang_tidy.sh build

if [[ $FAST -eq 1 ]]; then
  step "fast mode: skipping check/sanitize/tsan presets"
  exit 0
fi

step "check preset: build + test with SPERKE_DCHECKs live"
cmake --preset check >/dev/null
cmake --build --preset check -j "$JOBS"
ctest --preset check --output-on-failure

step "sanitize preset: ASan/UBSan build + test"
cmake --preset sanitize >/dev/null
cmake --build --preset sanitize -j "$JOBS"
ctest --preset sanitize --output-on-failure

step "tsan preset: engine determinism under ThreadSanitizer"
cmake --preset tsan >/dev/null
cmake --build --preset tsan --target engine_test -j "$JOBS"
./build-tsan/tests/engine_test --gtest_filter='EngineDeterminism.*:Engine.*'

step "all gates passed"
