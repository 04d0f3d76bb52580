#!/usr/bin/env sh
# Builds and runs every benchmark harness.  Each bench writes its report
# at the repository root (BENCH_batch.json, BENCH_compose.json,
# BENCH_serve.json), and a one-line-per-bench summary table is printed at
# the end.
#
# Usage: bench/run_bench.sh [build-dir] [bench-name ...]
#   build-dir     defaults to ./build
#   bench-name    run only the named benches (e.g. "bench_compose"); default
#                 is every bench_* target.
set -eu

repo_root=$(CDPATH= cd -- "$(dirname -- "$0")/.." && pwd)
build_dir=${1:-"$repo_root/build"}
[ $# -gt 0 ] && shift

if [ ! -f "$build_dir/CMakeCache.txt" ]; then
  cmake -B "$build_dir" -S "$repo_root"
fi

if [ $# -gt 0 ]; then
  benches="$*"
else
  benches=""
  for src in "$repo_root"/bench/*.cpp; do
    name=$(basename "$src" .cpp)
    benches="$benches $name"
  done
fi

# Tolerate a failed build so the per-bench check below reports each bench.
# shellcheck disable=SC2086
cmake --build "$build_dir" -j --target $benches || \
  echo "warning: bench build failed"

cd "$repo_root"
summary=""
status=0
for name in $benches; do
  if [ ! -x "$build_dir/$name" ]; then
    echo "ERROR: $name was not built"
    status=1
    continue
  fi
  echo "== $name =="
  json_name="BENCH_${name#bench_}.json"
  start=$(date +%s)
  if BENCH_BATCH_JSON="$repo_root/BENCH_batch.json" \
     BENCH_COMPOSE_JSON="$repo_root/BENCH_compose.json" \
     BENCH_SERVE_JSON="$repo_root/BENCH_serve.json" \
     "$build_dir/$name"; then
    result=ok
  else
    result=FAILED
    status=1
  fi
  elapsed=$(( $(date +%s) - start ))
  summary="$summary$(printf '%-22s %-8s %4ss  %s' "$name" "$result" "$elapsed" "$json_name")\n"
done

echo ""
echo "bench                  result   time  json"
echo "-------------------------------------------------------------"
printf "$summary"
[ -f "$repo_root/BENCH_batch.json" ] && \
  echo "batch sweep:   $(grep -o '"speedup": [0-9.]*' "$repo_root/BENCH_batch.json" || true)"
[ -f "$repo_root/BENCH_serve.json" ] && \
  echo "serve sweep:   $(grep -o '"warm_speedup": [0-9.]*' "$repo_root/BENCH_serve.json" || true) (warm store over no store, bitwise: $(grep -o '"warm_bitwise_identical": [a-z]*' "$repo_root/BENCH_serve.json" | grep -o '[a-z]*$' || true))"
if [ -f "$repo_root/BENCH_compose.json" ]; then
  echo "compose sweep: $(grep -o '"largest_speedup_1t": [0-9.]*' "$repo_root/BENCH_compose.json" || true)"
  # Provenance: which frozen baseline the sweep compared against.
  echo "  baseline:    $(grep -o '"baseline": "[^"]*"' "$repo_root/BENCH_compose.json" | sed 's/"baseline": //;s/"//g' || true) ($(grep -o '"baseline_header": "[^"]*"' "$repo_root/BENCH_compose.json" | sed 's/"baseline_header": //;s/"//g' || true))"
  echo "  symmetry:    $(grep -o '"symmetry_total_aggregations_skipped": [0-9]*' "$repo_root/BENCH_compose.json" | grep -o '[0-9]*' || true) aggregation(s) skipped, $(grep -o '"symmetry_total_steps_saved": [0-9]*' "$repo_root/BENCH_compose.json" | grep -o '[0-9]*' || true) step(s) saved across the symmetric families"
  # Peak-memory proxies: the largest intermediate model each path built in
  # the E14 static-combination sweep (the numeric path must stay at
  # O(largest single module) while full composition is exponential in k).
  echo "  peak states: $(grep -o '"static_combine_worst_peak_states": [0-9]*' "$repo_root/BENCH_compose.json" | grep -o '[0-9]*$' || true) numerically combined vs $(grep -o '"static_combine_worst_peak_states_composed": [0-9]*' "$repo_root/BENCH_compose.json" | grep -o '[0-9]*$' || true) composed (E14 worst case)"
  # On-the-fly fused composition (E15): peak live states vs the classic
  # full product, per family and in total.
  echo "  on-the-fly:  $(grep -o '"otf_total_peak_states_saved": [0-9]*' "$repo_root/BENCH_compose.json" | grep -o '[0-9]*$' || true) peak state(s) never materialized, best reduction $(grep -o '"otf_best_peak_ratio": [0-9.]*' "$repo_root/BENCH_compose.json" | grep -o '[0-9.]*$' || true)x (E15)"
  # Wall-clock of the fused engine vs the classic chain it replaces
  # (wall_ratio < 1 means the fused path is faster outright).
  echo "  per-family E15 wall (classic -> fused, ratio):"
  grep -o '"name": "[^"]*", "wall_off_seconds": [0-9.]*, "wall_on_seconds": [0-9.]*, "wall_ratio": [0-9.]*' "$repo_root/BENCH_compose.json" \
    | sed 's/"name": "\([^"]*\)", "wall_off_seconds": \([0-9.]*\), "wall_on_seconds": \([0-9.]*\), "wall_ratio": \([0-9.]*\)/    \1: \2s -> \3s (\4x)/' || true
  echo "  per-family E15 fused stages, span self time (explore/refine/collapse/finish):"
  grep -o '"name": "[^"]*", "wall_off_seconds[^{]*"explore_seconds": [0-9.]*, "refine_seconds": [0-9.]*, "collapse_seconds": [0-9.]*, "finish_seconds": [0-9.]*' "$repo_root/BENCH_compose.json" \
    | sed 's/"name": "\([^"]*\)".*"explore_seconds": \([0-9.]*\), "refine_seconds": \([0-9.]*\), "collapse_seconds": \([0-9.]*\), "finish_seconds": \([0-9.]*\)/    \1: \2s \/ \3s \/ \4s \/ \5s/' || true
  echo "  per-family E15 peaks (classic product -> fused live):"
  grep -o '"name": "[^"]*", "wall_off_seconds[^{]*"peak_states_off": [0-9]*, "peak_states_on": [0-9]*[^{]*"fallbacks": [0-9]*' "$repo_root/BENCH_compose.json" \
    | sed 's/"name": "\([^"]*\)".*"peak_states_off": \([0-9]*\), "peak_states_on": \([0-9]*\).*"fallbacks": \([0-9]*\)/    \1: \2 -> \3 states (\4 fallback(s))/' || true
  echo "  per-experiment peaks (states/transitions):"
  grep -o '"name": "[^"]*", [^{]*"peak_states": [0-9]*, "peak_transitions": [0-9]*' "$repo_root/BENCH_compose.json" \
    | sed 's/"name": "\([^"]*\)".*"peak_states": \([0-9]*\), "peak_transitions": \([0-9]*\)/    \1: \2 states, \3 transitions/' || true
fi
exit $status
