#!/usr/bin/env bash
# Builds the tree and smoke-runs the allocation benchmarks: a quick signal
# that the harnesses still compile, run, and emit their counters. Timings
# from the tiny min_time are NOT meaningful; use a longer --benchmark_min_time
# run for real measurements.
#
# Artifacts (repo root, committed snapshots, refreshed + uploaded by CI):
#   BENCH_alloc.json  machine-readable "rap-bench-v1" counters (alloc_cost
#                     --json), plus an "interp_throughput" section recording
#                     the threaded-vs-switch interpreter speedup over the
#                     Table 1 corpus (interp_throughput --json)
#   BENCH_trace.json  sample Chrome trace of a rapcc allocation (--trace)
#
# Usage: scripts/bench_smoke.sh [build-dir]
set -euo pipefail

REPO_ROOT="$(cd "$(dirname "$0")/.." && pwd)"
BUILD_DIR="${1:-$REPO_ROOT/build}"

cmake -S "$REPO_ROOT" -B "$BUILD_DIR" >/dev/null
cmake --build "$BUILD_DIR" --target alloc_cost alloc_scale interp_throughput rapcc -j "$(nproc)"

# Machine-readable counters, shared rap-bench-v1 schema. Sections are merged
# through merge_bench_section.py, which tolerates a missing/partial prior
# BENCH_alloc.json and preserves sections other harnesses (server_smoke.sh's
# "server_load") have already written — re-runs are idempotent in any order.
"$BUILD_DIR/bench/alloc_cost" --json > "$REPO_ROOT/BENCH_alloc_tmp.json"
python3 "$REPO_ROOT/scripts/merge_bench_section.py" \
  "$REPO_ROOT/BENCH_alloc.json" . "$REPO_ROOT/BENCH_alloc_tmp.json" \
  || { echo "BENCH_alloc.json merge failed schema check" >&2; exit 1; }
rm -f "$REPO_ROOT/BENCH_alloc_tmp.json"

# Interpreter throughput (threaded vs reference switch engine, interleaved
# medians) folded into BENCH_alloc.json as its "interp_throughput" section:
# one committed artifact carries both the allocation counters and the
# interpreter speedup snapshot.
"$BUILD_DIR/bench/interp_throughput" --json --reps=3 > "$REPO_ROOT/BENCH_interp_tmp.json"
python3 "$REPO_ROOT/scripts/merge_bench_section.py" \
  "$REPO_ROOT/BENCH_alloc.json" interp_throughput "$REPO_ROOT/BENCH_interp_tmp.json"
python3 - "$REPO_ROOT" <<'PYEOF'
import json, sys
root = sys.argv[1]
interp = json.load(open(f"{root}/BENCH_alloc.json"))["interp_throughput"]
agg = [r for r in interp["rows"] if r["program"] == "ALL"][0]
print(f"interp throughput: {agg['threaded_minstr_per_sec']:.0f} Mi/s threaded vs "
      f"{agg['switch_minstr_per_sec']:.0f} Mi/s switch ({agg['speedup']:.2f}x)")
PYEOF
rm -f "$REPO_ROOT/BENCH_interp_tmp.json"

# Sample allocation trace (Chrome trace-event JSON, one rapcc compile).
TRACE_SRC="$(mktemp /tmp/bench_smoke.XXXXXX.mc)"
trap 'rm -f "$TRACE_SRC"' EXIT
cat > "$TRACE_SRC" <<'EOF'
int f(int n) {
  int s = 0;
  int i = 0;
  while (i < n) { s = s + i * i; i = i + 1; }
  return s;
}
int main() {
  int t = 0;
  int j = 0;
  while (j < 10) { t = t + f(j); j = j + 1; }
  return t;
}
EOF
"$BUILD_DIR/src/driver/rapcc" "$TRACE_SRC" --trace="$REPO_ROOT/BENCH_trace.json" >/dev/null

# google-benchmark harness still runs end to end (timings not checked).
"$BUILD_DIR/bench/alloc_cost" --benchmark_min_time=0.01 \
  --benchmark_out="$BUILD_DIR/BENCH_alloc_gbench.json" \
  --benchmark_out_format=json

# alloc_scale's startup verifies serial == parallel output before timing.
"$BUILD_DIR/bench/alloc_scale" --benchmark_min_time=0.01 \
  --benchmark_filter='rap/all37/k3/t4'

echo "bench smoke OK; counters in $REPO_ROOT/BENCH_alloc.json, trace in $REPO_ROOT/BENCH_trace.json"
