#!/usr/bin/env bash
# Builds the tree and smoke-runs the allocation benchmarks: a quick signal
# that the harnesses still compile, run, and emit their counters. Timings
# from the tiny min_time are NOT meaningful; use a longer --benchmark_min_time
# run for real measurements.
#
# Artifacts (in <build-dir>/bench-artifacts/, uploaded by CI; nothing in the
# source tree is written):
#   alloc_cost.json         machine-readable "rap-bench-v1" counters
#                           (alloc_cost --json), heap_allocs in every row
#   alloc_cost_gbench.json  the google-benchmark run's own JSON output
#   trace.json              sample Chrome trace of a rapcc allocation (--trace)
#
# Usage: scripts/bench_smoke.sh [build-dir]
set -euo pipefail

REPO_ROOT="$(cd "$(dirname "$0")/.." && pwd)"
BUILD_DIR="${1:-$REPO_ROOT/build}"
OUT="$BUILD_DIR/bench-artifacts"

cmake -S "$REPO_ROOT" -B "$BUILD_DIR" >/dev/null
cmake --build "$BUILD_DIR" --target alloc_cost rapcc -j "$(nproc)"
mkdir -p "$OUT"

# Machine-readable counters, shared rap-bench-v1 schema; fail unless the
# harness printed such a document with rows, each counting its heap
# allocations.
"$BUILD_DIR/bench/alloc_cost" --json > "$OUT/alloc_cost.json"
python3 - "$OUT/alloc_cost.json" <<'PYEOF'
import json, sys
doc = json.load(open(sys.argv[1]))
if doc.get("schema") != "rap-bench-v1" or not doc.get("rows"):
    sys.exit(f"{sys.argv[1]} is not a rap-bench-v1 document with rows")
missing = [r for r in doc["rows"] if not isinstance(r.get("heap_allocs"), int)]
if missing:
    sys.exit(f"{len(missing)} alloc_cost rows lack heap_allocs")
PYEOF

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
"$BUILD_DIR/src/driver/rapcc" "$TRACE_SRC" --trace="$OUT/trace.json" >/dev/null

# google-benchmark harness still runs end to end (timings not checked).
"$BUILD_DIR/bench/alloc_cost" --benchmark_min_time=0.01 \
  --benchmark_out="$OUT/alloc_cost_gbench.json" \
  --benchmark_out_format=json

echo "bench smoke OK; counters and trace in $OUT"
