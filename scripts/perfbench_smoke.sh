#!/usr/bin/env bash
# Perfbench smoke: 5-second runs of the two workloads BENCHMARK.json gates
# (table1 and session) plus deep, failing unless each result line reads
# "correct": true with "failed": 0. perfbench reports a miscompile, a
# degraded function, or a warm reply that differs from a cold compile in
# its result line but still exits 0, so this is the step that turns them
# into a failure. deep puts one function of ~2,400 regions through the
# allocators and liveness (about 10 s of wall time). Timings from runs this
# short mean nothing.
#
# perfbench/run.py builds into $CARGO_TARGET_DIR (default .bench_build/).
#
# Usage: scripts/perfbench_smoke.sh
set -euo pipefail

REPO_ROOT="$(cd "$(dirname "$0")/.." && pwd)"

for WORKLOAD in table1 session deep; do
  RESULT="$(python3 "$REPO_ROOT/perfbench/run.py" --workload "$WORKLOAD" \
            --seconds 5 | tail -n 1)"
  python3 - "$WORKLOAD" "$RESULT" <<'PYEOF'
import json
import sys

workload, line = sys.argv[1], sys.argv[2]
result = json.loads(line)
if result.get("correct") is not True or result.get("failed") != 0:
    sys.exit(f"FAIL: perfbench {workload}: correct={result.get('correct')} "
             f"failed={result.get('failed')} of {result.get('attempted')}")
print(f"perfbench {workload} OK: {result['attempted']} operations, 0 failed")
PYEOF
done
