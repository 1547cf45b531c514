#!/usr/bin/env bash
# Runs one perfbench workload in a checkout and appends one JSON line to a
# bench trajectory: the checkout's git sha and whether its tree is dirty,
# the build type and host cores from perfbench's `perfbench-meta` line, the
# workload, seed, seconds and label of the run, and perfbench's result
# object. A run that does not read "correct": true with "failed": 0 appends
# nothing and exits non-zero.
#
# Interleave parent and change runs (alternating which goes first) into one
# file to compare them; BENCH_trajectory.jsonl at the repository root keeps
# such rows.
#
# Usage: scripts/bench_record.sh CHECKOUT OUT WORKLOAD SEED SECONDS LABEL
set -euo pipefail

if [ $# -ne 6 ]; then
  echo "usage: $0 CHECKOUT OUT WORKLOAD SEED SECONDS LABEL" >&2
  exit 2
fi
CHECKOUT="$1" OUT="$2" WORKLOAD="$3" SEED="$4" SECONDS_="$5" LABEL="$6"

SHA="$(git -C "$CHECKOUT" rev-parse HEAD)"
DIRTY=false
if [ -n "$(git -C "$CHECKOUT" status --porcelain)" ]; then
  DIRTY=true
fi

LOG="$(mktemp)"
trap 'rm -f "$LOG"' EXIT
python3 "$CHECKOUT/perfbench/run.py" --workload "$WORKLOAD" --seed "$SEED" \
  --seconds "$SECONDS_" > "$LOG"

python3 - "$LOG" "$OUT" "$SHA" "$DIRTY" "$WORKLOAD" "$SEED" "$SECONDS_" \
  "$LABEL" <<'PYEOF'
import json, sys

log, out, sha, dirty, workload, seed, seconds, label = sys.argv[1:]
lines = open(log).read().splitlines()
meta = next((json.loads(l[len("perfbench-meta "):]) for l in lines
             if l.startswith("perfbench-meta ")), None)
if meta is None or not lines:
    sys.exit("bench_record: perfbench printed no perfbench-meta line")
result = json.loads(lines[-1])
if result.get("correct") is not True or result.get("failed") != 0:
    sys.exit(f"bench_record: run not correct (correct={result.get('correct')}, "
             f"failed={result.get('failed')}); nothing appended")
row = {
    "sha": sha,
    "dirty": dirty == "true",
    "build_type": meta["build_type"],
    "host_cores": meta["host_cores"],
    "workload": workload,
    "seed": int(seed),
    "seconds": int(seconds),
    "label": label,
    "result": result,
}
with open(out, "a") as f:
    f.write(json.dumps(row) + "\n")
PYEOF
