#!/usr/bin/env bash
# Smoke-tests durable crash recovery (DESIGN.md §15) end to end:
#
#   1. runs bench/server_recovery: the real rapd under `rapd --supervise`
#      with a persistent --cache-dir, SIGKILLed repeatedly while the
#      retrying client streams compiles. Gates: every request answered
#      exactly once, post-recovery responses bit-identical to pre-crash
#      cold compiles, >= 80% warm-hit retention across the kills, recovery
#      telemetry populated, clean shutdown with supervisor exit 0. Its
#      rap-bench-v1 JSON goes to
#      <build-dir>/bench-artifacts/server_recovery.json (uploaded by CI);
#   2. asserts stale-socket handling: a dead socket file is silently
#      rebound, a *live* server's socket is refused with a `socket-in-use`
#      error and exit 1;
#   3. asserts fingerprint invalidation: a store written under one
#      fingerprint is wiped (never stale-hit) by a server opening it with
#      another;
#   4. asserts that `server_recovery --kills=4294967295` is a usage error
#      (exit 2): the kill count is bounded so the supervisor's crash bar,
#      kills + 5, cannot wrap to a small number.
#
# On failure the soak leaves its working directory (journal, snapshot,
# supervisor log) on disk and prints the path — CI uploads it as an
# artifact (RECOVERY_artifacts/).
#
# Usage: scripts/server_recovery_smoke.sh [build-dir]
set -euo pipefail

REPO_ROOT="$(cd "$(dirname "$0")/.." && pwd)"
BUILD_DIR="${1:-$REPO_ROOT/build}"

cmake -S "$REPO_ROOT" -B "$BUILD_DIR" >/dev/null
cmake --build "$BUILD_DIR" --target rapd rapc server_recovery -j "$(nproc)"

RAPD="$BUILD_DIR/src/server/rapd"
RAPC="$BUILD_DIR/src/server/rapc"
WORK="${RECOVERY_WORK_DIR:-$REPO_ROOT/RECOVERY_artifacts}"
OUT="$BUILD_DIR/bench-artifacts"
rm -rf "$WORK"
mkdir -p "$WORK" "$OUT"

# --- 1. kill -9 soak (leaves $WORK/soak on failure for artifact upload) ----
"$BUILD_DIR/bench/server_recovery" --rapd="$RAPD" --dir="$WORK/soak" \
  --sources=16 --kills=3 --burst=6 --json > "$OUT/server_recovery.json"
python3 - "$OUT/server_recovery.json" <<'PYEOF'
import json, sys
doc = json.load(open(sys.argv[1]))
if doc.get("schema") != "rap-bench-v1" or not doc.get("rows"):
    sys.exit(f"{sys.argv[1]} is not a rap-bench-v1 document with rows")
row = doc["rows"][0]
assert row["responses"] == row["requests"], row
assert row["hash_mismatches"] == 0, row
assert row["warm_retention_pct"] >= 80.0, row
assert row["journal_frames_replayed"] > 0 and row["restarts"] >= row["kills"]
print(f"recovery soak OK: {row['requests']} requests exactly-once across "
      f"{row['kills']} kill -9s ({row['resends']} resends), "
      f"{row['warm_retention_pct']:.0f}% warm retention, "
      f"{row['journal_frames_replayed']} frames replayed")
PYEOF

# --- 2. stale-socket handling ----------------------------------------------
SOCK="$WORK/stale.sock"
# A dead socket file (no listener) must be silently unlinked and rebound.
python3 -c "import socket,sys; s=socket.socket(socket.AF_UNIX); s.bind(sys.argv[1]); s.close()" "$SOCK"
"$RAPD" --socket="$SOCK" --no-hello 2>"$WORK/stale.log" &
RAPD_PID=$!
for _ in $(seq 1 100); do
  "$RAPC" --socket="$SOCK" --timeout-ms=500 --retries=0 ping >/dev/null 2>&1 && break
  sleep 0.05
done
"$RAPC" --socket="$SOCK" ping >/dev/null
# A second rapd against the LIVE socket must refuse with socket-in-use, exit 1.
set +e
"$RAPD" --socket="$SOCK" --no-hello 2>"$WORK/inuse.log"
INUSE_EXIT=$?
set -e
[ "$INUSE_EXIT" -eq 1 ] || { echo "live-socket rebind exited $INUSE_EXIT, want 1"; exit 1; }
grep -q "socket-in-use" "$WORK/inuse.log" || { echo "no socket-in-use error:"; cat "$WORK/inuse.log"; exit 1; }
"$RAPC" --socket="$SOCK" shutdown >/dev/null
wait "$RAPD_PID"
echo "stale-socket OK: dead socket rebound, live socket refused (exit 1)"

# --- 3. fingerprint invalidation: changed build/options never stale-hit ----
python3 - "$RAPD" "$RAPC" "$WORK" <<'PYEOF'
import json, os, subprocess, sys

rapd, rapc, work = sys.argv[1], sys.argv[2], sys.argv[3]
cache = os.path.join(work, "fpcache")
src = "int main() { int a; a = 41; return a + 1; }\n"
req = json.dumps({"op": "compile", "id": 1, "source": src,
                  "options": {"alloc": "rap", "k": 3}}) + "\n"
req += json.dumps({"op": "stats", "id": 2}) + "\n"

def serve(extra_env):
    env = dict(os.environ, **extra_env)
    p = subprocess.run([rapd, f"--cache-dir={cache}", "--no-hello"],
                       input=req, capture_output=True, text=True,
                       timeout=300, env=env)
    assert p.returncode == 0, p.stderr
    lines = [json.loads(l) for l in p.stdout.splitlines() if l.strip()]
    return lines[0], lines[1]["stats"]["recovery"]

# Run 1 seeds the store; run 2 (same fingerprint) must warm-hit.
c1, r1 = serve({})
c2, r2 = serve({})
assert c2["cache_hits"] > 0 and c2["cache_misses"] == 0, c2
assert c2["output_hash"] == c1["output_hash"]
assert r2["journal_frames_replayed"] > 0, r2
# RAP_CACHE_FINGERPRINT overrides the build fingerprint (test hook): a
# mismatched store must be wiped — cold compile, an invalidation counted,
# nothing replayed.
c3, r3 = serve({"RAP_CACHE_FINGERPRINT": "12345"})
assert c3["cache_misses"] > 0 and c3["cache_hits"] == 0, c3
assert r3["journal_frames_replayed"] == 0, r3
assert r3["invalidations"] >= 1, r3
assert c3["output_hash"] == c1["output_hash"]
# And the re-fingerprinted store warm-hits on its own next run.
c4, r4 = serve({"RAP_CACHE_FINGERPRINT": "12345"})
assert c4["cache_hits"] > 0 and c4["cache_misses"] == 0, c4
print("fingerprint invalidation OK: mismatch wiped the store cold, "
      "never a stale hit")
PYEOF

# --- 4. --kills is bounded so rapd's --max-crashes=kills+5 cannot wrap ------
# Rejected while parsing flags, before any fork.
set +e
"$BUILD_DIR/bench/server_recovery" --rapd="$RAPD" --kills=4294967295 \
  2>"$WORK/kills.log"
KILLS_EXIT=$?
set -e
[ "$KILLS_EXIT" -eq 2 ] || { echo "--kills=4294967295 exited $KILLS_EXIT, want 2"; exit 1; }
echo "kill-count bound OK: --kills=4294967295 is a usage error (exit 2)"

rm -rf "$WORK"
echo "server recovery smoke OK; soak counters in $OUT/server_recovery.json"
