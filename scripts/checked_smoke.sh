#!/usr/bin/env bash
# Checked-mode smoke: every Table 1 routine under both allocators at
# k in {3,5,7,9} with --verify (independent assignment verification before
# the physical rewrite), asserting zero spill-everything fallbacks, then a
# fault-injection end-to-end check that the rapcc degradation path works
# (exit code 3, correct result), then that an array index near INT64_MAX
# traps out-of-bounds (exit 4) on both interpreter engines instead of
# reaching a neighboring global, then that a float past int64 converts to
# INT64_MAX on both engines, then that rapcc rejects a k, a thread
# count or a fuel budget past its bound or with trailing junk, and rapfuzz
# a --max-seconds that is not whole seconds, as a usage error (exit 2).
#
# Usage: scripts/checked_smoke.sh [build-dir]
set -euo pipefail

REPO_ROOT="$(cd "$(dirname "$0")/.." && pwd)"
BUILD_DIR="${1:-$REPO_ROOT/build}"

cmake -S "$REPO_ROOT" -B "$BUILD_DIR" >/dev/null
cmake --build "$BUILD_DIR" --target rap_checked_mode_test rapcc rapfuzz \
  -j "$(nproc)"

# The acceptance matrix: 37 routines x {gra,rap} x k in {3,5,7,9}, verified,
# zero fallbacks, checksums equal to the unallocated reference.
"$BUILD_DIR/tests/rap_checked_mode_test"

# Degradation path end to end: an injected coloring fault must degrade the
# function to the spill-everything fallback, keep the result correct, and
# flip the exit code to 3.
TMP_MC="$(mktemp --suffix=.mc)"
trap 'rm -f "$TMP_MC"' EXIT
cat > "$TMP_MC" <<'EOF'
int f(int n) {
  int a = 1; int b = 2; int c = 3; int d = 4; int i;
  for (i = 0; i < n; i = i + 1) { a = a + b; b = b + c; c = c + d; d = d + a; }
  return a + b + c + d;
}
int main() { return f(10); }
EOF

WANT="$("$BUILD_DIR/src/driver/rapcc" "$TMP_MC" --alloc=none | head -1)"

set +e
GOT="$(RAP_FAULT_INJECT=color:1 "$BUILD_DIR/src/driver/rapcc" "$TMP_MC" \
       --alloc=rap -k 3 --verify 2>/dev/null | head -1)"
STATUS=$?
set -e
if [ "$STATUS" -ne 3 ]; then
  echo "FAIL: expected exit 3 (degraded) from injected fault, got $STATUS" >&2
  exit 1
fi
if [ "$GOT" != "$WANT" ]; then
  echo "FAIL: degraded run printed '$GOT', reference printed '$WANT'" >&2
  exit 1
fi

# Array bounds at the edge of int64: a's base + INT64_MAX overflows, and a
# check that adds them reads pad[2] (result 5). Both engines must trap.
OOB_MC="$(mktemp --suffix=.mc)"
trap 'rm -f "$TMP_MC" "$OOB_MC"' EXIT
cat > "$OOB_MC" <<'EOF'
int pad[3]; int a[4];
int main() { pad[2] = 5; int i = 9223372036854775807; return a[i]; }
EOF
for ENGINE in threaded switch; do
  set +e
  ERR="$("$BUILD_DIR/src/driver/rapcc" "$OOB_MC" --alloc=rap -k 3 \
         --interp="$ENGINE" 2>&1 >/dev/null)"
  STATUS=$?
  set -e
  if [ "$STATUS" -ne 4 ] || [[ "$ERR" != *out-of-bounds* ]]; then
    echo "FAIL: index INT64_MAX under --interp=$ENGINE exited $STATUS" \
         "('$ERR'), want 4 with out-of-bounds" >&2
    exit 1
  fi
done

# f2i saturates: 1e300 has no int64 value, so both engines define it as
# INT64_MAX instead of whatever the host's conversion happens to return.
F2I_MC="$(mktemp --suffix=.mc)"
trap 'rm -f "$TMP_MC" "$OOB_MC" "$F2I_MC"' EXIT
cat > "$F2I_MC" <<'EOF'
int main() { float f = 1.0e300; int i = f; return i; }
EOF
for ENGINE in threaded switch; do
  GOT="$("$BUILD_DIR/src/driver/rapcc" "$F2I_MC" --alloc=none \
         --interp="$ENGINE" | head -1)"
  if [ "$GOT" != "result: 9223372036854775807" ]; then
    echo "FAIL: f2i of 1e300 under --interp=$ENGINE printed '$GOT'," \
         "want 'result: 9223372036854775807'" >&2
    exit 1
  fi
done

# k comes from outside the program: a value past the bound (256) or one
# that is not a whole number is a usage error, never a different k.
for K in 257 5x; do
  set +e
  "$BUILD_DIR/src/driver/rapcc" "$TMP_MC" --alloc=rap -k "$K" >/dev/null 2>&1
  STATUS=$?
  set -e
  if [ "$STATUS" -ne 2 ]; then
    echo "FAIL: rapcc -k $K exited $STATUS, want 2 (usage error)" >&2
    exit 1
  fi
done

# The same holds for every integer flag (support/CmdLine.h). --threads sizes
# an OS thread pool, so a count past MaxWorkerThreads (256) is refused before
# any thread exists.
for FLAG in --threads=2x --fuel=1000x --threads=257; do
  set +e
  "$BUILD_DIR/src/driver/rapcc" "$TMP_MC" --alloc=rap --run "$FLAG" \
    >/dev/null 2>&1
  STATUS=$?
  set -e
  if [ "$STATUS" -ne 2 ]; then
    echo "FAIL: rapcc $FLAG exited $STATUS, want 2 (usage error)" >&2
    exit 1
  fi
done

# rapfuzz's time box is whole seconds; a typo must not read as 0 (no limit).
for FLAG in --max-seconds=1x --max-seconds=abc; do
  set +e
  "$BUILD_DIR/src/fuzz/rapfuzz" --seeds=0:1 --mutations=0 -q "$FLAG" \
    >/dev/null 2>&1
  STATUS=$?
  set -e
  if [ "$STATUS" -ne 2 ]; then
    echo "FAIL: rapfuzz $FLAG exited $STATUS, want 2 (usage error)" >&2
    exit 1
  fi
done

echo "checked-mode smoke OK (37 routines verified; fallback path exits 3;" \
     "index INT64_MAX traps and f2i of 1e300 saturates on both engines;" \
     "bad -k, --threads, --fuel and --max-seconds exit 2)"
