#!/usr/bin/env bash
# Builds the tree under a sanitizer into a separate build directory and runs
# the test suite instrumented. Two modes:
#
#   asan (default) — AddressSanitizer + UndefinedBehaviorSanitizer over the
#     full suite. The robustness layer converts allocator failures into
#     exceptions that cross module boundaries, so an instrumented run is the
#     cheapest way to prove the error paths neither leak nor touch freed IR.
#     float-cast-overflow is named on its own: GCC's -fsanitize=undefined
#     leaves it out, and the interpreter's f2i must never reach that cast.
#   tsan — ThreadSanitizer over the concurrency-bearing subset (shard pool,
#     compile service, server drain, the client, parallel allocation).
#     The crash-only serving layer (DESIGN.md §13) lives and dies by the
#     ordering between the pool's workers and its submitters (the exact
#     sleep predicate, the watchdog verdict taken under each shard's lock),
#     the connection threads, and the serve loop that runs the drain window
#     on its tick; TSan is the referee.
#
# Usage: scripts/sanitize.sh [asan|tsan] [build-dir]
set -euo pipefail

REPO_ROOT="$(cd "$(dirname "$0")/.." && pwd)"
MODE="${1:-asan}"
BUILD_DIR="${2:-$REPO_ROOT/build-$MODE}"

case "$MODE" in
asan)
  SAN_FLAGS="-fsanitize=address,undefined,float-cast-overflow"
  SAN_FLAGS="$SAN_FLAGS -fno-sanitize-recover=all"
  ;;
tsan)
  SAN_FLAGS="-fsanitize=thread"
  ;;
*)
  echo "usage: scripts/sanitize.sh [asan|tsan] [build-dir]" >&2
  exit 2
  ;;
esac

cmake -S "$REPO_ROOT" -B "$BUILD_DIR" \
  -DCMAKE_BUILD_TYPE=RelWithDebInfo \
  -DCMAKE_CXX_FLAGS="$SAN_FLAGS" \
  -DCMAKE_EXE_LINKER_FLAGS="$SAN_FLAGS" >/dev/null
cmake --build "$BUILD_DIR" -j "$(nproc)"

if [ "$MODE" = tsan ]; then
  # The threaded surface: everything that spawns workers or races a drain
  # (ctest names are gtest suite.case, so match the suite prefixes).
  TSAN_OPTIONS=halt_on_error=1 \
    ctest --test-dir "$BUILD_DIR" --output-on-failure -j "$(nproc)" \
    --no-tests=error \
    -R '^(Server|Shard|Service|Deadline|AllocBudget|ParallelDeterminism)'
else
  ASAN_OPTIONS=detect_leaks=1 UBSAN_OPTIONS=print_stacktrace=1 \
    ctest --test-dir "$BUILD_DIR" --output-on-failure -j "$(nproc)"
fi

echo "sanitized ($MODE) test run OK in $BUILD_DIR"
