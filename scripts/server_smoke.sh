#!/usr/bin/env bash
# Smoke-tests the rapd compile server end to end:
#
#   1. replays an editing-session request trace through rapd over stdio:
#      cold compile, warm replays, a mutated function, a batch, stats/ping,
#      deliberate bad-request and compile-error probes — asserting ZERO
#      unexpected protocol errors, a nonzero cache-hit rate, and that every
#      warm response's output_hash matches the cold compile of that source;
#      rapd runs with --stats=json, and the `server` section of the
#      rap-stats-v1 document it prints at exit must equal the reply to the
#      trace's final `stats` op (and --stats=text's `server:` line must
#      carry the same object); fed a 200 MB newline-less line and then a
#      ping with --max-line-bytes=1024, stdio rapd must answer bad-request
#      and then pong with a VmHWM (/proc/<pid>/status) under 64 MB: the
#      line cap applies while the line is read, not after it is buffered;
#      fed a 1 MB line of '[' and then a ping, it must answer bad-request
#      (the JSON parser's nesting bound), then pong, and exit 0;
#   2. replays a shorter trace over a unix-domain socket (the second
#      transport) with the same assertions; a client that sends a compile
#      and hangs up before its reply must not kill rapd (a ping on a new
#      connection still answers), and 200 sequential connections must grow
#      rapd's VmSize (/proc/<pid>/status) by less than 64 MB — finished
#      connection threads are joined, not kept;
#   3. asserts stale-socket handling with rapc: a dead socket file is
#      rebound, a live server's socket is refused with a `socket-in-use`
#      error and exit 1, and `rapc ping` / `rapc shutdown` work against it;
#      a live listener whose backlog is full is refused the same way once
#      the probe's connect times out, within a few seconds;
#   4. drains rapd with a real SIGTERM landing mid-batch and asserts the
#      crash-only contract: every admitted request got exactly one
#      well-formed response (zero lost), no response arrives after the ones
#      that were in flight finish, and the exit code is 0 (fast drain) /
#      3 (a tiny --drain-ms forced the drain window to cancel work);
#   5. runs bench/server_chaos (seeded fault schedule over every server
#      chaos site, mid-request shutdowns included) at seeds 1 and 2 and
#      asserts its exactly-one-response + bit-identical-output invariants;
#   6. runs bench/server_load (cold-vs-warm, 10% edit rate), writes its
#      rap-bench-v1 JSON to <build-dir>/bench-artifacts/server_load.json
#      (uploaded by CI), and asserts the acceptance bar: warm >= 2x cold
#      functions/sec at a >= 80% hit rate;
#   7. checks usage errors (exit 2): rapd, server_load and server_chaos
#      refuse --shards past MaxWorkerThreads (256, support/CmdLine.h)
#      before any pool exists, and rapd refuses the flags and chaos sites
#      of the durable cache store and its supervisor, which it no longer
#      has.
#
# Usage: scripts/server_smoke.sh [build-dir]
set -euo pipefail

REPO_ROOT="$(cd "$(dirname "$0")/.." && pwd)"
BUILD_DIR="${1:-$REPO_ROOT/build}"

cmake -S "$REPO_ROOT" -B "$BUILD_DIR" >/dev/null
cmake --build "$BUILD_DIR" --target rapd rapc server_load server_chaos \
  -j "$(nproc)"

RAPD="$BUILD_DIR/src/server/rapd"
RAPC="$BUILD_DIR/src/server/rapc"
OUT="$BUILD_DIR/bench-artifacts"
mkdir -p "$OUT"

# --- 1. stdio trace replay ------------------------------------------------
python3 - "$RAPD" <<'PYEOF'
import json, subprocess, sys

rapd = sys.argv[1]

def fn(i, version):
    return (f"int work{i}(int n) {{\n"
            f"  int a = n + {version * 7 + i};\n"
            f"  int b = a * 3 + {version};\n"
            f"  int c = a - b;\n"
            f"  for (int j = 0; j < n; j = j + 1) {{\n"
            f"    a = a + b * j % 997;\n"
            f"    b = b + c - j;\n"
            f"    c = c + a % 613;\n"
            f"  }}\n"
            f"  return a + b + c;\n"
            f"}}\n")

def module(versions):
    src = "".join(fn(i, v) for i, v in enumerate(versions))
    calls = "".join(f"  acc = acc + work{i}(5);\n" for i in range(len(versions)))
    return src + "int main() {\n  int acc = 0;\n" + calls + "  return acc;\n}\n"

base = module([0, 0, 0, 0])
edited = module([0, 1, 0, 0])  # one function mutated

trace = [
    {"id": 1, "op": "compile", "source": base,
     "options": {"alloc": "rap", "k": 3, "run": True}},   # cold
    {"id": 2, "op": "compile", "source": base,
     "options": {"alloc": "rap", "k": 3, "run": True}},   # fully warm
    {"id": 3, "op": "compile", "source": edited,
     "options": {"alloc": "rap", "k": 3}},                # one miss
    [{"id": 4, "op": "stats"}, {"id": 5, "op": "ping"}],  # batch
    {"id": 6, "op": "compile", "source": "int main() { return }",
     "options": {"alloc": "rap"}},                        # compile-error
    {"not": "a request"},                                 # bad-request
    {"id": 8, "op": "stats"},                             # final counters
    {"id": 7, "op": "shutdown"},
]
payload = "".join(json.dumps(r) + "\n" for r in trace)

def json_values(text):
    """Every JSON value in text: rapd's one-line responses, then the
    pretty-printed rap-stats-v1 document --stats=json adds at exit."""
    dec, pos, values = json.JSONDecoder(), 0, []
    while True:
        while pos < len(text) and text[pos].isspace():
            pos += 1
        if pos == len(text):
            return values
        value, pos = dec.raw_decode(text, pos)
        values.append(value)

proc = subprocess.run([rapd, "--shards=2", "--stats=json"], input=payload,
                      capture_output=True, text=True, timeout=300)
assert proc.returncode == 0, f"rapd exit {proc.returncode}: {proc.stderr}"
*lines, report = json_values(proc.stdout)
assert report.get("schema") == "rap-stats-v1", f"no stats document: {report}"

banner = lines[0]
assert banner.get("rapd") == "v1", f"missing hello banner: {banner}"
by_id = {}
for resp in lines[1:]:
    for r in (resp if isinstance(resp, list) else [resp]):
        by_id[r.get("id")] = r

protocol_errors = [r for r in by_id.values()
                   if not r["ok"] and r.get("id") not in (6, None)]
assert not protocol_errors, f"unexpected protocol errors: {protocol_errors}"

cold, warm, miss = by_id[1], by_id[2], by_id[3]
assert cold["ok"] and cold["cache_misses"] == 5 and cold["cache_hits"] == 0
assert cold["exec"]["ok"], f"cold exec failed: {cold['exec']}"
assert warm["cache_hits"] == 5 and warm["cache_misses"] == 0, \
    f"warm not fully cached: {warm}"
assert warm["output_hash"] == cold["output_hash"], \
    "warm response diverged from cold compile"
assert warm["exec"] == cold["exec"], "warm execution diverged from cold"
assert miss["cache_misses"] == 1 and miss["cache_hits"] == 4, \
    f"edit should re-allocate exactly one function: {miss}"
assert miss["output_hash"] != cold["output_hash"]

stats = by_id[4]["stats"]
assert stats["cache_hits"] >= 9 and stats["requests"] >= 3, stats
assert by_id[5]["kind"] == "pong"
assert by_id[6]["kind"] == "compile-error"
assert by_id[None]["kind"] == "bad-request"
assert by_id[7]["kind"] == "shutting-down"

# One counter record: the document's server section is the stats reply.
canon = lambda v: json.dumps(v, sort_keys=True)
final = by_id[8]["stats"]
assert canon(report["server"]) == canon(final), \
    f"--stats=json server {report['server']} != stats reply {final}"

# --stats=text prints the same object as its one `server:` line.
short = subprocess.run([rapd, "--no-hello", "--stats=text"],
                       input=json.dumps({"id": 1, "op": "stats"}) + "\n",
                       capture_output=True, text=True, timeout=60)
assert short.returncode == 0, short.stderr
reply = json.loads(short.stdout)["stats"]
text = [l for l in short.stderr.splitlines() if l.startswith("  server: ")]
assert len(text) == 1, f"want one server: line: {short.stderr}"
assert canon(json.loads(text[0][len("  server: "):])) == canon(reply), \
    f"--stats=text server line {text[0]} != stats reply {reply}"

hit_rate = stats["cache_hits"] / (stats["cache_hits"] + stats["cache_misses"])
print(f"stdio trace OK: {len(by_id)} responses, 0 protocol errors, "
      f"hit rate {100 * hit_rate:.0f}%, --stats server section == "
      f"stats reply ({len(final)} keys)")
PYEOF

# --- 1b. hostile lines on stdio -------------------------------------------
# The line cap: a 200 MB line costs bounded memory.
python3 - "$RAPD" <<'PYEOF'
import json, os, subprocess, sys, threading

rapd = sys.argv[1]
proc = subprocess.Popen([rapd, "--no-hello", "--max-line-bytes=1024"],
                        stdin=subprocess.PIPE, stdout=subprocess.PIPE)

def feed():
    chunk = b"x" * (1 << 20)
    for _ in range(200):
        proc.stdin.write(chunk)
    proc.stdin.write(b'\n{"id":2,"op":"ping"}\n')
    proc.stdin.flush()

writer = threading.Thread(target=feed)
writer.start()
try:
    first = json.loads(proc.stdout.readline())
    second = json.loads(proc.stdout.readline())
    writer.join()
    assert first.get("kind") == "bad-request", first
    assert second.get("kind") == "pong", second
    hwm = None
    if os.path.exists(f"/proc/{proc.pid}/status"):
        with open(f"/proc/{proc.pid}/status") as f:  # before EOF
            for line in f:
                if line.startswith("VmHWM:"):
                    hwm = int(line.split()[1]) / 1024
        assert hwm < 64, f"rapd VmHWM {hwm:.0f} MB serving a 200 MB line"
    proc.stdin.close()
    assert proc.wait(timeout=60) == 0, proc.returncode
finally:
    if proc.poll() is None:
        proc.kill()
hwm = "no /proc: VmHWM unchecked" if hwm is None else f"VmHWM {hwm:.1f} MB"
print(f"stdio line cap OK: 200 MB line answered bad-request, then pong, {hwm}")
PYEOF

# The parser's nesting bound: a 1 MB line of '[' (far below the 8 MiB line
# cap) is one bad-request, not a stack overflow, and rapd serves on.
python3 - "$RAPD" <<'PYEOF'
import json, subprocess, sys

rapd = sys.argv[1]
line = b"[" * (1 << 20) + b'\n{"id":2,"op":"ping"}\n'
proc = subprocess.run([rapd, "--no-hello"], input=line, capture_output=True,
                      timeout=60)
assert proc.returncode == 0, f"rapd exited {proc.returncode}"
replies = [json.loads(l) for l in proc.stdout.splitlines()]
assert len(replies) == 2, replies
assert replies[0].get("kind") == "bad-request", replies[0]
assert "nesting deeper than" in replies[0].get("error", ""), replies[0]
assert replies[1].get("kind") == "pong", replies[1]
print("stdio nesting bound OK: 1 MB line of '[' answered bad-request, "
      "then pong, exit 0")
PYEOF

# --- 2. unix-domain socket transport --------------------------------------
python3 - "$RAPD" <<'PYEOF'
import json, os, shutil, socket, subprocess, sys, tempfile, time

rapd = sys.argv[1]
path = os.path.join(tempfile.mkdtemp(prefix="rapd_smoke_"), "rapd.sock")
proc = subprocess.Popen([rapd, f"--socket={path}", "--shards=2", "--no-hello"],
                        stdout=subprocess.PIPE, stderr=subprocess.PIPE)
try:
    for _ in range(200):
        if os.path.exists(path):
            break
        time.sleep(0.05)
    else:
        raise AssertionError("rapd socket never appeared")

    sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
    sock.connect(path)
    io = sock.makefile("rw", encoding="utf-8")

    src = ("int f(int n) {\n  int s = 0;\n"
           "  for (int i = 0; i < n; i = i + 1) { s = s + i * i; }\n"
           "  return s;\n}\n"
           "int main() { return f(10); }\n")
    def ask(req):
        io.write(json.dumps(req) + "\n")
        io.flush()
        return json.loads(io.readline())

    cold = ask({"id": 1, "op": "compile", "source": src,
                "options": {"alloc": "rap", "k": 3}})
    warm = ask({"id": 2, "op": "compile", "source": src,
                "options": {"alloc": "rap", "k": 3}})
    assert cold["ok"] and warm["ok"], (cold, warm)
    assert warm["cache_hits"] == 2 and warm["cache_misses"] == 0, warm
    assert warm["output_hash"] == cold["output_hash"]

    def connect():
        s = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        s.connect(path)
        return s

    # A client that hangs up before its reply is written costs its own
    # connection, not the server: rapd must survive writing to it.
    big = "".join(f"int g{i}(int n) {{ int a = n + {i}; int b = a * 3;\n"
                  f"  for (int j = 0; j < n; j = j + 1) {{ a = a + b * j;"
                  f" b = b - a % 97; }}\n  return a + b; }}\n"
                  for i in range(200)) + "int main() { return g0(3); }\n"
    bytes_before = ask({"id": 4, "op": "stats"})["stats"]["cache_bytes"]
    with connect() as gone:
        gone.sendall((json.dumps({"id": 9, "op": "compile", "source": big,
                                  "options": {"alloc": "rap", "k": 3}})
                      + "\n").encode())
    # The compile's cache inserts come just before its reply is written.
    for _ in range(600):
        if ask({"id": 5, "op": "stats"})["stats"]["cache_bytes"] > bytes_before:
            break
        time.sleep(0.05)
    time.sleep(0.2)
    assert proc.poll() is None, f"rapd died (exit {proc.returncode}) " \
        "writing to a client that hung up"
    assert ask({"id": 6, "op": "ping"})["kind"] == "pong"

    # Finished connections give their thread back: VmSize after 200
    # sequential connections stays within 64 MB of before. A thread stack
    # is 8 MB, so keeping every finished thread grows it by ~1.6 GB. Eight
    # connections held open at once first make malloc set up the arenas
    # (64 MB of address space each) that overlapping connection threads
    # use; that is a bounded one-time cost, not a leak.
    def vmsize_kb():
        with open(f"/proc/{proc.pid}/status") as f:
            for line in f:
                if line.startswith("VmSize:"):
                    return int(line.split()[1])

    def pings(count):
        for _ in range(count):
            with connect() as s:
                s.sendall(b'{"id":1,"op":"ping"}\n')
                assert "pong" in s.makefile().readline()
    grown = None
    if os.path.exists(f"/proc/{proc.pid}/status"):
        held = [connect() for _ in range(8)]
        for s in held:
            s.sendall(b'{"id":1,"op":"ping"}\n')
        for s in held:
            assert "pong" in s.makefile().readline()
            s.close()
        pings(10)
        before = vmsize_kb()
        pings(200)
        grown = (vmsize_kb() - before) / 1024
        assert grown < 64, \
            f"rapd VmSize grew {grown:.0f} MB over 200 connections"

    bye = ask({"id": 3, "op": "shutdown"})
    assert bye["kind"] == "shutting-down"
    sock.close()
    assert proc.wait(timeout=60) == 0, proc.returncode
    vm = ("no /proc: VmSize unchecked" if grown is None else
          f"VmSize +{grown:.1f} MB over 200 connections")
    print("socket trace OK: warm hash matches cold, survived a client that "
          f"hung up, {vm}, clean shutdown")
finally:
    if proc.poll() is None:
        proc.kill()
    shutil.rmtree(os.path.dirname(path), ignore_errors=True)
PYEOF

# --- 3. stale-socket handling with rapc ---------------------------------------
WORK="$(mktemp -d "${TMPDIR:-/tmp}/rapd_stale_XXXXXX")"
SOCK="$WORK/stale.sock"
# A dead socket file (no listener) must be unlinked and rebound.
python3 -c "import socket,sys; s=socket.socket(socket.AF_UNIX); s.bind(sys.argv[1]); s.close()" "$SOCK"
"$RAPD" --socket="$SOCK" --no-hello 2>"$WORK/stale.log" &
RAPD_PID=$!
trap 'kill "$RAPD_PID" 2>/dev/null || true' EXIT
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
if [ "$INUSE_EXIT" -ne 1 ] || ! grep -q "socket-in-use" "$WORK/inuse.log"; then
  echo "FAIL: live-socket rebind exited $INUSE_EXIT, want 1 and" \
       "socket-in-use:" >&2
  cat "$WORK/inuse.log" >&2
  exit 1
fi
"$RAPC" --socket="$SOCK" shutdown >/dev/null
wait "$RAPD_PID"
trap - EXIT
# A live listener with a full backlog: the probe's connect can neither
# succeed nor be refused, so it must time out and refuse the path.
python3 - "$RAPD" "$WORK/full.sock" <<'PYEOF'
import socket, subprocess, sys

rapd, path = sys.argv[1], sys.argv[2]
listener = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
listener.bind(path)
listener.listen(0)
held = []
while True:
    s = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
    s.setblocking(False)
    try:
        s.connect(path)
    except BlockingIOError:
        s.close()
        break
    held.append(s)
try:
    proc = subprocess.run([rapd, f"--socket={path}", "--no-hello"],
                          capture_output=True, text=True, timeout=10)
finally:
    for s in held:
        s.close()
    listener.close()
assert proc.returncode == 1 and "socket-in-use" in proc.stderr, \
    f"full-backlog probe exited {proc.returncode}: {proc.stderr}"
PYEOF
rm -rf "$WORK"
echo "stale-socket OK: dead socket rebound, live socket refused (exit 1)," \
     "full-backlog listener refused (exit 1), rapc ping and shutdown served"

# --- 4. SIGTERM mid-batch: graceful drain, zero lost responses --------------
python3 - "$RAPD" <<'PYEOF'
import json, os, signal, subprocess, sys, threading

rapd = sys.argv[1]

def fn(i):
    # Pressure-heavy body: many simultaneously-live values so allocation at
    # k=3 does real spilling work and a module of these cannot finish inside
    # the serve loop's poll tick.
    return (f"int job{i}(int n) {{\n"
            f"  int a = n + {i}; int b = a * 3; int c = a - b;\n"
            f"  int d = a * b % 9973; int e = c + d; int f = e * 2;\n"
            f"  for (int j = 0; j < n; j = j + 1) {{\n"
            f"    int t = a * j + b;\n"
            f"    if (t % 2 == 0) {{ a = a + c * j; b = b + e; }}\n"
            f"    else {{ d = d + f - t; e = e + a % 367; }}\n"
            f"    c = c + (a + b) % 275; f = f + (c - d) * 3;\n"
            f"  }}\n  return a + b + c + d + e + f;\n}}\n")

def module(count, salt):
    src = "".join(fn(i * 131 + salt) for i in range(count))
    calls = "".join(f"  acc = acc + job{i * 131 + salt}(5);\n"
                    for i in range(count))
    return src + "int main() {\n  int acc = 0;\n" + calls + "  return acc;\n}\n"

def drain_run(drain_ms, heavy):
    # A batch of distinct compiles keeps the server busy long enough for the
    # signal to land mid-work; stdin stays open so only the signal (not EOF)
    # can end the serve loop. The signal goes out once the first response
    # is back and the second request is wholly in the pipe, so it lands as
    # the second compile starts, not while rapd still waits for its bytes
    # (a fixed sleep would race compiles that take tens of milliseconds).
    reqs = [{"id": i, "op": "compile", "source": module(heavy, i),
             "options": {"alloc": "rap", "k": 3}} for i in range(1, 7)]
    proc = subprocess.Popen(
        [rapd, "--shards=2", "--no-hello", f"--drain-ms={drain_ms}"],
        stdin=subprocess.PIPE, stdout=subprocess.PIPE,
        stderr=subprocess.DEVNULL, text=True)

    second_sent = threading.Event()

    def feed():
        try:
            for i, r in enumerate(reqs):
                proc.stdin.write(json.dumps(r) + "\n")
                proc.stdin.flush()
                if i == 1:
                    second_sent.set()
        except BrokenPipeError:
            pass  # rapd stopped reading: the drain closed admission

    writer = threading.Thread(target=feed)
    writer.start()
    out = proc.stdout.readline()
    second_sent.wait(timeout=60)
    proc.send_signal(signal.SIGTERM)
    out += proc.stdout.read()
    proc.wait(timeout=300)
    writer.join()
    try:
        proc.stdin.close()
    except BrokenPipeError:
        pass
    lines = [json.loads(l) for l in out.splitlines() if l.strip()]
    ids = [l.get("id") for l in lines]
    # Exactly-one-response: no duplicates, ids form a prefix of the trace
    # (admission stops at the signal; everything admitted answers).
    assert len(ids) == len(set(ids)), f"duplicate responses: {ids}"
    assert ids == [r["id"] for r in reqs][:len(ids)], \
        f"responses not a prefix of admissions: {ids}"
    for l in lines:
        assert l["ok"] or l.get("kind") in ("cancelled", "deadline-exceeded"), \
            f"malformed drained response: {l}"
    return proc.returncode, lines

# Generous drain window: whatever was admitted finishes, exit 0.
code, lines = drain_run(drain_ms=60000, heavy=2)
assert code == 0, f"clean drain exited {code}"
assert all(l["ok"] for l in lines), f"clean drain cancelled work: {lines}"

# 1ms drain window + heavy compiles (the signal lands early, well inside
# the second compile): the drain window must cancel what is in flight
# (responses still delivered, kind "cancelled") and exit 3.
code, lines = drain_run(drain_ms=1, heavy=160)
assert code == 3, f"degraded drain exited {code}, want 3"
assert any(not l["ok"] and l.get("kind") == "cancelled" for l in lines), \
    f"degraded drain produced no cancelled response: {lines}"
print(f"SIGTERM drain OK: clean drain exit 0, forced drain exit 3, "
      f"zero lost responses")
PYEOF

# --- 5. chaos soak: every server fault site, exactly-one-response -----------
"$BUILD_DIR/bench/server_chaos" --requests=200 --shards=4 --seed=1
"$BUILD_DIR/bench/server_chaos" --requests=200 --shards=4 --seed=2 \
  --no-deadline-probe

# --- 6. load bench: cold vs warm --------------------------------------------
"$BUILD_DIR/bench/server_load" --json --requests=100 --edit-rate=0.1 \
  > "$OUT/server_load.json"
python3 - "$OUT/server_load.json" <<'PYEOF'
import json, sys
doc = json.load(open(sys.argv[1]))
if doc.get("schema") != "rap-bench-v1" or not doc.get("rows"):
    sys.exit(f"{sys.argv[1]} is not a rap-bench-v1 document with rows")
warm = [r for r in doc["rows"] if r["mode"] == "warm"][0]
assert warm["speedup_vs_cold"] >= 2.0, \
    f"warm speedup {warm['speedup_vs_cold']:.2f}x below the 2x bar"
assert warm["hit_rate_pct"] >= 80.0, \
    f"hit rate {warm['hit_rate_pct']:.1f}% below the 80% bar"
print(f"server load OK: {warm['speedup_vs_cold']:.2f}x functions/sec over "
      f"cold at {warm['hit_rate_pct']:.1f}% hit rate "
      f"(p50 {warm['p50_us']:.0f}us, p99 {warm['p99_us']:.0f}us)")
PYEOF

# --- 7. usage errors ---------------------------------------------------------
# Only the bound plus one: a value that passed would start that many threads.
for TOOL in "$RAPD" "$BUILD_DIR/bench/server_load" \
            "$BUILD_DIR/bench/server_chaos"; do
  set +e
  "$TOOL" --shards=257 </dev/null >/dev/null 2>&1
  STATUS=$?
  set -e
  if [ "$STATUS" -ne 2 ]; then
    echo "FAIL: $(basename "$TOOL") --shards=257 exited $STATUS," \
         "want 2 (usage error)" >&2
    exit 1
  fi
done
echo "usage errors OK: rapd, server_load and server_chaos --shards=257 exit 2"

# rapd serves from memory only: the durable cache store's and the
# supervisor's flags, and the store's two chaos sites, are unknown.
for ARG in --cache-dir=x --journal-fsync=batch --compact-bytes=1 \
           --supervise --pidfile=x --max-crashes=1 --crash-window-s=1 \
           --backoff-ms=1 --backoff-max-ms=1 \
           --chaos=journal-write:1 --chaos=snapshot-compact:1; do
  set +e
  "$RAPD" "$ARG" </dev/null >/dev/null 2>&1
  STATUS=$?
  set -e
  if [ "$STATUS" -ne 2 ]; then
    echo "FAIL: rapd $ARG exited $STATUS, want 2 (usage error)" >&2
    exit 1
  fi
done
echo "usage errors OK: rapd's nine removed flags and two removed chaos" \
     "sites exit 2"

echo "server smoke OK; load counters in $OUT/server_load.json"
