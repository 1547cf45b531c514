#!/usr/bin/env python3
"""scripts/bench_compare.py must reproduce the figures first recorded in
BENCH_trajectory.jsonl: the parent and change runs of c990c32 (the round
storage reuse change) on session and table1.

Usage: tests/bench_compare_test.py REPO_ROOT
"""

import subprocess
import sys

root = sys.argv[1]
out = subprocess.run([sys.executable, f"{root}/scripts/bench_compare.py",
                      "c990c32"], capture_output=True, text=True)
print(out.stdout, end="")
if out.returncode != 0:
    sys.exit(f"bench_compare.py exited {out.returncode}: {out.stderr}")

rows = {}  # (workload, metric) -> fields of its line
workload = None
for line in out.stdout.splitlines():
    if line and not line.startswith(" ") and ":" in line:
        workload = line.split(":")[0]
    elif line.startswith("  ") and workload:
        fields = line.split()
        rows[(workload, fields[0])] = " ".join(fields[1:])

# metric line: parent median [q1, q3], change median [q1, q3], ratio, won
expected = {
    ("session", "compile_s.rap"): ("0.08219 [0.0792, 0.0856] 0.06334", "10/10"),
    ("table1", "compile_s.rap"): ("0.09962 [0.0996, 0.102] 0.08292", "5/5"),
}
failed = False
for key, (prefix, won) in expected.items():
    line = rows.get(key, "")
    if not line.startswith(prefix) or not line.endswith(won):
        print(f"MISMATCH {key}: {line!r}, want {prefix!r} ... {won!r}")
        failed = True
sys.exit(1 if failed else 0)
