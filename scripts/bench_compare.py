#!/usr/bin/env python3
"""Compares one commit's recorded parent and change perfbench runs.

Usage: scripts/bench_compare.py SHA [FILE]

Reads the bench trajectory FILE (default: BENCH_trajectory.jsonl at the
repository root), keeps the rows whose sha starts with SHA, and pairs each
"parent" row with the "change" row of the same workload and seed. For every
workload and every end-to-end metric that BENCHMARK.json declares, prints
each side's median with its inclusive quartiles, the ratio of the medians
(change / parent), and in how many pairs the change was better (ties count
for neither side). A count metric that differs between any two runs of a
workload is flagged.

Exits 1 when a row has no partner (or a duplicate), or when a row does not
read "correct": true with "failed": 0; exits 2 on a usage error or when no
row matches SHA.
"""

import json
import os
import statistics
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SIDES = ("parent", "change")


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4, method="inclusive")
    return q[0], q[2]


def side_summary(values, unit):
    """Median [q1, q3]: counts in full, other metrics to 4 and 3 digits."""
    lo, hi = quartiles(values)
    med = statistics.median(values)
    if unit == "count":
        return f"{med:.10g} [{lo:.10g}, {hi:.10g}]"
    return f"{med:.4g} [{lo:.3g}, {hi:.3g}]"


def main(argv):
    if len(argv) not in (2, 3):
        print(__doc__.strip().splitlines()[2], file=sys.stderr)
        return 2
    sha = argv[1]
    path = argv[2] if len(argv) == 3 else os.path.join(ROOT,
                                                       "BENCH_trajectory.jsonl")
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        metrics = json.load(f)["end_to_end"]
    with open(path) as f:
        rows = [json.loads(line) for line in f if line.strip()]
    rows = [r for r in rows if r["sha"].startswith(sha)]
    if not rows:
        print(f"bench_compare: no rows for {sha} in {path}", file=sys.stderr)
        return 2

    bad = False
    runs = {}  # (workload, seed) -> {label: row}
    for r in rows:
        res = r["result"]
        where = f"{r['workload']} seed {r['seed']} {r['label']}"
        if res.get("correct") is not True or res.get("failed") != 0:
            print(f"NOT CORRECT: {where} (correct={res.get('correct')}, "
                  f"failed={res.get('failed')})")
            bad = True
        pair = runs.setdefault((r["workload"], r["seed"]), {})
        if r["label"] not in SIDES or r["label"] in pair:
            print(f"UNPAIRED: {where} (unknown label or duplicate row)")
            bad = True
            continue
        pair[r["label"]] = r
    pairs = {}  # workload -> [(parent row, change row)] in seed order
    for (workload, seed), pair in sorted(runs.items()):
        if set(pair) != set(SIDES):
            for label in pair:
                print(f"UNPAIRED: {workload} seed {seed} {label}")
            bad = True
            continue
        pairs.setdefault(workload, []).append((pair["parent"], pair["change"]))

    first = rows[0]
    print(f"sha {first['sha'][:12]}, {first['host_cores']} host cores, "
          f"{first['build_type']}, {first['seconds']} s runs")
    for workload, ps in pairs.items():
        seeds = [p["seed"] for p, _ in ps]
        print(f"\n{workload}: {len(ps)} pairs (seeds {', '.join(map(str, seeds))})")
        print(f"  {'metric':<16} {'parent median [q1, q3]':<32} "
              f"{'change median [q1, q3]':<32} {'change/parent':<14} change won")
        flagged = False
        for m in metrics:
            name = m["name"]
            try:
                vals = {side: [row["result"]["metrics"][name]["value"]
                               for row in (p if side == "parent" else c
                                           for p, c in ps)]
                        for side in SIDES}
            except KeyError:
                print(f"  {name:<16} (missing from some run)")
                continue
            better = (lambda a, b: a < b) if m["better"] == "lower" else \
                (lambda a, b: a > b)
            won = sum(better(c, p) for p, c in zip(vals["parent"],
                                                   vals["change"]))
            pmed = statistics.median(vals["parent"])
            ratio = statistics.median(vals["change"]) / pmed if pmed else \
                float("nan")
            print(f"  {name:<16} {side_summary(vals['parent'], m['unit']):<32} "
                  f"{side_summary(vals['change'], m['unit']):<32} "
                  f"{ratio:<14.3f} {won}/{len(ps)}")
            if m["unit"] == "count" and \
                    len(set(vals["parent"] + vals["change"])) > 1:
                print(f"  FLAG {name} differs between runs: "
                      f"parent {sorted(set(vals['parent']))}, "
                      f"change {sorted(set(vals['change']))}")
                flagged = True
        if not flagged:
            print("  every count is identical in every run")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
