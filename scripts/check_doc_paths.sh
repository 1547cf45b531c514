#!/usr/bin/env bash
# Fails unless every repository path the docs cite exists. Scans DESIGN.md,
# README.md, EXPERIMENTS.md and the verify skill for paths that start with
# src/, tests/, bench/, scripts/, examples/ or perfbench/. A cited path may
# be a glob (`src/server/Alloc*`, `bench/server_{load,chaos}.cpp`) and may
# stop at a file-name prefix (`tests/golden_output_test` for the .cpp);
# paths under a build directory (`build/bench/alloc_cost`) are exempt.
#
# Usage: scripts/check_doc_paths.sh [repo-root]
set -euo pipefail

REPO_ROOT="${1:-$(cd "$(dirname "$0")/.." && pwd)}"

python3 - "$REPO_ROOT" <<'PYEOF'
import glob, os, re, sys

root = sys.argv[1]
docs = ["DESIGN.md", "README.md", "EXPERIMENTS.md",
        ".claude/skills/verify/SKILL.md"]
# Not preceded by a path character, so build/src/... and /abs/src/... are
# skipped.
cited = re.compile(r"(?<![\w./-])(?:src|tests|bench|scripts|examples|perfbench)"
                   r"/[\w./*{},-]*")

def expand(path):
    m = re.search(r"\{([^{}]*)\}", path)
    if not m:
        return [path]
    return [p for alt in m.group(1).split(",")
            for p in expand(path[:m.start()] + alt + path[m.end():])]

missing = []
for doc in docs:
    with open(os.path.join(root, doc), encoding="utf-8") as f:
        for lineno, line in enumerate(f, 1):
            for m in cited.finditer(line):
                path = m.group(0).rstrip(".,")
                for alt in expand(path):
                    if not glob.glob(os.path.join(root, alt) + "*"):
                        missing.append(f"{doc}:{lineno}: {path}")
                        break

for entry in missing:
    print(f"missing: {entry}")
if missing:
    sys.exit(f"{len(missing)} cited path(s) do not exist")
print("doc paths OK")
PYEOF
