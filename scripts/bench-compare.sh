#!/usr/bin/env sh
# bench-compare: hold perfbench results against the committed trajectory.
#
# Usage: bench-compare.sh [-t trajectory.json] <workload> <result.json>...
#
#   <workload>     a perfbench workload (null_batch, matmul_paper, ...)
#   <result.json>  a file whose last non-empty line is one result object
#                  of `python3 perfbench/run.py --workload <workload>`
#                  (the whole output of a run will do)
#   -t file        the trajectory to compare with
#                  (default: BENCH_perfbench.json at the repo root)
#
# For each end-to-end metric, prints the median over the result files
# next to the change median of the newest trajectory entry that has an
# untraced (--trace 0) block for <workload>, and the relative move.
# A move of more than 10% in the metric's bad direction is marked
# WORSE; so is a result that failed threads or its correctness check.
#
# Exit status: 0 when nothing is WORSE, 1 when something is, 2 on a
# usage or input error. Host noise can move a single run by more than
# 10%, so compare medians of several interleaved runs.

set -eu

trajectory="$(cd "$(dirname "$0")/.." && pwd)/BENCH_perfbench.json"
while getopts "t:" opt; do
    case "$opt" in
    t) trajectory="$OPTARG" ;;
    *) echo "usage: $0 [-t trajectory.json] <workload> <result.json>..." >&2
       exit 2 ;;
    esac
done
shift $((OPTIND - 1))
if [ $# -lt 2 ]; then
    echo "usage: $0 [-t trajectory.json] <workload> <result.json>..." >&2
    exit 2
fi

exec python3 - "$trajectory" "$@" <<'EOF'
import json
import statistics
import sys

LIMIT = 0.10


def fail(msg):
    print(f"bench-compare: {msg}", file=sys.stderr)
    sys.exit(2)


def result_of(path):
    try:
        with open(path, encoding="utf-8") as f:
            lines = [ln.strip() for ln in f if ln.strip()]
    except OSError as err:
        fail(f"cannot read {path}: {err}")
    if not lines:
        fail(f"{path} is empty")
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError as err:
        fail(f"{path}: last line is not a result object: {err}")
    if not isinstance(result, dict) or "metrics" not in result:
        fail(f"{path}: last line has no metrics")
    return result


def newest_block(path, workload):
    try:
        with open(path, encoding="utf-8") as f:
            doc = json.load(f)
    except (OSError, json.JSONDecodeError) as err:
        fail(f"cannot load trajectory {path}: {err}")
    for entry in reversed(doc.get("entries", [])):
        for block in entry.get("end_to_end", []):
            if block.get("workload") == workload and block.get("trace") == 0:
                return entry, block
    fail(f"{path} has no untraced entry for {workload}")


trajectory, workload, paths = sys.argv[1], sys.argv[2], sys.argv[3:]
results = [result_of(p) for p in paths]
entry, block = newest_block(trajectory, workload)

print(f"bench-compare: {workload}, {len(results)} result(s) against "
      f"{trajectory}'s newest entry:")
print(f"  {entry.get('change', '(untitled)')}")
print(f"  {'metric':<16}{'unit':<6}{'results':>14}{'trajectory':>14}"
      f"{'move':>9}")
worse = 0
for name, ref in block["metrics"].items():
    values = [r["metrics"][name]["value"] for r in results
              if name in r["metrics"]]
    if len(values) != len(results):
        fail(f"a result has no {name}")
    mine = statistics.median(values)
    theirs = ref["change"]["median"]
    move = (mine - theirs) / theirs if theirs else 0.0
    bad = -move if ref["better"] == "higher" else move
    mark = "  WORSE" if bad > LIMIT else ""
    worse += bool(mark)
    print(f"  {name:<16}{ref['unit']:<6}{mine:>14.6g}{theirs:>14.6g}"
          f"{move:>+9.1%}{mark}")
for path, r in zip(paths, results):
    if not r.get("correct", False) or r.get("failed", 0):
        print(f"  {path}: correct={r.get('correct')} "
              f"failed={r.get('failed')} of {r.get('attempted')}  WORSE")
        worse += 1
sys.exit(1 if worse else 0)
EOF
