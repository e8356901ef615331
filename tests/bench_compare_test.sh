#!/usr/bin/env sh
# Checks scripts/bench-compare.sh on synthesized result lines and a
# synthesized trajectory, and that it parses the committed trajectory.
# Live perfbench numbers are never compared here: host noise would make
# the test flaky.
#
# Usage: bench_compare_test.sh <repo root>

set -eu

root="$1"
script="$root/scripts/bench-compare.sh"
tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"' EXIT

# The newest untraced block for "w" is the one compared with: the
# traced block and the older entry must be skipped.
cat > "$tmp/trajectory.json" <<'EOF'
{"schema": "lsched-perfbench-trajectory/1", "entries": [
 {"change": "older", "end_to_end": [
  {"workload": "w", "trace": 0, "metrics": {
   "iter_s": {"unit": "s", "better": "lower", "change": {"median": 9.0}},
   "threads_per_s": {"unit": "1/s", "better": "higher",
                     "change": {"median": 9.0}}}}]},
 {"change": "newest", "end_to_end": [
  {"workload": "w", "trace": 1, "metrics": {
   "iter_s": {"unit": "s", "better": "lower", "change": {"median": 9.0}},
   "threads_per_s": {"unit": "1/s", "better": "higher",
                     "change": {"median": 9.0}}}},
  {"workload": "w", "trace": 0, "metrics": {
   "iter_s": {"unit": "s", "better": "lower", "change": {"median": 1.0}},
   "threads_per_s": {"unit": "1/s", "better": "higher",
                     "change": {"median": 100.0}}}}]}]}
EOF

# result <file> <iter_s> <threads_per_s> [failed]
result() {
    printf 'provenance {}\n{"correct": true, "attempted": 10, "failed": %s, "metrics": {"iter_s": {"value": %s, "unit": "s"}, "threads_per_s": {"value": %s, "unit": "1/s"}}}\n' \
        "${4:-0}" "$2" "$3" > "$tmp/$1"
}

# expect <status> <pattern|-> <args...>: run the script, check its exit
# status, and that its output matches (or, with "!pattern", does not).
fails=0
expect() {
    want="$1" pattern="$2"
    shift 2
    set +e
    out="$(sh "$script" -t "$tmp/trajectory.json" "$@" 2>&1)"
    got=$?
    set -e
    ok=1
    [ "$got" -eq "$want" ] || ok=0
    case "$pattern" in
    -) ;;
    !*) printf '%s\n' "$out" | grep -q -- "${pattern#!}" && ok=0 ;;
    *) printf '%s\n' "$out" | grep -q -- "$pattern" || ok=0 ;;
    esac
    if [ "$ok" -eq 0 ]; then
        echo "FAIL: bench-compare $* exited $got (want $want), pattern '$pattern':"
        printf '%s\n' "$out"
        fails=$((fails + 1))
    fi
}

result near 1.05 95
result slow1 1.0 100
result slow2 1.2 100
result slow3 1.3 100
result fewer 1.0 80
result more 0.5 150
result failed 1.0 100 3

expect 0 '!WORSE' w "$tmp/near"
expect 0 'threads_per_s' w "$tmp/near"
# Median of 1.0, 1.2, 1.3 is 1.2: +20% on a lower-is-better metric.
expect 1 'iter_s .* +20.0%  WORSE' w "$tmp/slow1" "$tmp/slow2" "$tmp/slow3"
expect 1 'threads_per_s .* -20.0%  WORSE' w "$tmp/fewer"
expect 0 '!WORSE' w "$tmp/more"
expect 1 'failed=3 of 10  WORSE' w "$tmp/failed"
expect 2 'no untraced entry' other "$tmp/near"
expect 2 'usage' w
printf 'not json\n' > "$tmp/garbage"
expect 2 'not a result object' w "$tmp/garbage"

# The committed trajectory parses, and its own newest matmul_paper
# change medians compare equal to themselves.
python3 - "$root/BENCH_perfbench.json" > "$tmp/committed" <<'EOF'
import json, sys
doc = json.load(open(sys.argv[1]))
block = next(b for e in reversed(doc["entries"]) for b in e["end_to_end"]
             if b["workload"] == "matmul_paper" and b["trace"] == 0)
print(json.dumps({"correct": True, "attempted": 1, "failed": 0,
                  "metrics": {k: {"value": m["change"]["median"],
                                  "unit": m["unit"]}
                              for k, m in block["metrics"].items()}}))
EOF
set +e
out="$(sh "$script" matmul_paper "$tmp/committed" 2>&1)"
got=$?
set -e
if [ "$got" -ne 0 ] || ! printf '%s\n' "$out" | grep -q '+0.0%'; then
    echo "FAIL: committed trajectory against itself exited $got:"
    printf '%s\n' "$out"
    fails=$((fails + 1))
fi

[ "$fails" -eq 0 ] && echo "bench-compare: all checks passed"
exit "$fails"
