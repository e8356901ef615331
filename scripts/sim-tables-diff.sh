#!/usr/bin/env sh
# sim-tables-diff: hold two builds' simulated cache tables byte for byte.
#
# Usage: sim-tables-diff.sh <build-a> <build-b>
#
#   <build-a>, <build-b>  CMake build trees holding bench/table3_matmul_cache,
#                         bench/table5_pde_cache, bench/table7_sor_cache and
#                         bench/table9_nbody_cache (the same tree twice
#                         checks that the tables are deterministic)
#
# Runs each table at its default arguments from both trees and compares
# the outputs, then the exact simulated counts each run publishes with
# --metrics (the `cachesim.*` gauges): the tables print thousands, so a
# few hundred misses moving between kinds would not show in them. Every
# run is under `setarch -R`: the simulator sees real virtual addresses,
# so address-space randomization would move the counts between runs of
# one binary.
#
# Exit status: 0 when every table matches, 1 when one differs (its diff
# goes to standard output), 2 on a usage error or a table that is
# missing or fails, 77 when `setarch -R` cannot run here.

set -eu

if [ $# -ne 2 ]; then
    echo "usage: $0 <build-a> <build-b>" >&2
    exit 2
fi
if ! setarch -R true >/dev/null 2>&1; then
    echo "sim-tables-diff: setarch -R does not run on this host" >&2
    exit 77
fi

tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"' EXIT

status=0
for table in table3_matmul_cache table5_pde_cache table7_sor_cache \
             table9_nbody_cache; do
    for side in a b; do
        if [ "$side" = a ]; then build="$1"; else build="$2"; fi
        bin="$build/bench/$table"
        if [ ! -x "$bin" ]; then
            echo "sim-tables-diff: no $bin" >&2
            exit 2
        fi
        out="$tmp/$table.$side"
        if ! setarch -R "$bin" --metrics="$out.metrics.txt" \
                > "$out" 2> "$out.err"; then
            echo "sim-tables-diff: $bin failed:" >&2
            cat "$out" "$out.err" >&2
            exit 2
        fi
        grep '^ *cachesim\.' "$out.metrics.txt" >> "$out" || true
    done
    if cmp -s "$tmp/$table.a" "$tmp/$table.b"; then
        echo "$table: identical"
    else
        echo "$table: DIFFERS"
        diff "$tmp/$table.a" "$tmp/$table.b" || true
        status=1
    fi
done
exit "$status"
