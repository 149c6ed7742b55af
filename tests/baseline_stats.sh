#!/bin/sh
# Stats contract gate: regenerate the W4 cell of every system
# configuration with bench_paper and require each stats.json
# to diff clean against its checked-in bench/baseline/ counterpart
# under vip_stats_diff's rules (exact counters, banded timing).  A
# model change that moves a figure shows up here as a named path.
#
# Usage: tests/baseline_stats.sh [build-dir] [work-dir]
set -eu

BUILD=${1:-build}
WORK=${2:-baseline-stats-out}
SRCDIR=$(CDPATH= cd -- "$(dirname -- "$0")" && pwd)
PAPER="$BUILD/bench/bench_paper"
STATS_DIFF="$BUILD/tools/vip_stats_diff"

for b in "$PAPER" "$STATS_DIFF"; do
    [ -x "$b" ] || { echo "missing binary: $b" >&2; exit 2; }
done

rm -rf "$WORK"
mkdir -p "$WORK"
VIP_BENCH_SECONDS=0.1 "$PAPER" --stats-dir "$WORK" \
    --stats-workloads W4 > "$WORK/paper.txt"

rc=0
for base in "$SRCDIR"/../bench/baseline/*.stats.json; do
    cell=$(basename "$base")
    echo "== $cell"
    "$STATS_DIFF" "$base" "$WORK/$cell" || rc=1
done
if [ "$rc" -ne 0 ]; then
    echo "stats diverged from bench/baseline/" >&2
    exit 1
fi
echo "baseline stats: PASS"
