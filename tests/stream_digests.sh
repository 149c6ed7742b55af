#!/bin/sh
# Stream-path digest gate: rerun four chained cells that the W4
# stats baselines do not reach (memory spill under heavy faults,
# round-robin and FIFO lane scheduling, FrameBurst transactions under
# light faults) and require each final-state digest stream to match
# its checked-in copy under tests/data/stream-digests/ record for
# record.  vip_diverge skips the '#' provenance header, so a build of
# any commit or compiler compares on state alone.  A change to the
# IP stream engine that moves any of these cells shows up here as
# the first divergent component.
#
# Usage: tests/stream_digests.sh [build-dir] [work-dir]
set -eu

BUILD=${1:-build}
WORK=${2:-stream-digests-out}
SRCDIR=$(CDPATH= cd -- "$(dirname -- "$0")" && pwd)
DATA="$SRCDIR/data/stream-digests"
SIM="$BUILD/tools/vip_sim"
DIVERGE="$BUILD/tools/vip_diverge"

for b in "$SIM" "$DIVERGE"; do
    [ -x "$b" ] || { echo "missing binary: $b" >&2; exit 2; }
done

rm -rf "$WORK"
mkdir -p "$WORK"

rc=0
check() {
    name=$1
    shift
    echo "== $name"
    if ! "$SIM" --seconds 0.2 --audit final \
            --digest-out "$WORK/$name.dig" "$@" > "$WORK/$name.txt"; then
        echo "vip_sim failed" >&2
        rc=1
        return
    fi
    "$DIVERGE" "$DATA/$name.dig" "$WORK/$name.dig" || rc=1
}

check iptoip-W4-spill-heavy --workload W4 --config iptoip --spill \
    --fault-plan heavy
check vip-W8-rr --workload W8 --config vip --sched rr
check vip-W1-fifo --workload W1 --config vip --sched fifo
check iptoip-fb-W4-light --workload W4 --config iptoip-fb \
    --fault-plan light

if [ "$rc" -ne 0 ]; then
    echo "stream digests diverged from tests/data/stream-digests/" >&2
    exit 1
fi
echo "stream digests: PASS"
