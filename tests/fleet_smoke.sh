#!/bin/sh
# Fleet kill-resume smoke: run a small sweep under vip_fleet, SIGKILL
# one worker mid-run via chaos injection, and gate on the recovered
# shard being bit-identical (stats + digest stream) to an
# uninterrupted vip_sim run with the same flags, and on the sweep's
# journal being well-formed and agreeing with its report.  Then
# SIGKILL the supervisor itself mid-sweep and gate on vip_top still
# folding its journal into a dashboard of every launched job.
#
# Usage: tests/fleet_smoke.sh [build-dir] [work-dir]
set -eu

BUILD=${1:-build}
WORK=${2:-fleet-smoke-out}
VIP_SIM="$BUILD/tools/vip_sim"
VIP_FLEET="$BUILD/tools/vip_fleet"
STATS_DIFF="$BUILD/tools/vip_stats_diff"
VIP_TOP="$BUILD/tools/vip_top"

for bin in "$VIP_SIM" "$VIP_FLEET" "$STATS_DIFF" "$VIP_TOP"; do
    [ -x "$bin" ] || { echo "missing binary: $bin" >&2; exit 2; }
done

rm -rf "$WORK"
mkdir -p "$WORK"

# journal_schema <journal.jsonl>... : every record is one of the ten
# kept types and carries the schema fields, job-scoped records carry
# the job and its attempt number, and every record that moves a job
# names the job's new state (the report copies it from there).
journal_schema() {
    python3 - "$@" <<'EOF'
import json, sys
JOB_SCOPED = {"launch", "heartbeat", "chaos_kill", "hang_kill",
              "job_fail", "commit"}
MOVES_JOB = {"launch", "job_fail", "commit"}
KNOWN = JOB_SCOPED | {"sweep_start", "job", "interrupt", "sweep_end"}
assert len(KNOWN) == 10, KNOWN
STATES = {"pending", "running", "backoff", "done", "failed"}
for path in sys.argv[1:]:
    for line in open(path):
        if not line.endswith("\n"):
            continue  # a record its killed writer never finished
        r = json.loads(line)
        assert isinstance(r["seq"], int), (path, r)
        assert isinstance(r["wall_ms"], (int, float)), (path, r)
        assert r["type"] in KNOWN, (path, r)
        if r["type"] in JOB_SCOPED:
            assert isinstance(r["job"], str), (path, r)
            assert isinstance(r["attempt"], int), (path, r)
        if r["type"] in MOVES_JOB:
            assert r["state"] in STATES, (path, r)
    print("%s: schema ok" % path)
EOF
}

# journal_gate <run-dir> : the journal of a finished sweep is
# well-formed (seq dense from 0, wall_ms nondecreasing, sweep_start
# first and sweep_end last), each job's attempts only grow and each
# done job commits exactly once, and the report, the journal's fold,
# counts what the journal says.
journal_gate() {
    python3 - "$1" <<'EOF'
import json, sys, collections
run = sys.argv[1]
recs = [json.loads(l) for l in open(run + "/journal.jsonl")]
assert recs, "empty journal"
assert [r["seq"] for r in recs] == list(range(len(recs))), \
    "seq not dense-monotonic"
walls = [r["wall_ms"] for r in recs]
assert all(a <= b for a, b in zip(walls, walls[1:])), \
    "wall_ms went backwards"
assert recs[0]["type"] == "sweep_start", recs[0]
assert recs[-1]["type"] == "sweep_end", recs[-1]

attempt = collections.defaultdict(int)
commits = collections.Counter()
for r in recs:
    if "attempt" not in r:
        continue
    assert r["attempt"] >= attempt[r["job"]], ("attempt went back", r)
    attempt[r["job"]] = r["attempt"]
    commits[r["job"]] += r["type"] == "commit"
assert all(n <= 1 for n in commits.values()), ("committed twice", commits)

rep = json.load(open(run + "/report.json"))
summ = rep["summary"]
count = collections.Counter(r["type"] for r in recs)
jobs = {j["id"]: j for j in rep["jobs"]}
assert summ["jobs"] == len(jobs) == count["job"], (summ, count)
assert summ["done"] == sum(commits.values()), (summ, commits)
assert all(commits[j] == (v["state"] == "done")
           for j, v in jobs.items()), (commits, jobs)
assert summ["failed"] == len(rep["failed_jobs"]) == \
    sum(v["state"] == "failed" for v in jobs.values()), summ
assert summ["hang_kills"] == count["hang_kill"], summ
assert summ["resumes"] == sum(1 for r in recs if r["type"] == "launch"
                              and r["resume"]), summ
assert summ["retries"] == sum(max(0, n - 1)
                              for n in attempt.values()), summ
assert all(v["attempts"] == attempt[j] for j, v in jobs.items()), jobs
print("journal: %d records, %d launches, %d commits"
      % (len(recs), count["launch"], sum(commits.values())))
EOF
}

# A1 is quiescent every few ms (max dry gap ~36 ms), so a 20 ms ring
# cadence guarantees a checkpoint exists well before the kill point.
# W4-style streaming workloads are NOT suitable here: they can run
# hundreds of ms without a quiescent point, leaving the ring empty.
cat > "$WORK/spec.json" <<'EOF'
{
  "name": "kill-resume-smoke",
  "seconds": 0.5,
  "configs": ["vip"],
  "workloads": ["A1", "W1"],
  "seeds": [1, 2],
  "audit": "periodic:1",
  "fleet": {
    "workers": 2,
    "max_attempts": 3,
    "backoff_base_ms": 50,
    "backoff_cap_ms": 1000,
    "heartbeat_deadline_ms": 30000,
    "heartbeat_interval_ms": 1.0,
    "checkpoint_every_ms": 20,
    "resume": true,
    "digests": true
  }
}
EOF

# Chaos injection: SIGKILL vip-A1-s1's first attempt once its
# heartbeat crosses 300 simulated ms.  Keyed on simulated time (the
# metrics CSV), not wall time, so the kill always lands after a ring
# snapshot was written -- no races on slow CI machines.
echo "== fleet sweep with injected SIGKILL"
"$VIP_FLEET" --spec "$WORK/spec.json" --out "$WORK/run" \
    --vip-sim "$VIP_SIM" --kill vip-A1-s1@300

REPORT="$WORK/run/report.json"
test -s "$REPORT"

echo "== report asserts"
python3 - "$REPORT" <<'EOF'
import json, sys

r = json.load(open(sys.argv[1]))
assert r["kind"] == "vip-fleet-report", r["kind"]
s = r["summary"]
assert s["jobs"] == 4 and s["done"] == 4, s
assert s["failed"] == 0, s
assert s["retries"] >= 1, s
assert s["resumes"] >= 1, "killed shard restarted from scratch: %s" % s
killed = next(j for j in r["jobs"] if j["id"] == "vip-A1-s1")
assert killed["state"] == "done", killed
assert killed["attempts"] >= 2, killed
assert killed["resumed"] is True, killed
assert any("chaos SIGKILL" in h for h in killed.get("history", [])), killed
print("report: vip-A1-s1 killed, resumed from checkpoint, done")
EOF
journal_gate "$WORK/run"

# Uninterrupted reference run with IDENTICAL flags.  A restore
# checks config/workload/seed/seconds/audit (checkpoint identity) and
# the sampling interval and stat selection (the sampler's snapshot
# section), so every knob the fleet threads into workers must be
# repeated here for the comparison to be meaningful.
echo "== uninterrupted reference run"
REF="$WORK/ref"
mkdir -p "$REF"
"$VIP_SIM" --workload A1 --config vip --seed 1 --seconds 0.5 \
    --audit periodic:1 --digest-out "$REF/digest.dig" \
    --metrics-out "$REF/metrics.csv" --metrics-interval-ms 1 \
    --stats-out "$REF/stats.json" --postmortem-dir "$REF/pm" \
    --checkpoint-every-ms 20

echo "== gate: recovered shard == uninterrupted reference"
SHARD="$WORK/run/shards/vip-A1-s1"
"$STATS_DIFF" "$REF/stats.json" "$SHARD/stats.json"
cmp "$REF/digest.dig" "$SHARD/digest.dig"

# The journal is flushed per record, so a supervisor SIGKILLed
# mid-sweep leaves no report but a readable record.  Its workers are
# stopped with it (they would otherwise run on as orphans).
echo "== killed supervisor: vip_top folds its journal"
"$VIP_FLEET" --spec "$WORK/spec.json" --out "$WORK/killed" \
    --vip-sim "$VIP_SIM" --quiet &
FLEET=$!
n=0
until grep -q '"type": "commit"' "$WORK/killed/journal.jsonl" \
        2>/dev/null; do
    n=$((n + 1))
    if [ "$n" -gt 600 ]; then
        kill -9 "$FLEET"
        echo "no commit in the journal after 60 s" >&2
        exit 1
    fi
    sleep 0.1
done
kill -STOP "$FLEET"
pkill -9 -P "$FLEET" || true
kill -9 "$FLEET"
wait "$FLEET" || true
test ! -e "$WORK/killed/report.json"
"$VIP_TOP" "$WORK/killed" > "$WORK/killed-top.txt"
cat "$WORK/killed-top.txt"
python3 - "$WORK/killed" <<'EOF'
import json, sys
run = sys.argv[1]
top = open(run + "-top.txt").read().splitlines()
launched = {json.loads(l)["job"] for l in open(run + "/journal.jsonl")
            if l.endswith("\n") and '"type": "launch"' in l}
assert launched, "no launch in the journal"
for j in launched:
    assert any(l.split()[:1] == [j] for l in top), ("not listed", j)
print("killed supervisor: vip_top lists %d launched jobs"
      % len(launched))
EOF
journal_schema "$WORK/run/journal.jsonl" "$WORK/killed/journal.jsonl"

echo "fleet kill-resume smoke: PASS"
