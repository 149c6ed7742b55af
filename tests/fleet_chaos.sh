#!/bin/sh
# Fleet chaos matrix: run the same small sweep under deterministic
# transport fault injection -- dropped/delayed/duplicated ops, lying
# fetch checksums, a partition long enough to expire leases and
# reassign work, a mid-sweep host death with a surviving host, and a
# full ssh-transport round trip through the fake_ssh stub -- and gate
# every scenario on the merged outputs being bit-identical to an
# uninjected run.  Faults may cost retries and reassignments; they
# must never change a byte of the results.
#
# Usage: tests/fleet_chaos.sh [build-dir] [work-dir]
set -eu

BUILD=${1:-build}
WORK=${2:-fleet-chaos-out}
VIP_SIM="$BUILD/tools/vip_sim"
VIP_FLEET="$BUILD/tools/vip_fleet"
STATS_DIFF="$BUILD/tools/vip_stats_diff"
SRCDIR=$(CDPATH= cd -- "$(dirname -- "$0")" && pwd)
FAKE_SSH="$SRCDIR/fake_ssh.sh"

for bin in "$VIP_SIM" "$VIP_FLEET" "$STATS_DIFF"; do
    [ -x "$bin" ] || { echo "missing binary: $bin" >&2; exit 2; }
done
[ -x "$FAKE_SSH" ] || { echo "missing $FAKE_SSH" >&2; exit 2; }

# Absolute paths: ssh-transport attempt dirs are resolved remotely.
case "$VIP_SIM" in /*) ;; *) VIP_SIM="$(pwd)/$VIP_SIM";; esac
case "$WORK" in /*) ;; *) WORK="$(pwd)/$WORK";; esac

rm -rf "$WORK"
mkdir -p "$WORK"

# quarantine_after is high on purpose: the probability scenarios
# inject failures continuously, and this matrix gates *result
# integrity* under flakiness, not the quarantine path (the host-death
# scenario and the unit tests cover that).  fetch_retries absorbs
# corrupt-checksum streaks; lease_ms is short enough that a partition
# provably expires a lease.
cat > "$WORK/spec.json" <<'EOF'
{
  "name": "chaos-matrix",
  "seconds": 0.3,
  "configs": ["vip"],
  "workloads": ["A1", "W1"],
  "seeds": [1, 2],
  "audit": "periodic:1",
  "fleet": {
    "workers": 2,
    "max_attempts": 4,
    "backoff_base_ms": 20,
    "backoff_cap_ms": 200,
    "heartbeat_deadline_ms": 30000,
    "heartbeat_interval_ms": 1.0,
    "checkpoint_every_ms": 20,
    "resume": true,
    "digests": true,
    "lease_ms": 600,
    "quarantine_after": 1000,
    "fetch_retries": 6
  }
}
EOF

JOBS="vip-A1-s1 vip-A1-s2 vip-W1-s1 vip-W1-s2"

# journal_gate <run-dir> : the supervisor's journal.jsonl is
# well-formed (every line parses, seq strictly increasing from 0,
# wall_ms nondecreasing, sweep_start first / sweep_end last) and its
# ownership story is coherent: per-job launch tokens strictly
# increase, every commit cites a token that was actually launched,
# every job commits exactly once, and no launch reuses a token whose
# lease already expired.  The report, the journal's fold, must agree
# with it: one entry per spec job, the summary's done count equal to
# the journal's commits, and its lease expiries to the journal's.
journal_gate() {
    python3 - "$1" <<'EOF'
import json, sys, collections
run = sys.argv[1]
recs = []
for line in open(run + "/journal.jsonl"):
    recs.append(json.loads(line))
assert recs, "empty journal"
assert [r["seq"] for r in recs] == list(range(len(recs))), \
    "seq not dense-monotonic"
walls = [r["wall_ms"] for r in recs]
assert all(a <= b for a, b in zip(walls, walls[1:])), \
    "wall_ms went backwards"
assert recs[0]["type"] == "sweep_start", recs[0]
assert recs[-1]["type"] == "sweep_end", recs[-1]

launches = collections.defaultdict(list)
commits = collections.defaultdict(list)
expired = set()
for r in recs:
    t = r["type"]
    if t == "launch":
        assert not launches[r["job"]] or \
            r["token"] > launches[r["job"]][-1], \
            ("token not increasing", r)
        assert (r["job"], r["token"]) not in expired, \
            ("relaunched an expired token", r)
        launches[r["job"]].append(r["token"])
    elif t in ("commit", "zombie_rescue"):
        # A rescue is the commit path for a post-expiry attempt whose
        # job was never reissued; either way the job settles once.
        assert r["token"] in launches[r["job"]], ("orphan commit", r)
        commits[r["job"]].append(r["token"])
    elif t == "lease_expiry":
        expired.add((r["job"], r["token"]))

summ = json.load(open(run + "/report.json"))["summary"]
for j, c in commits.items():
    assert len(c) == 1, ("job committed twice", j, c)
assert len(commits) == summ["done"], (len(commits), summ["done"])
exp = sum(1 for r in recs if r["type"] == "lease_expiry")
assert exp == summ["lease_expiries"], (exp, summ["lease_expiries"])

rep = json.load(open(run + "/report.json"))
states = collections.Counter(j["state"] for j in rep["jobs"])
assert sum(states.values()) == summ["jobs"] == \
    sum(1 for r in recs if r["type"] == "job"), (states, summ)
assert states["done"] == summ["done"], (states, summ)
print("journal: %d records, %d launches, %d commits, %d expiries"
      % (len(recs), sum(map(len, launches.values())),
         len(commits), exp))
EOF
}

# gate <run-dir> : every job done, nothing failed, the journal and
# report are coherent, and every shard's stats + digest
# stream (and the merged aggregate) bit-identical to the clean run.
gate() {
    run=$1
    python3 - "$run/report.json" <<'EOF'
import json, sys
r = json.load(open(sys.argv[1]))
s = r["summary"]
assert s["jobs"] == 4 and s["done"] == 4, s
assert s["failed"] == 0, s
assert not r.get("fatal"), r.get("fatal")
print("report: 4/4 done (retries=%d lease_expiries=%d "
      "zombie_rejects=%d zombie_rescues=%d)"
      % (s["retries"], s["lease_expiries"], s["zombie_rejects"],
         s["zombie_rescues"]))
EOF
    journal_gate "$run"
    for j in $JOBS; do
        "$STATS_DIFF" "$WORK/clean/shards/$j/stats.json" \
            "$run/shards/$j/stats.json"
        cmp "$WORK/clean/shards/$j/digest.dig" \
            "$run/shards/$j/digest.dig"
    done
    cmp "$WORK/clean/aggregate.json" "$run/aggregate.json"
}

echo "== clean reference sweep"
"$VIP_FLEET" --spec "$WORK/spec.json" --out "$WORK/clean" \
    --vip-sim "$VIP_SIM" --quiet
test -s "$WORK/clean/report.json"
test -s "$WORK/clean/aggregate.json"
journal_gate "$WORK/clean"

echo "== chaos: dropped + delayed + duplicated ops"
"$VIP_FLEET" --spec "$WORK/spec.json" --out "$WORK/flaky" \
    --vip-sim "$VIP_SIM" --fault 'seed=7,drop=0.2,delay=0.2,dup=0.2' \
    --quiet
gate "$WORK/flaky"

echo "== chaos: corrupted fetch checksums"
"$VIP_FLEET" --spec "$WORK/spec.json" --out "$WORK/corrupt" \
    --vip-sim "$VIP_SIM" --fault 'seed=11,corrupt=0.25' --quiet
gate "$WORK/corrupt"

echo "== chaos: partition expires a lease and reassigns the job"
"$VIP_FLEET" --spec "$WORK/spec.json" --out "$WORK/partition" \
    --vip-sim "$VIP_SIM" --fault 'partition@1+250' --quiet
gate "$WORK/partition"
python3 - "$WORK/partition" <<'EOF'
import json, sys
run = sys.argv[1]
r = json.load(open(run + "/report.json"))
s = r["summary"]
assert s["lease_expiries"] >= 1, s
assert r["reassigned_jobs"], "no reassigned work enumerated"
assert s["zombie_rejects"] + s["zombie_rescues"] >= 0
# The journal must tell the same reassignment story: after every
# lease_expiry the job relaunches under a strictly newer token, and
# any zombie_reject cites the expired (stale) token.
recs = [json.loads(l) for l in open(run + "/journal.jsonl")]
for i, e in enumerate(recs):
    if e["type"] != "lease_expiry":
        continue
    later = [x for x in recs[i + 1:]
             if x["type"] == "launch" and x["job"] == e["job"]]
    # ... unless the orphaned attempt itself finished first and was
    # rescued (no newer token was ever issued).
    rescued = [x for x in recs[i + 1:]
               if x["type"] == "zombie_rescue"
               and x["job"] == e["job"]]
    done = [x for x in recs[:i]
            if x["type"] == "commit" and x["job"] == e["job"]]
    assert later or rescued or done, \
        ("expired lease never reassigned", e)
    assert all(x["token"] > e["token"] for x in later), (e, later)
stale = {(z["job"], z["token"]) for z in recs
         if z["type"] == "zombie_reject"}
exp = {(e["job"], e["token"]) for e in recs
       if e["type"] == "lease_expiry"}
assert stale <= exp, ("zombie_reject without lease_expiry",
                      stale - exp)
# Attempts count from 1, and a rescued zombie's output is logged
# under the attempt its zombie_rescue record names.
import glob
for path in glob.glob(run + "/shards/*/log.txt"):
    assert "=== attempt 0 ===" not in open(path).read(), path
rescues = [z for z in recs if z["type"] == "zombie_rescue"]
for z in rescues:
    log = open("%s/shards/%s/log.txt" % (run, z["job"])).read()
    assert "=== attempt %d ===" % z["attempt"] in log, z
print("partition: lease_expiries=%d reassigned=%s rescues=%d"
      % (s["lease_expiries"], ",".join(r["reassigned_jobs"]),
         len(rescues)))
EOF

echo "== chaos: one host dies mid-sweep, the survivor finishes"
# die@8: mortal's 9th transport op, a few polls into its first job,
# so the death strands work however fast the host runs (a wall-clock
# death let a fast host finish its jobs and die idle).
cat > "$WORK/die-hosts.json" <<'EOF'
{ "hosts": [
    { "name": "mortal", "transport": "process", "slots": 1,
      "fault": "die@8" },
    { "name": "survivor", "transport": "process", "slots": 1 } ] }
EOF
"$VIP_FLEET" --spec "$WORK/spec.json" --out "$WORK/die" \
    --vip-sim "$VIP_SIM" --hosts "$WORK/die-hosts.json" --quiet
gate "$WORK/die"

echo "== chaos: quarantine journal (dead host scored out at 2 strikes)"
# Same mortal/survivor roster, but a hair-trigger quarantine_after so
# the dying host walks the full health state machine — quarantine,
# re-admission probes, dead — and the journal records every step.
python3 - "$WORK/spec.json" "$WORK/spec-quar.json" <<'EOF'
import json, sys
spec = json.load(open(sys.argv[1]))
spec["fleet"]["quarantine_after"] = 2
json.dump(spec, open(sys.argv[2], "w"))
EOF
"$VIP_FLEET" --spec "$WORK/spec-quar.json" --out "$WORK/quar" \
    --vip-sim "$VIP_SIM" --hosts "$WORK/die-hosts.json" --quiet
gate "$WORK/quar"
python3 - "$WORK/quar" <<'EOF'
import json, sys
recs = [json.loads(l) for l in open(sys.argv[1] + "/journal.jsonl")]
quars = [r for r in recs if r["type"] == "quarantine"]
assert quars, "no quarantine record for the dying host"
assert all(r["host"] == "mortal" for r in quars), quars
summ = json.load(open(sys.argv[1] + "/report.json"))["summary"]
assert summ["hosts_quarantined"] >= 1, summ
# Once the journal declares the host dead, it must never launch
# another attempt there.
dead_at = [r["seq"] for r in recs if r["type"] == "host_dead"]
if dead_at:
    after = [r for r in recs if r["seq"] > dead_at[0]
             and r["type"] == "launch" and r["host"] == "mortal"]
    assert not after, ("launch on a dead host", after)
# A benched host's failures are not journaled: no op_fail may name
# a host between its quarantine and its next successful probe, nor
# after it is declared dead.
benched = {}
for r in recs:
    h = r.get("host")
    if r["type"] in ("quarantine", "host_dead"):
        benched[h] = True
    elif r["type"] == "probe" and r.get("ok"):
        benched[h] = False
    elif r["type"] == "op_fail":
        assert not benched.get(h), ("op_fail while benched", r)
op_fails = sum(1 for r in recs if r["type"] == "op_fail")
probes = [r for r in recs if r["type"] == "probe"]
print("quarantine journal: %d quarantines, %d probes, %d op_fail, "
      "dead=%s" % (len(quars), len(probes), op_fails, bool(dead_at)))
EOF
cat > "$WORK/ssh-hosts.json" <<EOF
{ "hosts": [
    { "name": "pseudo-remote", "transport": "ssh", "slots": 2,
      "ssh": ["$FAKE_SSH", "pseudo-remote"],
      "remote_dir": "$WORK/ssh-remote",
      "vip_sim": "$VIP_SIM",
      "op_timeout_ms": 60000, "op_retries": 3 } ] }
EOF
"$VIP_FLEET" --spec "$WORK/spec.json" --out "$WORK/ssh" \
    --vip-sim "$VIP_SIM" --hosts "$WORK/ssh-hosts.json" --quiet
gate "$WORK/ssh"

echo "fleet chaos matrix: PASS"
