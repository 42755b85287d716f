"""The passive guarantee, end to end: arming observation must not move a
single simulation event.

The scenario is the PR 1 fault-stress schedule (drops + duplicates +
reordering + a mid-run rail failure) with the reliability layer armed —
the most event-sensitive path in the repo.  The MessageTrace fingerprint
hashes every fragment's post/deliver time, so any scheduling
perturbation from the recorder would show up here.
"""

import dataclasses
import hashlib
import json

from repro.bench import fault_demo, unr_pingpong
from repro.bench.fingerprints import PLATFORMS, SCHEDULES, run_schedule_observed

FAULTS = "drop=0.2,dup=0.1,reorder=0.3,rail_fail@t=40:node=1:rail=0"


def test_observation_keeps_fingerprint_identical_under_fault_stress():
    base = fault_demo(FAULTS, size=32768, iters=4)
    armed = fault_demo(FAULTS, size=32768, iters=4, observe=True)
    assert base["identical"], "disarmed replay must be bit-identical"
    assert armed["identical"], "armed replay must be bit-identical"
    assert base["correct"] and armed["correct"]
    assert base["runs"][0]["fingerprint"] == armed["runs"][0]["fingerprint"], (
        "arming the recorder changed the fragment schedule"
    )


def test_observation_keeps_latency_result_identical():
    plain = unr_pingpong("th-xy", 4096, 5)
    out = {}
    observed = unr_pingpong("th-xy", 4096, 5, out=out)
    assert plain == observed
    assert len(out["recorder"].transfers) > 0


#: sha256 of everything the 16 observed corpus runs record (see below).
#: A change here means observation wrote something different down.
OBSERVED_CORPUS_DIGEST = "86fd0d483a6c936c696050f21ad288469a97817d8ca4f472cf99ad21596b2ac3"


def test_observed_corpus_records_are_pinned():
    """The op and protocol streams, the instant markers and the snapshot
    of every ``run_schedule_observed`` run hash to one pinned value."""
    digest = hashlib.sha256()
    for platform in PLATFORMS:
        for schedule in SCHEDULES:
            _, rec = run_schedule_observed(platform, schedule)
            doc = {
                "ops": [dataclasses.astuple(r) for r in rec.ops],
                "protocol": [dataclasses.astuple(e) for e in rec.protocol],
                "events": [(e.t, e.track, e.name, sorted(e.args.items()))
                           for e in rec.events],
                "snapshot": rec.snapshot(),
            }
            digest.update(json.dumps(doc, sort_keys=True).encode())
    assert digest.hexdigest() == OBSERVED_CORPUS_DIGEST
