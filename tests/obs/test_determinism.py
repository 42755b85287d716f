"""The passive guarantee, end to end: arming observation must not move a
single simulation event.

The scenario is the PR 1 fault-stress schedule (drops + duplicates +
reordering + a mid-run rail failure) with the reliability layer armed —
the most event-sensitive path in the repo.  The MessageTrace fingerprint
hashes every fragment's post/deliver time, so any scheduling
perturbation from the recorder would show up here.  What the observed
golden corpus runs record is pinned below, and again in the golden
corpus as its ``obs/observed-corpus`` entry (``repro fingerprints``).
"""

from repro.bench import fault_demo, unr_pingpong
from repro.bench.fingerprints import PLATFORMS, observed_corpus_digest, run_schedule_observed

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


#: sha256 of everything the 16 observed corpus runs record.
#: A change here means observation wrote something different down.
OBSERVED_CORPUS_DIGEST = "a694ff4c407c1a4004d00c6d2e9dcf92c7c44cf37fcf984a8841905138bd2aa4"

#: the kernel's event count, which the digest above embeds, of the four
#: observed ``fault_stress`` runs (69 / 69 / 69 / 121 while each reliable
#: fragment's watchdog and each faulted CQ push was a process).  When the
#: digest drifts, these say whether the count moved or a record did.
FAULT_STRESS_SIM_EVENTS = {"th-xy": 75, "th-2a": 47, "hpc-ib": 47, "hpc-roce": 47}


def test_observed_corpus_records_are_pinned():
    """The op and protocol streams, the instant markers and the snapshot
    of every ``run_schedule_observed`` run hash to one pinned value."""
    assert observed_corpus_digest() == OBSERVED_CORPUS_DIGEST


def test_observed_fault_stress_event_counts_are_pinned():
    counts = {
        platform: run_schedule_observed(platform, "fault_stress")[1]
        .snapshot()["counters"]["sim.events"]
        for platform in PLATFORMS
    }
    assert counts == FAULT_STRESS_SIM_EVENTS
