"""The golden-fingerprint lock: current wire behaviour == committed corpus.

Every datapath optimization must be wire-equivalent; this test recomputes
the whole corpus (four schedules x four Table III platforms, healthy and
fault-stressed, plus the seven witness entries) and diffs it against the
committed golden file.  An *intentional* change regenerates the file
with::

    python -m repro fingerprints --write
"""

import os

import pytest

from repro.bench import run_stream
from repro.bench.fingerprints import (
    FAULT_SEED,
    GOLDEN_SCHEMA,
    PLATFORMS,
    SCHEDULES,
    STREAM_BYTES,
    STREAM_ITERS,
    WITNESSES,
    collect_fingerprints,
    compare_corpus,
    fault_schedule,
    load_corpus,
    run_schedule,
)
from repro.netsim import FaultSpec

GOLDEN = os.path.join(os.path.dirname(__file__), "fixtures",
                      "golden_fingerprints.json")


def test_corpus_covers_all_platforms_and_schedules():
    entries = load_corpus(GOLDEN)
    witnesses = {
        "cli/faults",
        "cli/faults --kill-node 1",
        "cli/faults --kill-node 1 --kill-duration 0",
        "cli/chaos --team-size 2 --out",
        "cli/chaos --team-size 3 --out",
        "cli/trace stream --faults drop=0.3,reorder=0.2,rail_fail@t=5.0 --perfetto",
        "obs/observed-corpus",
    }
    assert set(WITNESSES) == witnesses
    assert set(entries) == {
        f"{p}/{s}" for p in PLATFORMS for s in SCHEDULES
    } | witnesses
    assert all(len(fp) == 64 for fp in entries.values())


def test_current_run_matches_golden_corpus():
    problems = compare_corpus(GOLDEN)
    assert problems == [], (
        "wire fingerprints drifted from the golden corpus:\n  "
        + "\n  ".join(problems)
        + "\nif the change is intentional, regenerate with "
        "`python -m repro fingerprints --write`"
    )


def test_compare_corpus_reports_drift_and_coverage_gaps():
    golden = load_corpus(GOLDEN)
    current = dict(golden)
    key = sorted(current)[0]
    current[key] = "0" * 64
    current.pop(sorted(current)[1])
    current["made-up/schedule"] = "1" * 64
    problems = compare_corpus(GOLDEN, entries=current)
    assert any("drifted" in p for p in problems)
    assert any("missing" in p for p in problems)
    assert any("not in golden corpus" in p for p in problems)


def test_schedules_are_deterministic():
    assert run_schedule("th-xy", "stream") == run_schedule("th-xy", "stream")


def test_plan_replay_matches_direct_puts_under_fault_stress():
    """The stream's two post paths put the same traffic on the wire: a
    replayed RmaPlan and one ``ep.put`` per buffer, under the golden
    fault_stress schedule on th-xy."""
    faults = FaultSpec.parse(fault_schedule(2), seed=FAULT_SEED)
    results = [
        run_stream(faults, platform="th-xy", size=STREAM_BYTES,
                   iters=STREAM_ITERS, seed=0xC0FFEE, plan=plan)[0]
        for plan in (False, True)
    ]
    assert [r["correct"] for r in results] == [STREAM_ITERS] * 2
    assert results[0]["fingerprint"] == results[1]["fingerprint"] == (
        load_corpus(GOLDEN)["th-xy/fault_stress"]
    )


def test_fault_schedule_spares_single_rail_platforms():
    assert "rail_fail" in fault_schedule(2)
    assert "rail_fail" not in fault_schedule(1)


def test_unknown_schedule_rejected():
    with pytest.raises(ValueError):
        run_schedule("th-xy", "nope")


def test_collect_subset():
    fps = collect_fingerprints(platforms=("th-xy",), schedules=("latency",),
                               witnesses=())
    assert list(fps) == ["th-xy/latency"]
    assert fps["th-xy/latency"] == load_corpus(GOLDEN)["th-xy/latency"]


def test_corpus_schema_pinned():
    import json

    with open(GOLDEN, encoding="utf-8") as fh:
        assert json.load(fh)["schema"] == GOLDEN_SCHEMA
