"""Resilience bench: record, verdicts and gates (fast, one platform).

The full four-platform soak lives in ``tests/test_chaos.py`` behind the
``chaos``/``slow`` markers; this module keeps a single-platform run in
tier-1 so the degradation verdicts and the ``ext.resilience.*`` claims
that ``repro chaos`` exits on are gated on every push.
"""

import json

import pytest

from repro.bench import RESILIENCE_SCHEMA, resilience_bench, write_resilience_bench
from repro.bench.paper import chaos_entries


def no_go(record):
    """The ids of the resilience claims ``record`` breaks."""
    return [c["id"] for c in chaos_entries(record) if c["verdict"] == "NO-GO"]


@pytest.fixture(scope="module")
def record():
    return resilience_bench(["th-xy"])


def test_record_validates_clean(record):
    assert record["schema"] == RESILIENCE_SCHEMA
    assert [c["verdict"] for c in chaos_entries(record)] == ["GO"] * 6


def test_verdicts_hold_on_one_platform(record):
    assert record["correct"] and record["identical"]
    block = record["platforms"]["th-xy"]
    assert block["degraded"], "endpoint-down window never forced the fallback lane"
    for run in block["runs"]:
        assert run["degraded_ops"] > 0
        assert run["repromotions"] >= 1
        assert run["time_to_recover_us"]["n"] >= 1
        assert run["time_to_recover_us"]["max"] >= run["time_to_recover_us"]["p50"]


def test_write_and_validate_file(tmp_path, record):
    path = str(tmp_path / "BENCH_resilience.json")
    write_resilience_bench(record, path)
    with open(path) as fh:
        loaded = json.load(fh)
    assert loaded == json.loads(json.dumps(record))
    assert no_go(loaded) == []


def test_replication_block_shape_and_verdicts(record):
    rep = record["replication"]
    assert rep is not None, "default chaos run must include the replication leg"
    assert rep["team_size"] == 2
    assert rep["correct"] and rep["identical"]
    # Concurrent replica worlds + heartbeats on a healthy run should cost
    # percents, not multiples.
    assert 1.0 <= rep["overhead_ratio"] < 1.5
    assert rep["p95_failover_ttr_us"] > 0
    block = rep["platforms"]["th-xy"]
    assert block["healthy"]["correct"]
    assert block["healthy"]["heartbeats"] > 0
    crash = block["crash"]
    assert crash["failovers"] >= 1
    assert crash["identical"], "crash-leg failover log must replay bit-identically"
    assert crash["ttr_us"]["n"] >= 1
    assert crash["ttr_us"]["max"] >= crash["ttr_us"]["p50"]
    for run in crash["runs"]:
        assert run["live_worlds"] == [1]
        assert run["correct"][1] == run["received"][1] == record["params"]["iters"]
        assert run["failover_log"][0]["stopped_world"] == 0


def test_replication_skip_records_null():
    rec = resilience_bench(["th-xy"], iters=4, replication=False)
    assert rec["replication"] is None
    assert [c["id"] for c in chaos_entries(rec)] == [
        f"ext.resilience.t2.{name}" for name in ("correct", "identical", "degraded")]
    assert no_go(rec) == []


@pytest.mark.parametrize("patch, where, claim", [
    ({"p95_failover_ttr_us": 501}, ("replication",), "ttr-p95-us"),
    ({"overhead_ratio": 1.51}, ("replication",), "overhead"),
    ({"failovers": 0}, ("replication", "platforms", "th-xy", "crash"), "failovers"),
    ({"correct": False}, (), "correct"),
], ids=["ttr", "overhead", "failover", "correct"])
def test_each_verdict_rule_fails_alone(record, patch, where, claim):
    """`repro chaos` exits on the resilience claims: each must turn
    NO-GO on its own mutation, alone, and stay GO on the real record."""
    assert no_go(record) == []
    bad = json.loads(json.dumps(record))
    target = bad
    for key in where:
        target = target[key]
    target.update(patch)
    assert no_go(bad) == [f"ext.resilience.t2.{claim}"]
    # The bounds and the failover claim belong to the replication leg:
    # a record that skipped it cannot break them.
    skipped = dict(bad, replication=None)
    assert no_go(skipped) == ([] if where else no_go(bad))
