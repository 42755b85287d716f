"""Resilience bench: record, verdicts and gates (fast, one platform).

The full four-platform soak lives in ``tests/test_chaos.py`` behind the
``chaos``/``slow`` markers; this module keeps a single-platform run in
tier-1 so the degradation verdicts and ``resilience_failures`` are gated
on every push.
"""

import json

import pytest

from repro.bench import (
    RESILIENCE_SCHEMA,
    resilience_bench,
    resilience_failures,
    write_resilience_bench,
)


@pytest.fixture(scope="module")
def record():
    return resilience_bench(["th-xy"])


def test_record_validates_clean(record):
    assert record["schema"] == RESILIENCE_SCHEMA
    assert resilience_failures(record) == []


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
    assert resilience_failures(loaded) == []


def test_replication_block_shape_and_verdicts(record):
    rep = record["replication"]
    assert rep is not None, "default chaos run must include the replication leg"
    assert rep["team_size"] == 2
    assert rep["correct"] and rep["identical"] and rep["divergence_ok"]
    # Shadow traffic + heartbeats on a healthy run should cost percents,
    # not multiples.
    assert 1.0 <= rep["overhead_ratio"] < 1.5
    assert rep["p95_failover_ttr_us"] > 0
    block = rep["platforms"]["th-xy"]
    assert block["healthy"]["shadow_ops"] > 0
    assert block["healthy"]["heartbeats"] > 0
    crash = block["crash"]
    assert crash["failovers"] >= 1
    assert crash["identical"], "crash-leg failover log must replay bit-identically"
    assert crash["ttr_us"]["n"] >= 1
    assert crash["ttr_us"]["max"] >= crash["ttr_us"]["p50"]
    for run in crash["runs"]:
        assert run["correct"] == run["received"]
        assert run["failover_log"][0]["promoted_rank"] >= 0


def test_replication_skip_records_null():
    rec = resilience_bench(["th-xy"], iters=4, replication=False)
    assert rec["replication"] is None
    assert resilience_failures(rec) == []


@pytest.mark.parametrize("patch, where, named", [
    ({"divergence_ok": False}, ("replication",), "divergence_ok"),
    ({"p95_failover_ttr_us": 501}, ("replication",), "failover TTR 501.0us"),
    ({"overhead_ratio": 1.51}, ("replication",), "overhead 1.510x"),
    ({"failovers": 0}, ("replication", "platforms", "th-xy", "crash"),
     "th-xy: crash leg performed no failover"),
    ({"correct": False}, (), "'correct'"),
], ids=["divergence", "ttr", "overhead", "failover", "correct"])
def test_each_verdict_rule_fails_alone(record, patch, where, named):
    """`repro chaos` exits on `resilience_failures`: every rule must
    fire on its own mutation and stay quiet on the real record."""
    assert resilience_failures(record) == []
    bad = json.loads(json.dumps(record))
    target = bad
    for key in where:
        target = target[key]
    target.update(patch)
    failures = resilience_failures(bad)
    assert len(failures) == 1 and named in failures[0], failures
    # The budgets, the failover rule and the split-brain verdict belong
    # to the replication leg: a record that skipped it cannot trip them.
    skipped = dict(bad, replication=None)
    assert resilience_failures(skipped) == ([] if where else failures)
