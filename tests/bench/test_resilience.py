"""Resilience bench: schema, verdicts and validator (fast, one platform).

The full four-platform soak lives in ``tests/test_chaos.py`` behind the
``chaos``/``slow`` markers; this module keeps a single-platform run in
tier-1 so the record schema and the degradation verdicts are gated on
every push.
"""

import json

import pytest

from repro.bench import (
    RESILIENCE_SCHEMA,
    resilience_bench,
    resilience_failures,
    validate_resilience_bench,
    validate_resilience_bench_file,
    write_resilience_bench,
)


@pytest.fixture(scope="module")
def record():
    return resilience_bench(["th-xy"])


def test_record_validates_clean(record):
    assert record["schema"] == RESILIENCE_SCHEMA
    assert validate_resilience_bench(record) == []


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
    validate_resilience_bench_file(path)
    assert json.load(open(path))["name"] == "resilience_bench"


def test_validator_rejects_malformed(record):
    assert validate_resilience_bench([]) == [
        "resilience bench record must be an object"
    ]
    broken = dict(record, schema="repro.bench.resilience/0")
    assert any("schema" in e for e in validate_resilience_bench(broken))
    no_platforms = dict(record, platforms={})
    assert any("platforms" in e for e in validate_resilience_bench(no_platforms))
    bad_run = json.loads(json.dumps(record))
    bad_run["platforms"]["th-xy"]["runs"][0]["repromotions"] = -1
    assert any("repromotions" in e for e in validate_resilience_bench(bad_run))
    bad_fp = json.loads(json.dumps(record))
    bad_fp["platforms"]["th-xy"]["runs"][1]["fingerprint"] = "short"
    assert any("fingerprint" in e for e in validate_resilience_bench(bad_fp))


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
    assert validate_resilience_bench(rec) == []


def test_validator_rejects_malformed_replication(record):
    missing = {k: v for k, v in record.items() if k != "replication"}
    assert any("replication" in e for e in validate_resilience_bench(missing))
    bad = json.loads(json.dumps(record))
    bad["replication"]["team_size"] = 1
    assert any("team_size" in e for e in validate_resilience_bench(bad))
    bad = json.loads(json.dumps(record))
    bad["replication"]["overhead_ratio"] = -0.5
    assert any("overhead_ratio" in e for e in validate_resilience_bench(bad))
    bad = json.loads(json.dumps(record))
    bad["replication"]["divergence_ok"] = "yes"
    assert any("divergence_ok" in e for e in validate_resilience_bench(bad))
    bad = json.loads(json.dumps(record))
    bad["replication"]["platforms"]["th-xy"]["crash"]["failovers"] = 0
    assert any("failovers" in e for e in validate_resilience_bench(bad))


@pytest.mark.parametrize("patch, where, named", [
    ({"divergence_ok": False}, "replication", "divergence_ok"),
    ({"p95_failover_ttr_us": 501}, "replication", "failover TTR 501.0us"),
    ({"overhead_ratio": 1.51}, "replication", "overhead 1.510x"),
    ({"correct": False}, None, "'correct'"),
], ids=["divergence", "ttr", "overhead", "correct"])
def test_each_verdict_rule_fails_alone(record, patch, where, named):
    """`repro chaos` exits on `resilience_failures`: every rule must
    fire on its own mutation and stay quiet on the real record."""
    assert resilience_failures(record) == []
    bad = json.loads(json.dumps(record))
    (bad[where] if where else bad).update(patch)
    failures = resilience_failures(bad)
    assert len(failures) == 1 and named in failures[0], failures
    # The budgets and the split-brain verdict belong to the replication
    # leg: a record that skipped it cannot trip them.
    skipped = dict(bad, replication=None)
    assert resilience_failures(skipped) == ([] if where else failures)
