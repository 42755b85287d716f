"""Engine micro-benchmark: schema, determinism and the datapath-cost gate."""

import json
import os

import pytest

from repro.bench import (
    ENGINE_BENCH_SCHEMA,
    engine_bench,
    validate_engine_bench,
    validate_engine_bench_file,
    write_engine_bench,
)

FIXTURES = os.path.join(os.path.dirname(__file__), "fixtures")

#: Datapath cost ceiling: the raw-fast datapath (fragment coalescing +
#: slab records + batched CQ dispatch + process-free completion path)
#: measures 8.17 simulator events per PUT (see
#: fixtures/BENCH_engine.after.json); 10 leaves slack for one extra
#: bookkeeping event.  The pre-refactor cost was 280/12 = 23.33
#: (fixtures/BENCH_engine.before.json).
BASELINE_EVENTS_PER_PUT = 10.0

#: Throughput floor on the PUT path.  ops/simulated-second is set by the
#: modelled platform physics (th-xy link latency + serialization), not
#: host speed, so a drop means the datapath added *simulated* time.
MIN_OPS_PER_SIM_SEC = 270_000


@pytest.fixture(scope="module")
def record():
    return engine_bench("th-xy", size=65536, iters=6, seed=2024)


def test_record_validates_clean(record):
    assert record["schema"] == ENGINE_BENCH_SCHEMA
    assert validate_engine_bench(record) == []


def test_both_datapaths_measured(record):
    put, get = record["paths"]["put"], record["paths"]["get"]
    assert put["ops"] == 12  # 6 iters, both directions
    assert get["ops"] == 6
    assert put["sim_events"] > 0 and get["sim_events"] > 0
    assert put["ops_per_sim_sec"] > 0 and get["ops_per_sim_sec"] > 0
    assert put["fingerprint"] != get["fingerprint"]


def test_events_per_put_no_worse_than_baseline(record):
    """The regression gate: the unified post_op pipeline must not cost
    more simulator events per PUT than the coalesced datapath ceiling."""
    assert record["sim_events_per_put"] <= BASELINE_EVENTS_PER_PUT + 1e-9


def test_put_throughput_floor(record):
    assert record["paths"]["put"]["ops_per_sim_sec"] >= MIN_OPS_PER_SIM_SEC


def test_committed_snapshots_pin_the_coalescing_win():
    """The committed before/after records are the PR's perf evidence:
    the coalesced datapath roughly halves events/op on both paths while
    staying bit-identical on the wire."""
    with open(os.path.join(FIXTURES, "BENCH_engine.before.json")) as fh:
        before = json.load(fh)
    with open(os.path.join(FIXTURES, "BENCH_engine.after.json")) as fh:
        after = json.load(fh)
    for rec in (before, after):
        assert validate_engine_bench(rec) == []
    for path in ("put", "get"):
        b, a = before["paths"][path], after["paths"][path]
        assert a["sim_events_per_op"] <= b["sim_events_per_op"] / 1.8
        # Wire-equivalence: the optimization must not change behaviour.
        assert a["fingerprint"] == b["fingerprint"]
        assert a["ops"] == b["ops"]
        assert a["sim_time_us"] == b["sim_time_us"]


def test_after_snapshot_matches_current_datapath(record):
    """Regenerate with `python -m repro engine-bench --out
    tests/bench/fixtures/BENCH_engine.after.json` after an intentional
    datapath change."""
    with open(os.path.join(FIXTURES, "BENCH_engine.after.json")) as fh:
        after = json.load(fh)
    assert after["paths"] == record["paths"]


def test_bench_is_deterministic(record):
    again = engine_bench("th-xy", size=65536, iters=6, seed=2024)
    assert again == record


def test_write_and_validate_file(tmp_path, record):
    path = str(tmp_path / "BENCH_engine.json")
    write_engine_bench(record, path)
    validate_engine_bench_file(path)
    assert json.load(open(path))["name"] == "engine_bench"


def test_validator_rejects_malformed(record):
    assert validate_engine_bench([]) == ["engine bench record must be an object"]
    broken = dict(record, schema="repro.bench.engine/0")
    assert any("schema" in e for e in validate_engine_bench(broken))
    broken = dict(record, paths={"put": record["paths"]["put"]})
    assert any("paths.get" in e for e in validate_engine_bench(broken))
    bad_put = dict(record["paths"]["put"], sim_events=0)
    broken = dict(record, paths=dict(record["paths"], put=bad_put))
    assert any("sim_events" in e for e in validate_engine_bench(broken))
    broken = dict(record, sim_events_per_put="fast")
    assert any("sim_events_per_put" in e for e in validate_engine_bench(broken))


def test_cli_engine_bench(tmp_path, capsys):
    from repro.cli import main

    out = str(tmp_path / "BENCH_engine.json")
    assert main(["engine-bench", "--iters", "3", "--out", out]) == 0
    validate_engine_bench_file(out)
    assert "sim events/op" in capsys.readouterr().out


def test_cli_engine_bench_gate_fails_when_exceeded(tmp_path):
    from repro.cli import main

    out = str(tmp_path / "BENCH_engine.json")
    assert main(["engine-bench", "--iters", "3", "--out", out,
                 "--max-events-per-put", "1"]) == 1


def test_cli_engine_bench_throughput_floor_gate(tmp_path):
    from repro.cli import main

    out = str(tmp_path / "BENCH_engine.json")
    assert main(["engine-bench", "--iters", "3", "--out", out,
                 "--min-ops-per-sim-sec", "1e12"]) == 1
    assert main(["engine-bench", "--iters", "3", "--out", out,
                 "--min-ops-per-sim-sec", "1",
                 "--max-events-per-put", str(BASELINE_EVENTS_PER_PUT)]) == 0
