"""``repro profile`` emitter tests: record shape, the coverage floor,
validator rejections and the embedded deterministic sim block."""

import json

import pytest

from repro.bench import (
    PROFILE_SCHEMA,
    profile_bench,
    validate_profile_bench,
    validate_profile_bench_file,
    write_profile_bench,
)
from repro.bench.profile_bench import COVERAGE_FLOOR


@pytest.fixture(scope="module")
def latency_record():
    return profile_bench("latency", "th-xy", size=4096, iters=6, seed=2024)


def test_latency_record_is_schema_valid(latency_record):
    assert validate_profile_bench(latency_record) == []
    assert latency_record["schema"] == PROFILE_SCHEMA
    assert latency_record["name"] == "profile_latency"
    assert latency_record["coverage"] >= COVERAGE_FLOOR
    assert latency_record["n_events"] > 0
    assert latency_record["wall_ms"] > 0
    assert isinstance(latency_record["run"]["git_sha"], str)


def test_latency_record_attributes_kinds_and_layers(latency_record):
    assert "host:setup" in latency_record["events"]
    assert {"netsim", "engine", "workload"} <= set(latency_record["layers"])
    assert "put_remote" in latency_record["dispatch"]
    assert latency_record["result"]["half_rtt_us"] > 0


def test_sim_block_carries_exact_percentiles(latency_record):
    hist = latency_record["sim"]["histograms"]
    assert hist, "latency run must surface at least one sim histogram"
    for name, stats in hist.items():
        assert stats["p50"] <= stats["p95"] <= stats["p99"], name
        assert stats["p99"] <= stats["max"], name


def test_unknown_workload_is_rejected():
    with pytest.raises(ValueError, match="unknown profile workload"):
        profile_bench("fft")


def test_write_round_trips_through_file_validator(latency_record, tmp_path):
    path = write_profile_bench(latency_record, str(tmp_path / "BENCH_profile.json"))
    validate_profile_bench_file(path)
    with open(path) as fh:
        assert json.load(fh) == latency_record


def test_validator_rejects_mutations(latency_record):
    def errs(**patch):
        bad = json.loads(json.dumps(latency_record))
        bad.update(patch)
        return validate_profile_bench(bad)

    assert errs(schema="nope/9")
    assert errs(workload="fft")
    assert errs(wall_ms=0)
    assert errs(n_events=0)
    assert errs(coverage=0.2)  # attribution chain broken
    assert errs(events={})
    assert errs(run={})
    assert errs(overhead={"ratio": 0})
    bad = json.loads(json.dumps(latency_record))
    bad["layers"]["netsim"]["self_ns"] = bad["layers"]["netsim"]["total_ns"] + 1
    assert any("self_ns exceeds total_ns" in e for e in validate_profile_bench(bad))
    bad = json.loads(json.dumps(latency_record))
    del bad["sim"]["histograms"][next(iter(bad["sim"]["histograms"]))]["p99"]
    assert any("percentiles" in e for e in validate_profile_bench(bad))
    assert validate_profile_bench([]) == ["profile record must be an object"]
