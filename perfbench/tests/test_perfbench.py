"""Tests of the benchmark itself (``python -m pytest perfbench/tests -q``).

Outside ``testpaths``, so the tier-1 suite is untouched.  Everything runs
at ``--scale 0.02``: the workloads' shape and checks, not their timings.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
PERFBENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(PERFBENCH)
sys.path[:0] = [PERFBENCH, os.path.join(ROOT, "src")]

import run as perfbench  # noqa: E402
from harness import Run  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SPEC = perfbench.load_spec()
NAMES = [w["name"] for w in SPEC["workloads"]]
SCALE = 0.02


@pytest.fixture(scope="module")
def repeats():
    """Per workload: two repeats of one seed, one of another, one traced."""
    return {
        w: {
            "same": [perfbench.spawn(w, 2024, SCALE), perfbench.spawn(w, 2024, SCALE)],
            "other": perfbench.spawn(w, 7, SCALE),
            "traced": perfbench.spawn(w, 2024, SCALE, traced=True),
        }
        for w in NAMES
    }


def test_declared_workloads_are_the_implemented_ones():
    assert list(WORKLOADS) == NAMES
    assert len(NAMES) == 8


@pytest.mark.parametrize("workload", NAMES)
def test_workload_finishes_with_all_checks_passing(repeats, workload):
    for result in repeats[workload]["same"] + [repeats[workload]["other"]]:
        assert "crashed" not in result, result
        assert result["attempted"] >= 3
        assert result["failures"] == []
        assert result["ops"] > 0 and result["wall_s"] > 0 and result["setup_s"] > 0


@pytest.mark.parametrize("workload", NAMES)
def test_digest_repeats_for_a_seed_and_moves_with_the_seed(repeats, workload):
    first, second = repeats[workload]["same"]
    assert first["digest"] == second["digest"]
    assert repeats[workload]["traced"]["digest"] == first["digest"]
    assert repeats[workload]["other"]["digest"] != first["digest"]
    # the op count is declared, not an outcome of the seed
    assert repeats[workload]["other"]["ops"] == first["ops"]


@pytest.mark.parametrize("workload", NAMES)
def test_metric_names_are_exactly_the_declared_ones(repeats, workload):
    ok = repeats[workload]["same"]
    gated = perfbench.end_to_end(ok)
    assert list(gated) == [m["name"] for m in SPEC["end_to_end"]]
    # segment by segment the fastest repeat: never slower than the fastest whole repeat
    assert 0 < gated["wall_s"]["value"] <= gated["wall_s"]["samples"]["min"]
    assert len(ok[0]["segments_ns"]) == len(ok[1]["segments_ns"]) > 1
    declared = [m["name"] for m in SPEC["per_layer"]]
    layers = perfbench.per_layer(declared, ok, repeats[workload]["traced"], 0.0)
    assert list(layers) == declared
    assert layers["trace.digest_match"] == 1.0
    assert layers["trace.overhead_ratio"] > 0
    assert layers["sim.events"] > 0 and layers["sim.calls"] > 0


def test_exact_counts_repeat_between_traced_runs(repeats):
    def exact(result):
        counts = {k: v for k, v in result["counters"].items() if not k.endswith("_s")}
        return counts, {layer: fold["calls"] for layer, fold in result["fold"].items()}

    again = perfbench.spawn("unr_small", 2024, SCALE, traced=True)
    assert exact(again) == exact(repeats["unr_small"]["traced"])


@pytest.mark.parametrize("trace", [0, 1])
def test_pipeline_mode_prints_the_contract_object_last(trace):
    proc = subprocess.run(
        [sys.executable, os.path.join(PERFBENCH, "run.py"), "--workload", "mpi_mix",
         "--seed", "5", "--seconds", "0.5", "--scale", str(SCALE), "--trace", str(trace)],
        capture_output=True, text=True, timeout=120, cwd=ROOT)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    declared = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in declared]
    for m in declared:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())


def test_fig_rungs_assemble_the_same_run_as_powerllel_point():
    """The two product rungs build their legs from ``powerllel_point``'s
    public parts (to time construction and place the probe); the simulated
    results must be the ones ``powerllel_point`` itself gives."""
    from repro.bench.powerllel_bench import powerllel_point

    seed = int(np.random.default_rng(11).integers(1, 2**31))
    run = Run("fig7_thxy288", 11, SCALE)
    WORKLOADS["fig7_thxy288"](run)
    point = powerllel_point("th-xy", backend="unr", nodes=8, py=4, pz=2, nx=96, ny=96, nz=72,
                            steps=1, pipeline_slabs=2, seed=seed)
    assert run.failures == []
    assert run.counters["powerllel.sim_time_ms"] == point["time"] * 1e3

    run = Run("fig6_thxy", 11, SCALE)
    WORKLOADS["fig6_thxy"](run)
    base = dict(nodes=4, py=2, pz=2, nx=96, ny=96, nz=72, steps=1, seed=seed)
    mpi = powerllel_point("th-xy", backend="mpi", **base)
    unr = powerllel_point("th-xy", backend="unr", **base)
    fallback = powerllel_point("th-xy", backend="unr", fallback=True, **base)
    assert run.failures == []
    assert run.counters["powerllel.speedup_unr"] == mpi["time"] / unr["time"]
    assert run.counters["powerllel.speedup_fallback"] == mpi["time"] / fallback["time"]


def test_payload_corruption_is_counted_in_fail_share():
    clean = perfbench.spawn("unr_bulk", 2024, SCALE)
    bad = perfbench.spawn("unr_bulk", 2024, SCALE, corrupt=True)
    assert clean["failures"] == [] and bad["failures"]
    checks = perfbench.tally_checks([clean, bad])
    assert checks["failed"] == len(bad["failures"])
    assert 0 < checks["fail_share"] < 1


def test_crashed_or_hung_child_fails_all_its_checks():
    healthy = perfbench.spawn("kernel_churn", 2024, SCALE)
    hung = perfbench.spawn("kernel_churn", 2024, SCALE, timeout=0.01)
    assert "timeout" in hung["crashed"]
    checks = perfbench.tally_checks([healthy, hung])
    assert checks["failed"] == healthy["attempted"]
    assert perfbench.tally_checks([hung])["fail_share"] == 1.0


def test_without_a_program_it_fails_and_prints_no_result(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(PERFBENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__", ".pytest_cache"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "unr_small", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, timeout=60, cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_benchmark_json_is_within_the_contract():
    assert sorted(SPEC) == ["command", "end_to_end", "paths", "per_layer", "run_seconds", "workloads"]
    assert SPEC["paths"] == ["perfbench"] and SPEC["command"][-1] == "perfbench/run.py"
    assert 2 <= len(SPEC["workloads"]) <= 8 and len(SPEC["per_layer"]) <= 128
    names = [m["name"] for key in ("workloads", "end_to_end", "per_layer") for m in SPEC[key]]
    assert len(names) == len(set(names))
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"] for w in SPEC["workloads"])
    bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
    assert "setup_s" in bounds and max(bounds.values()) == bounds["setup_s"] <= 0.25
