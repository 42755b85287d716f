"""tools/perf_pairs.py: the alternating parent/change measurement loop."""

import importlib.util
import json
import os

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


@pytest.fixture(scope="module")
def perf_pairs():
    spec = importlib.util.spec_from_file_location(
        "perf_pairs", os.path.join(ROOT, "tools", "perf_pairs.py")
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_dry_run_prints_alternating_pairs(perf_pairs, tmp_path, capsys):
    parent = tmp_path / "parent"
    parent.mkdir()
    code = perf_pairs.main([
        "--parent", str(parent), "--change", ROOT, "--workload", "unr_small",
        "--pairs", "3", "--seed", "40", "--dry-run",
    ])
    assert code == 0
    lines = capsys.readouterr().out.strip().splitlines()
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    tail = (
        f"{' '.join(bench['command'])} --workload unr_small --seed {{}} "
        f"--seconds {bench['run_seconds']} --trace 0"
    )
    trees = {"parent": str(parent), "change": ROOT}
    want = [
        f"pair {i} {side}: cd {trees[side]} && {tail.format(40 + i)}"
        for i, order in enumerate(
            [("parent", "change"), ("change", "parent"), ("parent", "change")]
        )
        for side in order
    ]
    assert lines == want


def test_summary_applies_the_two_part_rule(perf_pairs):
    metrics = [
        {"name": "wall_s", "unit": "s", "better": "lower"},
        {"name": "ops_per_s", "unit": "1/s", "better": "higher"},
        {"name": "setup_s", "unit": "s", "better": "lower"},
    ]
    parent = [4.0, 4.2, 3.9, 4.1, 4.0, 4.3, 3.8, 4.0, 4.1, 4.2]
    results = {
        # wall: change wins 10/10 by far more than the parent's spread;
        # ops/s: wins 10/10 but by less than the spread; setup: a tie,
        # four losses.
        "parent": [
            {"wall_s": w, "ops_per_s": 100.0 + 10 * (i % 3), "setup_s": 0.30}
            for i, w in enumerate(parent)
        ],
        "change": [
            {"wall_s": w - 1.0, "ops_per_s": 101.0 + 10 * (i % 3),
             "setup_s": 0.30 if i == 0 else (0.29 if i % 2 else 0.31)}
            for i, w in enumerate(parent)
        ],
    }
    wall, ops, setup = perf_pairs.summarise(results, metrics)
    assert "won 10/10, lost 0" in wall and wall.endswith("-> GAIN")
    assert "(-24.7% of parent)" in wall
    assert "won 10/10, lost 0" in ops and ops.endswith("-> no claim")
    assert "won 5/10, lost 4" in setup and setup.endswith("-> no claim")


def test_summary_skips_pairs_with_a_missing_side(perf_pairs):
    metrics = [{"name": "wall_s", "unit": "s", "better": "lower"}]
    results = {
        "parent": [{"wall_s": 2.0}, None, {"wall_s": 2.0}],
        "change": [{"wall_s": 1.0}, {"wall_s": 1.0}, None],
    }
    (line,) = perf_pairs.summarise(results, metrics)
    assert "won 1/1" in line
    assert perf_pairs.summarise({"parent": [None], "change": [None]}, metrics) == [
        "wall_s: no complete pair"
    ]


PARENT_LINE = json.dumps({"correct": True, "attempted": 576, "failed": 0, "metrics": {
    "sim.events": {"value": 368097}, "netsim.posts": {"value": 84084},
    "netsim.bytes": {"value": 328261842432}, "netsim.cq_high_water": {"value": 1},
    "netsim.pool_hit_ratio": {"value": 0.4371394820814924},
    "core.puts": {"value": 32592}, "core.fragments": {"value": 65184},
    "core.poll_sweeps": {"value": 129441},
    "core.events_per_op": {"value": 11.29409057437408},
    "core.dispatch_per_sweep": {"value": 1.0071615639557792},
    "powerllel.sim_time_ms": {"value": 105.09736143371875},
    "trace.digest_match": {"value": 1.0},
    "sim.ns_per_event": {"value": 7776.1},  # host time: not an exact counter
}})


def _metrics(line):
    return {k: float(m["value"]) for k, m in json.loads(line)["metrics"].items()}


def test_counter_diff_is_empty_only_when_every_exact_counter_repeats(perf_pairs):
    parent = _metrics(PARENT_LINE)
    faster = dict(parent, **{"sim.ns_per_event": 6100.0})
    lines, n_diff = perf_pairs.diff_counters(parent, faster)
    assert n_diff == 0 and len(lines) == len(perf_pairs.EXACT_COUNTERS)
    assert all(line.endswith("same") for line in lines)
    assert not any("ns_per_event" in line for line in lines)

    # One fused event and a last-bit move of the simulated time both show.
    moved = dict(parent, **{"sim.events": 368096.0,
                            "powerllel.sim_time_ms": 105.09736143371876})
    lines, n_diff = perf_pairs.diff_counters(parent, moved)
    assert n_diff == 2
    assert [line.split()[0] for line in lines if line.endswith("DIFFERENT")] == [
        "sim.events", "powerllel.sim_time_ms",
    ]
    assert "105.09736143371875" in lines[10] and "105.09736143371876" in lines[10]

    # A side that gave no result, or not that counter, is a difference.
    assert perf_pairs.diff_counters(parent, None)[1] == len(perf_pairs.EXACT_COUNTERS)
    del moved["core.puts"]
    assert perf_pairs.diff_counters(parent, moved)[1] == 3


def test_counters_dry_run_is_one_traced_run_per_side(perf_pairs, tmp_path, capsys):
    code = perf_pairs.main([
        "--parent", str(tmp_path), "--change", ROOT, "--counters",
        "--seed", "2024", "--pairs", "10", "--dry-run",
    ])
    lines = capsys.readouterr().out.strip().splitlines()
    assert code == 0 and len(lines) == 2
    assert all(line.endswith("--seed 2024 --seconds 12 --trace 1") for line in lines)
