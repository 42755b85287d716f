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
