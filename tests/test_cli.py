"""Tests for the command-line interface."""

import json
import re
from pathlib import Path

import pytest

from repro.cli import build_parser, main

FIXTURES = Path(__file__).resolve().parent / "analysis" / "fixtures"


def test_tables(capsys):
    assert main(["tables"]) == 0
    out = capsys.readouterr().out
    assert "Table I" in out and "Table II" in out and "Table III" in out
    assert "Level-3" in out  # glex row
    assert "Tianhe-Xingyi" in out


def test_latency(capsys):
    assert main(["latency", "--platform", "hpc-ib", "--sizes", "8,4096", "--iters", "5"]) == 0
    out = capsys.readouterr().out
    assert "Figure 4 (hpc-ib)" in out
    assert "UNR" in out and "PSCW" in out
    assert "4K" in out


def test_latency_bad_sizes():
    with pytest.raises(SystemExit):
        main(["latency", "--sizes", "8,abc"])


def test_powerllel(capsys):
    assert main([
        "powerllel", "--platform", "hpc-roce", "--backend", "unr",
        "--nodes", "4", "--py", "2", "--pz", "2",
        "--grid", "64,64,64", "--steps", "1",
    ]) == 0
    out = capsys.readouterr().out
    assert "PowerLLEL [unr]" in out
    assert "total" in out


def test_powerllel_fallback_flag(capsys):
    assert main([
        "powerllel", "--platform", "hpc-roce", "--fallback",
        "--nodes", "4", "--py", "2", "--pz", "2",
        "--grid", "64,64,64", "--steps", "1",
    ]) == 0
    assert "unr+fallback" in capsys.readouterr().out


def test_scaling(capsys):
    assert main(["scaling", "--platform", "th-2a", "--max-points", "2"]) == 0
    out = capsys.readouterr().out
    assert "Figure 7 (th-2a)" in out
    assert "efficiency" in out


def test_lint_clean_tree_exits_zero(capsys):
    assert main(["lint"]) == 0  # defaults to src/repro
    assert "clean (7 rules)" in capsys.readouterr().out


def test_lint_bad_fixture_exits_nonzero(capsys):
    rc = main(["lint", str(FIXTURES / "bad_unr001.py")])
    assert rc == 1
    out = capsys.readouterr().out
    assert "UNR001" in out
    assert "bad_unr001.py:" in out
    assert "hint:" in out


def test_lint_select_and_list_rules(capsys):
    assert main(["lint", "--select", "UNR002", str(FIXTURES / "bad_unr001.py")]) == 0
    capsys.readouterr()
    assert main(["lint", "--list-rules"]) == 0
    listed = re.findall(r"^(UNR\d{3})", capsys.readouterr().out, re.M)
    assert listed == ["UNR001", "UNR002", "UNR003", "UNR004", "UNR005", "UNR010", "UNR011"]
    assert main(["lint", "--select", "NOPE42"]) == 2


def test_verify_mutants_and_static(capsys):
    rc = main(["verify", "--corpus", "mutants"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "8/8 seeded bugs flagged" in out
    assert "static pass" in out
    assert "verify: OK" in out


def test_verify_golden_single_platform(capsys):
    rc = main(["verify", "--corpus", "golden", "--platform", "th-xy",
               "--no-static"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "4/4 scenarios clean" in out


def test_trace_writes_valid_artifacts(tmp_path, capsys):
    perfetto = tmp_path / "trace.json"
    assert main([
        "trace", "stream", "--size", "4096", "--iters", "3",
        "--perfetto", str(perfetto),
    ]) == 0
    out = capsys.readouterr().out
    assert "Trace demo 'stream'" in out
    assert "critical paths" in out
    assert "host profile:" not in out
    assert sorted(p.name for p in tmp_path.iterdir()) == ["trace.json"]

    from repro.obs import validate_trace_file

    validate_trace_file(str(perfetto))  # raises ValueError on schema errors
    other = json.loads(perfetto.read_text())["otherData"]
    assert sorted(other) == ["snapshot", "transfer_fingerprint"]


def test_trace_profile_flame_writes_one_artifact(tmp_path, capsys):
    """``trace --profile --flame``: the Perfetto file carries the recorder
    snapshot, the transfer fingerprint and the profiler's tables; the
    flame file holds sampled collapsed stacks."""
    perfetto = tmp_path / "trace.json"
    flame = tmp_path / "flame.txt"
    assert main([
        "trace", "latency", "--size", "4096", "--iters", "5", "--profile",
        "--flame", str(flame), "--perfetto", str(perfetto),
    ]) == 0
    out = capsys.readouterr().out
    assert "host profile:" in out and "coverage" in out
    assert "core.sig_wait_us" in out and "p99=" in out and "max=" in out

    from repro.obs import validate_trace_file

    validate_trace_file(str(perfetto))
    other = json.loads(perfetto.read_text())["otherData"]
    assert other["snapshot"]["n_transfers"] > 0
    assert len(other["transfer_fingerprint"]) == 64
    host = other["host_profile"]
    assert {"events", "layers", "dispatch", "coverage"} <= set(host)
    assert host["coverage"] >= 0.9
    lines = flame.read_text().strip().splitlines()
    assert lines and all(" " in line for line in lines)
    assert any(";dispatch:" in line for line in lines)


def test_trace_profile_exits_one_below_the_coverage_floor(tmp_path, capsys,
                                                          monkeypatch):
    from repro.obs import HostProfiler

    monkeypatch.setattr(HostProfiler, "coverage", lambda self: 0.5)
    assert main([
        "trace", "latency", "--size", "4096", "--iters", "3", "--profile",
        "--perfetto", str(tmp_path / "trace.json"),
    ]) == 1
    assert "below the 90% floor" in capsys.readouterr().out


def test_chaos_exit_code_covers_split_brain(tmp_path, capsys, monkeypatch):
    import repro.bench

    out = tmp_path / "BENCH_resilience.json"
    argv = ["chaos", "--platform", "th-xy", "--iters", "8", "--out", str(out)]
    assert main(argv) == 0
    assert "verdict      OK" in capsys.readouterr().out

    record = json.loads(out.read_text())
    record["replication"]["divergence_ok"] = False
    monkeypatch.setattr(repro.bench, "resilience_bench", lambda *a, **kw: record)
    assert main(argv) == 1
    text = capsys.readouterr().out
    assert "SPLIT-BRAIN" in text and "divergence_ok" in text
    assert "verdict      FAILED" in text


def test_parser_requires_command():
    with pytest.raises(SystemExit):
        build_parser().parse_args([])


def test_unknown_platform_raises():
    with pytest.raises(KeyError):
        main(["latency", "--platform", "summit", "--sizes", "8", "--iters", "2"])
