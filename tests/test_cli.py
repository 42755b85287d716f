"""Tests for the command-line interface."""

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
    assert "clean" in capsys.readouterr().out


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
    out = capsys.readouterr().out
    for rule_id in ("UNR001", "UNR002", "UNR003", "UNR004", "UNR005", "UNR006"):
        assert rule_id in out
    assert main(["lint", "--select", "NOPE42"]) == 2


def test_lint_json_format(capsys):
    import json

    rc = main(["lint", "--format", "json", str(FIXTURES / "bad_unr001.py")])
    assert rc == 1
    doc = json.loads(capsys.readouterr().out)
    assert doc["summary"]["total"] == len(doc["findings"]) > 0
    assert all(f["rule"] == "UNR001" for f in doc["findings"])


def test_lint_sarif_output_file(tmp_path, capsys):
    import json

    out_path = tmp_path / "lint.sarif"
    rc = main([
        "lint", "--format", "sarif", "--output", str(out_path),
        str(FIXTURES / "bad_unr004.py"),
    ])
    assert rc == 1
    assert str(out_path) in capsys.readouterr().out
    doc = json.loads(out_path.read_text())
    assert doc["version"] == "2.1.0"
    run = doc["runs"][0]
    assert run["tool"]["driver"]["name"] == "unrlint"
    assert {r["ruleId"] for r in run["results"]} == {"UNR004"}
    region = run["results"][0]["locations"][0]["physicalLocation"]["region"]
    assert region["startLine"] >= 1 and region["startColumn"] >= 1


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


def test_verify_sarif_output(tmp_path, capsys):
    import json

    out_path = tmp_path / "verify.sarif"
    rc = main(["verify", "--corpus", "mutants", "--no-static",
               "--format", "sarif", "--output", str(out_path)])
    assert rc == 0
    doc = json.loads(out_path.read_text())
    assert doc["version"] == "2.1.0"
    # A fully-flagged mutant corpus yields zero *reportable* findings.
    assert doc["runs"][0]["results"] == []


def test_trace_writes_valid_artifacts(tmp_path, capsys):
    perfetto = tmp_path / "trace.json"
    bench = tmp_path / "bench.json"
    assert main([
        "trace", "stream", "--size", "4096", "--iters", "3",
        "--perfetto", str(perfetto), "--bench", str(bench),
    ]) == 0
    out = capsys.readouterr().out
    assert "Trace demo 'stream'" in out
    assert "critical paths" in out
    assert perfetto.exists() and bench.exists()

    from repro.obs import validate_bench_file, validate_trace_file

    validate_trace_file(str(perfetto))  # raises ValueError on schema errors
    validate_bench_file(str(bench))


def test_trace_output_directory_collects_artifacts(tmp_path, capsys):
    """Satellite regression: ``--output DIR`` is the uniform artifact
    destination — both files land inside it under their default names."""
    outdir = tmp_path / "artifacts" / "run1"  # created on demand
    assert main([
        "trace", "stream", "--size", "4096", "--iters", "3",
        "--output", str(outdir),
    ]) == 0
    capsys.readouterr()
    from repro.obs import validate_bench_file, validate_trace_file

    validate_trace_file(str(outdir / "trace_obs.json"))
    validate_bench_file(str(outdir / "BENCH_obs.json"))
    # Explicit per-artifact flags still win over --output.
    explicit = tmp_path / "elsewhere.json"
    assert main([
        "trace", "stream", "--size", "4096", "--iters", "3",
        "--output", str(outdir), "--perfetto", str(explicit),
    ]) == 0
    capsys.readouterr()
    assert explicit.exists()


def test_trace_output_rejects_file_path(tmp_path, capsys):
    rc = main([
        "trace", "stream", "--size", "4096", "--iters", "3",
        "--output", str(tmp_path / "notadir.json"),
    ])
    assert rc == 2
    assert "directory" in capsys.readouterr().err


def test_profile_emits_valid_record_and_flame(tmp_path, capsys):
    outdir = tmp_path / "prof"
    flame = tmp_path / "flame.txt"
    assert main([
        "profile", "latency", "--size", "4096", "--iters", "5",
        "--sample-every", "1", "--output", str(outdir), "--flame", str(flame),
    ]) == 0
    out = capsys.readouterr().out
    assert "unrprof 'latency'" in out
    assert "coverage" in out
    assert "sim latency percentiles" in out and "p99=" in out

    from repro.bench import validate_profile_bench_file

    validate_profile_bench_file(str(outdir / "BENCH_profile.json"))
    lines = flame.read_text().strip().splitlines()
    assert lines and all(" " in line for line in lines)


def test_latency_profile_flag_prints_attribution(capsys):
    assert main([
        "latency", "--platform", "th-xy", "--sizes", "4096",
        "--iters", "3", "--profile",
    ]) == 0
    out = capsys.readouterr().out
    assert "host profile:" in out
    assert "netsim" in out


def test_chaos_exit_code_covers_split_brain(tmp_path, capsys, monkeypatch):
    import json

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


def test_check_reports_ok(capsys):
    assert main(["check", "--size", "4096", "--iters", "2"]) == 0
    out = capsys.readouterr().out
    assert "IDENTICAL" in out
    assert "verdict       OK" in out


def test_parser_requires_command():
    with pytest.raises(SystemExit):
        build_parser().parse_args([])


def test_unknown_platform_raises():
    with pytest.raises(KeyError):
        main(["latency", "--platform", "summit", "--sizes", "8", "--iters", "2"])
