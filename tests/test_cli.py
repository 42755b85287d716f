"""Tests for the command-line interface."""

import json
import re
from pathlib import Path

import pytest

from repro.cli import build_parser, main

FIXTURES = Path(__file__).resolve().parent / "analysis" / "fixtures"


def test_tables(capsys):
    assert main(["paper", "--only", "table2"]) == 0
    out = capsys.readouterr().out
    assert "Table II" in out and "Table I:" not in out and "Figure" not in out
    assert "Level-3" in out  # glex row
    assert "paper: 8 claims: 8 GO, 0 DEVIATION, 0 NO-GO" in out


def test_paper_exits_one_on_a_no_go(capsys, monkeypatch):
    import repro.bench.paper as paper

    record = paper.load_record()
    table3 = record["figures"]["table3"]
    table3["claims"] = [dict(c, verdict=paper.NO_GO) for c in table3["claims"]]
    record["figures"] = {"table3": table3}
    monkeypatch.setattr(paper, "compute", lambda only=None: record)
    assert main(["paper", "--only", "table3"]) == 1
    assert "0 GO, 0 DEVIATION, 14 NO-GO" in capsys.readouterr().out


def test_paper_table1_from_any_directory(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert main(["paper", "--only", "table1"]) == 0
    out = capsys.readouterr().out
    assert "Table I:" in out and "ordered (p,a) msg" in out
    assert "paper: 10 claims: 10 GO, 0 DEVIATION, 0 NO-GO" in out


def test_paper_one_claim_runs_only_its_points(capsys, monkeypatch):
    import repro.bench.paper as paper

    def no_powerllel(*args, **kwargs):
        raise AssertionError("a PowerLLEL point ran")

    monkeypatch.setattr(paper, "powerllel_point", no_powerllel)
    assert main(["paper", "--only", "table2.glex.level"]) == 0
    out = capsys.readouterr().out
    assert "Table II" in out and "Level-3" not in out  # the claim, not the table
    assert "paper: 1 claims: 1 GO, 0 DEVIATION, 0 NO-GO" in out


def test_paper_only_lists_the_figures(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["paper", "--only", "nope"])
    assert excinfo.value.code == 2
    assert "table1, table2, table3, fig4, fig5, fig6, fig7" in capsys.readouterr().err


def test_fingerprints_find_their_corpus_from_any_directory(tmp_path, capsys, monkeypatch):
    import repro.bench.fingerprints as fingerprints

    monkeypatch.setattr(fingerprints, "collect_fingerprints", fingerprints.load_corpus)
    monkeypatch.chdir(tmp_path)
    assert main(["fingerprints"]) == 0
    assert "27 entries match" in capsys.readouterr().out


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


def test_lint_clean_tree_exits_zero(capsys):
    assert main(["lint"]) == 0  # defaults to src/repro
    assert "clean (5 rules)" in capsys.readouterr().out


def test_lint_bad_fixture_exits_nonzero(capsys):
    rc = main(["lint", str(FIXTURES / "bad_unr001.py")])
    assert rc == 1
    out = capsys.readouterr().out
    assert "UNR001" in out
    assert "bad_unr001.py:" in out
    assert "hint:" in out


def test_lint_missing_path_exits_two(capsys):
    assert main(["lint", "does_not_exist.py"]) == 2
    assert "does_not_exist.py" in capsys.readouterr().out


def test_fingerprints_missing_corpus_exits_two(tmp_path, capsys, monkeypatch):
    import repro.bench.fingerprints

    def never():
        raise AssertionError("the corpus was recomputed")

    monkeypatch.setattr(repro.bench.fingerprints, "collect_fingerprints", never)
    missing = tmp_path / "missing.json"
    assert main(["fingerprints", "--path", str(missing)]) == 2
    assert str(missing) in capsys.readouterr().out


def test_lint_select_and_list_rules(capsys):
    assert main(["lint", "--select", "UNR002", str(FIXTURES / "bad_unr001.py")]) == 0
    capsys.readouterr()
    assert main(["lint", "--list-rules"]) == 0
    listed = re.findall(r"^(UNR\d{3})", capsys.readouterr().out, re.M)
    assert listed == ["UNR001", "UNR002", "UNR003", "UNR004", "UNR005"]
    assert main(["lint", "--select", "NOPE42"]) == 2


def test_verify_mutants_and_static(capsys):
    # Every seeded bug is caught by the trace verifier; there is no
    # static pass left to report.
    rc = main(["verify", "--corpus", "mutants"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "7/7 seeded bugs flagged" in out
    assert "static" not in out
    assert "verify: OK" in out


def test_verify_golden_single_platform(capsys):
    rc = main(["verify", "--corpus", "golden", "--platform", "th-xy"])
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


@pytest.mark.parametrize("demo", ["latency", "powerllel"])
def test_trace_faults_outside_the_stream_demo_exits_two(demo, tmp_path, capsys):
    """Only the stream demo runs a fault schedule: elsewhere ``--faults``
    is refused before anything runs, not silently dropped."""
    perfetto = tmp_path / "trace.json"
    assert main(["trace", demo, "--faults", "drop=0.1", "--perfetto", str(perfetto)]) == 2
    assert "--faults applies to the stream demo only" in capsys.readouterr().err
    assert not perfetto.exists()


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


def test_chaos_exit_code_covers_the_overhead_cap(tmp_path, capsys, monkeypatch):
    import repro.bench

    out = tmp_path / "BENCH_resilience.json"
    argv = ["chaos", "--platform", "th-xy", "--iters", "8", "--out", str(out)]
    assert main(argv) == 0
    assert "verdict      OK" in capsys.readouterr().out

    record = json.loads(out.read_text())
    record["replication"]["overhead_ratio"] = 1.6
    monkeypatch.setattr(repro.bench, "resilience_bench", lambda *a, **kw: record)
    assert main(argv) == 1
    text = capsys.readouterr().out
    assert "overhead=1.600x" in text
    assert "FAILED       ext.resilience.t2.overhead: measured 1.6, bound <= 1.5" in text
    assert "verdict      FAILED" in text


@pytest.mark.parametrize("argv", [
    ["latency", "--iters", "0"],
    ["powerllel", "--steps", "0"],
    ["powerllel", "--py", "0"],
    ["paper", "--only", "nope"],
    ["paper", "--only", "table2.glex.level", "--write"],  # a claim is not a whole figure
    ["faults", "--iters", "0"],
    ["faults", "--nodes", "3"],
    ["trace", "--size", "0"],
    ["trace", "--iters", "0"],
    ["trace", "--iters", "-1"],
    ["trace", "--limit", "-3"],
    ["faults", "--kill-duration", "-5"],
    ["faults", "--kill-at", "-5"],
    ["faults", "--faults", "cq_stall@t=5:dur=0"],
    ["faults", "--faults", "corrupt=0.2,crc=0"],
    ["verify", "--platform", "nope"],
    ["latency", "--platform", "nope"],
    ["chaos", "--platform", "nope"],
    ["latency", "--sizes", "0,-8"],
    ["latency", "--sizes", ","],
    ["powerllel", "--grid", "64,64"],
    ["powerllel", "--grid", "0,64,64", "--nodes", "4", "--py", "2", "--pz", "2"],
    # Cross-argument checks: the offending argument leads each row.
    ["powerllel", "--nodes", "5", "--py", "2", "--pz", "2", "--grid", "64,64,64"],
    ["powerllel", "--nodes", "16", "--platform", "hpc-roce", "--py", "4", "--pz", "4"],
    ["powerllel", "--faults", "drop=0.3", "--backend", "mpi", "--nodes", "4",
     "--py", "2", "--pz", "2", "--grid", "64,64,64"],
    ["powerllel", "--fallback", "--backend", "mpi"],
], ids=lambda argv: f"{argv[0]}{argv[1]}={argv[2]}")
def test_bad_input_exits_two_before_running(argv, capsys):
    # argparse rejects the value, so no command body ever runs.
    with pytest.raises(SystemExit) as excinfo:
        main(argv)
    assert excinfo.value.code == 2
    err = capsys.readouterr().err
    assert "usage:" in err
    if argv[:2] == ["faults", "--nodes"]:  # the stream is two nodes: no flag
        assert "unrecognized arguments: --nodes 3" in err
    else:
        assert f"argument {argv[1]}:" in err


@pytest.mark.parametrize("argv, message", [
    (["faults", "--kill-node", "9"], "endpoint_down node=9: the cluster has 2 nodes"),
    (["faults", "--faults", "rail_fail@t=5:rail=7"],
     "rail_fail rail=7: the cluster's nodes have 2 rails"),
    (["chaos", "--platform", "th-xy", "--faults", "node_crash@t=5:node=9"],
     "node_crash node=9: the cluster has 2 nodes"),
    (["trace", "--faults", "partition@t=1:dur=5:a=0:b=9"],
     "partition b=9: the cluster has 2 nodes"),
    (["powerllel", "--platform", "th-xy", "--nodes", "4", "--py", "2", "--pz", "2",
      "--grid", "64,48,64", "--steps", "1", "--faults", "rail_fail@t=1:node=7"],
     "rail_fail node=7: the cluster has 4 nodes"),
], ids=lambda v: v[0] if isinstance(v, list) else None)
def test_schedule_the_cluster_rejects_exits_two(argv, message, tmp_path, capsys):
    """A pin outside the cluster is refused when the schedule is
    attached, before the simulation runs: the ValueError, exit 2."""
    if argv[0] in ("chaos", "trace"):
        argv = argv + [{"chaos": "--out", "trace": "--perfetto"}[argv[0]],
                       str(tmp_path / "out.json")]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert f"repro {argv[0]}: error: {message}" in captured.err
    assert not (tmp_path / "out.json").exists()


@pytest.mark.parametrize("flag, value", [
    ("--team-size", "1"), ("--size", "0"), ("--iters", "0"),
])
def test_chaos_rejects_bad_input_up_front(flag, value, capsys, monkeypatch):
    import repro.bench

    def never(*a, **kw):
        raise AssertionError("the soak ran")

    monkeypatch.setattr(repro.bench, "resilience_bench", never)
    with pytest.raises(SystemExit) as excinfo:
        main(["chaos", flag, value])
    assert excinfo.value.code == 2
    err = capsys.readouterr().err
    assert "usage:" in err and f"argument {flag}: must be >=" in err


def test_parser_requires_command():
    with pytest.raises(SystemExit):
        build_parser().parse_args([])


def test_unknown_platform_raises(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["latency", "--platform", "summit", "--sizes", "8", "--iters", "2"])
    assert excinfo.value.code == 2
    assert "invalid choice: 'summit'" in capsys.readouterr().err
