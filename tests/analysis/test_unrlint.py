"""unrlint: per-rule trigger / no-trigger / suppression tests, plus the
meta-test that the shipped source tree is clean."""

from pathlib import Path

import pytest

from repro.analysis import LintConfig, RULES, format_findings, lint_file, lint_paths, lint_source
from repro.analysis.unrlint import PARSE_ERROR, iter_python_files

FIXTURES = Path(__file__).resolve().parent / "fixtures"
REPO_ROOT = Path(__file__).resolve().parent.parent.parent


def rules_of(findings):
    return sorted({f.rule for f in findings})


def lint_fixture(name):
    return lint_file(str(FIXTURES / name))


# -- per-rule: must trigger ---------------------------------------------------

def test_unr001_flags_every_unseeded_source():
    findings = lint_fixture("bad_unr001.py")
    assert rules_of(findings) == ["UNR001"]
    assert len(findings) == 5  # random x2, np.random.rand, default_rng x2


def test_unr002_flags_wallclock_in_scope():
    findings = lint_fixture("core/bad_unr002.py")
    assert rules_of(findings) == ["UNR002"]
    assert len(findings) == 4  # time, perf_counter, monotonic_ns, datetime.now


def test_unr003_flags_unordered_iteration_feeding_schedule():
    findings = lint_fixture("bad_unr003.py")
    assert rules_of(findings) == ["UNR003"]
    assert len(findings) == 3  # set comp, dict .keys() view, set(...)


def test_unr004_flags_heapq_outside_kernel():
    findings = lint_fixture("bad_unr004.py")
    assert rules_of(findings) == ["UNR004"]
    assert len(findings) == 2  # import heapq, from heapq import heappush


def test_unr005_flags_broad_handlers():
    findings = lint_fixture("bad_unr005.py")
    assert rules_of(findings) == ["UNR005"]
    # except Exception, bare except, tuple form, except BaseException
    assert len(findings) == 4


def test_unr006_flags_wallclock_in_obs_scope():
    findings = lint_fixture("obs/bad_unr006.py")
    assert rules_of(findings) == ["UNR006"]
    assert len(findings) == 3  # time.time, perf_counter, datetime.now
    assert all("observability layer" in f.message for f in findings)


def test_unr007_flags_cq_drain_outside_engine():
    findings = lint_fixture("bad_unr007.py")
    assert rules_of(findings) == ["UNR007"]
    # poll, poll_batch, poll_batch_into, blocking get, park — but never
    # cq.push (the producer).
    assert len(findings) == 5
    assert {f.message.split("(")[0] for f in findings} == {
        "cq.poll", "cq.poll_batch", "cq.poll_batch_into", "cq.get", "cq.park",
    }
    assert sum("parks on" in f.message for f in findings) == 1


def test_unr008_flags_retry_loops_outside_reliability_layer():
    findings = lint_fixture("bad_unr008.py")
    assert rules_of(findings) == ["UNR008"]
    # env.timeout, ctx.env.timeout, bare timeout — one per while-loop.
    assert len(findings) == 3
    assert all("retry/backoff" in f.message for f in findings)


def test_unr009_flags_unslotted_hot_path_class_only():
    findings = lint_fixture("netsim/nic.py")
    assert rules_of(findings) == ["UNR009"]
    # HotRecord only: slotted classes/dataclasses, exception and
    # warning classes, and the suppressed class all stay clean.
    assert len(findings) == 1
    assert "HotRecord" in findings[0].message


def test_unr009_scope_covers_scheduler_module():
    # sim/scheduler.py is both heapq-sanctioned (UNR004) and in the
    # UNR009 scope: the heapq import stays clean, the one un-slotted
    # class is flagged.
    findings = lint_fixture("sim/scheduler.py")
    assert rules_of(findings) == ["UNR009"]
    assert len(findings) == 1
    assert "LooseQueue" in findings[0].message


def test_unr010_flags_posts_with_no_reachable_wait():
    findings = lint_fixture("examples/bad_unr010.py")
    assert rules_of(findings) == ["UNR010"]
    assert len(findings) == 2  # ep.put and ep.get, neither ever awaited


def test_unr011_flags_unguarded_reuse():
    findings = lint_fixture("examples/bad_unr011.py")
    assert rules_of(findings) == ["UNR011"]
    # replay loop, post-after-sig_free, start-after-drain
    assert len(findings) == 3


def test_unr012_flags_wallclock_everywhere_else():
    # The repo-wide tightening: the same source that UNR002/UNR006
    # ignore (no deterministic scope, not under obs/) is now flagged.
    findings = lint_fixture("wallclock_out_of_scope.py")
    assert rules_of(findings) == ["UNR012"]
    assert len(findings) == 4  # perf_counter x2, time_ns, datetime.now
    assert all("obs/profile.py" in f.message for f in findings)


def test_unr013_flags_unordered_promotion_selection():
    findings = lint_fixture("bad_unr013.py")
    assert rules_of(findings) == ["UNR013"]
    assert len(findings) == 3  # set comp, dict .keys() view, set(...)
    assert all("promotion target" in f.message for f in findings)


def test_unr012_scope_partition_is_exhaustive():
    # One wall-clock read, three locations, three rule ids: the
    # UNR002/UNR006/UNR012 partition covers every path in the repo.
    src = "import time\nt = time.perf_counter()\n"
    for path, expected in [
        ("src/repro/sim/core2.py", "UNR002"),
        ("src/repro/obs/export2.py", "UNR006"),
        ("src/repro/bench/latency.py", "UNR012"),
    ]:
        assert rules_of(lint_source(src, path=path)) == [expected], path
    assert lint_source(src, path="src/repro/obs/profile.py") == []


def test_protocol_pass_is_scope_gated():
    # The same source outside a workload scope stays quiet unless the
    # config forces the protocol pass on.
    src = (FIXTURES / "examples" / "bad_unr010.py").read_text()
    assert lint_source(src, path="somewhere/else.py") == []
    forced = lint_source(
        src, path="somewhere/else.py", config=LintConfig(force_protocol=True)
    )
    assert rules_of(forced) == ["UNR010"]


# -- per-rule: must NOT trigger ----------------------------------------------

@pytest.mark.parametrize(
    "fixture",
    [
        "ok_unr001.py",
        "core/ok_unr002.py",
        "obs/profile.py",  # the one sanctioned wall-clock user (UNR012)
        "ok_unr003.py",
        "sim/core.py",  # heapq allowed in the kernel path
        "ok_unr005.py",
        "obs/ok_unr006.py",
        "core/engine.py",  # CQ parking/draining allowed in the progress engine
        "ok_unr008.py",
        "core/health.py",  # retry loops allowed in the reliability layer
        "netsim/node.py",  # slotted hot-path module
        "ok_unr009.py",  # un-slotted classes outside the UNR009 scope
        "examples/ok_unr010.py",  # every post has a reachable wait
        "examples/ok_unr011.py",  # guarded fan-out / pipelined / re-armed reuse
        "ok_unr013.py",  # sorted candidates / order-insensitive aggregation
    ],
)
def test_clean_fixture(fixture):
    assert lint_fixture(fixture) == []


# -- suppressions -------------------------------------------------------------

def test_line_suppression_silences_named_rule_only():
    findings = lint_fixture("suppressed_line.py")
    # heapq import and the first two draws are suppressed; the draw
    # carrying the wrong rule id stays flagged.
    assert [f.rule for f in findings] == ["UNR001"]
    assert "c = random.random" in (FIXTURES / "suppressed_line.py").read_text().splitlines()[
        findings[0].line - 1
    ]


def test_file_suppression_is_rule_scoped():
    findings = lint_fixture("suppressed_file.py")
    assert rules_of(findings) == ["UNR001"]  # UNR004 silenced file-wide


# -- mechanics ----------------------------------------------------------------

def test_findings_carry_location_and_hint():
    findings = lint_fixture("bad_unr004.py")
    f = findings[0]
    assert f.path.endswith("bad_unr004.py")
    assert f.line > 0
    assert f.hint == RULES["UNR004"].hint
    text = format_findings(findings)
    assert f"{f.path}:{f.line}:{f.col}: UNR004" in text
    assert "unrlint: 2 finding(s) (UNR004 x2)" in text


def test_select_restricts_rules():
    cfg = LintConfig(select=frozenset({"UNR001"}))
    assert lint_file(str(FIXTURES / "bad_unr004.py"), config=cfg) == []
    assert rules_of(lint_file(str(FIXTURES / "bad_unr001.py"), config=cfg)) == ["UNR001"]


def test_syntax_error_reported_as_parse_error():
    findings = lint_source("def broken(:\n", path="broken.py")
    assert [f.rule for f in findings] == [PARSE_ERROR.id]


def test_iter_python_files_expands_directories():
    files = iter_python_files([str(FIXTURES)])
    assert any(f.endswith("bad_unr001.py") for f in files)
    assert all(f.endswith(".py") for f in files)


# -- the meta-test: the shipped tree lints clean ------------------------------

def test_src_repro_is_unrlint_clean():
    findings = lint_paths([str(REPO_ROOT / "src" / "repro")])
    assert findings == [], "\n" + format_findings(findings)
