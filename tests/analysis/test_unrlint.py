"""unrlint: per-rule trigger / no-trigger / suppression tests, plus the
meta-test that the shipped source tree is clean."""

from pathlib import Path
from types import ModuleType

import pytest

from repro.analysis import LintConfig, RULES, format_findings, lint_file, lint_paths, lint_source
from repro.analysis.unrlint import PARSE_ERROR, iter_python_files
from tests.bench.test_datapath_cost import HOT_PATH_MODULES, hot_path_classes, with_dict
from tests.core.test_progress_sweep import CQ_CONSUMERS, make_node, record, record_cq_consumers

FIXTURES = Path(__file__).resolve().parent / "fixtures"
REPO_ROOT = Path(__file__).resolve().parent.parent.parent
SRC = REPO_ROOT / "src" / "repro"


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
    findings = lint_fixture("bad_unr002.py")
    assert rules_of(findings) == ["UNR002"]
    # time, perf_counter, monotonic_ns, time_ns, datetime.now
    assert len(findings) == 5
    assert all("obs/profile.py" in f.message for f in findings)


def test_unr006_flags_wallclock_in_obs_scope():
    # The observability layer stamps with simulated time; a host clock
    # there is a UNR002 finding like anywhere else.
    src = (
        "import time\nfrom datetime import datetime\n\n"
        "def stamp_event():\n    return time.time()\n\n"
        "def stamp_span():\n    return time.perf_counter()\n\n"
        "def stamp_bench():\n    return datetime.now()\n"
    )
    findings = lint_source(src, path="src/repro/obs/export.py")
    assert rules_of(findings) == ["UNR002"]
    assert len(findings) == 3  # time.time, perf_counter, datetime.now
    assert all("obs/profile.py" in f.message for f in findings)


def test_unr012_flags_wallclock_everywhere_else():
    # Benchmark-harness self-timing outside src/repro is flagged too: it
    # routes through repro.obs.profile.host_clock_ns instead.
    src = (
        "import time\nfrom datetime import datetime\n\n"
        "def wall_elapsed(fn):\n    t0 = time.perf_counter()\n    fn()\n"
        "    return time.perf_counter() - t0\n\n"
        "def stamp_run():\n"
        "    return {'unix': time.time_ns(), 'when': datetime.now().isoformat()}\n"
    )
    findings = lint_source(src, path="tools/wallclock_out_of_scope.py")
    assert rules_of(findings) == ["UNR002"]
    assert len(findings) == 4  # perf_counter x2, time_ns, datetime.now
    assert all("obs/profile.py" in f.message for f in findings)


def test_unr012_scope_partition_is_exhaustive():
    # One wall-clock read, one rule id wherever it sits — kernel,
    # observability layer, bench harness or workload — except in the
    # host-time profiler.
    src = "import time\nt = time.perf_counter()\n"
    for path in ("src/repro/sim/core2.py", "src/repro/obs/export2.py",
                 "src/repro/bench/latency.py", "examples/demo.py"):
        assert rules_of(lint_source(src, path=path)) == ["UNR002"], path
    assert lint_source(src, path="src/repro/obs/profile.py") == []


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


# -- layout checks that left the linter: their trigger cases -----------------
#
# A CQ consumer outside the engine and an un-slotted hot-path class are
# caught by tests on the live code now; each case below shows that
# check firing on the pattern.

NIC_CLASSES = '''
from dataclasses import dataclass

class HotRecord:
    def __init__(self, kind):
        self.kind = kind

class SlottedRecord:
    __slots__ = ("kind", "nbytes")

@dataclass(slots=True)
class SlottedDataclass:
    kind: str = "put"

class QueueOverflowError(RuntimeError):
    pass

class DropWarning(UserWarning):
    pass
'''

SCHEDULER_CLASSES = '''
import heapq

class DayQueue:
    __slots__ = ("_heap",)

    def __init__(self):
        self._heap = []

    def push(self, day):
        heapq.heappush(self._heap, day)

class LooseQueue:
    def __init__(self):
        self.entries = []
'''


def module_of(source, name):
    module = ModuleType(name)
    exec(compile(source, f"{name}.py", "exec"), module.__dict__)
    return module


def test_unr007_flags_cq_drain_outside_engine(monkeypatch):
    callers = record_cq_consumers(monkeypatch)
    env, node = make_node()
    cq = node.nic(0).cq
    for rid in range(3):
        assert cq.try_push(record(rid))  # producing is fine anywhere
    cq.poll()
    cq.poll_batch(limit=1)
    cq.poll_batch_into([None] * 4, 4)
    cq.get()
    cq.park(lambda rec: None)
    assert callers == {(__name__, name) for name in CQ_CONSUMERS}


def test_unr009_flags_unslotted_hot_path_class_only():
    # Slotted classes and dataclasses, exceptions and warnings pass.
    module = module_of(NIC_CLASSES, "nic_fixture")
    assert with_dict(hot_path_classes(module)) == {"nic_fixture.HotRecord"}


def test_unr009_scope_covers_scheduler_module():
    # sim/scheduler.py may use heapq and its classes must be slotted.
    assert "sim.scheduler" in HOT_PATH_MODULES
    assert lint_source(SCHEDULER_CLASSES, path="src/repro/sim/scheduler.py") == []
    module = module_of(SCHEDULER_CLASSES, "scheduler_fixture")
    assert with_dict(hot_path_classes(module)) == {"scheduler_fixture.LooseQueue"}


# -- per-rule: must NOT trigger ----------------------------------------------

#: the path below src/repro a source is linted under -> the source.
CLEAN = {
    "ok_unr001.py": FIXTURES / "ok_unr001.py",
    "core/ok_unr002.py": FIXTURES / "ok_unr002.py",
    "obs/ok_unr006.py": FIXTURES / "ok_unr002.py",  # simulated-time stamps in the obs layer
    "ok_unr003.py": FIXTURES / "ok_unr003.py",
    "ok_unr005.py": FIXTURES / "ok_unr005.py",
    # a fixture that is flagged anywhere else, under the real path that allows it
    "sim/core.py": FIXTURES / "bad_unr004.py",  # heapq in the kernel
    "sim/scheduler.py": FIXTURES / "bad_unr004.py",
    "obs/profile.py": FIXTURES / "bad_unr002.py",  # the one sanctioned wall-clock user
    # the transfer engine, the live CQ consumer, the retransmit watchdog
    # and a hot-path module: all lint clean with no suppression comment
    "core/engine.py": SRC / "core/engine.py",
    "core/polling.py": SRC / "core/polling.py",
    "core/reliability.py": SRC / "core/reliability.py",
    "netsim/node.py": SRC / "netsim/node.py",
}


@pytest.mark.parametrize("path", CLEAN)
def test_clean_fixture(path):
    assert lint_source(CLEAN[path].read_text(), path=f"src/repro/{path}") == []


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


# -- the meta-test: the shipped tree and its examples lint clean -------------

def test_src_repro_is_unrlint_clean():
    findings = lint_paths([str(REPO_ROOT / "src" / "repro"), str(REPO_ROOT / "examples")])
    assert findings == [], "\n" + format_findings(findings)
