"""unrlint: an AST-based determinism linter for the UNR reproduction.

The whole reproduction rests on two properties: the simulator is
deterministic (same seed → bit-identical transfer
fingerprints) and the MMAS counter encoding is exact against the
Table II custom-bit widths.  Nothing in the runtime stops a future
change from quietly importing a wall clock or an unseeded RNG into the
kernel — that is a *static* property, so it gets a static checker.

Rules
-----
======= ==============================================================
UNR001  unseeded ``random.*`` / ``numpy.random`` calls — all
        randomness must flow from a seeded ``Generator``
UNR002  wall-clock sources (``time.time``, ``datetime.now``, …) in any
        file but ``obs/profile.py`` — the host-time profiler is the one
        sanctioned wall-clock user; everything else reads ``env.now``
        or routes through ``repro.obs.profile.host_clock_ns``
UNR003  iteration over ``set()`` / dict views that feeds ``schedule()``
        or ``heappush()`` — nondeterministic event order
UNR004  direct ``heapq`` use outside the kernel (``sim/core.py`` /
        ``sim/scheduler.py``) — bypasses the kernel's ``(time, phase,
        seq)`` tie-break
UNR005  ``except Exception`` / bare ``except`` that can swallow
        ``UnrTimeoutError`` (unless the handler re-raises)
======= ==============================================================

UNR005 covers ``except Exception``, bare ``except`` *and*
``except BaseException`` — all three can swallow ``UnrTimeoutError``.

Suppression: append ``# unrlint: disable=UNR003`` (comma-separated ids,
or no ids to silence every rule) to the first line of the flagged
statement, or put ``# unrlint: disable-file=UNR004`` anywhere in the
file to silence a rule for the whole file.
"""

from __future__ import annotations

import ast
import os
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, FrozenSet, Iterable, List, Optional, Sequence, Set, Tuple

__all__ = [
    "RULES",
    "Rule",
    "Finding",
    "LintConfig",
    "lint_source",
    "lint_file",
    "lint_paths",
    "format_findings",
]


@dataclass(frozen=True)
class Rule:
    """One lint rule: identifier, summary and a fix-it hint."""

    id: str
    summary: str
    hint: str


RULES: Dict[str, Rule] = {
    r.id: r
    for r in (
        Rule(
            "UNR001",
            "unseeded random-number source",
            "thread a seeded numpy.random.Generator (np.random.default_rng(seed)) "
            "from the spec/config instead of module-level RNG state",
        ),
        Rule(
            "UNR002",
            "wall-clock time source outside the host-time profiler",
            "use env.now (the simulated clock) — a wall-clock read breaks "
            "bit-identical replay; to time the host, go through "
            "repro.obs.profile.host_clock_ns / HostProfiler "
            "(obs/profile.py is the one module that reads host clocks)",
        ),
        Rule(
            "UNR003",
            "unordered iteration feeding the event schedule",
            "iterate a list/tuple or sorted(...) — set/dict iteration order is "
            "not a stable event order",
        ),
        Rule(
            "UNR004",
            "direct heapq use outside the simulation kernel",
            "schedule through Environment (sim/core.py) and its Scheduler "
            "(sim/scheduler.py), keyed (time, phase, seq); a private heap "
            "bypasses the tie-break",
        ),
        Rule(
            "UNR005",
            "broad exception handler can swallow UnrTimeoutError",
            "catch the specific UNR/simulation errors you expect, or re-raise "
            "inside the handler",
        ),
    )
}

#: Parse failures are reported under a pseudo-rule so a syntactically
#: broken file never passes silently.
PARSE_ERROR = Rule("UNR000", "file does not parse", "fix the syntax error")


@dataclass(frozen=True)
class Finding:
    """One lint violation at ``path:line:col``."""

    rule: str
    path: str
    line: int
    col: int
    message: str
    hint: str

    def format(self) -> str:
        return (
            f"{self.path}:{self.line}:{self.col}: {self.rule} {self.message}\n"
            f"    hint: {self.hint}"
        )


#: ``/``-normalised path suffix of the one module that may read a host
#: clock (UNR002): the unrprof host-time profiler.
WALLCLOCK_MODULE = "obs/profile.py"

#: path suffixes of the kernel modules that may use ``heapq`` (UNR004).
HEAPQ_KERNEL_MODULES: Tuple[str, ...] = ("sim/core.py", "sim/scheduler.py")

@dataclass(frozen=True)
class LintConfig:
    """What to check.

    ``select`` limits checking to the given rule ids (``None`` = all).
    """

    select: Optional[FrozenSet[str]] = None

    def enabled(self, rule_id: str) -> bool:
        return self.select is None or rule_id in self.select


# -- suppression comments ----------------------------------------------------

_DISABLE_LINE = re.compile(r"#\s*unrlint:\s*disable(?:=([A-Z0-9, ]+))?")
_DISABLE_FILE = re.compile(r"#\s*unrlint:\s*disable-file=([A-Z0-9, ]+)")


def _parse_suppressions(source: str) -> Tuple[Dict[int, Optional[Set[str]]], Set[str]]:
    """Per-line and per-file suppressions from the raw source text.

    Returns ``(line -> suppressed ids or None-for-all, file-wide ids)``.
    """
    per_line: Dict[int, Optional[Set[str]]] = {}
    per_file: Set[str] = set()
    for lineno, text in enumerate(source.splitlines(), start=1):
        m = _DISABLE_FILE.search(text)
        if m:
            per_file.update(t.strip() for t in m.group(1).split(",") if t.strip())
            continue
        m = _DISABLE_LINE.search(text)
        if m:
            ids = m.group(1)
            if ids is None:
                per_line[lineno] = None  # all rules
            else:
                per_line[lineno] = {t.strip() for t in ids.split(",") if t.strip()}
    return per_line, per_file


# -- the AST visitor ---------------------------------------------------------

#: module-level functions of ``random`` whose calls consume hidden
#: global RNG state (``seed``/``getstate``/… are excluded: they are the
#: seeding machinery itself).
_RANDOM_FUNCS = {
    "random", "randint", "randrange", "uniform", "choice", "choices",
    "shuffle", "sample", "gauss", "normalvariate", "betavariate",
    "expovariate", "triangular", "vonmisesvariate", "paretovariate",
    "lognormvariate", "weibullvariate", "getrandbits", "randbytes",
}

#: legacy ``numpy.random`` module-level functions (global state).
_NP_RANDOM_FUNCS = {
    "rand", "randn", "randint", "random", "random_sample", "ranf",
    "sample", "choice", "shuffle", "permutation", "uniform", "normal",
    "standard_normal", "poisson", "exponential", "binomial", "beta",
    "gamma", "bytes", "integers",
}

_WALLCLOCK_TIME_FUNCS = {
    "time", "time_ns", "monotonic", "monotonic_ns",
    "perf_counter", "perf_counter_ns", "clock_gettime",
}

_WALLCLOCK_DT_FUNCS = {"now", "utcnow", "today"}

_SCHEDULE_SINKS = {"schedule", "_schedule", "heappush"}


def _attr_chain(node: ast.AST) -> List[str]:
    """``a.b.c`` → ``["a", "b", "c"]`` (empty list when not a pure chain)."""
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        parts.reverse()
        return parts
    return []


class _Visitor(ast.NodeVisitor):
    def __init__(self, path: str, config: LintConfig, heapq_allowed: bool,
                 wallclock_allowed: bool) -> None:
        self.path = path
        self.config = config
        self.heapq_allowed = heapq_allowed
        self.wallclock_allowed = wallclock_allowed
        self.findings: List[Finding] = []
        # alias -> canonical module ("random", "numpy", "numpy.random",
        # "time", "datetime", "heapq")
        self.module_aliases: Dict[str, str] = {}
        # names imported from a module: name -> "module.attr"
        self.from_imports: Dict[str, str] = {}

    # -- helpers -------------------------------------------------------------
    def _flag(self, rule_id: str, node: ast.AST, message: str) -> None:
        if not self.config.enabled(rule_id):
            return
        rule = RULES[rule_id]
        self.findings.append(
            Finding(
                rule=rule_id,
                path=self.path,
                line=getattr(node, "lineno", 1),
                col=getattr(node, "col_offset", 0),
                message=message,
                hint=rule.hint,
            )
        )

    def _canonical(self, chain: List[str]) -> Optional[str]:
        """Resolve an attribute chain to ``module.attr…`` using imports."""
        if not chain:
            return None
        head = chain[0]
        if head in self.module_aliases:
            return ".".join([self.module_aliases[head]] + chain[1:])
        if head in self.from_imports:
            return ".".join([self.from_imports[head]] + chain[1:])
        return None

    # -- imports -------------------------------------------------------------
    def visit_Import(self, node: ast.Import) -> None:
        for alias in node.names:
            name = alias.asname or alias.name.split(".")[0]
            if alias.asname:
                self.module_aliases[name] = alias.name
            else:
                self.module_aliases[name] = alias.name.split(".")[0]
                if "." in alias.name:
                    # `import numpy.random` binds `numpy`, but the full
                    # dotted path is usable too.
                    self.module_aliases.setdefault(alias.name, alias.name)
            if alias.name == "heapq" or alias.name.startswith("heapq."):
                self._check_heapq(node)
        self.generic_visit(node)

    def visit_ImportFrom(self, node: ast.ImportFrom) -> None:
        module = node.module or ""
        if node.level == 0 and module.split(".")[0] == "heapq":
            self._check_heapq(node)
        for alias in node.names:
            bound = alias.asname or alias.name
            self.from_imports[bound] = f"{module}.{alias.name}" if module else alias.name
        self.generic_visit(node)

    def _check_heapq(self, node: ast.AST) -> None:
        if not self.heapq_allowed:
            self._flag(
                "UNR004", node,
                "direct heapq import outside the kernel (sim/core.py, "
                "sim/scheduler.py) bypasses the (time, phase, seq) event "
                "tie-break",
            )

    # -- UNR001 / UNR002 -----------------------------------------------------
    def visit_Call(self, node: ast.Call) -> None:
        chain = _attr_chain(node.func)
        resolved = self._canonical(chain)
        if resolved is not None:
            self._check_rng_call(node, resolved)
            if not self.wallclock_allowed:
                self._check_wallclock_call(node, resolved)
        self.generic_visit(node)

    def _check_rng_call(self, node: ast.Call, resolved: str) -> None:
        parts = resolved.split(".")
        root = parts[0]
        if root == "random":
            tail = parts[-1]
            if len(parts) == 2 and tail in _RANDOM_FUNCS:
                self._flag(
                    "UNR001", node,
                    f"random.{tail}() draws from the hidden module-level RNG",
                )
            elif len(parts) == 2 and tail == "Random" and not node.args:
                self._flag(
                    "UNR001", node,
                    "random.Random() without a seed is OS-entropy seeded",
                )
            elif parts[-1] == "SystemRandom":
                self._flag(
                    "UNR001", node,
                    "random.SystemRandom draws OS entropy and can never replay",
                )
        elif root == "numpy" and len(parts) >= 2 and parts[1] == "random":
            tail = parts[-1]
            if tail == "default_rng":
                if not node.args and not node.keywords:
                    self._flag(
                        "UNR001", node,
                        "np.random.default_rng() without a seed is "
                        "OS-entropy seeded",
                    )
            elif tail in _NP_RANDOM_FUNCS and len(parts) == 3:
                self._flag(
                    "UNR001", node,
                    f"np.random.{tail}() uses the legacy global RNG state",
                )
        elif resolved == "numpy.random" or resolved.endswith(".default_rng"):
            # `from numpy.random import default_rng` resolves to
            # "numpy.random.default_rng" above; nothing extra here.
            pass

    def _check_wallclock_call(self, node: ast.Call, resolved: str) -> None:
        parts = resolved.split(".")
        root = parts[0]
        where = f"outside {WALLCLOCK_MODULE}"
        if root == "time" and parts[-1] in _WALLCLOCK_TIME_FUNCS:
            self._flag(
                "UNR002", node,
                f"time.{parts[-1]}() reads the wall clock {where}",
            )
        elif root == "datetime" and parts[-1] in _WALLCLOCK_DT_FUNCS:
            self._flag(
                "UNR002", node,
                f"datetime {'.'.join(parts[1:])}() reads the wall clock {where}",
            )

    # -- UNR003 --------------------------------------------------------------
    def visit_For(self, node: ast.For) -> None:
        reason = self._unordered_iterable(node.iter)
        if reason is not None:
            sink = self._schedule_sink(node.body)
            if sink is not None:
                self._flag(
                    "UNR003", node,
                    f"iterating {reason} feeds {sink}(): set/dict order is "
                    "not a deterministic event order",
                )
        self.generic_visit(node)

    def _unordered_iterable(self, node: ast.AST) -> Optional[str]:
        if isinstance(node, (ast.Set, ast.SetComp)):
            return "a set literal"
        if isinstance(node, ast.Call):
            chain = _attr_chain(node.func)
            if chain and chain[-1] in ("set", "frozenset") and len(chain) == 1:
                return f"{chain[-1]}(...)"
            if chain and chain[-1] in ("keys", "values", "items"):
                return f"a dict .{chain[-1]}() view"
            if chain and chain[-1] in ("union", "intersection", "difference",
                                       "symmetric_difference"):
                return f"a set .{chain[-1]}() result"
        return None

    def _schedule_sink(self, body: Sequence[ast.stmt]) -> Optional[str]:
        for stmt in body:
            for sub in ast.walk(stmt):
                if isinstance(sub, ast.Call):
                    chain = _attr_chain(sub.func)
                    if chain and chain[-1] in _SCHEDULE_SINKS:
                        return chain[-1]
        return None

    # -- UNR005 --------------------------------------------------------------
    def visit_ExceptHandler(self, node: ast.ExceptHandler) -> None:
        broad = False
        if node.type is None:
            broad = True
            what = "bare except"
        elif isinstance(node.type, ast.Name) and node.type.id in (
            "Exception", "BaseException",
        ):
            broad = True
            what = f"except {node.type.id}"
        elif isinstance(node.type, ast.Tuple) and any(
            isinstance(e, ast.Name) and e.id in ("Exception", "BaseException")
            for e in node.type.elts
        ):
            broad = True
            what = "except (..., Exception/BaseException, ...)"
        if broad and not self._reraises(node):
            self._flag(
                "UNR005", node,
                f"{what} can swallow UnrTimeoutError and wedge a "
                "reliability-armed run",
            )
        self.generic_visit(node)

    def _reraises(self, node: ast.ExceptHandler) -> bool:
        for sub in ast.walk(node):
            if isinstance(sub, ast.Raise) and sub.exc is None:
                return True
        return False


# -- entry points ------------------------------------------------------------

def lint_source(
    source: str,
    path: str = "<string>",
    config: Optional[LintConfig] = None,
) -> List[Finding]:
    """Lint one unit of Python source; returns surviving findings."""
    config = config or LintConfig()
    try:
        tree = ast.parse(source, filename=path)
    except SyntaxError as exc:
        return [
            Finding(
                rule=PARSE_ERROR.id,
                path=path,
                line=exc.lineno or 1,
                col=exc.offset or 0,
                message=f"{PARSE_ERROR.summary}: {exc.msg}",
                hint=PARSE_ERROR.hint,
            )
        ]
    norm = path.replace(os.sep, "/")
    visitor = _Visitor(
        path,
        config,
        heapq_allowed=norm.endswith(HEAPQ_KERNEL_MODULES),
        wallclock_allowed=norm.endswith(WALLCLOCK_MODULE),
    )
    visitor.visit(tree)
    per_line, per_file = _parse_suppressions(source)
    kept: List[Finding] = []
    for finding in visitor.findings:
        if finding.rule in per_file:
            continue
        if finding.line in per_line:
            ids = per_line[finding.line]
            if ids is None or finding.rule in ids:
                continue
        kept.append(finding)
    kept.sort(key=lambda f: (f.path, f.line, f.col, f.rule))
    return kept


def lint_file(path: str, config: Optional[LintConfig] = None) -> List[Finding]:
    with open(path, "r", encoding="utf-8") as fh:
        return lint_source(fh.read(), path=path, config=config)


def iter_python_files(paths: Iterable[str]) -> List[str]:
    """Expand files/directories into a sorted list of ``.py`` files."""
    out: List[str] = []
    for entry in paths:
        p = Path(entry)
        if p.is_dir():
            out.extend(str(f) for f in sorted(p.rglob("*.py")))
        else:
            out.append(str(p))
    return out


def lint_paths(
    paths: Iterable[str],
    config: Optional[LintConfig] = None,
) -> List[Finding]:
    """Lint every ``.py`` file under ``paths`` (files or directories)."""
    findings: List[Finding] = []
    for path in iter_python_files(paths):
        findings.extend(lint_file(path, config=config))
    return findings


def format_findings(findings: Sequence[Finding]) -> str:
    lines = [f.format() for f in findings]
    counts: Dict[str, int] = {}
    for f in findings:
        counts[f.rule] = counts.get(f.rule, 0) + 1
    if findings:
        tally = ", ".join(f"{rid} x{n}" for rid, n in sorted(counts.items()))
        lines.append(f"unrlint: {len(findings)} finding(s) ({tally})")
    return "\n".join(lines)
