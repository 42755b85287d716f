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
UNR002  wall-clock sources (``time.time``, ``datetime.now``, …) inside
        the deterministic scopes (``sim``, ``netsim``, ``core``)
UNR003  iteration over ``set()`` / dict views that feeds ``schedule()``
        or ``heappush()`` — nondeterministic event order
UNR004  direct ``heapq`` use outside the kernel (``sim/core.py`` /
        ``sim/scheduler.py``) — bypasses the kernel's ``(time, phase,
        seq)`` tie-break
UNR005  ``except Exception`` / bare ``except`` that can swallow
        ``UnrTimeoutError`` (unless the handler re-raises)
UNR006  wall-clock sources inside the observability layer (``obs``) —
        traces must be stamped with ``env.now`` so an armed run stays
        fingerprint-identical to a disarmed one
UNR007  CQ consuming (``cq.park``, or draining with ``cq.get`` /
        ``cq.poll`` / ``cq.poll_batch`` / ``cq.poll_batch_into``)
        outside ``core/engine.py`` — completion records must flow
        through the unified progress engine, whose sweepers hold each
        queue's one parked-consumer slot; a second consumer steals
        records and changes dispatch order
UNR008  retry/backoff loops (``while`` loops that call ``timeout()``)
        outside the reliability layer (``core/transport.py`` /
        ``core/health.py``) — ad-hoc retry loops bypass the watchdog's
        breaker feedback and dedup tokens
UNR009  un-slotted classes in the simulator hot-path modules
        (``sim/core.py``, ``sim/scheduler.py``, ``sim/resources.py``,
        ``netsim/nic.py``, ``netsim/node.py``) — per-event records
        must declare ``__slots__`` (or ``@dataclass(slots=True)``); a
        ``__dict__`` per instance bloats the event heap and the record
        free list.  Exception classes are exempt (cold path).
UNR010  an RMA post (``ep.put``/``ep.get``) with no wait-like call
        (``sig_wait``/``sig_test``/``recv_ctl``/…) reachable from the
        posting function or any of its callers — the notification can
        never be consumed (workload scopes; see
        :mod:`repro.analysis.verify`)
UNR011  unguarded buffer/plan reuse: a replay loop with no reachable
        wait or ``sig_reset``, or posting after ``sig_free`` /
        ``finalize`` / ``drain`` (workload scopes)
UNR012  wall-clock sources anywhere outside ``obs/profile.py`` — the
        host-time profiler is the ONE sanctioned wall-clock user;
        everything else reads ``env.now`` or routes through
        ``repro.obs.profile.host_clock_ns``
UNR013  iteration over an unsorted dict/set of replica/team state that
        selects a promotion target — hash order would decide the
        leader, so warm failover stops replaying deterministically
======= ==============================================================

UNR005 covers ``except Exception``, bare ``except`` *and*
``except BaseException`` — all three can swallow ``UnrTimeoutError``.
UNR002/UNR006/UNR012 partition the same wall-clock patterns by
location: deterministic scopes report UNR002, the observability layer
UNR006, and every remaining path UNR012 — so the only file in the
repo that may read a host clock without a suppression comment is the
one named by :attr:`LintConfig.wallclock_allowed_suffixes`
(``obs/profile.py``, the unrprof host-time profiler).
UNR010/UNR011 are the static half of unrverify; they run only on files
under the workload scopes (``examples/``, ``powerllel/``,
``collectives/``) unless :attr:`LintConfig.force_protocol` is set.

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
            "wall-clock time source in a deterministic scope",
            "use env.now (the simulated clock); wall-clock reads break "
            "bit-identical replay",
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
        Rule(
            "UNR006",
            "wall-clock time source inside the observability layer",
            "stamp traces with env.now (simulated time); a wall-clock read "
            "makes the exported trace differ between otherwise identical runs",
        ),
        Rule(
            "UNR007",
            "completion-queue parking or draining outside the progress engine",
            "route completions through ProgressEngine (core/engine.py) — its "
            "sweepers park on each CQ and its registered handlers are the one "
            "consumer; a side consumer steals records and perturbs dispatch "
            "order",
        ),
        Rule(
            "UNR008",
            "retry/backoff loop outside the reliability layer",
            "let the transfer engine's watchdog retry (core/transport.py "
            "config, core/health.py breakers) — a private retry loop skips "
            "breaker feedback and idempotence tokens, so it can duplicate "
            "notifications",
        ),
        Rule(
            "UNR009",
            "un-slotted class in a simulator hot-path module",
            "declare __slots__ (or use @dataclass(slots=True)) — these "
            "modules allocate one record per simulated event, and an "
            "instance __dict__ bloats the heap and the record free list",
        ),
        Rule(
            "UNR010",
            "RMA post with no reachable matching wait",
            "pair every ep.put/ep.get with a reachable sig_wait/sig_test/"
            "recv_ctl (in the poster or a caller) so the notification it "
            "raises is consumed",
        ),
        Rule(
            "UNR011",
            "unguarded buffer or plan reuse",
            "wait (sig_wait) or re-arm (sig_reset/sig_init) between reuses "
            "of a buffer or replayed plan, and never post after "
            "sig_free/finalize/drain tore the guard down",
        ),
        Rule(
            "UNR012",
            "wall-clock time source outside the sanctioned profiler",
            "obs/profile.py (unrprof) is the one module allowed to read "
            "host clocks — time things through "
            "repro.obs.profile.host_clock_ns / HostProfiler, or use "
            "env.now if you meant simulated time",
        ),
        Rule(
            "UNR013",
            "unordered replica/team iteration picks a promotion target",
            "sort the candidate set first (sorted(team.live)) and break "
            "ties on rank id — leader election must pick the same "
            "replica on every replay of the same failure",
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


@dataclass(frozen=True)
class LintConfig:
    """Tunable rule scope.

    ``select`` limits checking to the given rule ids (``None`` = all).
    ``wallclock_scopes`` are the path components in which UNR002
    applies; ``obs_scopes`` the components in which the same wall-clock
    patterns report as UNR006 instead; everywhere else they report as
    UNR012 unless the file's ``/``-normalised path ends with one of
    ``wallclock_allowed_suffixes`` (the unrprof host-time profiler,
    the single sanctioned wall-clock user).
    ``heapq_allowed_suffixes`` are
    ``/``-normalised path suffixes where UNR004 is permitted (the
    kernel itself); ``cq_allowed_suffixes`` likewise scope UNR007 to
    the unified progress engine, and ``retry_allowed_suffixes`` scope
    UNR008 (retry loops) to the reliability layer.
    ``slots_scope_suffixes`` name the hot-path modules in which UNR009
    requires every (non-exception) class to be slotted.
    """

    select: Optional[FrozenSet[str]] = None
    wallclock_scopes: Tuple[str, ...] = ("sim", "netsim", "core")
    obs_scopes: Tuple[str, ...] = ("obs",)
    wallclock_allowed_suffixes: Tuple[str, ...] = ("obs/profile.py",)
    heapq_allowed_suffixes: Tuple[str, ...] = (
        "sim/core.py",
        "sim/scheduler.py",
    )
    cq_allowed_suffixes: Tuple[str, ...] = ("core/engine.py",)
    retry_allowed_suffixes: Tuple[str, ...] = (
        "core/transport.py",
        "core/health.py",
    )
    slots_scope_suffixes: Tuple[str, ...] = (
        "sim/core.py",
        "sim/scheduler.py",
        "sim/resources.py",
        "netsim/nic.py",
        "netsim/node.py",
    )
    #: path components under which the UNR010/UNR011 protocol pass runs
    #: (workload code posting real RMA ops).
    protocol_scopes: Tuple[str, ...] = ("examples", "powerllel", "collectives")
    #: run the protocol pass on every file regardless of scope
    #: (used by the mutation corpus and targeted tests).
    force_protocol: bool = False

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

#: identifier substrings marking replica/team membership state (the
#: candidate pool a warm failover promotes from) — UNR013.
_TEAM_STATE_TOKENS = (
    "team", "replica", "mirror", "member", "live", "candidate",
    "survivor",
)

#: identifier substrings marking a promotion / leader-election sink:
#: a call or assignment target with one of these names inside the loop
#: body means the iteration order picks the new primary — UNR013.
_PROMOTION_TOKENS = ("promot", "primary", "leader", "elect", "failover")

#: CompletionQueue consumers (``cq.push`` is the producer and always
#: fine; only *consuming* — parking on the queue or draining it — is
#: reserved to the progress engine).
_CQ_CONSUME_FUNCS = {"park", "get", "poll", "poll_batch", "poll_batch_into"}


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


def _attr_tail(node: ast.AST) -> List[str]:
    """Trailing attribute names, whatever the base expression.

    ``job.nic_of(1).cq.poll`` → ``["cq", "poll"]`` — unlike
    :func:`_attr_chain` this survives calls/subscripts in the chain, so
    UNR007 sees drains on computed NIC handles too.
    """
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    parts.reverse()
    return parts


class _Visitor(ast.NodeVisitor):
    def __init__(self, path: str, config: LintConfig, in_wallclock_scope: bool,
                 heapq_allowed: bool, in_obs_scope: bool = False,
                 cq_allowed: bool = False, retry_allowed: bool = False,
                 slots_scope: bool = False,
                 wallclock_allowed: bool = False) -> None:
        self.path = path
        self.config = config
        self.in_wallclock_scope = in_wallclock_scope
        self.in_obs_scope = in_obs_scope
        self.wallclock_allowed = wallclock_allowed
        self.heapq_allowed = heapq_allowed
        self.cq_allowed = cq_allowed
        self.retry_allowed = retry_allowed
        self.slots_scope = slots_scope
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
                "direct heapq import outside sim/core.py bypasses the "
                "(time, phase, seq) event tie-break",
            )

    # -- UNR001 / UNR002 / UNR007 --------------------------------------------
    def visit_Call(self, node: ast.Call) -> None:
        chain = _attr_chain(node.func)
        resolved = self._canonical(chain)
        if resolved is not None:
            self._check_rng_call(node, resolved)
            if not self.wallclock_allowed:
                self._check_wallclock_call(node, resolved)
        self._check_cq_consume(node)
        self.generic_visit(node)

    def _check_cq_consume(self, node: ast.Call) -> None:
        if self.cq_allowed:
            return
        chain = _attr_tail(node.func)
        if len(chain) >= 2 and chain[-2] == "cq" and chain[-1] in _CQ_CONSUME_FUNCS:
            verb = "parks on" if chain[-1] == "park" else "drains"
            self._flag(
                "UNR007", node,
                f"cq.{chain[-1]}() {verb} a completion queue outside "
                "core/engine.py — the progress engine is the only consumer",
            )

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
        if self.in_obs_scope:
            rule_id, where = "UNR006", "the observability layer"
        elif self.in_wallclock_scope:
            rule_id, where = "UNR002", "a deterministic scope"
        else:
            rule_id, where = "UNR012", "a module that is not obs/profile.py"
        if root == "time" and parts[-1] in _WALLCLOCK_TIME_FUNCS:
            self._flag(
                rule_id, node,
                f"time.{parts[-1]}() reads the wall clock inside {where}",
            )
        elif root == "datetime" and parts[-1] in _WALLCLOCK_DT_FUNCS:
            self._flag(
                rule_id, node,
                f"datetime {'.'.join(parts[1:])}() reads the wall clock "
                f"inside {where}",
            )

    # -- UNR003 / UNR013 -----------------------------------------------------
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
            if self._is_team_state(node.iter):
                target = self._promotion_sink(node.body)
                if target is not None:
                    self._flag(
                        "UNR013", node,
                        f"iterating {reason} of replica/team state to "
                        f"choose {target!r}: hash order decides the "
                        "promotion target",
                    )
        self.generic_visit(node)

    def _is_team_state(self, node: ast.AST) -> bool:
        """Does the iterable expression name replica/team membership?"""
        for sub in ast.walk(node):
            ident: Optional[str] = None
            if isinstance(sub, ast.Name):
                ident = sub.id
            elif isinstance(sub, ast.Attribute):
                ident = sub.attr
            if ident is not None:
                low = ident.lower()
                if any(tok in low for tok in _TEAM_STATE_TOKENS):
                    return True
        return False

    def _promotion_sink(self, body: Sequence[ast.stmt]) -> Optional[str]:
        """First promotion-flavoured call or assignment target in ``body``."""
        for stmt in body:
            for sub in ast.walk(stmt):
                if isinstance(sub, ast.Call):
                    tail = _attr_tail(sub.func)
                    name = tail[-1] if tail else (
                        sub.func.id if isinstance(sub.func, ast.Name) else ""
                    )
                    if name and any(t in name.lower() for t in _PROMOTION_TOKENS):
                        return name
                elif isinstance(sub, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
                    targets = (
                        sub.targets if isinstance(sub, ast.Assign) else [sub.target]
                    )
                    for tgt in targets:
                        for n in ast.walk(tgt):
                            nm: Optional[str] = None
                            if isinstance(n, ast.Name):
                                nm = n.id
                            elif isinstance(n, ast.Attribute):
                                nm = n.attr
                            if nm and any(t in nm.lower() for t in _PROMOTION_TOKENS):
                                return nm
        return None

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

    # -- UNR008 --------------------------------------------------------------
    def visit_While(self, node: ast.While) -> None:
        if not self.retry_allowed:
            sleeper = self._timeout_call(node.body)
            if sleeper is not None:
                self._flag(
                    "UNR008", node,
                    f"while-loop around {sleeper}() looks like a hand-rolled "
                    "retry/backoff — retries belong to the reliability layer "
                    "(watchdog + circuit breakers)",
                )
        self.generic_visit(node)

    def _timeout_call(self, body: Sequence[ast.stmt]) -> Optional[str]:
        for stmt in body:
            for sub in ast.walk(stmt):
                if isinstance(sub, ast.Call):
                    chain = _attr_tail(sub.func)
                    if chain and chain[-1] == "timeout":
                        return ".".join(chain[-2:]) if len(chain) > 1 else chain[-1]
                    if isinstance(sub.func, ast.Name) and sub.func.id == "timeout":
                        return "timeout"
        return None

    # -- UNR009 --------------------------------------------------------------
    def visit_ClassDef(self, node: ast.ClassDef) -> None:
        if self.slots_scope and not self._is_slotted(node):
            self._flag(
                "UNR009", node,
                f"class {node.name} has no __slots__ in a hot-path module "
                "— every instance carries a __dict__",
            )
        self.generic_visit(node)

    @staticmethod
    def _base_name(base: ast.AST) -> str:
        if isinstance(base, ast.Attribute):
            return base.attr
        if isinstance(base, ast.Name):
            return base.id
        return ""

    def _is_slotted(self, node: ast.ClassDef) -> bool:
        # Exception/warning classes are cold-path by definition and need
        # a __dict__ for ``args``/custom attributes.
        for base in node.bases:
            name = self._base_name(base)
            if name in ("BaseException", "Exception", "Warning") or name.endswith(
                ("Error", "Exception", "Warning")
            ):
                return True
        for deco in node.decorator_list:
            if isinstance(deco, ast.Call):
                tail = _attr_tail(deco.func)
                name = tail[-1] if tail else (
                    deco.func.id if isinstance(deco.func, ast.Name) else ""
                )
                if name == "dataclass" and any(
                    kw.arg == "slots"
                    and isinstance(kw.value, ast.Constant)
                    and kw.value.value is True
                    for kw in deco.keywords
                ):
                    return True
        for stmt in node.body:
            if isinstance(stmt, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__slots__"
                for t in stmt.targets
            ):
                return True
            if (
                isinstance(stmt, ast.AnnAssign)
                and isinstance(stmt.target, ast.Name)
                and stmt.target.id == "__slots__"
            ):
                return True
        return False

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

def _norm(path: str) -> str:
    return path.replace(os.sep, "/")


def _in_wallclock_scope(path: str, config: LintConfig) -> bool:
    parts = Path(_norm(path)).parts
    return any(part in config.wallclock_scopes for part in parts)


def _in_obs_scope(path: str, config: LintConfig) -> bool:
    parts = Path(_norm(path)).parts
    return any(part in config.obs_scopes for part in parts)


def _wallclock_allowed(path: str, config: LintConfig) -> bool:
    norm = _norm(path)
    return any(norm.endswith(suffix) for suffix in config.wallclock_allowed_suffixes)


def _heapq_allowed(path: str, config: LintConfig) -> bool:
    norm = _norm(path)
    return any(norm.endswith(suffix) for suffix in config.heapq_allowed_suffixes)


def _cq_allowed(path: str, config: LintConfig) -> bool:
    norm = _norm(path)
    return any(norm.endswith(suffix) for suffix in config.cq_allowed_suffixes)


def _retry_allowed(path: str, config: LintConfig) -> bool:
    norm = _norm(path)
    return any(norm.endswith(suffix) for suffix in config.retry_allowed_suffixes)


def _slots_scope(path: str, config: LintConfig) -> bool:
    norm = _norm(path)
    return any(norm.endswith(suffix) for suffix in config.slots_scope_suffixes)


def _in_protocol_scope(path: str, config: LintConfig) -> bool:
    parts = Path(_norm(path)).parts
    return any(part in config.protocol_scopes for part in parts)


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
    visitor = _Visitor(
        path,
        config,
        in_wallclock_scope=_in_wallclock_scope(path, config),
        heapq_allowed=_heapq_allowed(path, config),
        in_obs_scope=_in_obs_scope(path, config),
        cq_allowed=_cq_allowed(path, config),
        retry_allowed=_retry_allowed(path, config),
        slots_scope=_slots_scope(path, config),
        wallclock_allowed=_wallclock_allowed(path, config),
    )
    visitor.visit(tree)
    all_findings = list(visitor.findings)
    if (config.force_protocol or _in_protocol_scope(path, config)) and (
        config.enabled("UNR010") or config.enabled("UNR011")
    ):
        # Deferred import: verify.py imports Finding/Rule from here.
        from .verify import protocol_pass

        all_findings.extend(
            protocol_pass(
                tree, path, RULES,
                check_unr010=config.enabled("UNR010"),
                check_unr011=config.enabled("UNR011"),
            )
        )
    per_line, per_file = _parse_suppressions(source)
    kept: List[Finding] = []
    for finding in all_findings:
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
