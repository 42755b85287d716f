"""UnrSanitizer: opt-in runtime checks for the UNR library.

Armed with ``Unr(sanitize=True)``, the sanitizer reports what nothing
else reports.  The library itself raises on a BLK outside its region or
over an unregistered handle, on over-width custom bits, on a freed plan
and on a double ``sig_free`` (the interface is the first checker, paper
§IV-D), and unrverify reports ordering bugs.  The sanitizer adds:

* every PUT and GET post, plan replays too, has its signal ids checked
  once the library accepted its arguments (the sanitizer wraps
  :meth:`~repro.core.engine.TransferEngine.post_op`): a freed or never
  registered id, and an id past the level's capacity (silent Level-0
  degradation), are flagged;
* overlapping registrations (two memory regions sharing bytes) are
  flagged at ``mem_reg`` time;
* at :meth:`~repro.core.api.Unr.finalize`, leaked notifications —
  signals whose counters are mid-count, overflowed signals and stray
  completions — are reported.  A shortfall the drain protocol could not
  discharge (the reliability ladder's ``undischarged`` set) is not a leak.

All checks are passive: they post no events and never touch the
simulated clock, so an armed run is fingerprint-identical to a
disarmed one (asserted by the tier-1 tests).  Findings accumulate in a
structured :class:`SanitizerReport`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, Iterator, List

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..core.api import Unr
    from ..core.engine import TransferOp
    from ..core.memory import MemoryRegion

__all__ = ["SanitizerFinding", "SanitizerReport", "UnrSanitizer"]


@dataclass(frozen=True)
class SanitizerFinding:
    """One runtime-check violation."""

    kind: str  # see UnrSanitizer.KINDS
    severity: str  # 'error' | 'warning'
    time: float  # simulated time of detection
    where: str  # operation / location, e.g. "put rank0->rank1"
    detail: str

    def format(self) -> str:
        return f"[{self.severity}] t={self.time:.6g} {self.kind} @ {self.where}: {self.detail}"


class SanitizerReport:
    """Structured collection of sanitizer findings."""

    def __init__(self) -> None:
        self.findings: List[SanitizerFinding] = []
        self.finalized = False

    def add(
        self,
        kind: str,
        where: str,
        detail: str,
        *,
        time: float = 0.0,
        severity: str = "error",
    ) -> SanitizerFinding:
        finding = SanitizerFinding(
            kind=kind, severity=severity, time=time, where=where, detail=detail
        )
        self.findings.append(finding)
        return finding

    def __len__(self) -> int:
        return len(self.findings)

    def __iter__(self) -> Iterator[SanitizerFinding]:
        return iter(self.findings)

    @property
    def ok(self) -> bool:
        return not self.findings

    def by_kind(self, kind: str) -> List[SanitizerFinding]:
        return [f for f in self.findings if f.kind == kind]

    def counts(self) -> Dict[str, int]:
        out: Dict[str, int] = {}
        for f in self.findings:
            out[f.kind] = out.get(f.kind, 0) + 1
        return out

    def format(self) -> str:
        if not self.findings:
            return "UnrSanitizer: no findings"
        lines = [f.format() for f in self.findings]
        tally = ", ".join(f"{k} x{n}" for k, n in sorted(self.counts().items()))
        lines.append(f"UnrSanitizer: {len(self.findings)} finding(s) ({tally})")
        return "\n".join(lines)

    def __repr__(self) -> str:
        return f"<SanitizerReport findings={len(self.findings)} finalized={self.finalized}>"


class UnrSanitizer:
    """Passive runtime-check layer attached to one :class:`Unr` instance.

    It wraps ``unr.engine.post_op`` to admit each PUT/GET, the library
    calls :meth:`on_mem_reg`, and :meth:`finalize` scans the signal
    tables.  The sanitizer only *records* — control flow, timing and
    error behaviour of the library are unchanged, which is what keeps
    armed and disarmed runs trace-identical.
    """

    #: every finding kind the sanitizer can emit
    KINDS = (
        "overlap",  # two registrations share bytes
        "degraded-sid",  # signal id past the level capacity (Level-0 fallback)
        "freed-signal",  # RMA/completion referencing a freed signal id
        "leaked-notification",  # signal counter mid-count at finalize
        "overflow",  # event-overflow bit set at finalize
        "stray-completion",  # completions for unknown signal ids
    )

    def __init__(self, unr: "Unr") -> None:
        self.unr = unr
        self.report = SanitizerReport()
        engine = unr.engine
        post_op = engine.post_op

        def admit(op: "TransferOp") -> None:
            if op.kind != "ctrl":
                self.check_rma(op)
            post_op(op)

        engine.post_op = admit  # type: ignore[method-assign]

    # ------------------------------------------------------------------
    def _now(self) -> float:
        return float(self.unr.env.now)

    # -- memory registration ------------------------------------------------
    def on_mem_reg(self, mr: "MemoryRegion") -> None:
        """Flag registrations overlapping an earlier live registration."""
        if mr.array is None:
            return
        for other in self.unr._mrs.values():
            if other is mr or other.array is None:
                continue
            if mr.overlaps(other):
                self.report.add(
                    "overlap",
                    f"mem_reg rank{mr.owner_rank} handle{mr.handle}",
                    f"region shares bytes with rank{other.owner_rank} "
                    f"handle{other.handle} ({other.nbytes}B); concurrent RMA "
                    "over both corrupts data silently",
                    time=self._now(),
                    severity="warning",
                )

    # -- RMA operations -----------------------------------------------------
    def check_rma(self, op: "TransferOp") -> None:
        """Check the signal ids one PUT/GET post notifies."""
        where = f"{op.kind} rank{op.src_rank}->rank{op.dst_rank}"
        for role, sid, owner in (
            ("remote", op.rsid, op.dst_rank),
            ("local", op.lsid, op.src_rank),
        ):
            if sid is None:
                continue
            node = self.unr._node_index(owner)
            if self.unr._signal_at(node, sid) is None:
                freed = sid in self.unr._freed_sids[node]
                self.report.add(
                    "freed-signal" if freed else "stray-completion",
                    where,
                    f"{role} signal id {sid} is "
                    + ("freed (use-after-free)" if freed else "not registered")
                    + f" on node {node}; its notifications will be dropped",
                    time=self._now(),
                )
            elif sid >= self.unr.sid_capacity:
                self.report.add(
                    "degraded-sid",
                    where,
                    f"{role} signal id {sid} exceeds the "
                    f"{self.unr.sid_capacity}-id custom-bit capacity of "
                    f"level {self.unr.put_remote_policy.level}; the op "
                    "degrades to the Level-0 ordered-message path",
                    time=self._now(),
                    severity="warning",
                )

    # -- finalize ------------------------------------------------------------
    def finalize(self) -> SanitizerReport:
        """End-of-job scan: leaked notifications, overflows, strays."""
        unr = self.unr
        ladder = unr.engine.reliable
        for node, table in enumerate(unr._sig_tables):
            for sid, sig in table.items():
                if sig.overflow_bit:
                    self.report.add(
                        "overflow",
                        f"signal node{node} sid{sid}",
                        f"event-overflow bit set: more than "
                        f"num_event={sig.num_event} events delivered",
                        time=self._now(),
                    )
                elif sig.mid_count:
                    if ladder is not None and (node, sid) in ladder.undischarged:
                        continue  # shortfall accounted by the drain protocol
                    self.report.add(
                        "leaked-notification",
                        f"signal node{node} sid{sid}",
                        f"counter {sig.counter:#x} is mid-count at finalize "
                        f"({sig.remaining_events} of {sig.num_event} events "
                        "never arrived — notifications leaked in flight)",
                        time=self._now(),
                    )
        strays = unr.stats.get("stray_completions", 0)
        if strays:
            self.report.add(
                "stray-completion",
                "finalize",
                f"{strays} completion(s) arrived for unknown/freed signal "
                "ids and were dropped",
                time=self._now(),
                severity="warning",
            )
        self.report.finalized = True
        return self.report
