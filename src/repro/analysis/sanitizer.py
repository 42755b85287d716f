"""UnrSanitizer: opt-in runtime checks for the UNR library.

Armed with ``Unr(sanitize=True)``, the sanitizer validates the dynamic
properties that the static :mod:`~repro.analysis.unrlint` rules cannot
see:

* every RMA operation is checked against the registered-memory map —
  out-of-bounds blocks and blocks over unregistered handles are
  reported *before* the library raises (the check runs in
  :meth:`~repro.core.engine.TransferEngine.prepare_put` /
  ``prepare_get``, and again on every plan replay through
  :meth:`~repro.core.engine.TransferEngine.post_op`);
* overlapping registrations (two memory regions sharing bytes) are
  flagged at ``mem_reg`` time;
* signal payloads that exceed the active interface's custom-bit budget
  are reported through the :mod:`~repro.interconnect.width` chokepoint
  before the :class:`~repro.interconnect.ChannelError`, and signal ids
  past the level's capacity (silent Level-0 degradation) are flagged;
* use of freed plans and freed signal ids is detected;
* at :meth:`~repro.core.api.Unr.finalize`, leaked notifications —
  signals whose counters are mid-count, overflowed signals and stray
  completions — are reported.

All checks are passive: they post no events and never touch the
simulated clock, so an armed run is fingerprint-identical to a
disarmed one (asserted by the tier-1 tests).  Findings accumulate in a
structured :class:`SanitizerReport`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, Iterator, List, Optional, Set, Tuple

from ..interconnect.width import WidthViolation

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..core.api import Unr
    from ..core.memory import Blk, MemoryRegion
    from ..core.plan import RmaPlan
    from ..core.signal import Signal

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

    The library calls the ``check_*``/``on_*`` hooks at the relevant
    points; the sanitizer only *records* — control flow, timing and
    error behaviour of the library are unchanged, which is what keeps
    armed and disarmed runs trace-identical.
    """

    #: every finding kind the sanitizer can emit
    KINDS = (
        "oob",  # block outside its memory region
        "unregistered-mr",  # block references an unknown (rank, handle)
        "overlap",  # two registrations share bytes
        "custom-width",  # payload exceeds the interface's custom bits
        "degraded-sid",  # signal id past the level capacity (Level-0 fallback)
        "freed-signal",  # RMA/completion referencing a freed signal id
        "use-after-free",  # freed plan started / signal double-freed
        "leaked-notification",  # signal counter mid-count at finalize
        "overflow",  # event-overflow bit set at finalize
        "stray-completion",  # completions for unknown signal ids
    )

    def __init__(self, unr: "Unr") -> None:
        self.unr = unr
        self.report = SanitizerReport()
        #: (node, sid) whose shortfall is *expected*: the drain protocol
        #: cancelled a fragment owing this signal a tokenless Level-0
        #: ctrl notification against a dead peer — no leak to report.
        self._drained_sids: Set[Tuple[int, int]] = set()

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
    def check_rma(
        self,
        op: str,
        rank: int,
        local_blk: "Blk",
        remote_blk: "Blk",
        *,
        remote_sid: Optional[int],
        local_sid: Optional[int],
    ) -> None:
        """Validate one PUT/GET against the registered-memory map."""
        where = f"{op} rank{local_blk.rank}->rank{remote_blk.rank}"
        for role, blk in (("local", local_blk), ("remote", remote_blk)):
            mr = self.unr._mrs.get((blk.rank, blk.mr_handle))
            if mr is None:
                self.report.add(
                    "unregistered-mr",
                    where,
                    f"{role} BLK references unregistered memory "
                    f"(rank={blk.rank}, handle={blk.mr_handle})",
                    time=self._now(),
                )
            elif blk.offset + blk.size > mr.nbytes:
                self.report.add(
                    "oob",
                    where,
                    f"{role} BLK [{blk.offset}, {blk.offset + blk.size}) "
                    f"outside its {mr.nbytes}B region",
                    time=self._now(),
                )
        for role, sid, owner in (
            ("remote", remote_sid, remote_blk.rank),
            ("local", local_sid, rank),
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

    # -- custom-bit width (interconnect chokepoint hook) ---------------------
    def on_width_violation(self, violation: WidthViolation) -> None:
        self.report.add(
            "custom-width",
            f"{self.unr.channel.name} {violation.what}",
            violation.describe(),
            time=self._now(),
        )

    # -- lifetime ------------------------------------------------------------
    def on_plan_start_after_free(self, plan: "RmaPlan") -> None:
        self.report.add(
            "use-after-free",
            f"plan rank{plan.endpoint.rank}",
            f"plan with {len(plan)} recorded op(s) started after free()",
            time=self._now(),
        )

    def on_signal_double_free(self, sig: "Signal") -> None:
        self.report.add(
            "use-after-free",
            f"sig_free rank{sig.owner_rank}",
            f"signal id {sig.sid} freed twice",
            time=self._now(),
        )

    def on_fragment_drained(self, node: int, sid: int) -> None:
        """Drain-protocol hook: a cancelled fragment owed ``(node, sid)``
        a notification that cannot be discharged through the idempotent
        token path (tokenless Level-0 ctrl tail).  The mid-count this
        leaves behind is accounted for, not leaked."""
        self._drained_sids.add((node, sid))

    # -- finalize ------------------------------------------------------------
    def finalize(self) -> SanitizerReport:
        """End-of-job scan: leaked notifications, overflows, strays."""
        unr = self.unr
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
                    if (node, sid) in self._drained_sids:
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
