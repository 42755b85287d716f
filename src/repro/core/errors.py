"""UNR error and warning types (bug-avoiding interfaces, paper §IV-D)."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Tuple

__all__ = [
    "OpContext",
    "UnrError",
    "UnrSyncError",
    "UnrOverflowError",
    "UnrTimeoutError",
    "UnrPeerDeadError",
    "UnrUsageError",
    "UnrSyncWarning",
    "UnrDegradeWarning",
]


@dataclass(frozen=True)
class OpContext:
    """Structured context of one failed reliable operation.

    Attached to :class:`UnrTimeoutError` / :class:`UnrPeerDeadError` so
    a timeout surfacing out of ``sig_wait`` (or ``run_job``) carries
    enough forensics to reproduce the failure: what was posted, between
    whom, which targets were attempted and when, and the simulated time
    the op was finally declared lost.

    ``attempts`` is the posting history: one ``(target, t_us)`` pair per
    transmission, where ``target`` is ``"rail<k>"`` for an RMA rail or
    ``"fallback"`` for the degraded MPI lane.
    """

    kind: str  # 'PUT' | 'GET' | 'CTRL'
    src_rank: int
    dst_rank: int
    nbytes: int
    sim_time_us: float  # simulated time the op was declared failed
    attempts: Tuple[Tuple[str, float], ...] = field(default=())
    degraded: bool = False  # at least one attempt used the fallback lane

    def describe(self) -> str:
        if self.attempts:
            history = " -> ".join(f"{t}@{ts:.1f}us" for t, ts in self.attempts)
        else:
            history = "none (rejected at post time)"
        lane = "degraded (fallback lane reached)" if self.degraded else "rma-only"
        return (
            f"op={self.kind} rank{self.src_rank}->rank{self.dst_rank} "
            f"{self.nbytes}B | attempts: {history} | {lane} | "
            f"declared dead at t={self.sim_time_us:.1f}us"
        )


class UnrError(RuntimeError):
    """Base class for UNR errors."""


class UnrSyncError(UnrError):
    """A synchronization error detected by ``sig_reset`` in strict mode:
    one or more messages arrived *before* the application declared the
    buffer ready (counter was not zero at reset time)."""


class UnrOverflowError(UnrError):
    """``sig_wait`` found the event-overflow detect bit set: more than
    ``num_event`` events were delivered to the signal."""


class UnrTimeoutError(UnrError):
    """A reliable operation exhausted its retry budget: the fragment was
    retransmitted ``max_retries`` times (with exponential backoff and,
    where possible, rail failover) and still never acknowledged.  Raised
    instead of hanging the event loop so fault-injection runs terminate
    deterministically.

    ``context`` (when set) is an :class:`OpContext` with the op kind,
    peer ranks, per-attempt target history and the simulated time of
    failure; it survives re-raising through ``sig_wait``/``run_job``
    because the same exception instance propagates.
    """

    def __init__(self, message: str = "", context: Optional[OpContext] = None):
        super().__init__(message)
        self.context = context

    def __str__(self) -> str:
        base = super().__str__()
        if self.context is None:
            return base
        return f"{base}\n  {self.context.describe()}"


class UnrPeerDeadError(UnrTimeoutError):
    """The degradation ladder is exhausted: every RMA rail to the peer
    is gated by an open circuit breaker (or a dead NIC) *and* the MPI
    fallback channel to it is also declared dead (fail-stop node crash).
    Subclasses :class:`UnrTimeoutError` so existing timeout handlers
    keep working."""


class UnrUsageError(UnrError):
    """API misuse: bad handle, wrong rank, out-of-range block, …"""


class UnrSyncWarning(UserWarning):
    """Non-strict-mode variant of :class:`UnrSyncError`."""


class UnrDegradeWarning(UserWarning):
    """Signal table exceeded the custom-bit capacity of this support
    level; operations on overflowed signals fall back to the Level-0
    ordered-message scheme (performance may degrade — paper Table I)."""
