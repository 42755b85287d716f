"""RMA plans: record once, replay every iteration (paper §IV-D).

``UNR_RMA_Plan()`` records a series of PUT/GET before entering the main
loop of the application; ``UNR_Plan_Start()`` re-executes them.  Plans
remove per-iteration descriptor building from the critical path and are
the natural target of the MPI-conversion interfaces (Code 3).

The first ``start()`` prepares one
:class:`~repro.core.engine.TransferOp` per recorded operation through
the unified transfer engine — argument checks, signal-id resolution and
stripe planning run once — and every start (including the first)
replays the cached descriptors through
:meth:`~repro.core.engine.TransferEngine.post_op`, the call ``put`` and
``get`` make, where an armed sanitizer admits each post, so a signal
freed between iterations is still caught."""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, List, Optional

from .errors import UnrUsageError
from .memory import Blk

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .api import UnrEndpoint
    from .engine import TransferOp

__all__ = ["RmaPlan", "PlannedOp"]


@dataclass(frozen=True)
class PlannedOp:
    """One recorded operation."""

    kind: str  # 'put' | 'get'
    src: Blk
    dst: Blk
    remote_sid: Optional[int]
    has_remote_override: bool


class RmaPlan:
    """A recorded sequence of RMA operations for one endpoint."""

    def __init__(self, endpoint: "UnrEndpoint") -> None:
        self.endpoint = endpoint
        self._ops: List[PlannedOp] = []
        self._prepared: Optional[List["TransferOp"]] = None
        self.n_starts = 0
        self.freed = False
        self._t_build = endpoint.env.now

    def __len__(self) -> int:
        return len(self._ops)

    def record_put(self, src_blk: Blk, dst_blk: Blk, *, remote_sid: Optional[int] = None,
                   override: bool = False) -> "RmaPlan":
        """Record a PUT (chainable)."""
        self._ops.append(PlannedOp("put", src_blk, dst_blk, remote_sid, override))
        self._prepared = None
        return self

    def record_get(self, local_blk: Blk, remote_blk: Blk, *, remote_sid: Optional[int] = None,
                   override: bool = False) -> "RmaPlan":
        """Record a GET (chainable)."""
        self._ops.append(PlannedOp("get", local_blk, remote_blk, remote_sid, override))
        self._prepared = None
        return self

    def merge(self, other: "RmaPlan") -> "RmaPlan":
        """Append all of ``other``'s operations to this plan."""
        if other.endpoint is not self.endpoint:
            raise ValueError("cannot merge plans from different endpoints")
        self._ops.extend(other._ops)
        self._prepared = None
        return self

    def free(self) -> None:
        """Release the plan (paper: ``UNR_Plan_Free``).

        A freed plan must never be started again; doing so raises
        :class:`~repro.core.errors.UnrUsageError`.  Freeing twice is
        harmless."""
        self.freed = True

    def start(self) -> None:
        """Post every recorded operation (paper: ``UNR_Plan_Start``).

        Non-blocking, like the individual operations: completion is
        observed through the signals bound to the blocks (or recorded
        overrides)."""
        ep = self.endpoint
        if self.freed:
            raise UnrUsageError(
                f"plan with {len(self._ops)} op(s) started after free()"
            )
        self.n_starts += 1
        obs = ep.unr.obs
        track = f"rank{ep.rank}"
        if obs is not None and self.n_starts == 1:
            # Build time is only known once the plan first starts; the
            # span covers record_put/record_get bookkeeping, which plans
            # exist to keep off the per-iteration critical path.
            obs.complete_span(
                track, "unr.plan.build", t0=self._t_build, t1=ep.env.now,
                cat="core", ops=len(self._ops),
            )
        handle = None
        if obs is not None:
            handle = obs.span(
                track, "unr.plan.start", cat="core",
                ops=len(self._ops), n_starts=self.n_starts,
            )
        engine = ep.unr.engine
        if self._prepared is None:
            # Prepared once: argument checks, sid resolution and stripe
            # planning stay off the per-iteration critical path.
            built: List["TransferOp"] = []
            for op in self._ops:
                rsid = op.remote_sid if op.has_remote_override else op.dst.signal_sid
                lsid = op.src.signal_sid
                if op.kind == "put":
                    built.append(engine.prepare_put(ep.rank, op.src, op.dst, rsid, lsid))
                else:
                    built.append(engine.prepare_get(ep.rank, op.src, op.dst, rsid, lsid))
            self._prepared = built
        for top in self._prepared:
            engine.post_op(top)
        if handle is not None:
            handle.end()

    def __repr__(self) -> str:
        return f"<RmaPlan ops={len(self._ops)} starts={self.n_starts}>"
