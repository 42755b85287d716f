"""Happens-before graph for unrverify (layer 1).

This module is the *mechanism* half of the trace verifier: a small,
generic DAG of trace events, each owned by an *actor* (a rank's program
chain, a node's asynchronous delivery stream, …).  Happens-before is
answered exactly from **reachability bitsets**: asynchronous delivery
events share an actor *without* being chained (two unrelated delivers
on one node must stay concurrent), so :meth:`HBGraph.happens_before`
reads a transitive-closure bitset computed in topological order rather
than anything per-actor.

The bitsets are computed by one Kahn pass (:meth:`HBGraph.prepare`)
whose ready queue is ordered by recorder sequence number, making the
computation deterministic and doubling as the cycle check: a cycle in
a happens-before relation derived from a deterministic simulation is
itself a verifier finding (VER004).

The *policy* half — which edges exist and which patterns are bugs —
lives in :mod:`repro.analysis.verify`.
"""

from __future__ import annotations

# The heap here orders a topological-sort ready queue by recorder
# sequence number — offline analysis, not simulation scheduling.
# unrlint: disable-file=UNR004
import heapq
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

__all__ = ["HBEvent", "HBGraph"]


@dataclass
class HBEvent:
    """One node of the happens-before graph.

    ``actor`` names the chain or stream this event belongs to;
    ``seq`` is the recorder-wide sequence number used for deterministic
    tie-breaking; ``ref`` points back at the underlying
    ``OpRecord``/``ProtoEvent`` for report context.
    """

    idx: int
    actor: Any
    kind: str
    t: float
    seq: int
    label: str = ""
    ref: Any = None
    meta: Dict[str, Any] = field(default_factory=dict)

    def __repr__(self) -> str:
        return f"<HBEvent #{self.idx} {self.kind} actor={self.actor!r} t={self.t:.6g}>"


class HBGraph:
    """A happens-before DAG with exact reachability.

    Build with :meth:`add_event` / :meth:`add_edge`, then call
    :meth:`prepare` once; queries (:meth:`happens_before`,
    :meth:`concurrent`) are valid afterwards.  ``prepare`` is
    idempotent until the next mutation.
    """

    def __init__(self) -> None:
        self.events: List[HBEvent] = []
        self._succ: List[List[int]] = []
        self._pred: List[List[int]] = []
        self._edges: set = set()
        self._reach: Optional[List[int]] = None
        self._order: Optional[List[int]] = None
        self._acyclic: Optional[bool] = None

    # -- construction ------------------------------------------------------
    def add_event(
        self,
        actor: Any,
        kind: str,
        t: float,
        seq: int,
        label: str = "",
        ref: Any = None,
        **meta: Any,
    ) -> HBEvent:
        ev = HBEvent(
            idx=len(self.events), actor=actor, kind=kind, t=t, seq=seq,
            label=label, ref=ref, meta=meta,
        )
        self.events.append(ev)
        self._succ.append([])
        self._pred.append([])
        self._invalidate()
        return ev

    def add_edge(self, a: HBEvent, b: HBEvent) -> None:
        """Record ``a`` happens-before ``b`` (duplicates ignored)."""
        if a.idx == b.idx:
            raise ValueError("happens-before edges must connect distinct events")
        key = (a.idx, b.idx)
        if key in self._edges:
            return
        self._edges.add(key)
        self._succ[a.idx].append(b.idx)
        self._pred[b.idx].append(a.idx)
        self._invalidate()

    def _invalidate(self) -> None:
        self._reach = None
        self._order = None
        self._acyclic = None

    @property
    def n_edges(self) -> int:
        return len(self._edges)

    # -- analysis ----------------------------------------------------------
    def prepare(self) -> bool:
        """Kahn topological pass: reachability bitsets.

        Returns ``True`` when the graph is acyclic (queries valid).  On
        a cycle, reachability answers are *underapproximate* for the
        events on and behind it — the caller reports the cycle itself
        (VER004) and stops trusting pairwise queries.
        """
        if self._acyclic is not None:
            return self._acyclic
        n = len(self.events)
        indeg = [len(self._pred[i]) for i in range(n)]
        # Deterministic ready queue: recorder seq, then insertion index.
        ready = [(self.events[i].seq, i) for i in range(n) if indeg[i] == 0]
        heapq.heapify(ready)
        reach = [0] * n
        order: List[int] = []
        while ready:
            _, i = heapq.heappop(ready)
            order.append(i)
            mask = 0
            for p in self._pred[i]:
                mask |= reach[p] | (1 << p)
            reach[i] = mask
            for s in self._succ[i]:
                indeg[s] -= 1
                if indeg[s] == 0:
                    heapq.heappush(ready, (self.events[s].seq, s))
        self._reach = reach
        self._order = order
        self._acyclic = len(order) == n
        return self._acyclic

    def is_acyclic(self) -> bool:
        return self.prepare()

    def cycle_events(self) -> List[HBEvent]:
        """The events left unordered by :meth:`prepare` (on/behind a cycle)."""
        self.prepare()
        placed = set(self._order or [])
        return [ev for ev in self.events if ev.idx not in placed]

    def happens_before(self, a: HBEvent, b: HBEvent) -> bool:
        """Exact strict happens-before: is there a path ``a`` → ``b``?"""
        self.prepare()
        assert self._reach is not None
        return bool(self._reach[b.idx] >> a.idx & 1)

    def ordered(self, a: HBEvent, b: HBEvent) -> bool:
        return a.idx == b.idx or self.happens_before(a, b) or self.happens_before(b, a)

    def concurrent(self, a: HBEvent, b: HBEvent) -> bool:
        return not self.ordered(a, b)

    # -- invariants (VER004 raw material) ----------------------------------
    def chain_time_regressions(self) -> List[Tuple[HBEvent, HBEvent]]:
        """Adjacent program-chain pairs whose simulated time runs backwards.

        Only ``po`` (program-order) edges are checked: cross edges may
        legitimately connect same-time events in either seq order, but a
        single actor's own chain moving backwards in time means the
        trace is corrupt or the simulator nondeterministic.
        """
        out: List[Tuple[HBEvent, HBEvent]] = []
        for i, j in sorted(self._edges):
            a, b = self.events[i], self.events[j]
            if a.actor == b.actor and b.t < a.t:
                out.append((a, b))
        return out

    def __repr__(self) -> str:
        return f"<HBGraph events={len(self.events)} edges={len(self._edges)}>"
