"""Span log: nested begin/end intervals on the simulated clock.

Spans model *durations* (a collective phase, a signal wait, a plan
replay) the way Chrome's ``trace_event`` format does: each span lives on
a named *track* (one per rank, plus auxiliary tracks), nests under the
innermost span still open on that track, and is timestamped exclusively
with ``env.now`` — never a wall clock (unrlint rule UNR002).

The log is append-only and never touches the event heap, so arming it
cannot move a single simulation event (the passive guarantee).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from ..sim import Environment

__all__ = ["Span", "SpanHandle", "SpanLog"]


@dataclass
class Span:
    """One recorded interval on a track."""

    index: int
    track: str
    name: str
    cat: str
    t0: float
    t1: Optional[float] = None
    parent: Optional[int] = None
    args: Dict[str, Any] = field(default_factory=dict)

    @property
    def closed(self) -> bool:
        return self.t1 is not None

    @property
    def duration(self) -> float:
        """Span length in simulated seconds (0.0 while still open)."""
        if self.t1 is None:
            return 0.0
        return self.t1 - self.t0


class SpanHandle:
    """Returned by :meth:`SpanLog.begin`; close via :meth:`end` or ``with``."""

    __slots__ = ("_log", "index")

    def __init__(self, log: "SpanLog", index: int) -> None:
        self._log = log
        self.index = index

    def end(self, **args: Any) -> None:
        self._log.end(self, **args)

    def __enter__(self) -> "SpanHandle":
        return self

    def __exit__(self, *_exc: Any) -> None:
        self._log.end(self)


class SpanLog:
    """All spans of one recorder, with per-track nesting stacks."""

    def __init__(self, env: Environment) -> None:
        self.env = env
        self.spans: List[Span] = []
        self._open: Dict[str, List[int]] = {}

    def __len__(self) -> int:
        return len(self.spans)

    # -- recording ---------------------------------------------------------
    def begin(self, track: str, name: str, cat: str = "span", **args: Any) -> SpanHandle:
        stack = self._open.setdefault(track, [])
        parent = stack[-1] if stack else None
        span = Span(
            index=len(self.spans), track=track, name=name, cat=cat,
            t0=self.env.now, parent=parent, args=dict(args),
        )
        self.spans.append(span)
        stack.append(span.index)
        return SpanHandle(self, span.index)

    def end(self, handle: SpanHandle, **args: Any) -> None:
        """Close the span at the current simulated time (idempotent)."""
        span = self.spans[handle.index]
        if span.t1 is not None:
            return
        span.t1 = self.env.now
        if args:
            span.args.update(args)
        stack = self._open.get(span.track)
        if stack and handle.index in stack:
            stack.remove(handle.index)

    def add_complete(
        self, track: str, name: str, t0: float, t1: float,
        cat: str = "span", **args: Any,
    ) -> Span:
        """Record a span whose bounds are already known (retroactive —
        e.g. plan *build* time is only known once the plan first starts)."""
        span = Span(
            index=len(self.spans), track=track, name=name, cat=cat,
            t0=t0, t1=t1, parent=None, args=dict(args),
        )
        self.spans.append(span)
        return span

    # -- queries -----------------------------------------------------------
    def tracks(self) -> List[str]:
        seen: Dict[str, bool] = {}
        for span in self.spans:
            seen[span.track] = True
        return sorted(seen)

    def roots(self, track: str) -> List[Span]:
        return [s for s in self.spans if s.track == track and s.parent is None]

    def children(self, index: int) -> List[Span]:
        return [s for s in self.spans if s.parent == index]

    def critical_path(self, track: str) -> List[Span]:
        """Dominant chain on ``track``: the longest root span, then the
        longest child at every level down to a leaf.

        Ties break toward the earlier span so the extraction is
        deterministic.  Open (never-ended) spans count as zero-length.
        """
        roots = self.roots(track)
        if not roots:
            return []
        path: List[Span] = []
        node: Optional[Span] = max(roots, key=lambda s: (s.duration, -s.index))
        while node is not None:
            path.append(node)
            kids = self.children(node.index)
            node = max(kids, key=lambda s: (s.duration, -s.index)) if kids else None
        return path
