"""Message tracing: the record of every transfer a cluster performs.

Arm the cluster's :class:`~repro.obs.Recorder` *before* running and
every ``post_put``/``post_get`` is appended to ``recorder.transfers`` as
a :class:`TraceRecord` with its size, endpoints and timing.  This module
holds the record type and the plain functions over a record list: the
order-sensitive :func:`transfer_fingerprint` (the replay guarantee),
:func:`transfer_summary` and :func:`render_timeline`.

>>> recorder = Recorder.attach(cluster)
>>> ...run...
>>> transfer_summary(recorder.transfers)["n_messages"]
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Iterable, List, Optional, Sequence

__all__ = ["TraceRecord", "transfer_fingerprint", "transfer_summary", "render_timeline"]


@dataclass
class TraceRecord:
    """One recorded transfer."""

    kind: str  # 'put' | 'get'
    src_node: int
    src_rail: int
    dst_node: int
    dst_rail: int
    nbytes: int
    post_time: float
    deliver_time: Optional[float] = None
    ordered: bool = False

    @property
    def latency(self) -> Optional[float]:
        if self.deliver_time is None:
            return None
        return self.deliver_time - self.post_time

    @property
    def intra_node(self) -> bool:
        return self.src_node == self.dst_node


def transfer_fingerprint(records: Iterable[TraceRecord]) -> str:
    """Stable digest of a transfer record sequence, order-sensitive.

    Two runs with the same program, seeds, and fault schedule must
    produce the same fingerprint — the replay guarantee checked by the
    fault-injection demo and tests, and the armed-vs-disarmed identity
    checked by the observability tests.
    """
    import hashlib

    h = hashlib.sha256()
    for r in records:
        h.update(
            (
                f"{r.kind}|{r.src_node}.{r.src_rail}>{r.dst_node}.{r.dst_rail}"
                f"|{r.nbytes}|{r.post_time!r}|{r.deliver_time!r}|{r.ordered}\n"
            ).encode()
        )
    return h.hexdigest()


def transfer_summary(records: Sequence[TraceRecord]) -> Dict[str, Any]:
    """Aggregate statistics over a transfer record list.

    Undelivered records (dropped by fault injection, or still in flight
    when the run ended) have ``latency is None``; they are excluded from
    the latency aggregates but counted explicitly in ``n_dropped``
    instead of being silently ignored.
    """
    lat = [r.deliver_time - r.post_time for r in records if r.deliver_time is not None]
    return {
        "n_messages": len(records),
        "n_delivered": len(lat),
        "n_dropped": len(records) - len(lat),
        "total_bytes": sum(r.nbytes for r in records),
        "intra_node_messages": sum(r.intra_node for r in records),
        "min_latency": min(lat) if lat else None,
        "max_latency": max(lat) if lat else None,
        "mean_latency": (sum(lat) / len(lat)) if lat else None,
    }


def render_timeline(
    records: Sequence[TraceRecord], limit: int = 40, min_bytes: int = 0
) -> str:
    """Text rendering of the first ``limit`` transfers.

    A record delivered at simulated t=0.0 renders its timestamp, not
    "pending" — delivery is tested with ``is not None``, never
    truthiness (0.0 is falsy but perfectly delivered).
    """
    lines: List[str] = []
    for r in records:
        if r.nbytes < min_bytes:
            continue
        end = f"{r.deliver_time * 1e6:9.2f}" if r.deliver_time is not None else "  pending"
        lines.append(
            f"{r.post_time * 1e6:9.2f} -> {end} us  "
            f"{r.kind:3s} n{r.src_node}.{r.src_rail} => "
            f"n{r.dst_node}.{r.dst_rail}  {r.nbytes}B"
            f"{'  [ordered]' if r.ordered else ''}"
        )
        if len(lines) >= limit:
            lines.append(f"... ({len(records)} total)")
            break
    return "\n".join(lines)
