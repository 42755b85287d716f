"""unrverify: trace-based happens-before verification.

The verifier consumes the ``ops``/``protocol`` streams an armed
:class:`~repro.obs.recorder.Recorder` collects, builds the
happens-before graph (:mod:`repro.analysis.hbgraph`), and reports:

======= ==============================================================
VER001  two writes to overlapping bytes of one memory region with no
        happens-before path between their deliveries (a data race the
        notification protocol does not order)
VER002  a posted operation *reads* bytes that another operation writes
        with no ordering between read and write — the classic
        "touched the buffer before the guarding notification" bug
VER003  a notification (MMAS add) that was applied but never awaited
        in its signal epoch — leaked by a reset/free or by program end
VER004  trace-integrity violations: a rank's program chain running
        backwards in simulated time, a delivery stamped before its
        post, or a cycle in the happens-before relation — any of which
        indicates simulator nondeterminism or a corrupt trace
======= ==============================================================

The happens-before edge taxonomy (see ``docs/analysis.md``):

* **po** — program order: each rank's coroutine-level events (posts,
  ``sig_wait`` completions, resets, signal alloc/free, ``recv_ctl``
  resumptions) form one chain per rank.  Asynchronous events
  (deliveries, counter adds) are *not* program-chained.
* **delivery** — ``post → deliver`` per fragment.
* **notify** — ``deliver → add`` (PUT/ctrl: the arriving data applies
  the add) or ``post → add`` (GET request-side and local-completion
  adds), matched by idempotence token where the reliability layer
  minted one and by per-``(node, sid)`` time-valid FIFO otherwise.
* **guard** — ``add → wait``: every applied add in the current signal
  epoch happens-before the ``sig_wait`` completion that consumed it.
* **ctrl** — ``deliver → ctrl_recv`` per ``(src, dst, tag)`` FIFO.
* **lane** — consecutive deliveries on an ordered lane (``ctrl``,
  ``fallback``) between one ``(src, dst)`` pair, when nondecreasing in
  time (a reorder fault legitimately breaks lane order; the edge is
  simply dropped).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List, Optional, Set, Tuple

from .hbgraph import HBEvent, HBGraph
from .unrlint import Finding, Rule

__all__ = [
    "VERIFY_RULES",
    "VerifyReport",
    "build_hb_graph",
    "verify_corpus",
    "verify_recorder",
    "verify_schedule",
]


VERIFY_RULES: Dict[str, Rule] = {
    r.id: r
    for r in (
        Rule(
            "VER001",
            "racy overlapping writes to one MR interval",
            "order the writers: have the second PUT wait on the notification "
            "the first one raises (sig_wait / credit message) before posting",
        ),
        Rule(
            "VER002",
            "buffer read not dominated by its guarding notification",
            "sig_wait the signal bound to the written BLK before reading or "
            "re-posting from the buffer",
        ),
        Rule(
            "VER003",
            "notification applied but never awaited",
            "every armed signal event should be consumed by sig_wait/sig_test "
            "before reset/free — a leaked add means the producer and consumer "
            "disagree about num_event",
        ),
        Rule(
            "VER004",
            "happens-before integrity violation",
            "this indicates simulator nondeterminism or a corrupt trace — "
            "re-run with the same seed and report if it reproduces",
        ),
    )
}

#: ProtoEvent kinds that live on the emitting rank's program chain.
_PROGRAM_KINDS = ("sig_init", "sig_free", "wait", "reset", "ctrl_recv")


# -- graph construction ---------------------------------------------


def _interval_overlap(a: Tuple[int, int, int, int], b: Tuple[int, int, int, int]) -> bool:
    """Do two ``(rank, mr, offset, size)`` intervals share bytes?"""
    if a[0] != b[0] or a[1] != b[1]:
        return False
    return a[2] < b[2] + b[3] and b[2] < a[2] + a[3]


def build_hb_graph(recorder: Any) -> HBGraph:
    """The happens-before graph of one armed run (edge taxonomy above)."""
    g = HBGraph()
    post_of: Dict[int, HBEvent] = {}
    deliver_of: Dict[int, HBEvent] = {}

    for op in recorder.ops:
        post = g.add_event(("rank", op.src_rank), "post", op.post_time, op.seq, ref=op)
        post_of[op.seq] = post
        if op.deliver_time is not None:
            d = g.add_event(
                ("net", op.deliver_rank), "deliver",
                op.deliver_time, op.deliver_seq, ref=op,
            )
            deliver_of[op.seq] = d
            if op.deliver_time >= op.post_time:
                g.add_edge(post, d)

    proto_events: List[HBEvent] = []
    for p in recorder.protocol:
        if p.kind in ("add", "stray_add"):
            ev = g.add_event(("sig", p.node), p.kind, p.t, p.seq, ref=p)
        else:
            ev = g.add_event(("rank", p.rank), p.kind, p.t, p.seq, ref=p)
        proto_events.append(ev)

    # po: one chain per rank over coroutine-level events.
    chains: Dict[Any, List[HBEvent]] = {}
    for ev in g.events:
        if ev.actor[0] == "rank":
            chains.setdefault(ev.actor, []).append(ev)
    for chain in chains.values():
        chain.sort(key=lambda e: e.seq)
        for a, b in zip(chain, chain[1:]):
            g.add_edge(a, b)

    # notify: anchor event that causes each signal add.  PUT and ctrl
    # notifications are applied by the arriving data (anchor=deliver);
    # GET remote adds fire when the *request* reaches the owner, and
    # PUT local-completion adds fire before remote delivery — both
    # anchor at the post (temporally safe, slightly conservative).
    def _remote_anchor(op: Any) -> Optional[HBEvent]:
        if op.kind == "get":
            return post_of.get(op.seq)
        return deliver_of.get(op.seq)

    def _local_anchor(op: Any) -> Optional[HBEvent]:
        if op.kind == "get":
            return deliver_of.get(op.seq)
        return post_of.get(op.seq)

    by_rtok: Dict[Any, Any] = {}
    by_ltok: Dict[Any, Any] = {}
    pools: Dict[Tuple[int, int], List[HBEvent]] = {}
    for op in recorder.ops:
        if op.rtok is not None:
            by_rtok[op.rtok] = op
        if op.ltok is not None:
            by_ltok[op.ltok] = op
        if op.ctrl_sid is not None:
            anchor = deliver_of.get(op.seq)
            if anchor is not None:
                pools.setdefault((op.rnode, op.ctrl_sid), []).append(anchor)
        if op.rsid is not None and op.rtok is None:
            anchor = _remote_anchor(op)
            if anchor is not None:
                pools.setdefault((op.rnode, op.rsid), []).append(anchor)
        if op.lsid is not None and op.ltok is None:
            anchor = _local_anchor(op)
            if anchor is not None:
                pools.setdefault((op.lnode, op.lsid), []).append(anchor)
    for pool in pools.values():
        pool.sort(key=lambda e: (e.t, e.seq))
    used: Set[int] = set()

    for ev in proto_events:
        if ev.kind not in ("add", "stray_add"):
            continue
        p = ev.ref
        anchor: Optional[HBEvent] = None
        if p.token is not None:
            op = by_rtok.get(p.token)
            if op is not None:
                anchor = _remote_anchor(op)
            else:
                op = by_ltok.get(p.token)
                if op is not None:
                    anchor = _local_anchor(op)
        else:
            # Greedy time-valid FIFO: the earliest unconsumed anchor at
            # this (node, sid) that does not postdate the add.
            for cand in pools.get((p.node, p.sid), ()):
                if cand.idx not in used and cand.t <= ev.t:
                    anchor = cand
                    used.add(cand.idx)
                    break
        if anchor is not None and anchor.t <= ev.t:
            g.add_edge(anchor, ev)

    # guard: per-(node, sid) epochs delimited by sig_init/reset/free.
    streams: Dict[Tuple[int, int], List[HBEvent]] = {}
    for ev in proto_events:
        p = ev.ref
        if p.kind in ("add", "sig_init", "sig_free", "wait", "reset"):
            streams.setdefault((p.node, p.sid), []).append(ev)
    for stream in streams.values():
        stream.sort(key=lambda e: e.seq)
        pending: List[HBEvent] = []
        for ev in stream:
            kind = ev.kind
            if kind == "sig_init":
                pending = []
            elif kind == "add":
                if ev.ref.applied:
                    pending.append(ev)
            elif kind == "wait":
                for a in pending:
                    if a.seq < ev.seq and a.t <= ev.t:
                        g.add_edge(a, ev)
                        a.meta["consumed"] = True
                pending = [a for a in pending if not a.meta.get("consumed")]
            elif kind in ("reset", "sig_free"):
                pending = []

    # ctrl: (src, dst, tag) FIFO pairing delivery to recv_ctl resumption.
    ctrl_q: Dict[Tuple[int, int, Any], List[HBEvent]] = {}
    for op in recorder.ops:
        if op.kind == "ctrl" and op.ctrl_sid is None:
            d = deliver_of.get(op.seq)
            if d is not None:
                ctrl_q.setdefault((op.src_rank, op.dst_rank, op.tag), []).append(d)
    for q in ctrl_q.values():
        q.sort(key=lambda e: (e.t, e.seq))
    ctrl_used: Dict[Tuple[int, int, Any], int] = {}
    for ev in proto_events:
        if ev.kind != "ctrl_recv":
            continue
        p = ev.ref
        key = (p.peer, p.rank, p.tag)
        i = ctrl_used.get(key, 0)
        q = ctrl_q.get(key, [])
        if i < len(q) and q[i].t <= ev.t:
            g.add_edge(q[i], ev)
            ctrl_used[key] = i + 1

    # lane: ordered lanes stay FIFO per (src, dst) unless a fault
    # visibly reordered them (then the edge is dropped, not invented).
    lanes: Dict[Tuple[str, int, int], List[Tuple[int, HBEvent]]] = {}
    for op in recorder.ops:
        if op.lane in ("ctrl", "fallback"):
            d = deliver_of.get(op.seq)
            if d is not None:
                lanes.setdefault((op.lane, op.src_rank, op.dst_rank), []).append(
                    (op.seq, d)
                )
    for seq_deliveries in lanes.values():
        seq_deliveries.sort(key=lambda pair: pair[0])
        for (_, d1), (_, d2) in zip(seq_deliveries, seq_deliveries[1:]):
            if d1.t <= d2.t:
                g.add_edge(d1, d2)

    return g


# -- the checks ------------------------------------------------------


@dataclass
class VerifyReport:
    """Outcome of verifying one armed run."""

    origin: str
    findings: List[Finding] = field(default_factory=list)
    graph: Optional[HBGraph] = None
    fingerprint: Optional[str] = None

    @property
    def ok(self) -> bool:
        return not self.findings


def _finding(rule_id: str, origin: str, seq: int, message: str) -> Finding:
    rule = VERIFY_RULES[rule_id]
    return Finding(
        rule=rule_id, path=f"trace://{origin}", line=int(seq), col=0,
        message=message, hint=rule.hint,
    )


def verify_recorder(recorder: Any, origin: str = "run") -> VerifyReport:
    """Run every check over one armed recorder's streams."""
    report = VerifyReport(origin=origin)
    g = build_hb_graph(recorder)
    report.graph = g
    findings = report.findings

    # VER004 first: pairwise queries are only trustworthy on a DAG.
    acyclic = g.prepare()
    if not acyclic:
        cyc = g.cycle_events()
        findings.append(
            _finding(
                "VER004", origin, cyc[0].seq if cyc else 0,
                f"happens-before cycle through {len(cyc)} event(s) "
                f"(first: {cyc[0].kind} seq={cyc[0].seq})" if cyc else
                "happens-before cycle detected",
            )
        )
    for op in recorder.ops:
        if op.deliver_time is not None and op.deliver_time < op.post_time:
            findings.append(
                _finding(
                    "VER004", origin, op.seq,
                    f"op {op.op_id} ({op.kind} {op.src_rank}->{op.dst_rank}) "
                    f"delivered at t={op.deliver_time:.6g} before its post "
                    f"at t={op.post_time:.6g}",
                )
            )
    for a, b in g.chain_time_regressions():
        findings.append(
            _finding(
                "VER004", origin, b.seq,
                f"program chain of {a.actor[1]} runs backwards: {a.kind} at "
                f"t={a.t:.6g} (seq {a.seq}) precedes {b.kind} at t={b.t:.6g}",
            )
        )
    if not acyclic:
        return report  # pairwise HB queries would under-approximate

    # VER001: unordered overlapping writes.
    writes: List[Tuple[Any, HBEvent, Any]] = []
    for ev in g.events:
        if ev.kind == "deliver" and ev.ref.write is not None:
            writes.append((ev.ref.write, ev, ev.ref))
    seen_pairs: Set[Tuple[int, int]] = set()
    for i in range(len(writes)):
        wi, ei, oi = writes[i]
        for j in range(i + 1, len(writes)):
            wj, ej, oj = writes[j]
            if oi.op_id == oj.op_id and oi.src_rank == oj.src_rank:
                continue  # fragments of one logical op (disjoint by plan)
            if not _interval_overlap(wi, wj):
                continue
            if g.ordered(ei, ej):
                continue
            key = (min(ei.seq, ej.seq), max(ei.seq, ej.seq))
            if key in seen_pairs:
                continue
            seen_pairs.add(key)
            findings.append(
                _finding(
                    "VER001", origin, key[0],
                    f"unordered writes to rank {wi[0]} mr{wi[1]} "
                    f"[{max(wi[2], wj[2])}, {min(wi[2] + wi[3], wj[2] + wj[3])}) — "
                    f"op {oi.op_id} from rank {oi.src_rank} and "
                    f"op {oj.op_id} from rank {oj.src_rank} race",
                )
            )

    # VER002: a read concurrent with an overlapping write.
    for ev in g.events:
        if ev.kind != "post" or ev.ref.read is None:
            continue
        rop = ev.ref
        for wint, wev, wop in writes:
            if wop.seq == rop.seq:
                continue
            if wop.op_id == rop.op_id and wop.src_rank == rop.src_rank:
                continue
            if not _interval_overlap(rop.read, wint):
                continue
            if g.ordered(ev, wev):
                continue
            findings.append(
                _finding(
                    "VER002", origin, ev.seq,
                    f"op {rop.op_id} (rank {rop.src_rank}) reads rank "
                    f"{rop.read[0]} mr{rop.read[1]} "
                    f"[{rop.read[2]}, {rop.read[2] + rop.read[3]}) with no "
                    f"happens-before to the write by op {wop.op_id} "
                    f"(rank {wop.src_rank}) — the guarding notification "
                    "does not dominate the read",
                )
            )

    # VER003: applied adds never consumed by a wait in their epoch.
    for ev in g.events:
        if ev.kind == "add" and ev.ref.applied and not ev.meta.get("consumed"):
            p = ev.ref
            findings.append(
                _finding(
                    "VER003", origin, ev.seq,
                    f"notification on node {p.node} sid {p.sid} "
                    f"(addend {p.addend:#x} at t={p.t:.6g}) was applied but "
                    "never awaited before reset/free/end of run",
                )
            )
        elif ev.kind == "stray_add":
            p = ev.ref
            findings.append(
                _finding(
                    "VER003", origin, ev.seq,
                    f"notification targeted unregistered sid {p.sid} on node "
                    f"{p.node} at t={p.t:.6g} (freed or never allocated)",
                )
            )

    findings.sort(key=lambda f: (f.rule, f.line))
    return report


def verify_schedule(platform: str, schedule: str) -> VerifyReport:
    """Run one golden-corpus schedule armed and verify its trace."""
    import warnings

    from ..bench.fingerprints import run_schedule_observed

    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        fingerprint, recorder = run_schedule_observed(platform, schedule)
    report = verify_recorder(recorder, origin=f"{platform}/{schedule}")
    report.fingerprint = fingerprint
    return report


# -- corpus drivers -----------------------------------------------------------


def verify_corpus(
    platforms: Optional[Iterable[str]] = None,
    schedules: Optional[Iterable[str]] = None,
) -> List[VerifyReport]:
    """Verify every golden-corpus (platform, schedule) pair."""
    from ..bench import fingerprints as fp

    plats = tuple(platforms) if platforms else fp.PLATFORMS
    scheds = tuple(schedules) if schedules else fp.SCHEDULES
    return [verify_schedule(p, s) for p in plats for s in scheds]
