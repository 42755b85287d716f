"""Cluster and library instrumentation: wrappers + snapshot-time collectors.

Installed once per cluster by :meth:`Recorder.attach`, and once per
library by :func:`observe_unr` (``Unr(observe=...)``).  Two mechanisms:

* **push** — each NIC's ``post_put``/``post_get`` is replaced with a
  recording wrapper (the same interception idiom as the fault
  injector).  A :class:`~repro.netsim.faults.FaultInjector` attached
  *earlier* stays innermost, so the recorder observes post-fault
  delivery times and dropped fragments keep ``deliver_time=None``.
* **pull** — per-rail NIC counters, CQ high-water marks and
  fault-injector tallies are read only at ``snapshot()`` time by
  collectors, so the fabric hot path carries no extra bookkeeping.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Callable, Dict, Optional

from ..core.engine import FALLBACK_RAIL
from ..netsim.nic import Nic
from ..netsim.trace import TraceRecord
from ..units import US
from .recorder import OpRecord, Recorder

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..core.api import Unr
    from ..core.engine import StripePlan, TransferOp

__all__ = ["instrument_cluster", "observe_unr"]


def instrument_cluster(recorder: "Recorder", cluster: Any) -> None:
    """Wrap every NIC of ``cluster`` and register the pull-collectors.

    On a lazy cluster the wrapping rides the node-materialization hook,
    so attaching a Recorder never forces the full node graph into
    existence (the 1728-node scaling runs depend on this).
    """

    def wrap_node(node: Any) -> None:
        for nic in node.nics:
            _wrap_nic(recorder, nic)

    cluster.add_node_hook(wrap_node)
    recorder.add_collector(lambda: _collect_net(cluster))
    recorder.add_collector(lambda: _collect_faults(cluster))
    recorder.add_collector(_collect_pool)


def _wrap_nic(recorder: "Recorder", nic: Nic) -> None:
    orig_put = nic.post_put
    orig_get = nic.post_get
    transfers = recorder.transfers

    def post_put(dst: Any, nbytes: int, *, on_deliver: Any = None,
                 ordered: bool = False, **kw: Any) -> Any:
        rec = TraceRecord(
            kind="put",
            src_node=nic.node.index, src_rail=nic.index,
            dst_node=dst.node.index, dst_rail=dst.index,
            nbytes=nbytes, post_time=nic.env.now, ordered=ordered,
        )
        transfers.append(rec)
        recorder.count("net.puts")

        def deliver(payload: Any) -> None:
            rec.deliver_time = nic.env.now
            recorder.observe(
                "net.frag_latency_us", (rec.deliver_time - rec.post_time) / US
            )
            if on_deliver is not None:
                on_deliver(payload)

        return orig_put(dst, nbytes, on_deliver=deliver, ordered=ordered, **kw)

    def post_get(dst: Any, nbytes: int, *, on_deliver: Any = None, **kw: Any) -> Any:
        rec = TraceRecord(
            kind="get",
            src_node=nic.node.index, src_rail=nic.index,
            dst_node=dst.node.index, dst_rail=dst.index,
            nbytes=nbytes, post_time=nic.env.now,
        )
        transfers.append(rec)
        recorder.count("net.gets")

        def deliver(payload: Any) -> None:
            rec.deliver_time = nic.env.now
            recorder.observe(
                "net.frag_latency_us", (rec.deliver_time - rec.post_time) / US
            )
            if on_deliver is not None:
                on_deliver(payload)

        return orig_get(dst, nbytes, on_deliver=deliver, **kw)

    nic.post_put = post_put  # type: ignore[method-assign]
    nic.post_get = post_get  # type: ignore[method-assign]


def _collect_net(cluster: Any) -> Dict[str, float]:
    """Per-rail NIC utilisation and CQ depth/stall counters.

    Only materialized nodes are visited: an untouched node has no
    traffic, and iterating ``cluster.nodes`` here would defeat the lazy
    construction the scaling runs rely on.
    """
    out: Dict[str, float] = {}
    for node in cluster.materialized_nodes():
        for nic in node.nics:
            pre = f"net.n{node.index}.r{nic.index}."
            out[pre + "tx_msgs"] = nic.tx_msgs
            out[pre + "tx_bytes"] = nic.tx_bytes
            out[pre + "rx_msgs"] = nic.rx_msgs
            out[pre + "rx_bytes"] = nic.rx_bytes
            out[pre + "cq_pushes"] = nic.cq.n_pushed
            out[pre + "cq_high_water"] = nic.cq.high_water
            out[pre + "cq_overflow_stalls"] = nic.cq.n_overflow_stalls
            out[pre + "cq_stall_us"] = nic.cq.stall_time / US
    return out


def _collect_pool() -> Dict[str, float]:
    """Completion-record pool accounting (``net.record_pool.*``).

    The pool is process-global (see
    :func:`repro.netsim.nic.record_pool_stats`), so the snapshot is
    cluster-independent; hit/miss/dropped counts tell whether the cap
    fits the run's completion-record working set."""
    from ..netsim.nic import record_pool_stats

    return {
        f"net.record_pool.{key}": float(value)
        for key, value in record_pool_stats().items()
    }


def _collect_faults(cluster: Any) -> Dict[str, float]:
    """Fault-injector tallies (drops, dups, rail kills, …), summed when
    several injectors are attached."""
    out: Dict[str, float] = {}
    for injector in getattr(cluster, "fault_injectors", ()):
        for key in sorted(injector.stats):
            name = f"fault.{key}"
            out[name] = out.get(name, 0) + injector.stats[key]
    return out


def observe_unr(unr: "Unr", observe: Any) -> Recorder:
    """Arm ``Unr(observe=...)`` from outside the library; returns the
    cluster's recorder (``observe`` itself when it is one).

    * the op stream (unrverify layer 1), from wrapping ``post_op`` (one op
      id per call) and the engine's ``on_post`` seam: one
      :class:`~repro.obs.recorder.OpRecord` per first wire post of a
      fragment or control message, stamped on its first delivery only,
      and the ``unr.ctrl_fallback`` / ``reliability.retransmit`` markers;
    * ``core.poll_dispatch_delay_us`` from wrapping the record handlers;
    * pulled at snapshot time: every ``Unr.stats`` key as ``core.*``, and
      ``core.poll_sweeps``, ``core.poll_dispatches`` and
      ``reliability.rail_failovers`` once they are non-zero.
    """
    rec = Recorder.attach(
        unr.job.cluster, observe if isinstance(observe, Recorder) else None
    )
    env, engine, stats = unr.env, unr.engine, unr.stats
    post_op = engine.post_op
    op_id = 0

    def counted_post_op(op: "TransferOp") -> None:
        nonlocal op_id
        op_id += 1
        post_op(op)

    def on_post(
        op: "TransferOp", sp: Optional["StripePlan"], rail: int, attempt: int,
        rtok: Optional[int], ltok: Optional[int], deliver: Any,
    ) -> Any:
        track = f"rank{op.src_rank}"
        if attempt and sp is not None:
            rec.event("reliability.retransmit", track=track, what=op.kind.upper(),
                      attempt=attempt, rail=rail, nbytes=sp.size)
            return deliver
        if op.ctrl_sid is not None:
            rec.event("unr.ctrl_fallback", track=track, dst=op.dst_rank, sid=op.ctrl_sid)
        oprec = _record_op(rec, op, sp, op_id, rail, rtok, ltok, env.now)

        def stamped(data: Any) -> None:
            if oprec.deliver_time is None:
                oprec.deliver_time = env.now
                oprec.deliver_seq = rec.next_seq()
            if deliver is not None:
                deliver(data)

        return stamped

    def timed(handler: Callable[[int, Any], None]) -> Callable[[int, Any], None]:
        def timed_handler(node: int, record: Any) -> None:
            rec.observe("core.poll_dispatch_delay_us", (env.now - record.complete_time) / US)
            handler(node, record)

        return timed_handler

    def collect() -> Dict[str, float]:
        out = {f"core.{k}": float(stats[k]) for k in sorted(stats)}
        for key, value in (
            ("core.poll_sweeps", sum(e.n_sweeps for e in unr.engines)),
            ("core.poll_dispatches", sum(e.n_dispatched for e in unr.engines)),
            ("reliability.rail_failovers",
             0 if engine.reliable is None else engine.reliable.n_failovers),
        ):
            if value:
                out[key] = value
        return out

    engine.post_op = counted_post_op  # type: ignore[method-assign]
    engine.on_post = on_post
    for eng in unr.engines:
        eng.handlers = {kind: timed(h) for kind, h in eng.handlers.items()}
        if eng.default_handler is not None:
            eng.default_handler = timed(eng.default_handler)
    rec.add_collector(collect)
    return rec


def _record_op(
    rec: Recorder, op: "TransferOp", sp: Optional["StripePlan"], op_id: int,
    rail: int, rtok: Optional[int], ltok: Optional[int], now: float,
) -> OpRecord:
    """One :class:`OpRecord`: what a fragment (``sp``) or control message
    (``sp is None``) reads and writes, and which signals it notifies."""
    write = read = tag = None
    if sp is None:
        lane, nbytes, frag_index, deliver_rank = "ctrl", op.nbytes, 0, op.dst_rank
        payload = op.payload
        if isinstance(payload, tuple) and len(payload) == 3 and payload[1] is not None:
            tag = str(payload[1])
    else:
        # A PUT writes its remote block and a GET its local one, each at
        # the fragment's slice (a GET is one fragment over the whole block).
        put = op.kind == "put"
        dst, src = (op.remote_blk, op.local_blk) if put else (op.local_blk, op.remote_blk)
        assert dst is not None and src is not None
        lane = "fallback" if rail == FALLBACK_RAIL else "rma"
        nbytes, frag_index, deliver_rank = sp.size, sp.index, dst.rank
        write = (dst.rank, dst.mr_handle, dst.offset + sp.offset, sp.size)
        read = (src.rank, src.mr_handle, src.offset + sp.offset, sp.size)
    return rec.record_op(
        op_id=op_id, kind=op.kind, lane=lane, src_rank=op.src_rank, dst_rank=op.dst_rank,
        deliver_rank=deliver_rank, nbytes=nbytes, post_time=now, rail=rail,
        frag_index=frag_index, write=write, read=read, rsid=op.rsid, lsid=op.lsid,
        rnode=op.dst_node, lnode=op.src_node, rtok=rtok, ltok=ltok, ctrl_sid=op.ctrl_sid, tag=tag,
    )
