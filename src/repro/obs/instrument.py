"""Cluster instrumentation: NIC wrapping + snapshot-time collectors.

Installed once per cluster by :meth:`Recorder.attach`.  Two mechanisms:

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

from typing import TYPE_CHECKING, Any, Dict

from ..netsim.nic import Nic
from ..netsim.trace import TraceRecord
from ..units import US

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .recorder import Recorder

__all__ = ["instrument_cluster"]


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
