"""NIC model: RDMA engines with completion queues and custom bits.

The NIC is where the paper's *Notifiable RMA Primitives* live: a PUT or
GET posted here produces completion records on the local and/or remote
completion queue (CQ), each carrying an opaque ``custom`` integer — the
"custom bits" whose width varies by interconnect (paper Table II).  The
interconnect adapters in :mod:`repro.interconnect` mask ``custom`` to
their platform's width; this module is width-agnostic.

Timing model (cut-through, busy-until bookkeeping):

* sender serializes injections: ``tx_start = max(now, tx_free)``,
  ``tx_end = tx_start + overhead + nbytes / bw``;
* first byte reaches the receiver ``latency`` after it leaves;
* the receiver port serializes concurrent incoming flows;
* adaptive routing adds per-message jitter proportional to the
  serialization time, so striped fragments arrive out of order unless
  ``ordered=True`` is requested (used by the Level-0 control channel and
  the MPI fallback).

Level-4 co-design: when :attr:`NicSpec.atomic_offload` is set and the
caller passes ``remote_action``, the NIC executes the action (an atomic
``*p += a``) directly at delivery time and posts **no** CQ entry — no
polling thread needed, reproducing the paper's §IV-C proposal.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Generator, List, Optional, TYPE_CHECKING

import numpy as np

from ..sim import Environment, Event, InFlight, Store

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .node import Node

__all__ = [
    "CompletionRecord",
    "CompletionQueue",
    "Nic",
    "CqOverflowError",
    "alloc_record",
    "recycle_record",
    "record_pool_stats",
    "reset_record_pool",
]


class CqOverflowError(RuntimeError):
    """Raised when a CQ overflows and the cluster is in strict mode."""


@dataclass(slots=True)
class CompletionRecord:
    """One completion-queue entry.

    ``kind`` is one of ``put_local``, ``put_remote``, ``get_local``,
    ``get_remote``, ``ctrl`` (Level-0 control-channel delivery carrying a
    ``(sid, addend)`` payload) or ``msg`` (plain two-sided style delivery
    used by the MPI fallback channel).  ``custom`` is the raw custom-bits
    payload.  Records are drained by the per-node
    :class:`~repro.core.engine.ProgressEngine`, which routes each kind to
    its registered handler.

    Hot-path records come off a free list (:func:`alloc_record`) and go
    back to it (:func:`recycle_record`) once dispatched;
    ``dataclasses.replace`` copies (the fault injector's re-stamped
    deliveries) come out un-pooled and are left to the garbage collector.
    """

    kind: str
    custom: int = 0
    nbytes: int = 0
    src_node: int = -1
    dst_node: int = -1
    tag: Any = None
    payload: Any = None
    post_time: float = 0.0
    complete_time: float = 0.0
    #: opaque idempotence token; a faulted fabric may re-deliver the same
    #: record, and the signal path dedups on this (None = never dedup).
    token: Any = None
    #: free-list bookkeeping: True only for live records handed out by
    #: ``alloc_record`` (``init=False`` so ``dataclasses.replace`` copies
    #: never claim pool membership and can't be double-recycled).
    _pooled: bool = field(init=False, default=False, repr=False, compare=False)


#: Free list behind :func:`alloc_record`, capped so a pathological burst
#: cannot pin memory forever.  Process-global (records flow between
#: clusters' progress engines only within one process) and cold-started
#: by every new :class:`~repro.netsim.cluster.Cluster`; the counters are
#: surfaced through the Recorder's ``net.record_pool.*`` collector.
_POOL_LIMIT = 4096
_free_records: List["CompletionRecord"] = []
_pool_stats = {"hits": 0, "misses": 0, "recycled": 0, "dropped": 0}


def record_pool_stats() -> Dict[str, float]:
    """Accounting of the record free list: allocations served from it
    (``hits``) or constructed (``misses``), records taken back
    (``recycled``) or refused because it was full (``dropped``)."""
    return {"limit": _POOL_LIMIT, "free": len(_free_records), **_pool_stats}


def reset_record_pool() -> None:
    """Cold-start the pool (new run): clear the free list, zero stats.

    Called at :class:`~repro.netsim.cluster.Cluster` construction, so
    the reported counts are per-run and identical runs in one process
    stay byte-stable even though the list is process-global.
    """
    _free_records.clear()
    for key in _pool_stats:
        _pool_stats[key] = 0


def alloc_record(
    kind: str,
    custom: int = 0,
    nbytes: int = 0,
    src_node: int = -1,
    dst_node: int = -1,
    tag: Any = None,
    payload: Any = None,
    post_time: float = 0.0,
    complete_time: float = 0.0,
    token: Any = None,
) -> CompletionRecord:
    """A :class:`CompletionRecord` from the free list, or a new one.

    Identical field semantics — and field order — to the constructor,
    so the per-post callers fill it positionally; the returned record is
    marked pool-owned so :func:`recycle_record` can reclaim it after the
    progress engine dispatches it.
    """
    if _free_records:
        _pool_stats["hits"] += 1
        rec = _free_records.pop()
        rec.kind = kind
        rec.custom = custom
        rec.nbytes = nbytes
        rec.src_node = src_node
        rec.dst_node = dst_node
        rec.tag = tag
        rec.payload = payload
        rec.post_time = post_time
        rec.complete_time = complete_time
        rec.token = token
    else:
        _pool_stats["misses"] += 1
        rec = CompletionRecord(
            kind, custom, nbytes, src_node, dst_node, tag, payload,
            post_time, complete_time, token,
        )
    rec._pooled = True
    return rec


def recycle_record(rec: CompletionRecord) -> None:
    """Return a pool-owned record to the free list (no-op otherwise).

    Clears the reference-carrying fields so the pool never pins payloads
    or tokens.  Safe against double-recycling: the first call clears the
    pool flag.
    """
    if not rec._pooled:
        return
    rec._pooled = False
    rec.tag = None
    rec.payload = None
    rec.token = None
    if len(_free_records) < _POOL_LIMIT:
        _free_records.append(rec)
        _pool_stats["recycled"] += 1
    else:
        _pool_stats["dropped"] += 1


class CompletionQueue:
    """Finite-depth completion queue with overflow accounting.

    ``push`` is a *process step*: it blocks (backpressure) while the
    queue is full, which is how an un-polled NIC degrades — exactly the
    failure mode the progress engine's sweepers (levels 0–3) and the
    Level-4 hardware offload exist to prevent.

    The queue has one slot for a **parked consumer** (:meth:`park`), the
    callback analogue of a process blocked in :meth:`get`: while it is
    set the queue is empty, and the next ``try_push`` / ``push`` hands
    its record straight to the consumer, which leaves the slot — no
    ``Store`` traffic and no getter event.  A queue nobody parked on is
    an ordinary ``Store``-backed FIFO.  Consuming (``park`` / ``get`` /
    ``poll`` / ``poll_batch`` / ``poll_batch_into``) is reserved to
    :class:`~repro.core.engine.ProgressEngine`; unrlint rule UNR007
    flags any other caller.

    Accounting, all readable attributes: ``n_pushed`` records accepted,
    ``high_water`` deepest the queue got, ``n_overflow_stalls`` pushes
    that found it full and ``stall_time`` the seconds they waited,
    ``stalled_until`` the end of an injected :meth:`stall` window.
    """

    __slots__ = (
        "env", "depth", "_store", "_parked",
        "high_water", "n_pushed", "n_overflow_stalls", "stall_time",
        "stalled_until",
    )

    def __init__(self, env: Environment, depth: int):
        self.env = env
        self.depth = depth
        self._store = Store(env, capacity=depth)
        self._parked: Optional[Callable[[CompletionRecord], None]] = None
        self.high_water = 0
        self.n_pushed = 0
        self.n_overflow_stalls = 0
        self.stall_time = 0.0
        self.stalled_until = 0.0

    @property
    def is_stalled(self) -> bool:
        return self.env.now < self.stalled_until

    def stall(self, until: float) -> None:
        """Suspend servicing (``poll``/``poll_batch``) until sim time
        ``until``.  A blocked ``get`` or a parked consumer still takes
        the next record; consumers must check :attr:`is_stalled`."""
        self.stalled_until = max(self.stalled_until, until)

    def __len__(self) -> int:
        return len(self._store)

    @property
    def is_full(self) -> bool:
        return self._store.is_full

    def push(self, record: CompletionRecord):
        """Generator: enqueue ``record``, stalling while the CQ is full."""
        consumer = self._parked
        if consumer is not None:
            # Parked means empty, so never full.  The timeout stands in
            # for the Store's put event and is created first, as the put
            # event precedes the getter's: with a zero dispatch delay the
            # pusher still resumes before the record is dispatched.
            self._parked = None
            queued = self.env.timeout(0.0)
            consumer(record)
            yield queued
        elif self._store.is_full:
            self.n_overflow_stalls += 1
            t0 = self.env.now
            yield self._store.put(record)
            self.stall_time += self.env.now - t0
        else:
            yield self._store.put(record)
        self.n_pushed += 1
        depth = len(self._store)
        if depth > self.high_water:
            self.high_water = depth

    def try_push(self, record: CompletionRecord) -> bool:
        """Synchronous fast-path enqueue; ``False`` when the CQ is full.

        The accounting matches :meth:`push` exactly, but no put event is
        scheduled.  A parked consumer takes the record on the spot (the
        depth stays 0, so ``high_water`` does not move); what it
        schedules is the one kernel event a delivery inherently costs.
        On ``False`` the caller must fall back to the blocking
        :meth:`push` so overflow keeps its backpressure semantics
        (stall counters, completion only after the record is queued).
        """
        consumer = self._parked
        if consumer is not None:
            self._parked = None
            self.n_pushed += 1
            consumer(record)
            return True
        if not self._store.put_nowait(record):
            return False
        self.n_pushed += 1
        depth = len(self._store)
        if depth > self.high_water:
            self.high_water = depth
        return True

    def park(
        self, consumer: Callable[[CompletionRecord], None]
    ) -> Optional[CompletionRecord]:
        """Wait for the next record without a process: the callback
        analogue of a blocked :meth:`get`.

        On an empty queue ``consumer`` is parked and ``None`` returned;
        the next push calls ``consumer(record)`` from inside the
        producer's own kernel event, so the consumer must only schedule
        its work, never run a handler there.  It is called once — park
        again for the record after.  A record already queued is popped
        and returned instead, as a ``get()`` on a non-empty queue is
        served at once, and nothing is parked.
        """
        if self._parked is not None:
            raise RuntimeError("completion queue already has a parked consumer")
        store = self._store
        if store.items:
            return store.try_get()
        self._parked = consumer
        return None

    def poll(self) -> Optional[CompletionRecord]:
        """Non-blocking: pop one record or return ``None``."""
        if self.is_stalled:
            return None
        return self._store.try_get()

    def poll_batch(self, limit: int = 64) -> list:
        """Pop up to ``limit`` records without blocking."""
        if self.is_stalled:
            return []
        out = []
        for _ in range(limit):
            rec = self._store.try_get()
            if rec is None:
                break
            out.append(rec)
        return out

    def poll_batch_into(self, buf: list, limit: int) -> int:
        """Drain up to ``limit`` records into the preallocated ``buf``.

        Allocation-free variant of :meth:`poll_batch` for the progress
        engine's batched sweep: returns the number of records written to
        ``buf[0:n]``.  Stalled CQs hold their records back, exactly like
        :meth:`poll_batch`.
        """
        if self.is_stalled:
            return 0
        store = self._store
        n = 0
        while n < limit:
            rec = store.try_get()
            if rec is None:
                break
            buf[n] = rec
            n += 1
        return n

    def get(self) -> Event:
        """Blocking pop for a consumer that is a process (an un-attached
        queue; the progress engine parks a callback instead)."""
        return self._store.get()


def _blocking_push(cq: CompletionQueue, record: CompletionRecord) -> Generator:
    """Overflow fallback: the blocking CQ push as its own process."""
    yield from cq.push(record)


def _push_then_resolve(
    cq: CompletionQueue, record: CompletionRecord, done: Event, value: Any
) -> Generator:
    """Overflow fallback preserving completion order: the ``done`` event
    must not fire until the record is actually queued.  ``value=None``
    resolves with the (possibly later) enqueue time, as a GET
    completes; a PUT passes its fixed ``tx_end``."""
    yield from cq.push(record)
    done.resolve(cq.env.now if value is None else value)


def _put_remote(ev: "_PutRemote") -> None:
    dst = ev.dst
    dst.rx_msgs += 1
    dst.rx_bytes += ev.nbytes
    if ev.on_deliver is not None:
        ev.on_deliver(ev.payload)
    action, record = ev.action, ev.record
    if action is not None and dst.atomic_offload:
        action()
    elif record is not None:
        record.complete_time = ev.env.now
        if not dst.cq.try_push(record):
            ev.env.process(_blocking_push(dst.cq, record), name="nic-put-remote")


def _get_remote(ev: "_GetRemote") -> None:
    dst = ev.dst
    if ev.fetch is not None:
        ev.fetched = ev.fetch()
    action, record = ev.action, ev.record
    if action is not None and dst.atomic_offload:
        action()
    elif record is not None:
        record.complete_time = ev.env.now
        if not dst.cq.try_push(record):
            ev.env.process(_blocking_push(dst.cq, record), name="nic-get-remote")


def _local_side(ev: "_LocalSide") -> None:
    nic = ev.nic
    if ev.on_deliver is not None:
        ev.on_deliver(ev.request.fetched)
    action, record = ev.action, ev.record
    if action is not None and nic.atomic_offload:
        action()
    elif record is not None:
        record.complete_time = ev.env.now
        if not nic.cq.try_push(record):
            ev.env.process(
                _push_then_resolve(nic.cq, record, ev.done, ev.value), name="nic-local"
            )
            return
    ev.done.resolve(ev.env.now if ev.value is None else ev.value)


# One posted wire message is two of these in the scheduler and nothing
# else: each side is a single queue entry whose event object carries the
# side's arguments (no closure, no per-event callback list).  ``action``
# is the side's Level-4 atomic, ``record`` its CQ entry.

class _PutRemote(InFlight):
    """Remote delivery of a PUT: the data lands in ``dst``'s memory."""

    __slots__ = ("dst", "nbytes", "on_deliver", "payload", "record", "action")
    handlers = (_put_remote,)


class _GetRemote(InFlight):
    """A GET's request reaches the target, which snapshots the data
    into ``fetched`` for the :class:`_LocalSide` of the pair."""

    __slots__ = ("dst", "fetch", "fetched", "record", "action")
    handlers = (_get_remote,)


class _LocalSide(InFlight):
    """Local completion: ``done`` resolves with ``value`` — a PUT's
    ``tx_end`` (source buffer reusable) — or, when that is ``None``,
    with the time a GET's data landed: what ``request`` fetched is
    delivered first."""

    __slots__ = ("nic", "done", "value", "request", "on_deliver", "record", "action")
    handlers = (_local_side,)


#: Routing-jitter draws fetched from a NIC's generator per refill.  Small
#: on purpose: 576 NICs hold a block each on the 288-node Figure 7 point.
_JITTER_BLOCK = 16


class Nic:  # unrlint: disable=UNR009
    """One RDMA-capable network interface.

    Deliberately un-slotted: the fault-injection and observability
    layers wrap a live NIC by *assigning* ``nic.post_put``/``nic.post_get``
    on the instance, which needs a ``__dict__``.  There is exactly one
    Nic per rail per node, so the per-instance dict is not a hot-path
    allocation the way records and events are.

    The frozen ``spec`` / ``fabric`` are written in engineering units;
    the constructor resolves every SI constant the post path reads
    (``bandwidth``, ``latency``, ``msg_overhead``, ``rx_overhead``,
    ``atomic_offload``, ``intra_bandwidth``, ``intra_latency``,
    ``small_cutoff``, ``routing_jitter``, ``global_id``) into plain
    attributes once, so a post computes with floats instead of
    re-deriving them through spec properties.  Its mutable state is
    plain attributes too: the busy-until horizons ``tx_free`` /
    ``rx_free`` / ``tx_msg_free`` and the traffic counters ``tx_msgs`` /
    ``tx_bytes`` / ``rx_msgs`` / ``rx_bytes``
    (:meth:`Cluster.total_traffic` sums them).

    Routing jitter is ``routing_jitter * serialization * u`` with ``u``
    the next double of the NIC's private generator — the value
    ``rng.uniform(0.0, routing_jitter * serialization)`` returns, since
    NumPy computes that as ``low + (high - low) * next_double``.  The
    doubles are fetched :data:`_JITTER_BLOCK` at a time (``rng.random``
    fills a block with consecutive ``next_double`` calls) and consumed
    in order, one per unordered inter-node post; ordered and intra-node
    posts consume none.  Nothing else may draw from ``rng`` once the NIC
    has posted.
    """

    def __init__(
        self,
        env: Environment,
        node: "Node",
        index: int,
        spec,
        fabric,
        rng: np.random.Generator,
    ):
        self.env = env
        self.node = node
        self.index = index
        self.spec = spec
        self.fabric = fabric
        self.rng = rng
        self.global_id = (node.index, index)
        self.bandwidth: float = spec.bandwidth
        self.latency: float = spec.latency
        self.msg_overhead: float = spec.msg_overhead
        self.rx_overhead: float = spec.rx_overhead
        self.atomic_offload: bool = spec.atomic_offload
        self.intra_bandwidth: float = fabric.intra_node_bandwidth
        self.intra_latency: float = fabric.intra_node_latency
        self.small_cutoff: int = fabric.small_message_cutoff
        self.routing_jitter: float = fabric.routing_jitter
        # Current block of jitter doubles and the next unread position
        # (starts exhausted: the first jittered post draws the block).
        self._jitter_u: list = []
        self._jitter_i = _JITTER_BLOCK
        # Busy-until horizons: tx / rx ports, message-issue (doorbell).
        self.tx_free = 0.0
        self.rx_free = 0.0
        self.tx_msg_free = 0.0
        self.tx_msgs = 0
        self.tx_bytes = 0
        self.rx_msgs = 0
        self.rx_bytes = 0
        self.cq = CompletionQueue(env, spec.cq_depth)
        # Fault injection: a failed rail delivers nothing (see
        # :mod:`repro.netsim.faults`); the happy path never sets this.
        self.failed = False
        # Per-source ordered-delivery horizon (for ordered=True traffic).
        self._ordered_horizon: dict = {}

    # ------------------------------------------------------------------
    def post_put(
        self,
        dst: "Nic",
        nbytes: int,
        *,
        payload: Any = None,
        on_deliver: Optional[Callable[[Any], None]] = None,
        local_record: Optional[CompletionRecord] = None,
        remote_record: Optional[CompletionRecord] = None,
        remote_action: Optional[Callable[[], None]] = None,
        local_action: Optional[Callable[[], None]] = None,
        ordered: bool = False,
    ) -> Event:
        """Post an RDMA write of ``nbytes`` to ``dst``.

        Returns an event that fires at *local completion* (source buffer
        reusable).  ``on_deliver(payload)`` runs at the instant the data
        lands in the destination memory.  ``remote_record`` /
        ``local_record`` are CQ entries to post; ``remote_action`` /
        ``local_action`` are Level-4 hardware atomic actions executed
        instead of (or in addition to) CQ entries when the corresponding
        NIC supports :attr:`~repro.netsim.spec.NicSpec.atomic_offload`.
        """
        if nbytes < 0:
            raise ValueError("nbytes must be non-negative")
        env = self.env
        now = env.now
        if dst.node is self.node:
            # Intra-node: a memcpy through shared memory — it does not
            # occupy the NIC tx/rx ports (real stacks use CMA/XPMEM).
            node = self.node
            start = max(now, node._loopback_free)
            tx_end = start + nbytes / self.intra_bandwidth
            node._loopback_free = tx_end
            deliver_at = tx_end + self.intra_latency
        else:
            serialization = nbytes / min(self.bandwidth, dst.bandwidth)
            overhead = self.msg_overhead
            latency = self.latency
            if nbytes <= self.small_cutoff:
                # Small messages interleave with bulk traffic at packet
                # granularity: they do not wait for the ports' bandwidth
                # busy-until windows — but they do consume the NIC's
                # message-issue rate (one doorbell/WQE per message).
                start = max(now, self.tx_msg_free)
                self.tx_msg_free = start + overhead
                tx_end = start + overhead + serialization
                deliver_at = tx_end + latency + dst.rx_overhead
            else:
                tx_start = max(now, self.tx_free)
                tx_end = tx_start + overhead + serialization
                self.tx_free = tx_end
                first_byte = tx_start + overhead + latency
                rx_start = max(first_byte, dst.rx_free)
                dst.rx_free = rx_start + serialization
                deliver_at = (
                    max(tx_end + latency, rx_start + serialization)
                    + dst.rx_overhead
                )
            if not ordered:
                # Adaptive routing: one draw per unordered wire message.
                i = self._jitter_i
                if i == _JITTER_BLOCK:
                    self._jitter_u = self.rng.random(_JITTER_BLOCK).tolist()
                    i = 0
                self._jitter_i = i + 1
                deliver_at += (self.routing_jitter * serialization) * self._jitter_u[i]
        if ordered:
            key = self.global_id
            horizon = dst._ordered_horizon
            deliver_at = max(deliver_at, horizon.get(key, 0.0))
            horizon[key] = deliver_at

        self.tx_msgs += 1
        self.tx_bytes += nbytes
        done = Event(env)

        local = _LocalSide(env, tx_end - now)
        local.nic = self
        local.done = done
        local.value = tx_end
        local.on_deliver = None
        local.record = local_record
        local.action = local_action
        remote = _PutRemote(env, deliver_at - now)
        remote.dst = dst
        remote.nbytes = nbytes
        remote.on_deliver = on_deliver
        remote.payload = payload
        remote.record = remote_record
        remote.action = remote_action
        return done

    # ------------------------------------------------------------------
    def post_get(
        self,
        dst: "Nic",
        nbytes: int,
        *,
        fetch: Optional[Callable[[], Any]] = None,
        on_deliver: Optional[Callable[[Any], None]] = None,
        local_record: Optional[CompletionRecord] = None,
        remote_record: Optional[CompletionRecord] = None,
        local_action: Optional[Callable[[], None]] = None,
        remote_action: Optional[Callable[[], None]] = None,
    ) -> Event:
        """Post an RDMA read of ``nbytes`` from ``dst`` (round trip).

        ``fetch()`` snapshots the remote data when the request reaches
        the target; ``on_deliver(data)`` lands it locally.  The returned
        event fires at local completion (data available).
        """
        if nbytes < 0:
            raise ValueError("nbytes must be non-negative")
        env = self.env
        now = env.now
        intra = dst.node is self.node
        if intra:
            bw, latency = self.intra_bandwidth, self.intra_latency
        else:
            bw, latency = min(self.bandwidth, dst.bandwidth), self.latency
        # Request leg: minimal message.
        tx_start = max(now, self.tx_free)
        req_end = tx_start + self.msg_overhead
        self.tx_free = req_end
        req_arrive = req_end + latency
        # Response leg: target injects the data back.
        serialization = nbytes / bw
        resp_overhead = dst.msg_overhead
        resp_start = max(req_arrive, dst.tx_free)
        resp_end = resp_start + resp_overhead + serialization
        dst.tx_free = resp_end
        rx_start = max(resp_start + resp_overhead + latency, self.rx_free)
        self.rx_free = rx_start + serialization
        deliver_at = (
            max(resp_end + latency, rx_start + serialization) + self.rx_overhead
        )
        if not intra:
            i = self._jitter_i
            if i == _JITTER_BLOCK:
                self._jitter_u = self.rng.random(_JITTER_BLOCK).tolist()
                i = 0
            self._jitter_i = i + 1
            deliver_at += (self.routing_jitter * serialization) * self._jitter_u[i]

        self.tx_msgs += 1
        dst.tx_msgs += 1
        dst.tx_bytes += nbytes
        self.rx_msgs += 1
        self.rx_bytes += nbytes
        done = Event(env)
        request = _GetRemote(env, resp_end - now)
        request.dst = dst
        request.fetch = fetch
        request.fetched = None
        request.record = remote_record
        request.action = remote_action
        local = _LocalSide(env, deliver_at - now)
        local.nic = self
        local.done = done
        local.value = None
        local.request = request
        local.on_deliver = on_deliver
        local.record = local_record
        local.action = local_action
        return done

    def __repr__(self) -> str:
        return f"<Nic node={self.node.index} rail={self.index}>"
