"""The :class:`Recorder`: process-wide event/span/metric registry.

Every layer of the reproduction emits into one recorder attached to the
cluster — the sim kernel (event dispatch counts, heap depth), netsim
(fragment lifecycles, per-rail utilisation, CQ depth/stalls, fault
events), the UNR core (plan spans, signal wait→notify latency, poll
iterations, custom-bit overflow fallbacks), the MPI substrate
(eager/rendezvous choice, collective phases) and the reliability layer
(retransmits, failovers, dedup hits).

Design rules, in priority order:

1. **Passive.**  Recording is synchronous appends into Python
   lists/dicts.  The recorder never schedules simulation events, never
   consumes RNG draws, and never reads a wall clock (timestamps come
   from ``env.now`` only — statically enforced by unrlint rule UNR006).
   An armed run is therefore trace-fingerprint-identical to a disarmed
   one, the same guarantee as :class:`~repro.analysis.sanitizer.UnrSanitizer`.
2. **Chokepointed.**  Hot paths pay one ``None`` check when disarmed;
   bulk statistics (NIC counters, CQ high-water marks, ``Unr.stats``,
   fault-injector tallies) are *pulled* by snapshot-time collectors
   instead of being pushed per event.
3. **Deterministic output.**  ``snapshot()`` and the exporters in
   :mod:`repro.obs.export` sort every key, so two identical runs
   produce byte-identical artifacts.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Callable, Dict, List, Optional

from ..sim import Environment
from .spans import SpanHandle, SpanLog

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..netsim.trace import TraceRecord

__all__ = ["Histogram", "InstantEvent", "OpRecord", "ProtoEvent", "Recorder"]


@dataclass
class Histogram:
    """Aggregate of one observed quantity, with exact percentiles.

    Values are retained (simulation runs are bounded, and exact
    quantiles beat approximate sketches for regression gating), so
    :meth:`stats` can report true nearest-rank p50/p95/p99.  The
    streaming min/max/total are still maintained incrementally to keep
    :meth:`add` a few plain statements on the hot path.
    """

    count: int = 0
    total: float = 0.0
    vmin: Optional[float] = None
    vmax: Optional[float] = None
    values: List[float] = field(default_factory=list)

    def add(self, value: float) -> None:
        self.count += 1
        self.total += value
        self.values.append(value)
        if self.vmin is None or value < self.vmin:
            self.vmin = value
        if self.vmax is None or value > self.vmax:
            self.vmax = value

    def percentile(self, q: float) -> Optional[float]:
        """Exact nearest-rank percentile (``q`` in [0, 100])."""
        if not self.values:
            return None
        ordered = sorted(self.values)
        rank = max(1, -(-len(ordered) * q // 100))  # ceil without floats
        return ordered[int(rank) - 1]

    def stats(self) -> Dict[str, Any]:
        if self.values:
            ordered = sorted(self.values)
            n = len(ordered)
            ranks = {q: ordered[max(1, -(-n * q // 100)) - 1] for q in (50, 95, 99)}
        else:
            ranks = {50: None, 95: None, 99: None}
        return {
            "count": self.count,
            "sum": self.total,
            "min": self.vmin,
            "max": self.vmax,
            "mean": (self.total / self.count) if self.count else None,
            "p50": ranks[50],
            "p95": ranks[95],
            "p99": ranks[99],
        }


@dataclass
class InstantEvent:
    """A point-in-time marker (a retransmit, a rail failure, …)."""

    t: float
    track: str
    name: str
    args: Dict[str, Any] = field(default_factory=dict)


#: (rank, mr_handle, offset, size) — one absolute byte interval of a
#: registered memory region, as read or written by an operation.
MrInterval = "Tuple[int, int, int, int]"


@dataclass(slots=True)
class OpRecord:
    """Op-level metadata for one posted transfer fragment (unrverify).

    Where :class:`~repro.netsim.trace.TraceRecord` captures the *wire*
    view (which fragment crossed which rail when), an ``OpRecord``
    captures the *protocol* view: which MR interval the fragment reads
    and writes, which signal ids it notifies and with which idempotence
    tokens.  ``seq`` is a recorder-wide monotone sequence number (see
    :meth:`Recorder.next_seq`) giving a total order consistent with
    execution order across the ``ops`` and ``protocol`` streams;
    ``deliver_seq``/``deliver_time`` are stamped at first delivery
    (retransmit and duplicate deliveries do not restamp).
    """

    seq: int
    op_id: int
    kind: str            # 'put' | 'get' | 'ctrl'
    lane: str            # 'rma' | 'fallback' | 'ctrl'
    src_rank: int
    dst_rank: int
    #: rank whose memory the delivery lands in (PUT: dst, GET: src).
    deliver_rank: int
    nbytes: int
    post_time: float
    rail: int = 0
    frag_index: int = 0
    #: MR interval written on delivery ((rank, mr, offset, size)).
    write: Any = None
    #: MR interval read at post time.
    read: Any = None
    rsid: Any = None
    lsid: Any = None
    #: node index hosting the remote (``rsid``/``ctrl_sid``) and local
    #: (``lsid``) signal — the signal-table coordinates the HB builder
    #: matches ``add`` events against.
    rnode: Any = None
    lnode: Any = None
    rtok: Any = None
    ltok: Any = None
    ctrl_sid: Any = None
    #: ctrl payload tag (``send_ctl``), for matching ``ctrl_recv`` events.
    tag: Any = None
    deliver_time: Any = None
    deliver_seq: Any = None


@dataclass(slots=True)
class ProtoEvent:
    """One notification-protocol event (unrverify).

    Kinds: ``add`` (an MMAS counter add applied — or suppressed as a
    duplicate — at ``(node, sid)``), ``wait`` (a ``sig_wait`` completed;
    ``t0`` is when the wait began), ``reset``, ``sig_init``,
    ``sig_free``, ``ctrl_recv`` (a ``recv_ctl`` resumed; ``peer``/
    ``tag`` identify the matched sender) and ``stray_add`` (an add
    targeting an unregistered sid).
    """

    seq: int
    kind: str
    t: float
    rank: int
    node: int = -1
    sid: int = -1
    addend: int = 0
    token: Any = None
    applied: bool = True
    triggered: bool = False
    num_event: int = 0
    t0: float = 0.0
    peer: int = -1
    tag: Any = None


class Recorder:
    """One process-wide registry of counters, gauges, histograms,
    instant events, spans and NIC transfer records.

    Attach with :meth:`attach` (idempotent per cluster) or implicitly
    via ``Unr(..., observe=True)``.
    """

    def __init__(self, env: Environment) -> None:
        self.env = env
        self.counters: Dict[str, int] = {}
        self.gauges: Dict[str, float] = {}
        self.histograms: Dict[str, Histogram] = {}
        self.events: List[InstantEvent] = []
        self.spans = SpanLog(env)
        #: NIC transfer log (:class:`~repro.netsim.trace.TraceRecord`),
        #: appended by :mod:`repro.obs.instrument`; digest it with
        #: :func:`~repro.netsim.trace.transfer_fingerprint`.
        self.transfers: List["TraceRecord"] = []
        #: op-level protocol metadata (unrverify layer 1): one
        #: :class:`OpRecord` per posted transfer fragment, and one
        #: :class:`ProtoEvent` per notification-protocol action.
        #: Deliberately *not* surfaced in :meth:`snapshot` — the bench
        #: artifacts stay byte-stable across this addition.
        self.ops: List[OpRecord] = []
        self.protocol: List[ProtoEvent] = []
        self._seq = 0
        self._collectors: List[Callable[[], Dict[str, float]]] = []
        self._sim_events = 0
        self._sim_heap_max = 0

    # -- attach ------------------------------------------------------------
    @classmethod
    def attach(cls, cluster: Any, recorder: Optional["Recorder"] = None) -> "Recorder":
        """Arm observation on ``cluster`` (idempotent).

        The first attach wraps every NIC's post methods (outermost, so a
        :class:`~repro.netsim.faults.FaultInjector` attached earlier
        stays innermost and the recorder sees post-fault delivery
        times), hooks the sim kernel's step counter, registers the
        pull-collectors, and publishes the recorder as ``cluster.obs``.
        Subsequent attaches return the existing recorder — a transfer is
        recorded exactly once no matter how many observers exist.
        """
        existing = getattr(cluster, "obs", None)
        if existing is not None:
            if recorder is not None and recorder is not existing:
                raise ValueError(
                    "cluster already has a recorder attached; cannot attach another"
                )
            return existing
        rec = recorder if recorder is not None else cls(cluster.env)
        cluster.obs = rec
        cluster.env.obs = rec
        from .instrument import instrument_cluster

        instrument_cluster(rec, cluster)
        return rec

    # -- metrics -----------------------------------------------------------
    def count(self, name: str, n: int = 1) -> None:
        """Increment counter ``name`` by ``n``."""
        self.counters[name] = self.counters.get(name, 0) + n

    def gauge(self, name: str, value: float) -> None:
        """Set gauge ``name`` to its latest ``value``."""
        self.gauges[name] = value

    def gauge_max(self, name: str, value: float) -> None:
        """Keep the running maximum of ``value`` in gauge ``name``."""
        if value > self.gauges.get(name, float("-inf")):
            self.gauges[name] = value

    def observe(self, name: str, value: float) -> None:
        """Feed ``value`` into histogram ``name``."""
        hist = self.histograms.get(name)
        if hist is None:
            hist = self.histograms[name] = Histogram()
        hist.add(value)

    # -- events & spans ----------------------------------------------------
    def event(self, name: str, track: str = "events", **args: Any) -> None:
        """Record an instant marker at the current simulated time."""
        self.events.append(InstantEvent(t=self.env.now, track=track, name=name, args=args))

    def span(self, track: str, name: str, cat: str = "span", **args: Any) -> SpanHandle:
        """Open a span on ``track``; close with ``.end()`` or ``with``."""
        return self.spans.begin(track, name, cat=cat, **args)

    def complete_span(
        self, track: str, name: str, t0: float, t1: float,
        cat: str = "span", **args: Any,
    ) -> None:
        """Record a span with known bounds (retroactive)."""
        self.spans.add_complete(track, name, t0, t1, cat=cat, **args)

    # -- op / protocol streams (unrverify) ---------------------------------
    def next_seq(self) -> int:
        """Recorder-wide monotone sequence number.

        Stamped on every :class:`OpRecord` / :class:`ProtoEvent` (and on
        delivery), giving one total order consistent with execution
        order across both streams — the backbone of the happens-before
        graph in :mod:`repro.analysis.verify`.
        """
        self._seq += 1
        return self._seq

    def record_op(self, **kw: Any) -> "OpRecord":
        """Append one :class:`OpRecord` (stamped with the next seq)."""
        rec = OpRecord(seq=self.next_seq(), **kw)
        self.ops.append(rec)
        return rec

    def record_proto(self, kind: str, **kw: Any) -> "ProtoEvent":
        """Append one :class:`ProtoEvent` at the current simulated time."""
        ev = ProtoEvent(seq=self.next_seq(), kind=kind, t=self.env.now, **kw)
        self.protocol.append(ev)
        return ev

    # -- sim-kernel hook (hot path: two plain statements) ------------------
    def on_sim_step(self, heap_depth: int) -> None:
        """Called by the ``Environment.run`` loop for every dispatched event."""
        self._sim_events += 1
        if heap_depth > self._sim_heap_max:
            self._sim_heap_max = heap_depth

    # -- collectors & snapshot ---------------------------------------------
    def add_collector(self, fn: Callable[[], Dict[str, float]]) -> None:
        """Register a pull-collector merged into ``snapshot()`` counters."""
        self._collectors.append(fn)

    def snapshot(self) -> Dict[str, Any]:
        """One deterministic dict of everything recorded so far.

        Collector outputs are summed into the counters (a collector runs
        at snapshot time and costs the hot path nothing); all keys are
        sorted so the dict — and anything serialized from it — is stable
        across identical runs.
        """
        counters: Dict[str, float] = dict(self.counters)
        counters["sim.events"] = self._sim_events
        for collect in self._collectors:
            for key, value in collect().items():
                counters[key] = counters.get(key, 0) + value
        gauges = dict(self.gauges)
        gauges["sim.heap_depth_max"] = self._sim_heap_max
        return {
            "t_end": self.env.now,
            "counters": {k: counters[k] for k in sorted(counters)},
            "gauges": {k: gauges[k] for k in sorted(gauges)},
            "histograms": {k: self.histograms[k].stats() for k in sorted(self.histograms)},
            "n_events": len(self.events),
            "n_spans": len(self.spans),
            "n_transfers": len(self.transfers),
        }

    def __repr__(self) -> str:
        return (
            f"<Recorder t={self.env.now:.6g} transfers={len(self.transfers)} "
            f"spans={len(self.spans)} events={len(self.events)}>"
        )
