"""Deterministic fault injection for the simulated fabric.

The happy-path cluster model delivers every fragment exactly once.  This
module wraps the NICs of a :class:`~repro.netsim.cluster.Cluster` (the
same interception idiom as the :class:`~repro.obs.Recorder`) and
subjects unordered RDMA traffic to a *fault schedule*:

* **drop** — the fragment never reaches the destination (its wire time
  is still consumed; the sender's local completion still fires, exactly
  like a real lossy fabric);
* **duplicate** — the fragment is delivered twice, the replica after an
  extra delay (adaptive-routing ghost);
* **delay / reorder** — extra delivery latency, drawn per fragment, so
  fragments overtake one another;
* **corrupt** — the payload is damaged in flight.  With ``crc=True``
  (default) the receiving NIC's link-level CRC discards the frame — a
  corruption behaves like a drop with its own counter.  With
  ``crc=False`` the garbage is delivered *and notified*, for testing
  end-to-end detection;
* **rail_fail@t** — at simulated time ``t`` a whole NIC dies: frames
  still in flight to or from it are lost, and later posts on it never
  reach the wire;
* **cq_stall@t:dur** — a completion queue stops being serviced for a
  window, delaying every notification behind it;
* **endpoint_down@t:dur** — *every* rail of one node dies at ``t`` and
  recovers at ``t + dur`` (switch reboot, firmware hiccup): the RMA
  plane to that peer is dark for the window but the ordered/fallback
  lane survives — the scenario the health monitor degrades around;
* **node_crash@t** — fail-stop: the node goes permanently dark, rails
  *and* the ordered/fallback lane included.  Nothing posted to or from
  it delivers again; with the health layer armed the library raises
  :class:`~repro.core.errors.UnrPeerDeadError` instead of hanging;
* **link_flap@t:down** — one rail oscillates: ``n`` cycles of ``down``
  microseconds dead, then alive again, spaced ``period`` apart;
* **partition@t:dur:a:b** — control-plane partition: for the window the
  *ordered* lane (heartbeats, Level-0 control, BLK exchange, the MPI
  fallback) drops every message crossing between node sets ``a`` and
  ``b`` (``a=0+1:b=2+3``) while the unordered RDMA data rails stay up.
  The replication tier's suspicion counters climb on the silenced
  heartbeats, but promotion requires the fail-stop confirmation — this
  is the false-positive scenario a K-missed-heartbeats detector must
  survive.

Determinism and replay
----------------------
Every decision is drawn from one seeded ``numpy.random.Generator`` *at
post time*, in event order, and every deferred effect is scheduled on
the simulation's event heap.  Two runs of the same program with the
same :class:`FaultSpec` therefore produce bit-identical timelines — a
failing schedule is reproduced by its ``(spec, seed)`` pair alone.

Ordered traffic (``ordered=True`` posts: the Level-0 control channel,
BLK exchange, the MPI fallback) is exempt by default — it models a
reliable, order-preserving virtual lane.  Set ``fault_ordered=True`` to
subject it to the schedule as well.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, replace
from typing import Callable, Optional, Set, Tuple

import numpy as np

from .nic import CompletionRecord, Nic
from ..units import US

__all__ = [
    "RailFailure",
    "CqStall",
    "NodeCrash",
    "EndpointDown",
    "LinkFlap",
    "Partition",
    "FaultSpec",
    "FaultInjector",
]

DEFAULT_FAULT_SEED = 0xFA117


@dataclass(frozen=True)
class RailFailure:
    """Kill one NIC at ``time_us``; ``node``/``rail`` default to a
    deterministic draw from the injector's generator."""

    time_us: float
    node: Optional[int] = None
    rail: Optional[int] = None


@dataclass(frozen=True)
class CqStall:
    """Stop servicing one CQ for ``duration_us`` starting at ``time_us``."""

    time_us: float
    duration_us: float
    node: Optional[int] = None
    rail: Optional[int] = None


@dataclass(frozen=True)
class NodeCrash:
    """Fail-stop: at ``time_us`` the whole node goes permanently dark —
    every rail NIC dies and even the ordered (control/fallback) lane
    drops traffic to and from it.  ``node`` defaults to a deterministic
    draw from the injector's generator."""

    time_us: float
    node: Optional[int] = None


@dataclass(frozen=True)
class EndpointDown:
    """Every rail of one node dies at ``time_us`` and recovers at
    ``time_us + duration_us``.  The ordered/fallback lane stays up —
    this is the graceful-degradation scenario, not a fail-stop."""

    time_us: float
    duration_us: float
    node: Optional[int] = None

    def __post_init__(self) -> None:
        if self.duration_us <= 0.0:
            raise ValueError(f"endpoint_down duration_us={self.duration_us} must be > 0")


@dataclass(frozen=True)
class LinkFlap:
    """One rail oscillates: ``n_flaps`` cycles of ``down_us`` dead then
    alive again, cycle starts spaced ``period_us`` apart (defaults to
    ``2 * down_us``)."""

    time_us: float
    down_us: float
    node: Optional[int] = None
    rail: Optional[int] = None
    n_flaps: int = 1
    period_us: Optional[float] = None

    def __post_init__(self) -> None:
        if self.down_us <= 0.0:
            raise ValueError(f"link_flap down_us={self.down_us} must be > 0")
        if self.n_flaps < 1:
            raise ValueError(f"link_flap n_flaps={self.n_flaps} must be >= 1")
        period = self.period_us if self.period_us is not None else 2.0 * self.down_us
        if period < self.down_us:
            raise ValueError(
                f"link_flap period_us={period} shorter than down_us={self.down_us}"
            )

    @property
    def period(self) -> float:
        return self.period_us if self.period_us is not None else 2.0 * self.down_us


@dataclass(frozen=True)
class Partition:
    """Control-plane partition between node sets ``a`` and ``b``: from
    ``time_us`` for ``duration_us`` every *ordered*-lane message crossing
    the cut is dropped (heartbeats, control, fallback), while unordered
    RDMA data traffic is untouched.  Membership is checked at delivery
    time, so frames in flight when the partition opens are lost too."""

    time_us: float
    duration_us: float
    a: Tuple[int, ...] = ()
    b: Tuple[int, ...] = ()

    def __post_init__(self) -> None:
        if self.duration_us <= 0.0:
            raise ValueError(f"partition duration_us={self.duration_us} must be > 0")
        if not self.a or not self.b:
            raise ValueError("partition needs both node sets (a=..:b=..)")
        if set(self.a) & set(self.b):
            raise ValueError(
                f"partition sets overlap: {sorted(set(self.a) & set(self.b))}"
            )


@dataclass(frozen=True)
class FaultSpec:
    """One fault schedule.  Probabilities are per *fragment*; times are
    in microseconds of simulated time."""

    drop: float = 0.0
    duplicate: float = 0.0
    delay: float = 0.0
    delay_us: float = 5.0
    corrupt: float = 0.0
    reorder: float = 0.0
    reorder_us: float = 3.0
    rail_failures: Tuple[RailFailure, ...] = ()
    cq_stalls: Tuple[CqStall, ...] = ()
    node_crashes: Tuple[NodeCrash, ...] = ()
    endpoint_downs: Tuple[EndpointDown, ...] = ()
    link_flaps: Tuple[LinkFlap, ...] = ()
    partitions: Tuple[Partition, ...] = ()
    seed: int = DEFAULT_FAULT_SEED
    #: link-level CRC: corrupted frames are discarded at the receiver
    #: (like real fabrics) instead of delivering garbage.
    crc: bool = True
    #: also fault ordered (control-channel / fallback) traffic.
    fault_ordered: bool = False

    def __post_init__(self) -> None:
        for name in ("drop", "duplicate", "delay", "corrupt", "reorder"):
            p = getattr(self, name)
            if not 0.0 <= p <= 1.0:
                raise ValueError(f"{name}={p} is not a probability")

    @property
    def is_noop(self) -> bool:
        return (
            self.drop == self.duplicate == self.delay == 0.0
            and self.corrupt == self.reorder == 0.0
            and not self.rail_failures
            and not self.cq_stalls
            and not self.node_crashes
            and not self.endpoint_downs
            and not self.link_flaps
            and not self.partitions
        )

    # ------------------------------------------------------------------
    @classmethod
    def parse(cls, text: str, *, seed: Optional[int] = None) -> "FaultSpec":
        """Parse a spec string like
        ``"drop=0.3,reorder=0.2,rail_fail@t=5.0,cq_stall@t=3:dur=10"``.

        Comma-separated tokens; event tokens (``rail_fail``, ``cq_stall``,
        ``node_crash``, ``endpoint_down``, ``link_flap``, ``partition``)
        take colon-separated options (``t``, ``dur``, ``node``, ``rail``,
        ``down``, ``n``, ``period``; ``partition`` takes ``+``-separated
        node sets ``a``/``b``, e.g. ``partition@t=40:dur=100:a=0+1:b=2+3``).
        """
        kwargs: dict = {}
        rails: list = []
        stalls: list = []
        crashes: list = []
        downs: list = []
        flaps: list = []
        cuts: list = []
        aliases = {"dup": "duplicate", "ordered": "fault_ordered"}
        event_tokens = (
            "rail_fail@", "cq_stall@", "node_crash@", "endpoint_down@",
            "link_flap@", "partition@",
        )
        for token in (t.strip() for t in text.split(",") if t.strip()):
            if token.startswith(event_tokens):
                name, _, rest = token.partition("@")
                opts = {}
                for part in rest.split(":"):
                    k, _, v = part.partition("=")
                    if not v:
                        raise ValueError(f"bad fault option {part!r} in {token!r}")
                    if name == "partition" and k.strip() in ("a", "b"):
                        opts[k.strip()] = tuple(int(x) for x in v.split("+"))
                    else:
                        opts[k.strip()] = float(v)
                try:
                    if name == "rail_fail":
                        rails.append(RailFailure(
                            time_us=opts.pop("t"),
                            node=_opt_int(opts, "node"),
                            rail=_opt_int(opts, "rail"),
                        ))
                    elif name == "cq_stall":
                        stalls.append(CqStall(
                            time_us=opts.pop("t"),
                            duration_us=opts.pop("dur"),
                            node=_opt_int(opts, "node"),
                            rail=_opt_int(opts, "rail"),
                        ))
                    elif name == "node_crash":
                        crashes.append(NodeCrash(
                            time_us=opts.pop("t"),
                            node=_opt_int(opts, "node"),
                        ))
                    elif name == "endpoint_down":
                        downs.append(EndpointDown(
                            time_us=opts.pop("t"),
                            duration_us=opts.pop("dur"),
                            node=_opt_int(opts, "node"),
                        ))
                    elif name == "partition":
                        cuts.append(Partition(
                            time_us=opts.pop("t"),
                            duration_us=opts.pop("dur"),
                            a=tuple(opts.pop("a", ())),
                            b=tuple(opts.pop("b", ())),
                        ))
                    else:
                        flaps.append(LinkFlap(
                            time_us=opts.pop("t"),
                            down_us=opts.pop("down"),
                            node=_opt_int(opts, "node"),
                            rail=_opt_int(opts, "rail"),
                            n_flaps=_opt_int(opts, "n") or 1,
                            period_us=opts.pop("period", None),
                        ))
                except KeyError as exc:
                    raise ValueError(f"{token!r} is missing required option {exc}") from None
                if opts:
                    raise ValueError(f"unknown options {sorted(opts)} in {token!r}")
                continue
            key, _, value = token.partition("=")
            key = aliases.get(key.strip(), key.strip())
            if not value:
                raise ValueError(f"bad fault token {token!r} (expected key=value)")
            if key in ("drop", "duplicate", "delay", "delay_us",
                       "corrupt", "reorder", "reorder_us"):
                kwargs[key] = float(value)
            elif key == "seed":
                kwargs[key] = int(value, 0)
            elif key in ("crc", "fault_ordered"):
                kwargs[key] = value.strip().lower() in ("1", "true", "yes", "on")
            else:
                raise ValueError(f"unknown fault key {key!r}")
        if seed is not None and "seed" not in kwargs:
            kwargs["seed"] = seed
        return cls(
            rail_failures=tuple(rails),
            cq_stalls=tuple(stalls),
            node_crashes=tuple(crashes),
            endpoint_downs=tuple(downs),
            link_flaps=tuple(flaps),
            partitions=tuple(cuts),
            **kwargs,
        )


def _opt_int(opts: dict, key: str) -> Optional[int]:
    return int(opts.pop(key)) if key in opts else None


@dataclass
class _Fate:
    """The complete, pre-drawn destiny of one fragment."""

    drop: bool = False
    duplicate: bool = False
    corrupt: bool = False
    extra: float = 0.0  # seconds of added delivery delay
    dup_gap: float = 0.0  # seconds between the original and the replica
    corrupt_frac: float = 0.0  # position of the damaged byte


class FaultInjector:
    """Wraps every NIC of a cluster and applies a :class:`FaultSpec`.

    Attach *before* the :class:`~repro.obs.Recorder` so its transfer
    log observes post-fault delivery times (dropped fragments keep
    ``deliver_time=None`` and show up in ``transfer_summary``'s
    ``n_dropped``).
    """

    def __init__(self, cluster, spec: FaultSpec):
        self.cluster = cluster
        self.env = cluster.env
        self.spec = spec
        self.rng = np.random.default_rng(spec.seed)
        self.stats: Counter = Counter()
        self.failed_rails: Set[tuple] = set()
        # Registry used by the observability layer's fault collector
        # (several injectors may be attached to one cluster).
        injectors = getattr(cluster, "fault_injectors", None)
        if injectors is None:
            injectors = []
            cluster.fault_injectors = injectors
        injectors.append(self)
        #: active partition windows: (start_s, end_s, set_a, set_b)
        self._partitions: list = [
            (
                p.time_us * US,
                (p.time_us + p.duration_us) * US,
                frozenset(p.a),
                frozenset(p.b),
            )
            for p in spec.partitions
        ]
        self._schedule_rail_failures()
        self._schedule_cq_stalls()
        self._schedule_node_crashes()
        self._schedule_endpoint_downs()
        self._schedule_link_flaps()
        self._schedule_partitions()
        # Wrap NICs as their nodes materialize (lazy cluster).  The hook
        # applies immediately to already-built nodes, so attaching the
        # injector before the Recorder keeps the fault wrapper innermost
        # exactly as the historical eager loop did.
        add_hook = getattr(cluster, "add_node_hook", None)
        if add_hook is not None:
            add_hook(self._wrap_node)
        else:  # plain/eager cluster stand-ins (tests)
            for node in cluster.nodes:
                self._wrap_node(node)

    def _wrap_node(self, node) -> None:
        for nic in node.nics:
            self._wrap(nic)

    @classmethod
    def attach(cls, cluster, spec: FaultSpec) -> "FaultInjector":
        return cls(cluster, spec)

    # -- scheduled events --------------------------------------------------
    def _schedule_rail_failures(self) -> None:
        for rf in self.spec.rail_failures:
            node_idx = rf.node if rf.node is not None else int(
                self.rng.integers(self.cluster.n_nodes)
            )
            node = self.cluster.node(node_idx)
            rail = rf.rail if rf.rail is not None else int(
                self.rng.integers(node.n_rails)
            )
            nic = node.nics[rail % node.n_rails]
            when = max(rf.time_us * US - self.env.now, 0.0)
            evt = self.env.timeout(when)
            evt.callbacks.append(lambda _e, n=nic: self._fail_rail(n))

    def _fail_rail(self, nic: Nic) -> None:
        if not nic.failed:
            nic.failed = True
            self.failed_rails.add(nic.global_id)
            self.stats["rail_failures"] += 1
            obs = getattr(self.cluster, "obs", None)
            if obs is not None:
                obs.event(
                    "fault.rail_fail", track="faults",
                    node=nic.node.index, rail=nic.index,
                )

    def _recover_rail(self, nic: Nic) -> None:
        """Bring a failed NIC back (endpoint recovery / link-flap up)."""
        if nic.failed and not nic.node.crashed:
            nic.failed = False
            self.failed_rails.discard(nic.global_id)
            self.stats["rails_recovered"] += 1
            obs = getattr(self.cluster, "obs", None)
            if obs is not None:
                obs.event(
                    "fault.rail_recover", track="faults",
                    node=nic.node.index, rail=nic.index,
                )

    def _schedule_node_crashes(self) -> None:
        for nc in self.spec.node_crashes:
            node_idx = nc.node if nc.node is not None else int(
                self.rng.integers(self.cluster.n_nodes)
            )
            node = self.cluster.node(node_idx)
            when = max(nc.time_us * US - self.env.now, 0.0)

            def crash(_e, node=node):
                if node.crashed:
                    return
                node.crashed = True
                self.stats["node_crashes"] += 1
                for nic in node.nics:
                    self._fail_rail(nic)
                obs = getattr(self.cluster, "obs", None)
                if obs is not None:
                    obs.event("fault.node_crash", track="faults", node=node.index)

            evt = self.env.timeout(when)
            evt.callbacks.append(crash)

    def _schedule_endpoint_downs(self) -> None:
        for ed in self.spec.endpoint_downs:
            node_idx = ed.node if ed.node is not None else int(
                self.rng.integers(self.cluster.n_nodes)
            )
            node = self.cluster.node(node_idx)
            when = max(ed.time_us * US - self.env.now, 0.0)
            dur = ed.duration_us * US

            def down(_e, node=node):
                self.stats["endpoint_downs"] += 1
                for nic in node.nics:
                    self._fail_rail(nic)
                obs = getattr(self.cluster, "obs", None)
                if obs is not None:
                    obs.event(
                        "fault.endpoint_down", track="faults",
                        node=node.index, dur_us=dur / US,
                    )

            def up(_e, node=node):
                self.stats["endpoint_recoveries"] += 1
                for nic in node.nics:
                    self._recover_rail(nic)
                obs = getattr(self.cluster, "obs", None)
                if obs is not None:
                    obs.event("fault.endpoint_up", track="faults", node=node.index)

            self.env.timeout(when).callbacks.append(down)
            self.env.timeout(when + dur).callbacks.append(up)

    def _schedule_link_flaps(self) -> None:
        for lf in self.spec.link_flaps:
            node_idx = lf.node if lf.node is not None else int(
                self.rng.integers(self.cluster.n_nodes)
            )
            node = self.cluster.node(node_idx)
            rail = lf.rail if lf.rail is not None else int(
                self.rng.integers(node.n_rails)
            )
            nic = node.nics[rail % node.n_rails]
            period = lf.period * US
            down_dur = lf.down_us * US
            start = max(lf.time_us * US - self.env.now, 0.0)

            def flap_down(_e, nic=nic):
                self.stats["link_flaps"] += 1
                self._fail_rail(nic)
                obs = getattr(self.cluster, "obs", None)
                if obs is not None:
                    obs.event(
                        "fault.link_flap", track="faults",
                        node=nic.node.index, rail=nic.index,
                    )

            def flap_up(_e, nic=nic):
                self._recover_rail(nic)

            for i in range(lf.n_flaps):
                self.env.timeout(start + i * period).callbacks.append(flap_down)
                self.env.timeout(start + i * period + down_dur).callbacks.append(flap_up)

    def _schedule_partitions(self) -> None:
        """Observability markers only — the cut itself is evaluated per
        delivery against the time windows in ``self._partitions``."""
        for p in self.spec.partitions:
            start = max(p.time_us * US - self.env.now, 0.0)
            dur = p.duration_us * US

            def opened(_e, p=p):
                self.stats["partitions"] += 1
                obs = getattr(self.cluster, "obs", None)
                if obs is not None:
                    obs.event(
                        "fault.partition", track="faults",
                        a=list(p.a), b=list(p.b), dur_us=p.duration_us,
                    )

            def healed(_e, p=p):
                self.stats["partitions_healed"] += 1
                obs = getattr(self.cluster, "obs", None)
                if obs is not None:
                    obs.event(
                        "fault.partition_heal", track="faults",
                        a=list(p.a), b=list(p.b),
                    )

            self.env.timeout(start).callbacks.append(opened)
            self.env.timeout(start + dur).callbacks.append(healed)

    def _partitioned(self, src_node: int, dst_node: int) -> bool:
        """Is the ordered lane between these nodes cut right now?"""
        now = self.env.now
        for start, end, a, b in self._partitions:
            if start <= now < end and (
                (src_node in a and dst_node in b)
                or (src_node in b and dst_node in a)
            ):
                return True
        return False

    def _schedule_cq_stalls(self) -> None:
        for cs in self.spec.cq_stalls:
            node_idx = cs.node if cs.node is not None else int(
                self.rng.integers(self.cluster.n_nodes)
            )
            node = self.cluster.node(node_idx)
            rail = cs.rail if cs.rail is not None else int(
                self.rng.integers(node.n_rails)
            )
            cq = node.nics[rail % node.n_rails].cq
            when = max(cs.time_us * US - self.env.now, 0.0)
            dur = cs.duration_us * US

            def start(_e, cq=cq, dur=dur, node_idx=node_idx, rail=rail % node.n_rails):
                cq.stall(self.env.now + dur)
                self.stats["cq_stalls"] += 1
                obs = getattr(self.cluster, "obs", None)
                if obs is not None:
                    obs.event(
                        "fault.cq_stall", track="faults",
                        node=node_idx, rail=rail, dur_us=dur / US,
                    )

            evt = self.env.timeout(when)
            evt.callbacks.append(start)

    # -- fate drawing ------------------------------------------------------
    def _draw_fate(self) -> _Fate:
        s = self.spec
        # A fixed number of draws per fragment keeps the stream aligned.
        u = self.rng.random(8)
        fate = _Fate()
        fate.drop = u[0] < s.drop
        fate.duplicate = u[1] < s.duplicate
        fate.corrupt = u[2] < s.corrupt
        if u[3] < s.delay:
            fate.extra += u[4] * 2.0 * s.delay_us * US
        if u[5] < s.reorder:
            fate.extra += u[6] * 2.0 * s.reorder_us * US
        fate.dup_gap = (0.25 + u[7]) * max(s.delay_us, s.reorder_us, 1.0) * US
        fate.corrupt_frac = u[4]
        return fate

    def _later(self, delay: float, fn: Callable[[], None]) -> None:
        if delay <= 0.0:
            fn()
            return
        evt = self.env.timeout(delay)
        evt.callbacks.append(lambda _e: fn())

    def _push(self, nic: Nic, record: CompletionRecord) -> None:
        rec = replace(record, complete_time=self.env.now)
        self.env.process(nic.cq.push(rec), name="fault-cqe")

    def _mangle(self, data, frac: float):
        """Flip one byte of a payload copy (``crc=False`` mode)."""
        if data is None or not hasattr(data, "__len__") or len(data) == 0:
            return data
        bad = np.array(data, copy=True)
        flat = bad.reshape(-1).view(np.uint8)
        flat[int(frac * (len(flat) - 1))] ^= 0xFF
        return bad

    # -- NIC wrapping ------------------------------------------------------
    def _wrap(self, nic: Nic) -> None:
        orig_put = nic.post_put
        orig_get = nic.post_get
        spec = self.spec
        env = self.env

        def post_put(dst, nbytes, *, payload=None, on_deliver=None,
                     local_record=None, remote_record=None,
                     remote_action=None, local_action=None, ordered=False,
                     done=True):
            if ordered and not spec.fault_ordered:
                # The reliable ordered lane survives every fault except a
                # fail-stop node crash: traffic touching a crashed node is
                # blackholed, checked at delivery time so frames already in
                # flight when the crash fires are lost too.
                def ordered_deliver(data, _orig=on_deliver):
                    if nic.node.crashed or dst.node.crashed:
                        self.stats["ordered_killed"] += 1
                        return
                    if self._partitions and self._partitioned(
                        nic.node.index, dst.node.index
                    ):
                        self.stats["partition_dropped"] += 1
                        return
                    if _orig is not None:
                        _orig(data)

                return orig_put(dst, nbytes, payload=payload,
                                on_deliver=ordered_deliver,
                                local_record=local_record,
                                remote_record=remote_record,
                                remote_action=remote_action,
                                local_action=local_action, ordered=ordered,
                                done=done)
            self.stats["fragments_seen"] += 1
            fate = self._draw_fate()
            if nic.failed or dst.failed:
                self.stats["posts_on_dead_rail"] += 1
                fate.drop = True

            def fire(data):
                if nic.failed or dst.failed:
                    self.stats["killed_in_flight"] += 1
                    return
                if fate.corrupt:
                    if spec.crc:
                        self.stats["corrupt_discarded"] += 1
                        return
                    self.stats["corrupt_delivered"] += 1
                    data = self._mangle(data, fate.corrupt_frac)
                if on_deliver is not None:
                    on_deliver(data)
                if remote_action is not None and dst.spec.atomic_offload:
                    remote_action()
                elif remote_record is not None:
                    self._push(dst, remote_record)

            def hook(data):
                if fate.drop:
                    self.stats["dropped"] += 1
                    return
                if fate.extra > 0.0:
                    self.stats["delayed"] += 1
                self._later(fate.extra, lambda: fire(data))
                if fate.duplicate:
                    self.stats["duplicated"] += 1
                    self._later(fate.extra + fate.dup_gap, lambda: fire(data))

            return orig_put(dst, nbytes, payload=payload, on_deliver=hook,
                            local_record=local_record, remote_record=None,
                            remote_action=None, local_action=local_action,
                            ordered=ordered, done=done)

        def post_get(dst, nbytes, *, fetch=None, on_deliver=None,
                     local_record=None, remote_record=None,
                     local_action=None, remote_action=None, done=True):
            self.stats["fragments_seen"] += 1
            fate = self._draw_fate()
            if nic.failed or dst.failed:
                self.stats["posts_on_dead_rail"] += 1
                fate.drop = True

            def fetch_hook():
                data = fetch() if fetch is not None else None
                if not fate.drop and not (nic.failed or dst.failed):
                    if remote_action is not None and dst.spec.atomic_offload:
                        remote_action()
                    elif remote_record is not None:
                        self._push(dst, remote_record)
                return data

            def fire(data):
                if nic.failed or dst.failed:
                    self.stats["killed_in_flight"] += 1
                    return
                if fate.corrupt:
                    if spec.crc:
                        self.stats["corrupt_discarded"] += 1
                        return
                    self.stats["corrupt_delivered"] += 1
                    data = self._mangle(data, fate.corrupt_frac)
                if on_deliver is not None:
                    on_deliver(data)
                if local_action is not None and nic.spec.atomic_offload:
                    local_action()
                elif local_record is not None:
                    self._push(nic, local_record)

            def hook(data):
                if fate.drop:
                    self.stats["dropped"] += 1
                    return
                if fate.extra > 0.0:
                    self.stats["delayed"] += 1
                self._later(fate.extra, lambda: fire(data))
                if fate.duplicate:
                    self.stats["duplicated"] += 1
                    self._later(fate.extra + fate.dup_gap, lambda: fire(data))

            return orig_get(dst, nbytes, fetch=fetch_hook, on_deliver=hook,
                            local_record=None, remote_record=None,
                            local_action=None, remote_action=None, done=done)

        nic.post_put = post_put  # type: ignore[method-assign]
        nic.post_get = post_get  # type: ignore[method-assign]

    def __repr__(self) -> str:
        return (
            f"<FaultInjector seed={self.spec.seed:#x} "
            f"drop={self.spec.drop} dup={self.spec.duplicate} "
            f"failed_rails={sorted(self.failed_rails)}>"
        )
