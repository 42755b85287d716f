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
  heartbeats, but stopping a world requires the fail-stop confirmation — this
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
from dataclasses import MISSING, dataclass, fields, replace
from typing import Any, Callable, Optional, Set, Tuple

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
    "FaultScheduleError",
]

DEFAULT_FAULT_SEED = 0xFA117


class FaultScheduleError(ValueError):
    """A schedule pins a node, rail or partition member the cluster it
    is attached to does not have."""


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

    def __post_init__(self) -> None:
        if not self.duration_us > 0.0:
            raise ValueError(f"cq_stall duration_us={self.duration_us} must be > 0")


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
        if self.period < self.down_us:
            raise ValueError(
                f"link_flap period_us={self.period} shorter than down_us={self.down_us}"
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


#: The timed-event grammar: token -> (FaultSpec field, event class,
#: {option: event field}).  An option's value type is its field's
#: annotation; the fields without a default are the required options.
#: Field order here is the order the injector draws and schedules in.
_EVENTS = {
    "rail_fail": ("rail_failures", RailFailure,
                  {"t": "time_us", "node": "node", "rail": "rail"}),
    "cq_stall": ("cq_stalls", CqStall,
                 {"t": "time_us", "dur": "duration_us", "node": "node", "rail": "rail"}),
    "node_crash": ("node_crashes", NodeCrash, {"t": "time_us", "node": "node"}),
    "endpoint_down": ("endpoint_downs", EndpointDown,
                      {"t": "time_us", "dur": "duration_us", "node": "node"}),
    "link_flap": ("link_flaps", LinkFlap,
                  {"t": "time_us", "down": "down_us", "node": "node", "rail": "rail",
                   "n": "n_flaps", "period": "period_us"}),
    "partition": ("partitions", Partition,
                  {"t": "time_us", "dur": "duration_us", "a": "a", "b": "b"}),
}
_PROBABILITIES = ("drop", "duplicate", "delay", "corrupt", "reorder")
_ALIASES = {"dup": "duplicate", "ordered": "fault_ordered"}


def _parse_event(token: str) -> Tuple[str, Any]:
    """``name@opt=v:opt=v`` -> (FaultSpec field, event) via :data:`_EVENTS`."""
    name, _, rest = token.partition("@")
    field, cls, options = _EVENTS[name]
    types = {f.name: str(f.type) for f in fields(cls)}
    kwargs: dict = {}
    for part in rest.split(":"):
        key, _, value = part.partition("=")
        if not value:
            raise ValueError(f"bad fault option {part!r} in {token!r}")
        attr = options.get(key.strip())
        if attr is None:
            raise ValueError(f"unknown option {key.strip()!r} in {token!r}")
        if "Tuple" in types[attr]:  # a node set: 0+1+2
            kwargs[attr] = tuple(int(x) for x in value.split("+"))
        else:
            kwargs[attr] = int(float(value)) if "int" in types[attr] else float(value)
    for f in fields(cls):
        if f.default is MISSING and f.name not in kwargs:
            opt = next(k for k, v in options.items() if v == f.name)
            raise ValueError(f"{token!r} is missing required option {opt!r}")
    if not kwargs["time_us"] >= 0.0:
        raise ValueError(f"{token!r}: t={kwargs['time_us']} must be >= 0")
    try:
        return field, cls(**kwargs)
    except ValueError as exc:
        raise ValueError(f"{token!r}: {exc}") from None


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
        for name in _PROBABILITIES:
            p = getattr(self, name)
            if not 0.0 <= p <= 1.0:
                raise ValueError(f"{name}={p} is not a probability")

    @property
    def is_noop(self) -> bool:
        timed = tuple(field for field, _, _ in _EVENTS.values())
        return not any(getattr(self, name) for name in _PROBABILITIES + timed)

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
        events: dict = {field: [] for field, _, _ in _EVENTS.values()}
        for token in (t.strip() for t in text.split(",") if t.strip()):
            name, at, _ = token.partition("@")
            if at and name in _EVENTS:
                field, event = _parse_event(token)
                events[field].append(event)
                continue
            key, _, value = token.partition("=")
            key = _ALIASES.get(key.strip(), key.strip())
            if not value:
                raise ValueError(f"bad fault token {token!r} (expected key=value)")
            if key in _PROBABILITIES or key in ("delay_us", "reorder_us"):
                kwargs[key] = float(value)
            elif key == "seed":
                kwargs[key] = int(value, 0)
            elif key in ("crc", "fault_ordered"):
                kwargs[key] = value.strip().lower() in ("1", "true", "yes", "on")
            else:
                raise ValueError(f"unknown fault key {key!r}")
        if seed is not None and "seed" not in kwargs:
            kwargs["seed"] = seed
        return cls(**{f: tuple(evs) for f, evs in events.items()}, **kwargs)


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
        self._check_pins()
        self._schedule()
        # Wrap NICs as their nodes materialize (lazy cluster).  The hook
        # applies immediately to already-built nodes, so attaching the
        # injector before the Recorder keeps the fault wrapper innermost.
        cluster.add_node_hook(self._wrap_node)

    def _wrap_node(self, node) -> None:
        for nic in node.nics:
            self._wrap(nic)

    @classmethod
    def attach(cls, cluster, spec: FaultSpec) -> "FaultInjector":
        return cls(cluster, spec)

    # -- scheduled events --------------------------------------------------
    def _check_pins(self) -> None:
        """Reject a pinned node, rail or partition member the cluster
        does not have: a pin is never wrapped round or clamped."""
        n_nodes, n_rails = self.cluster.n_nodes, self.cluster.spec.node.nics
        for name, (field, _, _) in _EVENTS.items():
            for event in getattr(self.spec, field):
                for key in ("node", "a", "b"):
                    pins = getattr(event, key, None)
                    for node in pins if isinstance(pins, tuple) else (pins,):
                        if node is not None and not 0 <= node < n_nodes:
                            raise FaultScheduleError(
                                f"{name} {key}={node}: the cluster has "
                                f"{n_nodes} nodes (0..{n_nodes - 1})")
                rail = getattr(event, "rail", None)
                if rail is not None and not 0 <= rail < n_rails:
                    raise FaultScheduleError(f"{name} rail={rail}: the cluster's nodes "
                                             f"have {n_rails} rails (0..{n_rails - 1})")

    def _schedule(self) -> None:
        """Turn the timed events into timeouts.  Entry by entry in field
        order, unpinned nodes and rails are drawn (node before rail) and
        the entry's timeouts are created — the draw and heap orders a
        replay depends on."""
        now = self.env.now
        for rf in self.spec.rail_failures:
            nic = self._pick_nic(rf.node, rf.rail)
            self._at(max(rf.time_us * US - now, 0.0), self._fail_rail, nic)
        for cs in self.spec.cq_stalls:
            nic = self._pick_nic(cs.node, cs.rail)
            self._at(max(cs.time_us * US - now, 0.0), self._stall, nic, cs.duration_us * US)
        for nc in self.spec.node_crashes:
            node = self._pick(nc.node)
            self._at(max(nc.time_us * US - now, 0.0), self._crash, node)
        for ed in self.spec.endpoint_downs:
            node = self._pick(ed.node)
            when = max(ed.time_us * US - now, 0.0)
            dur = ed.duration_us * US
            self._at(when, self._mark, "endpoint_downs", "fault.endpoint_down",
                     rails=node.nics, each=self._fail_rail,
                     node=node.index, dur_us=dur / US)
            self._at(when + dur, self._mark, "endpoint_recoveries", "fault.endpoint_up",
                     rails=node.nics, each=self._recover_rail, node=node.index)
        for lf in self.spec.link_flaps:
            nic = self._pick_nic(lf.node, lf.rail)
            period = lf.period * US
            down_dur = lf.down_us * US
            start = max(lf.time_us * US - now, 0.0)
            for i in range(lf.n_flaps):
                self._at(start + i * period, self._mark, "link_flaps", "fault.link_flap",
                         rails=(nic,), each=self._fail_rail,
                         node=nic.node.index, rail=nic.index)
                self._at(start + i * period + down_dur, self._recover_rail, nic)
        # Markers only: the cut itself is evaluated per delivery against
        # the windows in ``self._partitions``.
        for p in self.spec.partitions:
            start = max(p.time_us * US - now, 0.0)
            self._at(start, self._mark, "partitions", "fault.partition",
                     a=list(p.a), b=list(p.b), dur_us=p.duration_us)
            self._at(start + p.duration_us * US, self._mark, "partitions_healed",
                     "fault.partition_heal", a=list(p.a), b=list(p.b))

    def _pick(self, node: Optional[int]):
        """The pinned node, or a draw from the injector's generator."""
        if node is None:
            node = int(self.rng.integers(self.cluster.n_nodes))
        return self.cluster.node(node)

    def _pick_nic(self, node: Optional[int], rail: Optional[int]) -> Nic:
        picked = self._pick(node)
        if rail is None:
            rail = int(self.rng.integers(picked.n_rails))
        return picked.nics[rail]

    def _at(self, delay: float, fn: Callable[..., None], *args: Any, **kw: Any) -> None:
        self.env.timeout(delay).callbacks.append(lambda _e: fn(*args, **kw))

    def _mark(self, stat: str, marker: str, *, rails=(), each=None, **args: Any) -> None:
        """Count ``stat``, apply ``each`` to ``rails``, then emit the
        ``fault.*`` marker on the faults track of ``cluster.obs``."""
        self.stats[stat] += 1
        for nic in rails:
            each(nic)
        obs = getattr(self.cluster, "obs", None)
        if obs is not None:
            obs.event(marker, track="faults", **args)

    def _fail_rail(self, nic: Nic) -> None:
        if not nic.failed:
            nic.failed = True
            self.failed_rails.add(nic.global_id)
            self._mark("rail_failures", "fault.rail_fail",
                       node=nic.node.index, rail=nic.index)

    def _recover_rail(self, nic: Nic) -> None:
        """Bring a failed NIC back (endpoint recovery / link-flap up)."""
        if nic.failed and not nic.node.crashed:
            nic.failed = False
            self.failed_rails.discard(nic.global_id)
            self._mark("rails_recovered", "fault.rail_recover",
                       node=nic.node.index, rail=nic.index)

    def _crash(self, node) -> None:
        if not node.crashed:
            node.crashed = True
            self._mark("node_crashes", "fault.node_crash",
                       rails=node.nics, each=self._fail_rail, node=node.index)

    def _stall(self, nic: Nic, dur: float) -> None:
        nic.cq.stall(self.env.now + dur)
        self._mark("cq_stalls", "fault.cq_stall",
                   node=nic.node.index, rail=nic.index, dur_us=dur / US)

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

    def _complete(self, tgt: Nic, action, record: Optional[CompletionRecord]) -> None:
        """The target NIC's Level-4 action, else its CQ record."""
        if action is not None and tgt.spec.atomic_offload:
            action()
        elif record is not None:
            rec = replace(record, complete_time=self.env.now)
            self.env.process(tgt.cq.push(rec), name="fault-cqe")

    def _mangle(self, data, frac: float):
        """Flip one byte of a payload copy (``crc=False`` mode)."""
        if data is None or not hasattr(data, "__len__") or len(data) == 0:
            return data
        bad = np.array(data, copy=True)
        flat = bad.reshape(-1).view(np.uint8)
        flat[int(frac * (len(flat) - 1))] ^= 0xFF
        return bad

    # -- NIC wrapping ------------------------------------------------------
    def _fated(self, src: Nic, dst: Nic, tgt: Nic, on_deliver, action, record):
        """Draw the fate of one fragment posted on ``src`` to ``dst`` and
        return it with the ``on_deliver`` hook that applies it: drop, or
        land once (and again for a duplicate) — the data through
        ``on_deliver``, then ``tgt``'s action or record."""
        stats = self.stats
        stats["fragments_seen"] += 1
        fate = self._draw_fate()
        if src.failed or dst.failed:
            stats["posts_on_dead_rail"] += 1
            fate.drop = True

        def fire(data):
            if src.failed or dst.failed:
                stats["killed_in_flight"] += 1
                return
            if fate.corrupt:
                if self.spec.crc:
                    stats["corrupt_discarded"] += 1
                    return
                stats["corrupt_delivered"] += 1
                data = self._mangle(data, fate.corrupt_frac)
            if on_deliver is not None:
                on_deliver(data)
            self._complete(tgt, action, record)

        def hook(data):
            if fate.drop:
                stats["dropped"] += 1
                return
            if fate.extra > 0.0:
                stats["delayed"] += 1
                self._at(fate.extra, fire, data)
            else:
                fire(data)
            if fate.duplicate:
                stats["duplicated"] += 1
                self._at(fate.extra + fate.dup_gap, fire, data)

        return fate, hook

    def _wrap(self, nic: Nic) -> None:
        orig_put = nic.post_put
        orig_get = nic.post_get
        spec = self.spec

        def post_put(dst, nbytes, *, payload=None, on_deliver=None,
                     local_record=None, remote_record=None,
                     remote_action=None, local_action=None, ordered=False,
                     done=True):
            if ordered and not spec.fault_ordered:
                # The reliable ordered lane survives every fault except a
                # fail-stop node crash or a partition: checked at delivery
                # time, so frames in flight when either starts are lost too.
                def deliver(data, _orig=on_deliver):
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
            else:
                _, deliver = self._fated(nic, dst, dst, on_deliver,
                                         remote_action, remote_record)
                remote_record = remote_action = None
            return orig_put(dst, nbytes, payload=payload, on_deliver=deliver,
                            local_record=local_record, remote_record=remote_record,
                            remote_action=remote_action, local_action=local_action,
                            ordered=ordered, done=done)

        def post_get(dst, nbytes, *, fetch=None, on_deliver=None,
                     local_record=None, remote_record=None,
                     local_action=None, remote_action=None, done=True):
            fate, hook = self._fated(nic, dst, nic, on_deliver,
                                     local_action, local_record)

            def fetch_hook():
                data = fetch() if fetch is not None else None
                if not fate.drop and not (nic.failed or dst.failed):
                    self._complete(dst, remote_action, remote_record)
                return data

            return orig_get(dst, nbytes, fetch=fetch_hook, on_deliver=hook, done=done)

        nic.post_put = post_put  # type: ignore[method-assign]
        nic.post_get = post_get  # type: ignore[method-assign]

    def __repr__(self) -> str:
        return (
            f"<FaultInjector seed={self.spec.seed:#x} "
            f"drop={self.spec.drop} dup={self.spec.duplicate} "
            f"failed_rails={sorted(self.failed_rails)}>"
        )
