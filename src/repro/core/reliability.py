"""The reliability ladder: exactly-once delivery over a lossy fabric.

The transfer engine (:mod:`repro.core.engine`) trusts the fabric.
``Unr(reliability=True)`` puts :class:`ReliableDelivery` above it, the
way ``repro.replication`` wraps ``Unr`` from outside: the engine hands
it each unordered RMA fragment at one point, :meth:`~ReliableDelivery.post`,
and every attempt goes back out through the engine's one wire call,
``TransferEngine._attempt``, with the same plan, payload snapshot,
delivery callback and idempotence tokens; only the rail moves.  A
timed-out attempt is retransmitted with exponential backoff on the next
live rail, up to :data:`MAX_RETRIES` times, then raises
:class:`~repro.core.errors.UnrTimeoutError`.  With ``Unr(health=True)``
the breakers gate the rail choice, a fragment with no RMA rail left
degrades to the MPI fallback lane, and
:class:`~repro.core.errors.UnrPeerDeadError` is raised only once that
lane is dead too; the drain protocol discharges what a dead peer owes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Callable, Dict, List, Optional, Set, Tuple

from ..sim import InFlight
from ..units import US
from .engine import FALLBACK_RAIL
from .errors import OpContext, UnrPeerDeadError, UnrTimeoutError
from .health import scan_rails

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .engine import StripePlan, TransferEngine, TransferOp

__all__ = ["ReliableDelivery", "fragment_timeout", "TIMEOUT_US", "TIMEOUT_FACTOR",
           "MAX_RETRIES", "BACKOFF_FACTOR", "MAX_BACKOFF_US"]

#: floor of a fragment's watchdog timeout (simulated microseconds)
TIMEOUT_US = 25.0
#: a fragment's timeout is at least this many no-contention delivery times
TIMEOUT_FACTOR = 4.0
#: retransmits before a fragment is declared lost
MAX_RETRIES = 10
#: timeout growth per retransmit
BACKOFF_FACTOR = 2.0
#: backoff ceiling (simulated microseconds)
MAX_BACKOFF_US = 2000.0


def fragment_timeout(estimate: float) -> float:
    """Timeout in seconds for a fragment whose no-contention delivery
    time is ``estimate`` seconds: at least ``TIMEOUT_US`` and at least
    ``TIMEOUT_FACTOR`` delivery times, so 1 MiB stripes are not declared
    lost while still serializing onto the wire."""
    return max(TIMEOUT_US * US, TIMEOUT_FACTOR * estimate)


@dataclass(slots=True, eq=False)
class _Fragment:
    """One reliable fragment, from its post until delivery or cancel.

    Held by its current attempt's :class:`_FragmentTimer` and, in flight,
    as a key of ``_inflight``.  ``payload`` and ``deliver``, what every
    attempt posts again, are released at the first delivery or a cancel,
    so the stale timer pins no snapshot and leaves no cycle.  ``done`` is
    the event a reliable GET's tails hang on, else ``None``.  ``target``,
    ``timeout`` and ``cap``: the current attempt's rail (or
    :data:`FALLBACK_RAIL`), its timeout and the backoff ceiling;
    ``attempts`` holds ``(target, post time)`` per attempt.
    """

    op: "TransferOp"
    sp: "StripePlan"
    done: Any
    payload: Any
    deliver: Optional[Callable[[Any], None]]
    rtok: Optional[int]
    ltok: Optional[int]
    target: int
    attempts: List[Tuple[int, float]]
    timeout: float = 0.0
    cap: float = 0.0
    delivered: bool = False
    cancelled: bool = False


class ReliableDelivery:
    """The watchdog ladder of one ``Unr``, held as ``engine.reliable``."""

    def __init__(self, engine: "TransferEngine") -> None:
        unr = engine.unr
        self.engine = engine
        self.unr = unr
        self.env = unr.env
        self.job = unr.job
        self.health = unr.health
        #: reliable fragments still in flight, in post order.  Retired
        #: on delivery, cancelled by :meth:`drain` against dead peers.
        self._inflight: Dict[_Fragment, None] = {}
        #: rail failovers :meth:`_next_rail` took with health disarmed
        self.n_failovers = 0
        #: (node, sid) a drained fragment owed a tokenless Level-0
        #: notification: a shortfall there is accounted for, not leaked.
        self.undischarged: Set[Tuple[int, int]] = set()

    # -- first post and retransmit -----------------------------------------
    def post(self, op: "TransferOp", sp: "StripePlan", payload: Any,
             rtok: Optional[int], ltok: Optional[int]) -> None:
        """Take one reliable fragment from the engine: choose its first
        rail, post ``payload`` with the tokens and arm its watchdog."""
        first = self._next_rail(op, sp.rail)
        if first is None:
            raise self._peer_dead(
                op, sp.size,
                "peer is dead (no live RMA rail and the fallback lane is down)",
            )
        engine = self.engine
        # A GET's tails hang on its first delivery, however many
        # attempts that takes; nothing else listens for it.
        frag = _Fragment(op, sp, self.env.event() if op.tails else None, payload,
                         None, rtok, ltok, first, [])
        deliver = self._delivery(frag)
        if engine.on_post is not None:
            deliver = engine.on_post(op, sp, first, 0, rtok, ltok, deliver)
        frag.deliver = deliver
        if op.tails:
            engine._hang_get_tails(op, sp, ltok, frag.done)
        self._inflight[frag] = None
        base = self._fragment_timeout(op, sp.size)
        frag.cap = max(MAX_BACKOFF_US * US, base)
        self._send(frag, first, base, 1.0)

    def _send(self, frag: _Fragment, target: int, timeout: float, growth: float) -> None:
        """Post one attempt of ``frag`` on ``target`` and arm its watchdog
        for ``timeout * growth``, capped; the fallback lane first widens
        timeout and cap to its own estimate."""
        op, sp = frag.op, frag.sp
        if target == FALLBACK_RAIL:
            fb_base = self._fragment_timeout(op, sp.size, fallback=True)
            timeout, frag.cap = max(timeout, fb_base), max(frag.cap, fb_base)
        frag.target = target
        frag.attempts.append((target, self.env.now))
        self.engine._attempt(op, sp, frag.payload, frag.deliver, frag.rtok, frag.ltok, target)
        self._arm(frag, min(timeout * growth, frag.cap))

    def _delivery(self, frag: _Fragment) -> Callable[[Any], None]:
        """The delivery callback every attempt of ``frag`` posts with.

        The first delivery wins: it writes the destination, releases a
        GET's tails and retires the fragment (off ``_inflight``, its path
        proved to the health layer, a recovery counted after a
        retransmit).  Replicas and retransmit races change nothing; a
        fragment drained meanwhile was retired by its cancel."""
        env = self.env
        health = self.health
        stats = self.unr.stats
        inflight = self._inflight

        def deliver(data: Any, frag: _Fragment = frag) -> None:
            if frag.delivered:
                return
            frag.delivered = True
            view = frag.sp.view
            if view is not None and data is not None:
                view[:] = data
            frag.payload = frag.deliver = None
            if frag.done is not None:
                frag.done.succeed(env.now)
            if frag.cancelled:
                return
            target = frag.target
            if health is not None and target != FALLBACK_RAIL:
                op = frag.op
                health.on_success(op.src_rank, op.dst_rank, target)
            del inflight[frag]
            if len(frag.attempts) > 1:
                stats["recovered_ops"] += 1

        return deliver

    # -- rail choice and the degradation ladder ------------------------------
    def _check_peer_alive(self, op: "TransferOp") -> None:
        """The ordered and software lanes are the last rung of the
        degradation ladder: they only die with the peer (fail-stop node
        crash)."""
        health = self.health
        if health is not None and health.fallback_dead(op.src_rank, op.dst_rank):
            raise self._peer_dead(op, op.nbytes, "peer is dead (ordered/fallback lane down)")

    def _peer_dead(self, op: "TransferOp", nbytes: int, why: str) -> UnrPeerDeadError:
        """The error of a post rejected before any transmission."""
        what = op.kind.upper()
        return UnrPeerDeadError(
            f"{what} of {nbytes}B from rank {op.src_rank} to rank {op.dst_rank}: {why}",
            context=OpContext(kind=what, src_rank=op.src_rank, dst_rank=op.dst_rank,
                              nbytes=nbytes, sim_time_us=self.env.now / US))

    def _next_rail(self, op: "TransferOp", preferred: int, *,
                   degrade: bool = True) -> Optional[int]:
        """The one rail chooser, for a first post and every re-post: the
        first rail at or after ``preferred`` that
        :func:`~repro.core.health.scan_rails` admits.  With none: health
        disarmed, ``preferred`` itself (the watchdog will raise); armed,
        :data:`FALLBACK_RAIL` (``on_degraded`` counts it when
        ``degrade``), or ``None`` when the fallback lane is dead too."""
        health = self.health
        src_rank, dst_rank = op.src_rank, op.dst_rank
        rail, hops = scan_rails(self.job, src_rank, dst_rank, preferred, health)
        if health is None:
            if rail is None:
                return preferred % hops  # all ``hops`` rails scanned were dead
            if hops:
                self.n_failovers += 1
            return rail
        if rail is not None:
            return rail
        if health.fallback_dead(src_rank, dst_rank):
            return None
        if degrade:
            health.on_degraded(src_rank, dst_rank, op.kind.upper())
        return FALLBACK_RAIL

    # -- drain / quiesce protocol ---------------------------------------------
    def drain(self, peer_rank: Optional[int] = None) -> int:
        """Cancel the in-flight fragments to a *dead* peer (even the
        fallback lane down) and discharge their notifications, scheduling
        no event; fragments to live peers are left to their watchdogs.
        Returns the number cancelled (``Unr.drain``)."""
        health = self.health
        cancelled = 0
        for frag in list(self._inflight):
            op = frag.op
            if peer_rank is not None and op.dst_rank != peer_rank:
                continue
            if health is None or not health.fallback_dead(op.src_rank, op.dst_rank):
                continue
            self._cancel_fragment(frag)
            cancelled += 1
        return cancelled

    def _cancel_fragment(self, frag: _Fragment) -> None:
        """Discharge one cancelled fragment's notifications through
        ``_apply_add`` with its own tokens, so a raced wire delivery
        still counts once.  A tokenless Level-0 tail can't be discharged
        that way: its ``(node, sid)`` joins :attr:`undischarged`."""
        unr = self.unr
        frag.cancelled = True
        frag.payload = frag.deliver = None  # no attempt follows
        op, sp = frag.op, frag.sp
        if sp.local_sig is not None:
            node, sid, addend = sp.local_sig
            unr._apply_add(node, sid, addend, token=frag.ltok)
        if sp.remote_sig is not None:
            node, sid, addend = sp.remote_sig
            unr._apply_add(node, sid, addend, token=frag.rtok)
        if op.ctrl_remote and op.rsid is not None:
            self.undischarged.add((op.dst_node, op.rsid))
        self._inflight.pop(frag, None)
        unr.stats["drained_fragments"] += 1

    # -- the watchdog ----------------------------------------------------------
    def _fragment_timeout(self, op: "TransferOp", nbytes: int, fallback: bool = False) -> float:
        """The watchdog timeout of one attempt of an ``nbytes`` fragment
        of ``op``, from its no-contention delivery time; the fallback
        lane adds software overhead and, for large payloads, a
        rendezvous round trip."""
        # Every NIC of a cluster shares one spec; the source's stands in.
        nic = self.job.nic_of(op.src_rank)
        est = nic.msg_overhead + nic.latency + nbytes / nic.bandwidth + nic.rx_overhead
        if op.kind == "get":  # a round trip: the request goes out first
            est += nic.msg_overhead + nic.latency
        if fallback:
            cfg = self.unr._fallback().config
            est += 2.0 * cfg.sw_overhead_us * US
            if nbytes > cfg.eager_threshold:
                est += cfg.rendezvous_rtts * 2.0 * (nic.latency + nic.msg_overhead)
                est += (nbytes / nic.bandwidth) * max(cfg.rendezvous_bw_penalty - 1.0, 0.0)
        return fragment_timeout(est)

    def _arm(self, frag: _Fragment, timeout: float) -> None:
        """Start the watchdog of ``frag``'s current attempt."""
        frag.timeout = timeout
        timer = _FragmentTimer(self.env, timeout)
        timer.ladder = self
        timer.frag = frag

    def _on_timeout(self, frag: _Fragment) -> None:
        """The current attempt of ``frag`` timed out: feed the breaker,
        retransmit on the next target with backoff, or give up."""
        if frag.delivered or frag.cancelled:
            return  # delivered, or drained against a dead peer
        health = self.health
        op, target = frag.op, frag.target
        if health is not None and target != FALLBACK_RAIL:
            health.on_timeout(op.src_rank, op.dst_rank, target)
        retries = len(frag.attempts) - 1
        nxt = None
        if retries < MAX_RETRIES:
            nxt = self._next_rail(op, 0 if target == FALLBACK_RAIL else target + 1,
                                  degrade=target != FALLBACK_RAIL)
        if nxt is None:
            self._give_up(frag)  # ladder exhausted (fail-stop)
            return
        self.unr.stats["retransmits"] += 1
        on_post = self.engine.on_post
        if on_post is not None:
            on_post(op, frag.sp, nxt, retries + 1, frag.rtok, frag.ltok, frag.deliver)
        self._send(frag, nxt, frag.timeout, BACKOFF_FACTOR)

    def _give_up(self, frag: _Fragment) -> None:
        """Raise the error of a fragment whose ladder is exhausted."""
        health = self.health
        op = frag.op
        src_rank, dst_rank = op.src_rank, op.dst_rank
        what, nbytes = op.kind.upper(), frag.sp.size
        self.unr.stats["reliability_failures"] += 1
        # NB: the fragment stays in ``_inflight`` — a later drain()
        # discharges its notification tokens against the dead peer.
        context = OpContext(
            kind=what, src_rank=src_rank, dst_rank=dst_rank, nbytes=nbytes,
            sim_time_us=self.env.now / US,
            attempts=tuple(("fallback" if rail == FALLBACK_RAIL else f"rail{rail}", at / US)
                           for rail, at in frag.attempts),
            degraded=any(rail == FALLBACK_RAIL for rail, _ in frag.attempts),
        )
        message = (
            f"{what} of {nbytes}B from rank {src_rank} to rank {dst_rank}: "
            f"no delivery after {MAX_RETRIES} retransmits "
            f"(last timeout {frag.timeout / US:.1f} us)"
        )
        if health is not None and health.fallback_dead(src_rank, dst_rank):
            err: UnrTimeoutError = UnrPeerDeadError(message, context=context)
        else:
            err = UnrTimeoutError(message, context=context)
        # Prefer surfacing in the application frame blocked in sig_wait
        # on this op's signal — the context rides along and the app may
        # handle the dead peer; without a waiter the error propagates
        # through the kernel.
        if self._fail_op_waiter(frag, err):
            return
        raise err

    def _fail_op_waiter(self, frag: _Fragment, err: BaseException) -> bool:
        """Throw ``err`` into a frame blocked in ``sig_wait`` on one of
        the fragment's signals.  The remote notification is the one the
        lost fragment actually owes (local completion usually fired when
        the data left the source NIC), so its waiter is tried first."""
        sp = frag.sp
        for spec in (sp.remote_sig, sp.local_sig):
            if spec is None:
                continue
            node, sid, _ = spec
            sig = self.unr._signal_at(node, sid)
            if sig is not None and sig.fail_waiters(err):
                return True
        return False


def _fragment_timer(ev: "_FragmentTimer") -> None:
    ev.ladder._on_timeout(ev.frag)


class _FragmentTimer(InFlight):
    """One attempt's watchdog: ``frag`` was posted a timeout ago.  It
    fires whether or not the attempt was delivered; a delivered or
    drained fragment makes it a no-op."""

    __slots__ = ("ladder", "frag")
    handlers = (_fragment_timer,)
