"""Replication resilience tier: replica worlds with heartbeat-driven
fail-stop survival (TeaMPI-style).

``TeamWorld(unr, team_size=k)`` splits the job's
physical ranks into ``k`` replica **worlds**: with logical world size
``L = n_ranks // team_size``, world ``t`` is the physical ranks
``{l + t*L for l in range(L)}``.  The physical ranks that serve one
logical rank ``l`` — one per world — form its **team**.

:meth:`TeamWorld.run` runs the whole rank program in every world.
Replica ``t`` of a rank talks only to replica ``t`` of its peers: the
endpoint a program gets from ``ctx.services["unr"](ctx.rank)`` shifts
control-lane peers by ``t*L`` (``send_ctl`` / ``recv_ctl``, and so
``exchange_blk``), while PUT and GET need no mapping because BLKs
carry physical ranks.  The tier wraps an ordinary
:class:`~repro.core.api.Unr` from outside, the way TeaMPI sits at the
PMPI boundary; ``core`` does not know it exists.

Two mechanisms make a node crash cost one world instead of the job:

* **Heartbeats** — one sim-time pulse loop posts small ordered-lane
  beats all-pairs inside each team every ``HEARTBEAT_PERIOD_US`` and
  sweeps the heartbeat ledger.  A member is *suspected* after
  ``SUSPICION_THRESHOLD`` whole periods of silence at every observer,
  and its world is stopped only when the fail-stop predicate (the node
  is actually crashed) confirms it — so a control-plane partition
  raises suspicion but never stops a world.

* **Containment** — a watchdog toward a crashed node can exhaust its
  retry ladder before the heartbeats see the crash.  An
  :class:`~repro.core.errors.UnrTimeoutError` (so also
  ``UnrPeerDeadError``) whose ``OpContext`` names a rank in a stopped
  world, or on a crashed node, is contained — whether it was raised
  into a rank frame or out of ``env.run()``: it stops that world, and
  the run resumes.  Any other error propagates unchanged.

Stopping a world interrupts its live rank processes, drains the
library (fragments toward dead peers are cancelled and their owed
notifications discharged) and logs one failover record.  The last
live world is never stopped: its own structured error ends the run.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Callable, Dict, Generator, List, Optional, Tuple

from .core.api import UnrEndpoint
from .core.engine import CTRL_BYTES
from .core.errors import UnrTimeoutError, UnrUsageError
from .runtime import RankContext, raise_unfinished
from .sim import Process
from .units import US

if TYPE_CHECKING:  # pragma: no cover
    from .core.api import Unr
    from .netsim import Node

__all__ = ["HEARTBEAT_BYTES", "HEARTBEAT_PERIOD_US", "SUSPICION_THRESHOLD", "TeamWorld"]

#: on-the-wire size of one heartbeat message (ordered/control lane)
HEARTBEAT_BYTES = 16
#: heartbeat pulse period (simulated us)
HEARTBEAT_PERIOD_US = 25.0
#: whole silent periods, at every observing teammate, that make a member
#: suspected.  Stopping its world also needs the fail-stop confirmation,
#: so a heartbeat-driven stop has ``ttr >= SUSPICION_THRESHOLD *
#: HEARTBEAT_PERIOD_US`` (a contained peer-dead error can stop it sooner).
SUSPICION_THRESHOLD = 3


class _WorldEndpoint(UnrEndpoint):
    """Physical rank ``rank``'s endpoint in the world whose ranks start
    at ``shift``: control-lane peers are named by logical rank."""

    def __init__(self, unr: "Unr", rank: int, shift: int) -> None:
        super().__init__(unr, rank)
        self.shift = shift

    def send_ctl(
        self, dst_rank: int, obj: Any, tag: Any = None, nbytes: int = CTRL_BYTES
    ) -> Generator[Any, Any, None]:
        return super().send_ctl(dst_rank + self.shift, obj, tag, nbytes)

    def recv_ctl(self, src_rank: int, tag: Any = None) -> Generator[Any, Any, Any]:
        return super().recv_ctl(src_rank + self.shift, tag)


@dataclass
class _WorldContext(RankContext):
    """A rank program's context in one world: ``rank`` and ``n_ranks``
    are logical, ``node`` is where the physical replica runs."""

    shift: int = 0
    size: int = 0

    @property
    def n_ranks(self) -> int:
        return self.size

    @property
    def node(self) -> "Node":
        return self.job.node_of(self.rank + self.shift)


class TeamWorld:
    """The ``team_size`` replica worlds of one
    :class:`~repro.core.api.Unr` (2 = one spare).

    Needs one rank per node, so team members occupy independent fault
    domains.  The reliability and health layers are optional: they only
    change how quickly a crash surfaces as a contained error.
    """

    def __init__(self, unr: "Unr", team_size: int = 2) -> None:
        if team_size < 2:
            raise ValueError("team_size must be >= 2 (1 means no replication)")
        job = unr.job
        if job.ranks_per_node != 1:
            raise UnrUsageError(
                "replication needs ranks_per_node == 1 so team members "
                "occupy independent fault domains"
            )
        if job.n_ranks % team_size:
            raise UnrUsageError(
                f"n_ranks={job.n_ranks} is not divisible by team_size={team_size}"
            )
        self.unr = unr
        self.job = job
        self.env = unr.env
        self.team_size = team_size
        self.logical_size = L = job.n_ranks // team_size
        #: ids of the worlds still running (order carries no meaning)
        self.live: List[int] = list(range(team_size))
        self._endpoints = [
            _WorldEndpoint(unr, rank, rank - rank % L) for rank in range(job.n_ranks)
        ]
        #: world -> its rank processes (filled by :meth:`run`)
        self._procs: Dict[int, List[Process]] = {}
        #: (src_rank, dst_rank) -> env-time of the last heartbeat
        #: delivered from src to dst
        self.heartbeats: Dict[Tuple[int, int], float] = {}
        #: env-time of the first heartbeat round: the silence baseline
        #: of a pair whose first beat has not landed yet
        self._armed_at: Optional[float] = None
        #: suspected physical rank -> env-time the suspicion was raised
        self._suspected: Dict[int, float] = {}
        self.failover_log: List[Dict[str, float]] = []

    # -- team math -------------------------------------------------------
    def team_of(self, rank: int) -> int:
        """Team id (== logical rank) of a physical rank."""
        return rank % self.logical_size

    def world_of(self, rank: int) -> int:
        return rank // self.logical_size

    def members_of(self, team: int) -> Tuple[int, ...]:
        """All physical member ranks of ``team``, stopped ones included."""
        return tuple(team + t * self.logical_size for t in range(self.team_size))

    def live_members_of(self, team: int) -> List[int]:
        return [team + t * self.logical_size for t in sorted(self.live)]

    # -- running ---------------------------------------------------------
    def run(
        self, program: Callable[..., Any], *args: Any, until: Optional[float] = None
    ) -> List[Any]:
        """Run ``program(ctx, *args)`` on every physical rank, with
        ``ctx.rank`` the logical rank; return the values of the
        lowest-numbered surviving world.  Raises like
        :func:`~repro.runtime.run_job` for errors the tier does not
        contain and for ranks of a live world that never finish."""
        env, L = self.env, self.logical_size
        endpoints = self._endpoints
        for world in range(self.team_size):
            shift = world * L
            services = {"unr": lambda rank, shift=shift: endpoints[rank + shift]}
            self._procs[world] = [
                env.process(
                    program(_WorldContext(self.job, rank, services, shift, L), *args),
                    name=f"rank{rank + shift}",
                )
                for rank in range(L)
            ]
        env.process(self._pulse(), name="unr-replication")
        while True:
            try:
                env.run(until=until)
                break
            except UnrTimeoutError as err:
                if not self._contain(err):
                    raise
        raise_unfinished(env, (proc for world in sorted(self.live) for proc in self._procs[world]))
        return [proc.value for proc in self._procs[min(self.live)]]

    def _contain(self, err: UnrTimeoutError) -> bool:
        """Contain ``err`` when its op names a rank in a stopped world
        or on a crashed node (stopping that world); False when the error
        must propagate — including when that world is the last one."""
        ctx = err.context
        if ctx is None:
            return False
        for rank in (ctx.src_rank, ctx.dst_rank):
            world = self.world_of(rank)
            if world not in self.live:
                return True
            if self.job.node_of(rank).crashed and len(self.live) > 1:
                self._stop(world, rank)
                return True
        return False

    def _stop(self, world: int, dead_rank: int) -> None:
        """Stop ``world``, whose member ``dead_rank`` sits on a crashed
        node: interrupt its live ranks, drain, log the failover."""
        env, unr = self.env, self.unr
        self.live.remove(world)
        for proc in self._procs.get(world, ()):
            if proc.is_alive:
                proc.defuse()  # the Interrupt ends it; nobody re-raises
                proc.interrupt("replica world stopped")
        unr.drain()
        team = self.team_of(dead_rank)
        last_heard = max(
            (self.heartbeats.get((dead_rank, o), 0.0)
             for o in self.members_of(team) if o != dead_rank),
            default=0.0,
        )
        ttr_us = (env.now - last_heard) / US
        self.failover_log.append({
            "team": team,
            "dead_rank": dead_rank,
            "stopped_world": world,
            "detected_at_us": env.now / US,
            "ttr_us": ttr_us,
        })
        unr.stats["replication_failovers"] += 1
        if unr.obs is not None:
            unr.obs.event(
                "replication.failover", track="replication", team=team,
                dead_rank=dead_rank, stopped_world=world, ttr_us=ttr_us,
            )
            unr.obs.observe("replication.ttr_us", ttr_us)

    # -- heartbeats and the monitor sweep --------------------------------
    def _pulse(self) -> Generator[Any, Any, None]:
        """The replication pulse: heartbeat posts + suspicion sweep.

        Terminates itself when the simulation has otherwise drained and
        no crashed member still needs stopping, so :meth:`run`'s
        ``env.run()`` returns on job completion.
        """
        env = self.env
        period = HEARTBEAT_PERIOD_US * US
        while True:
            yield env.timeout(period)
            if not env._sched and not self._pending_duty():
                return
            if self._armed_at is None:
                self._armed_at = env.now
            self._send_heartbeats()
            self._sweep(period)

    def _pending_duty(self) -> bool:
        """A crashed member whose world still runs beside another."""
        return len(self.live) > 1 and any(
            self.job.node_of(rank).crashed
            for world in self.live
            for rank in range(world * self.logical_size, (world + 1) * self.logical_size)
        )

    def _send_heartbeats(self) -> None:
        job, channel = self.job, self.unr.channel
        for team in range(self.logical_size):
            live = self.live_members_of(team)
            for src in live:
                if job.node_of(src).crashed:
                    continue
                for dst in live:
                    if dst == src or job.node_of(dst).crashed:
                        continue
                    channel.put(
                        src, dst, HEARTBEAT_BYTES,
                        on_deliver=self._beat_cb(src, dst),
                        ordered=True,
                        done=False,
                    )
                    self.unr.stats["replication_heartbeats"] += 1

    def _beat_cb(self, src: int, dst: int) -> Any:
        return lambda _payload: self.record_heartbeat(src, dst)

    def record_heartbeat(self, src_rank: int, dst_rank: int) -> None:
        """A heartbeat from ``src_rank`` reached ``dst_rank`` now."""
        self.heartbeats[(src_rank, dst_rank)] = self.env.now
        self.unr.stats["heartbeats_seen"] += 1

    def missed_heartbeats(self, src_rank: int, dst_rank: int, period: float) -> int:
        """Whole heartbeat periods elapsed since ``src`` was last heard
        from at ``dst``.  Before the first delivery the silence counts
        from the tier's first heartbeat round (0 before that round), so
        a node that crashes before its first beat lands is still
        suspected.  A slow first beat can at most raise a suspicion:
        stopping a world also needs the node to be crashed."""
        last = self.heartbeats.get((src_rank, dst_rank), self._armed_at)
        if last is None:
            return 0
        return int((self.env.now - last) / period)

    def _sweep(self, period: float) -> None:
        unr = self.unr
        for team in range(self.logical_size):
            for member in self.live_members_of(team):
                observers = [o for o in self.live_members_of(team) if o != member]
                if not observers or self.world_of(member) not in self.live:
                    continue  # stopped earlier in this sweep
                missed = min(self.missed_heartbeats(member, o, period) for o in observers)
                if missed < SUSPICION_THRESHOLD:
                    if self._suspected.pop(member, None) is not None:
                        unr.stats["replication_suspicions_cleared"] += 1
                        if unr.obs is not None:
                            unr.obs.event(
                                "replication.suspicion_cleared",
                                track="replication", team=team, rank=member,
                            )
                    continue
                if member not in self._suspected:
                    self._suspected[member] = self.env.now
                    unr.stats["replication_suspicions"] += 1
                    if unr.obs is not None:
                        unr.obs.event(
                            "replication.suspected", track="replication",
                            team=team, rank=member, missed=missed,
                        )
                # Stopping needs the fail-stop confirmation: a partition
                # that silences heartbeats while the node lives keeps the
                # member suspected, its world running.
                if self.job.node_of(member).crashed:
                    self._stop(self.world_of(member), member)

    def __repr__(self) -> str:
        return (
            f"<TeamWorld logical={self.logical_size} "
            f"team_size={self.team_size} live={sorted(self.live)}>"
        )
