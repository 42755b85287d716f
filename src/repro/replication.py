"""Replication resilience tier: transparent rank teams with
heartbeat-driven warm failover (TeaMPI-style).

``Unr(replication=ReplicationConfig(team_size=k))`` splits the job's
physical ranks into replica **teams**: with logical world size
``L = n_ranks // team_size``, logical rank ``l`` is served by the
physical ranks ``{l + t*L for t in range(team_size)}``.  The
application runs only on the primary incarnation (physical ranks
``0..L-1``, see :attr:`TeamWorld.app_ranks`); the remaining members are
**warm mirrors** whose node-local resources (memory regions, signal
table slots, BLKs) are allocated in lock-step with the primary's.

The tier lives outside :mod:`repro.core`, the way TeaMPI lives at the
PMPI boundary.  It wraps each application rank's endpoint in a
:class:`ReplicatedEndpoint` and installs one seam in the transfer
engine, :attr:`~repro.core.engine.TransferEngine.peer_recovery`; the
library itself does not know the tier exists.

Four mechanisms make a node crash cost a failover instead of a job:

* **Op shadowing** — every application PUT/GET that lands data on a
  replicated rank is re-prepared against the mirrors' BLKs and posted
  through the same :class:`~repro.core.engine.TransferEngine` pipeline
  (one shadow ``TransferOp`` per live mirror, no signals, no tokens),
  so each mirror's memory converges on the primary's received state.
  A per-team descriptor digest over the shadowed op stream is the
  divergence check consumed at promotion time.

* **Token replay** — every reliable fragment sits in the engine's
  in-flight table, with its notification specs and idempotence
  tokens, until it is delivered or cancelled.  At failover the tokens
  still owed to the team's signals are replayed from that table
  through the normal idempotent-add path: tokens the primary already
  applied are suppressed by the signal's dedup window, tokens lost
  with the dead node are discharged exactly once.

* **Heartbeats** — one sim-time pulse loop posts small ordered-lane
  beats between team members every ``heartbeat_period_us`` and sweeps
  the tier's heartbeat ledger.  A member is *suspected* after
  ``suspicion_threshold`` whole periods of silence at every observer,
  and *promoted against* only when the fail-stop predicate (the node
  is actually crashed) confirms it — so a control-plane partition
  raises suspicion but never a false promotion.

* **Peer recovery** — where the engine would declare a crashed peer
  dead (the ordered-lane check, a reliable fragment's first post, the
  watchdog's exhausted retry ladder) it asks the seam instead, which
  answers with an event that fires when the peer's team settles.

Failover itself re-points the logical rank at the warmest mirror:
in-flight fragments to the dead node are cancelled through the drain
machinery, the owed tokens are replayed, received-data regions are
restored from the mirror's copy, the signal objects (with their blocked
``sig_wait`` waiters) are rebound into the mirror node's signal table,
and the rank's placement is re-assigned so every later post re-resolves
onto the surviving node.  Everything runs in one no-yield section of
the monitor process, so waiters observe the completed failover
atomically.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Dict, Generator, List, Optional, Tuple

import numpy as np

from .core.api import UnrEndpoint
from .core.engine import CTRL_BYTES
from .core.errors import FailoverContext, UnrFailoverError, UnrUsageError
from .units import US

if TYPE_CHECKING:  # pragma: no cover
    from .core.api import Unr
    from .core.engine import TransferOp
    from .core.memory import Blk, MemoryRegion
    from .core.signal import Signal
    from .sim import Event

__all__ = [
    "HEARTBEAT_BYTES",
    "ReplicatedEndpoint",
    "ReplicationConfig",
    "ReplicationManager",
    "TeamWorld",
    "arm",
]

#: on-the-wire size of one heartbeat message (ordered/control lane)
HEARTBEAT_BYTES = 16


@dataclass(frozen=True)
class ReplicationConfig:
    """Tuning knobs for the replication tier.

    ``team_size`` physical ranks back each logical rank (2 = one warm
    mirror).  A member is suspected after ``suspicion_threshold`` whole
    heartbeat periods of silence at every observing teammate; promotion
    additionally requires the fail-stop confirmation, so the threshold
    bounds the detection half of the failover TTR:
    ``ttr >= suspicion_threshold * heartbeat_period_us``.
    """

    team_size: int = 2
    heartbeat_period_us: float = 25.0
    suspicion_threshold: int = 3

    def __post_init__(self) -> None:
        if self.team_size < 2:
            raise ValueError("team_size must be >= 2 (1 means no replication)")
        if self.heartbeat_period_us <= 0.0:
            raise ValueError("heartbeat_period_us must be positive")
        if self.suspicion_threshold < 1:
            raise ValueError("suspicion_threshold must be >= 1")


def arm(unr: "Unr", replication: Any) -> "ReplicationManager":
    """The tier behind ``Unr``'s ``replication`` keyword: ``True`` arms
    the default config, a :class:`ReplicationConfig` arms that one."""
    config = ReplicationConfig() if replication is True else replication
    return ReplicationManager(unr, config)


class TeamWorld:
    """The application's view of a replicated job.

    Applications address the *logical* world ``0..logical_size-1`` (the
    primary physical ranks); the mirror ranks exist only as failover
    capacity.  Run programs with
    ``run_job(job, fn, ranks=unr.replication.world.app_ranks)``.
    """

    def __init__(self, manager: "ReplicationManager") -> None:
        self._manager = manager

    @property
    def logical_size(self) -> int:
        return self._manager.logical_size

    @property
    def team_size(self) -> int:
        return self._manager.config.team_size

    @property
    def app_ranks(self) -> List[int]:
        """Physical ranks that run application programs (the primaries)."""
        return list(range(self._manager.logical_size))

    def team_of(self, rank: int) -> int:
        """Team id (== logical rank) of a physical rank."""
        return rank % self._manager.logical_size

    def members_of(self, team: int) -> Tuple[int, ...]:
        """All physical member ranks of ``team`` (dead ones included)."""
        return self._manager._teams[team].members

    def live_members_of(self, team: int) -> Tuple[int, ...]:
        return tuple(self._manager._teams[team].live)

    def mirrors_of(self, team: int) -> Tuple[int, ...]:
        """Live mirror ranks still shadowing for ``team``."""
        t = self._manager._teams[team]
        return tuple(m for m in t.live if m != t.primary)

    def node_of(self, rank: int) -> int:
        """Current node index serving ``rank`` (follows failovers)."""
        return self._manager.job.node_of(rank).index

    def __repr__(self) -> str:
        return (
            f"<TeamWorld logical={self.logical_size} "
            f"team_size={self.team_size}>"
        )


@dataclass
class _SigEntry:
    """One replicated signal: the primary's object, its current table
    coordinates, the reserved mirror-table slots, and the engine's
    fragment count when it was created — only fragments posted later
    can owe it a token (a reused sid must not inherit a freed signal's)."""

    sig: "Signal"
    node: int
    since: int
    mirrors: Dict[int, "Signal"] = field(default_factory=dict)


@dataclass
class _MrEntry:
    """One replicated memory region and its mirror copies."""

    mr: "MemoryRegion"
    mirrors: Dict[int, "MemoryRegion"] = field(default_factory=dict)
    inbound: bool = False  # a shadowed remote write has targeted it


@dataclass
class _Team:
    """Book-keeping for one replica team (== one logical rank)."""

    id: int
    members: Tuple[int, ...]
    primary: int
    live: List[int]
    suspected: Dict[int, float] = field(default_factory=dict)
    #: per-member sha256 over the shadowed-op descriptor stream; the
    #: primary's own stream digests under its rank key.
    digests: Dict[int, Any] = field(default_factory=dict)
    shadow_ops: int = 0
    #: events succeeded when this team completes a failover / drop
    waiters: List[Any] = field(default_factory=list)
    failed_over: bool = False


class ReplicatedEndpoint(UnrEndpoint):
    """An application rank's endpoint with a replica team behind it.

    Each override runs the plain endpoint's call, then repeats it on
    the team's live mirrors — through *their* plain endpoints, in rank
    order — so mirror resources never recurse into the tier.  PUT/GET
    posts (direct or plan replay) are shadowed onto the mirrors of the
    rank they land on, and control sends are made reliable.
    """

    def __init__(self, unr: "Unr", rank: int, manager: "ReplicationManager") -> None:
        super().__init__(unr, rank)
        self.manager = manager

    # -- resource mirroring ----------------------------------------------
    def mem_reg(self, array: np.ndarray) -> "MemoryRegion":
        mr = super().mem_reg(array)
        self.manager._mrs[(self.rank, mr.handle)] = _MrEntry(mr, {
            m: self.unr.endpoint(m).mem_reg(np.zeros_like(mr.array))
            for m in self.manager._mirrors(self.rank)
        })
        return mr

    def mem_reg_virtual(self, nbytes: int) -> "MemoryRegion":
        mr = super().mem_reg_virtual(nbytes)
        self.manager._mrs[(self.rank, mr.handle)] = _MrEntry(mr, {
            m: self.unr.endpoint(m).mem_reg_virtual(mr.nbytes)
            for m in self.manager._mirrors(self.rank)
        })
        return mr

    def sig_init(self, num_event: int) -> "Signal":
        sig = super().sig_init(num_event)
        man = self.manager
        entry = _SigEntry(sig, self.node_index, self.unr.engine._n_fids)
        for m in man._mirrors(self.rank):
            mirror = self.unr.endpoint(m).sig_init(num_event)
            if mirror.sid != sig.sid:
                raise UnrUsageError(
                    f"replicated signal allocation diverged: primary "
                    f"sid={sig.sid} on rank {self.rank} vs mirror "
                    f"sid={mirror.sid} on rank {m} — team members must "
                    f"allocate signals in the same order"
                )
            entry.mirrors[m] = mirror
        man._sigs[(entry.node, sig.sid)] = entry
        man._team_sigs[man._team_of[self.rank].id].append(entry)
        return sig

    def sig_free(self, sig: "Signal") -> None:
        super().sig_free(sig)
        man = self.manager
        entry = man._sigs.pop((self.unr._node_index(sig.owner_rank), sig.sid), None)
        if entry is None:
            return
        man._team_sigs[man._team_of[sig.owner_rank].id].remove(entry)
        for m in sorted(entry.mirrors):
            self.unr.endpoint(m).sig_free(entry.mirrors[m])

    def blk_init(
        self,
        mr: "MemoryRegion",
        offset: int,
        size: int,
        signal: Optional["Signal"] = None,
    ) -> "Blk":
        blk = super().blk_init(mr, offset, size, signal)
        entry = self.manager._mrs.get((blk.rank, blk.mr_handle))
        if entry is not None:
            # Mirror BLKs carry no signal: shadow transfers move data
            # only; owed notifications are replayed at failover.
            self.manager._blks[blk] = {
                m: self.unr.endpoint(m).blk_init(entry.mirrors[m], offset, size)
                for m in sorted(entry.mirrors)
            }
        return blk

    # -- op shadowing and reliable control -------------------------------
    def _post(self, op: "TransferOp") -> None:
        super()._post(op)
        self.manager._shadow(op)

    def send_ctl(
        self, dst_rank: int, obj: Any, tag: Any = None, nbytes: int = CTRL_BYTES
    ) -> Generator[Any, Any, None]:
        """Generator: a *reliable* control send.

        A crash can destroy an ordered-lane frame in flight (fail-stop
        loses the wire), so the sender re-posts on the heartbeat cadence
        until the first copy is delivered — each re-post re-resolves the
        destination's placement, which is exactly what re-targets the
        frame at the promoted node after a failover.  First delivery
        wins; late duplicates are dropped, so the receiver's inbox sees
        the object once."""
        done = self.env.event()
        item = (self.rank, tag, obj)
        self._post_ctl(dst_rank, item, nbytes, done)
        period = self.manager.config.heartbeat_period_us * US
        while not done.triggered:
            yield self.env.any_of([done, self.env.timeout(period)])
            if done.triggered:
                break
            self.unr.stats["replication_ctrl_retransmits"] += 1
            # With no failover capacity left on either side this keeps
            # the unreplicated semantics: it raises peer-dead if the
            # lane is gone for good.
            self._post_ctl(dst_rank, item, nbytes, done)


class ReplicationManager:
    """Owns the replica teams of one :class:`~repro.core.api.Unr`.

    Built by ``Unr(replication=...)`` (through :func:`arm`) once the
    library is complete; requires the reliability layer (idempotence
    tokens and watchdogs are what make token replay and fragment parking
    safe).  ``Unr`` arms the health layer for it: the degradation
    ladder is what routes a crashed peer's traffic to the recovery seam.
    """

    def __init__(self, unr: "Unr", config: ReplicationConfig) -> None:
        job = unr.job
        if unr.reliability is None:
            raise UnrUsageError(
                "replication requires the reliability layer "
                "(Unr(..., reliability=True)): token replay and failover "
                "parking ride on idempotence tokens and watchdogs"
            )
        if job.ranks_per_node != 1:
            raise UnrUsageError(
                "replication needs ranks_per_node == 1 so team members "
                "occupy independent fault domains"
            )
        if job.n_ranks % config.team_size:
            raise UnrUsageError(
                f"n_ranks={job.n_ranks} is not divisible by "
                f"team_size={config.team_size}"
            )
        self.unr = unr
        self.job = job
        self.env = unr.env
        self.config = config
        self.logical_size = job.n_ranks // config.team_size
        L = self.logical_size
        self._teams: List[_Team] = []
        for lid in range(L):
            members = tuple(lid + t * L for t in range(config.team_size))
            team = _Team(
                id=lid, members=members, primary=lid, live=list(members),
            )
            for m in members:
                team.digests[m] = hashlib.sha256()
            self._teams.append(team)
        #: physical rank -> team (covers every rank in the job)
        self._team_of: Dict[int, _Team] = {}
        for team in self._teams:
            for m in team.members:
                self._team_of[m] = team
        #: (node, sid) -> replicated-signal entry
        self._sigs: Dict[Tuple[int, int], _SigEntry] = {}
        #: per-team creation-ordered signal entries (failover rebinding)
        self._team_sigs: Dict[int, List[_SigEntry]] = {t.id: [] for t in self._teams}
        #: (rank, mr_handle) -> replicated-region entry
        self._mrs: Dict[Tuple[int, int], _MrEntry] = {}
        #: primary Blk (value-keyed) -> {mirror rank: mirror Blk}
        self._blks: Dict["Blk", Dict[int, "Blk"]] = {}
        #: (src_rank, dst_rank) -> env-time of the last heartbeat
        #: delivered from src to dst
        self.heartbeats: Dict[Tuple[int, int], float] = {}
        #: env-time of the first heartbeat round: the silence baseline
        #: of a pair whose first beat has not landed yet
        self._armed_at: Optional[float] = None
        self.world = TeamWorld(self)
        self.failover_log: List[Dict[str, float]] = []
        for rank in self.world.app_ranks:
            unr._endpoints[rank] = ReplicatedEndpoint(unr, rank, self)
        unr.engine.peer_recovery = self._recovery
        self._pulse_proc = self.env.process(self._pulse(), name="unr-replication")

    def _mirrors(self, rank: int) -> List[int]:
        team = self._team_of[rank]
        return sorted(m for m in team.live if m != team.primary)

    # -- the engine's peer-recovery seam ----------------------------------
    def _recovery(self, src_rank: int, dst_rank: int) -> Optional["Event"]:
        """An event that fires when the crashed endpoint's team settles
        (promotion or mirror drop), or ``None`` when neither endpoint is
        a crashed member of a team that can still recover."""
        for rank in (dst_rank, src_rank):
            team = self._team_of.get(rank)
            if team is None or len(team.live) <= 1:
                continue
            if self.job.node_of(rank).crashed:
                evt = self.env.event()
                team.waiters.append(evt)
                return evt
        return None

    # -- op shadowing ----------------------------------------------------
    @staticmethod
    def _descriptor(op: "TransferOp") -> bytes:
        return (
            f"{op.kind}|{op.src_rank}|{op.dst_rank}|{op.nbytes}|"
            f"{op.rsid}|{op.lsid}"
        ).encode()

    def _shadow(self, op: "TransferOp") -> None:
        """Shadow one posted application PUT/GET onto the live mirrors
        of the rank whose memory it lands on, in rank order, then fold
        it into the team digests."""
        if op.kind == "put":
            landing_rank, blk = op.dst_rank, op.remote_blk
        else:
            landing_rank, blk = op.src_rank, op.local_blk
        team = self._team_of.get(landing_rank)
        if team is None or blk is None:
            return
        mirror_blks = self._blks.get(blk)
        if mirror_blks is None:
            return
        desc = self._descriptor(op)
        team.digests[team.primary].update(desc)
        team.shadow_ops += 1
        engine = self.unr.engine
        for m in sorted(mirror_blks):
            if m not in team.live:
                continue
            mblk = mirror_blks[m]
            if op.kind == "put":
                shadow = engine.prepare_put(op.src_rank, op.local_blk, mblk, None, None)
            else:
                shadow = engine.prepare_get(m, mblk, op.remote_blk, None, None)
            engine.post_op(shadow)
            team.digests[m].update(desc)
            mr_entry = self._mrs.get((blk.rank, blk.mr_handle))
            if mr_entry is not None:
                mr_entry.inbound = True
            self.unr.stats["replication_shadow_ops"] += 1

    # -- the engine's in-flight table --------------------------------------
    def _undelivered_to(self, rank: int) -> List[Any]:
        """Delivery events of the reliable fragments in flight that land
        on ``rank``, in post order.  A PUT lands on its destination and
        a GET on its source; on a mirror, only shadows land."""
        return [
            frag.delivered
            for frag in self.unr.engine._inflight.values()
            if not frag.delivered.triggered
            and (frag.op.dst_rank if frag.op.kind == "put" else frag.op.src_rank) == rank
        ]

    def _owed(self, entry: _SigEntry) -> List[Tuple[int, int]]:
        """``(token, addend)`` of every notification that an in-flight
        reliable fragment, posted since ``entry``'s signal was created,
        still owes that signal — by token."""
        node, sid = entry.node, entry.sig.sid
        owed = []
        for frag in self.unr.engine._inflight.values():
            if frag.fid <= entry.since:
                continue
            sp = frag.sp
            for spec, token in ((sp.remote_sig, frag.rtok), (sp.local_sig, frag.ltok)):
                if spec is not None and token is not None and spec[0] == node and spec[1] == sid:
                    owed.append((token, spec[2]))
        return sorted(owed)

    # -- heartbeats and the monitor sweep --------------------------------
    def _pulse(self) -> Generator[Any, Any, None]:
        """The replication pulse: heartbeat posts + suspicion sweep.

        Terminates itself when the simulation has otherwise drained and
        no team owes a failover, so ``run_job``'s ``env.run()`` still
        returns on job completion.
        """
        env = self.env
        period = self.config.heartbeat_period_us * US
        while True:
            yield env.timeout(period)
            if not env._sched and not self._pending_duty():
                return
            if self._armed_at is None:
                self._armed_at = env.now
            self._send_heartbeats()
            yield from self._sweep(period)

    def _pending_duty(self) -> bool:
        job = self.job
        for team in self._teams:
            if team.waiters:
                return True
            if len(team.live) > 1 and any(
                job.node_of(m).crashed for m in team.live
            ):
                return True
        return False

    def _send_heartbeats(self) -> None:
        job, channel = self.job, self.unr.channel
        for team in self._teams:
            if len(team.live) <= 1:
                continue
            for src in team.live:
                if job.node_of(src).crashed:
                    continue
                for dst in team.live:
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
        promotion also needs the node to be crashed."""
        last = self.heartbeats.get((src_rank, dst_rank), self._armed_at)
        if last is None:
            return 0
        return int((self.env.now - last) / period)

    def _sweep(self, period: float) -> Generator[Any, Any, None]:
        job = self.job
        k = self.config.suspicion_threshold
        for team in self._teams:
            if len(team.live) <= 1:
                continue
            for member in list(team.live):
                observers = [o for o in team.live if o != member]
                missed = min(
                    self.missed_heartbeats(member, o, period) for o in observers
                )
                if missed < k:
                    if member in team.suspected:
                        del team.suspected[member]
                        self.unr.stats["replication_suspicions_cleared"] += 1
                        if self.unr.obs is not None:
                            self.unr.obs.event(
                                "replication.suspicion_cleared",
                                track="replication", team=team.id, rank=member,
                            )
                    continue
                if member not in team.suspected:
                    team.suspected[member] = self.env.now
                    self.unr.stats["replication_suspicions"] += 1
                    if self.unr.obs is not None:
                        self.unr.obs.event(
                            "replication.suspected", track="replication",
                            team=team.id, rank=member, missed=missed,
                        )
                # Promotion needs the fail-stop confirmation: a partition
                # that silences heartbeats while the node lives keeps the
                # member suspected, never promoted against.
                if not job.node_of(member).crashed:
                    continue
                if member == team.primary:
                    yield from self._promote(team)
                else:
                    self._drop_mirror(team, member)

    # -- failover --------------------------------------------------------
    def _warmth(self, team: _Team, member: int) -> float:
        times = [
            self.heartbeats.get((member, o)) or -1.0
            for o in team.live
            if o != member
        ]
        return max(times) if times else -1.0

    def _promote(self, team: _Team) -> Generator[Any, Any, None]:
        """Fail the team over onto its warmest live mirror."""
        env, unr, job = self.env, self.unr, self.job
        primary = team.primary
        detected_at = env.now
        last_proof = max(
            (self._warmth(team, primary), 0.0)
        )
        candidates = sorted(
            m
            for m in team.live
            if m != primary and not job.node_of(m).crashed
        )
        if not candidates:
            self._team_exhausted(team, detected_at)
            return
        # Warmest replica first (most recent delivered heartbeat),
        # lowest rank as the deterministic tie-break.
        promoted = min(candidates, key=lambda m: (-self._warmth(team, m), m))

        # 1. Quiesce the promoted mirror's shadow stream so its memory
        #    holds everything the primary ever acknowledged.
        pending = self._undelivered_to(promoted)
        while pending:
            yield env.all_of(pending)
            pending = self._undelivered_to(promoted)

        # 2. Divergence check: the mirror must have shadowed exactly the
        #    primary's op stream — refuse a silent split-brain.
        want = team.digests[primary].hexdigest()
        got = team.digests[promoted].hexdigest()
        if want != got:
            ctx = FailoverContext(
                team=team.id, dead_rank=primary, promoted_rank=-1,
                ttr_us=(env.now - last_proof) / US,
                replayed_ops=team.shadow_ops,
            )
            err = UnrFailoverError(
                f"divergence check failed for team {team.id}: mirror "
                f"rank {promoted} shadowed a different op stream than "
                f"primary rank {primary} (refusing split-brain)",
                context=ctx,
            )
            self._fail_team(team, err)
            raise err

        # --- atomic section: no yields until the failover is complete ---
        # 3. Cancel in-flight fragments to the dead node; their owed
        #    notifications discharge through the idempotent-add path.
        drained = unr.engine.drain(primary)
        mirror_node = job.node_of(promoted).index
        # 4. Rebind the primary's signals (waiters included) into the
        #    mirror node's table and replay the tokens the fragments
        #    still in flight owe them.
        replayed = 0
        for entry in self._team_sigs[team.id]:
            sig = entry.sig
            old_key = (entry.node, sig.sid)
            placeholder = entry.mirrors.pop(promoted, None)
            if placeholder is not None:
                # The reserved mirror slot hands its sid to the live
                # signal object; stale raw-spec adds still resolve via
                # the alias left in the dead node's table.
                unr._sig_tables[mirror_node][sig.sid] = sig
            for token, addend in self._owed(entry):
                unr._apply_add(mirror_node, sig.sid, addend, token=token)
                replayed += 1
            entry.node = mirror_node
            self._sigs.pop(old_key, None)
            self._sigs[(mirror_node, sig.sid)] = entry
        # 5. Restore received-data regions from the mirror's copy and
        #    consume the mirror's registrations.
        for key in sorted(self._mrs):
            entry2 = self._mrs[key]
            if entry2.mr.owner_rank != primary:
                continue
            mirror_mr = entry2.mirrors.pop(promoted, None)
            if (
                mirror_mr is not None
                and entry2.inbound
                and entry2.mr.bytes_view is not None
                and mirror_mr.bytes_view is not None
            ):
                entry2.mr.bytes_view[:] = mirror_mr.bytes_view
        # 6. Re-point the logical rank's placement: every later post,
        #    NIC pick and liveness check resolves onto the mirror node.
        job.reassign_node(primary, mirror_node)
        team.live.remove(promoted)
        team.suspected.pop(primary, None)
        team.failed_over = True
        ttr_us = (env.now - last_proof) / US
        self.failover_log.append(
            {
                "team": team.id,
                "dead_rank": primary,
                "promoted_rank": promoted,
                "detected_at_us": detected_at / US,
                "completed_at_us": env.now / US,
                "ttr_us": ttr_us,
                "replayed_tokens": replayed,
                "drained_fragments": drained,
                "shadow_ops": team.shadow_ops,
            }
        )
        unr.stats["replication_failovers"] += 1
        unr.stats["replication_tokens_replayed"] += replayed
        if unr.obs is not None:
            unr.obs.event(
                "replication.failover", track="replication",
                team=team.id, dead_rank=primary, promoted_rank=promoted,
                ttr_us=ttr_us, replayed_tokens=replayed, drained=drained,
            )
            unr.obs.complete_span(
                "replication", f"failover team{team.id}",
                last_proof, env.now, cat="replication",
                dead_rank=primary, promoted_rank=promoted,
            )
            unr.obs.observe("replication.ttr_us", ttr_us)
        self._settle_waiters(team)

    def _drop_mirror(self, team: _Team, member: int) -> None:
        """A mirror died: stop shadowing to it and cancel its stream."""
        self.unr.engine.drain(member)
        team.live.remove(member)
        team.suspected.pop(member, None)
        self.unr.stats["replication_mirrors_dropped"] += 1
        if self.unr.obs is not None:
            self.unr.obs.event(
                "replication.mirror_dropped", track="replication",
                team=team.id, rank=member,
            )
        self._settle_waiters(team)

    def _settle_waiters(self, team: _Team) -> None:
        # resolve(): a waiter nobody yielded (the ordered-lane check and
        # a fragment's first post only ask) costs no kernel event.
        waiters, team.waiters = team.waiters, []
        for evt in waiters:
            if not evt.triggered:
                evt.resolve()

    def _fail_team(self, team: _Team, err: UnrFailoverError) -> None:
        """Propagate a refused failover into everything blocked on it."""
        waiters, team.waiters = team.waiters, []
        for evt in waiters:
            # A waiter nobody yielded has no frame to raise into.
            if not evt.triggered and evt.callbacks:
                evt.fail(err)
        for entry in self._team_sigs[team.id]:
            entry.sig.fail_waiters(err)
        team.live = [team.primary]

    def _team_exhausted(self, team: _Team, detected_at: float) -> None:
        ctx = FailoverContext(
            team=team.id, dead_rank=team.primary, promoted_rank=-1,
            ttr_us=(self.env.now - detected_at) / US,
            replayed_ops=team.shadow_ops,
        )
        err = UnrFailoverError(
            f"team {team.id} exhausted: primary rank {team.primary} is "
            f"dead and no live mirror remains",
            context=ctx,
        )
        self._fail_team(team, err)
        raise err

    # -- divergence audit (finalize / tests) -----------------------------
    def divergence_ok(self) -> bool:
        """True when every team's live members agree on the shadowed op
        stream (the check failover enforces, audit-style)."""
        for team in self._teams:
            want = team.digests[team.primary].hexdigest()
            for m in team.live:
                if team.digests[m].hexdigest() != want:
                    return False
        return True

    def snapshot(self) -> Dict[str, Any]:
        return {
            "logical_size": self.logical_size,
            "team_size": self.config.team_size,
            "teams": [
                {
                    "id": t.id,
                    "primary": t.primary,
                    "live": list(t.live),
                    "failed_over": t.failed_over,
                    "shadow_ops": t.shadow_ops,
                }
                for t in self._teams
            ],
            "failovers": len(self.failover_log),
        }

    def __repr__(self) -> str:
        return (
            f"<ReplicationManager logical={self.logical_size} "
            f"team_size={self.config.team_size} "
            f"failovers={len(self.failover_log)}>"
        )
