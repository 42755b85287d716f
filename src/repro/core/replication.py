"""Replication-based resilience tier: transparent rank teams with
heartbeat-driven warm failover (TeaMPI-style, ROADMAP resilience item).

``Unr(replication=ReplicationConfig(team_size=k))`` splits the job's
physical ranks into replica **teams**: with logical world size
``L = n_ranks // team_size``, logical rank ``l`` is served by the
physical ranks ``{l + t*L for t in range(team_size)}``.  The
application runs only on the primary incarnation (physical ranks
``0..L-1``, see :attr:`TeamWorld.app_ranks`); the remaining members are
**warm mirrors** whose node-local resources (memory regions, signal
table slots, BLKs) are allocated in lock-step with the primary's.

Three mechanisms make a node crash cost a failover instead of a job:

* **Op shadowing** — every application PUT/GET that lands data on a
  replicated rank is re-prepared against the mirrors' BLKs and replayed
  through the same :class:`~repro.core.engine.TransferEngine` post
  pipeline (one shadow ``TransferOp`` per live mirror, no signals, no
  tokens), so each mirror's memory converges on the primary's received
  state.  A per-team descriptor digest over the shadowed op stream is
  the divergence check consumed at promotion time.

* **Token ledger** — at post time the engine reports every reliable
  fragment's ``(node, sid, addend, token)`` notification spec; specs
  aimed at a replicated rank's signals are recorded in that team's
  ledger and dropped again when the fragment retires.  At failover the
  ledger is replayed through the normal idempotent-add path: tokens the
  primary already applied are suppressed by the signal's dedup window,
  tokens lost with the dead node are discharged exactly once.

* **Heartbeats** — one sim-time pulse loop posts small ordered-lane
  beats between team members every ``heartbeat_period_us`` and sweeps
  the :class:`~repro.core.health.HealthMonitor` heartbeat ledger.  A
  member is *suspected* after ``suspicion_threshold`` whole periods of
  silence at every observer, and *promoted against* only when the
  fail-stop predicate (the same ``fallback_dead`` check that ends the
  PR 5 degradation ladder) confirms the crash — so a control-plane
  partition raises suspicion but never a false promotion.

Failover itself re-points the logical rank at the warmest mirror:
in-flight fragments to the dead node are cancelled through the PR 5
drain machinery, the token ledger is replayed, received-data regions
are restored from the mirror's copy, the signal objects (with their
blocked ``sig_wait`` waiters) are rebound into the mirror node's signal
table, and the rank's placement is re-assigned so every later post
re-resolves onto the surviving node.  Everything runs in one
no-yield section of the monitor process, so waiters observe the
completed failover atomically.

With replication disarmed this module is never imported into the hot
path: every hook in the engine is behind an ``unr.replication is None``
check and unreplicated runs stay bit-identical to the golden
fingerprint corpus.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Dict, List, Optional, Tuple

from ..units import US
from .errors import FailoverContext, UnrFailoverError, UnrUsageError

if TYPE_CHECKING:  # pragma: no cover
    from .api import Unr
    from .memory import Blk, MemoryRegion
    from .signal import Signal

__all__ = ["ReplicationConfig", "ReplicationManager", "TeamWorld", "HEARTBEAT_BYTES"]

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
    divergence_check: bool = True

    def __post_init__(self) -> None:
        if self.team_size < 2:
            raise ValueError("team_size must be >= 2 (1 means no replication)")
        if self.heartbeat_period_us <= 0.0:
            raise ValueError("heartbeat_period_us must be positive")
        if self.suspicion_threshold < 1:
            raise ValueError("suspicion_threshold must be >= 1")


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
    coordinates, and the reserved mirror-table slots."""

    sig: "Signal"
    node: int
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
    #: outstanding shadow-fragment delivery events, per mirror member
    outstanding: Dict[int, List[Any]] = field(default_factory=dict)
    #: events succeeded when this team completes a failover / drop
    waiters: List[Any] = field(default_factory=list)
    failed_over: bool = False


class ReplicationManager:
    """Owns the replica teams of one :class:`~repro.core.api.Unr`.

    Constructed by ``Unr(replication=...)`` after the transfer engine;
    requires the reliability layer (idempotence tokens and watchdogs are
    what make ledger replay and fragment parking safe) and arms the
    health layer automatically for the heartbeat ledger and fail-stop
    predicate.
    """

    def __init__(self, unr: "Unr", config: ReplicationConfig) -> None:
        job = unr.job
        if unr.reliability is None:
            raise UnrUsageError(
                "replication requires the reliability layer "
                "(Unr(..., reliability=True)): ledger replay and failover "
                "parking ride on idempotence tokens and watchdogs"
            )
        if unr.health is None:
            raise UnrUsageError("replication requires the health layer")
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
        #: (node, sid) -> owed-notification ledger {token: addend}
        self._ledgers: Dict[Tuple[int, int], Dict[int, int]] = {}
        #: (node, sid) -> replicated-signal entry
        self._sigs: Dict[Tuple[int, int], _SigEntry] = {}
        #: per-team creation-ordered signal entries (failover rebinding)
        self._team_sigs: Dict[int, List[_SigEntry]] = {t.id: [] for t in self._teams}
        #: (rank, mr_handle) -> replicated-region entry
        self._mrs: Dict[Tuple[int, int], _MrEntry] = {}
        #: primary Blk (value-keyed) -> {mirror rank: mirror Blk}
        self._blks: Dict["Blk", Dict[int, "Blk"]] = {}
        #: fragment id -> notification specs recorded in a ledger
        self._frag_specs: Dict[int, List[Tuple[Tuple[int, int], int]]] = {}
        #: re-entrancy guard: True while posting mirror resources/ops
        self._in_shadow = False
        #: team currently being shadowed (delivery-event attribution)
        self._shadow_target: Optional[Tuple[_Team, int]] = None
        self.world = TeamWorld(self)
        self.failover_log: List[Dict[str, float]] = []
        self._pulse_proc = self.env.process(self._pulse(), name="unr-replication")

    # -- membership ------------------------------------------------------
    def covers(self, rank: int) -> bool:
        """Does a live replica team stand behind ``rank``?  True while
        the rank's team still has a surviving member to promote (or has
        already completed its failover)."""
        team = self._team_of.get(rank)
        if team is None:
            return False
        return team.failed_over or len(team.live) > 1

    def failover_wait(self, src_rank: int, dst_rank: int) -> Optional[Any]:
        """An event that fires when the crashed endpoint's team settles
        (promotion or mirror drop), or ``None`` when neither endpoint is
        backed by a live team.  Used by the engine watchdog to park a
        fragment across a failover instead of declaring the peer dead."""
        for rank in (dst_rank, src_rank):
            team = self._team_of.get(rank)
            if team is None or len(team.live) <= 1:
                continue
            if self.job.node_of(rank).crashed:
                evt = self.env.event()
                team.waiters.append(evt)
                return evt
        return None

    def ctrl_gate(self, src_rank: int, dst_rank: int):
        """Generator: hold an ordered-lane send while the destination's
        team is mid-failover; yields nothing on the healthy path."""
        team = self._team_of.get(dst_rank)
        if (
            team is not None
            and len(team.live) > 1
            and self.job.node_of(dst_rank).crashed
        ):
            evt = self.env.event()
            team.waiters.append(evt)
            yield evt

    # -- resource mirroring ---------------------------------------------
    def _mirrors(self, rank: int) -> List[int]:
        team = self._team_of[rank]
        return sorted(m for m in team.live if m != team.primary)

    def on_mem_reg(self, mr: "MemoryRegion") -> None:
        if self._in_shadow:
            return
        import numpy as np

        entry = _MrEntry(mr=mr)
        self._mrs[(mr.owner_rank, mr.handle)] = entry
        self._in_shadow = True
        try:
            for m in self._mirrors(mr.owner_rank):
                ep = self.unr.endpoint(m)
                if mr.array is None:
                    entry.mirrors[m] = ep.mem_reg_virtual(mr.nbytes)
                else:
                    entry.mirrors[m] = ep.mem_reg(np.zeros_like(mr.array))
        finally:
            self._in_shadow = False

    def on_sig_init(self, sig: "Signal") -> None:
        if self._in_shadow:
            return
        team = self._team_of[sig.owner_rank]
        node = self.job.node_of(sig.owner_rank).index
        entry = _SigEntry(sig=sig, node=node)
        self._in_shadow = True
        try:
            for m in self._mirrors(sig.owner_rank):
                mirror = self.unr.endpoint(m).sig_init(sig.num_event)
                if mirror.sid != sig.sid:
                    raise UnrUsageError(
                        f"replicated signal allocation diverged: primary "
                        f"sid={sig.sid} on rank {sig.owner_rank} vs mirror "
                        f"sid={mirror.sid} on rank {m} — team members must "
                        f"allocate signals in the same order"
                    )
                entry.mirrors[m] = mirror
        finally:
            self._in_shadow = False
        self._sigs[(node, sig.sid)] = entry
        self._ledgers[(node, sig.sid)] = {}
        self._team_sigs[team.id].append(entry)

    def on_sig_free(self, sig: "Signal") -> None:
        if self._in_shadow:
            return
        node = self.job.node_of(sig.owner_rank).index
        entry = self._sigs.pop((node, sig.sid), None)
        self._ledgers.pop((node, sig.sid), None)
        if entry is None:
            return
        team = self._team_of[sig.owner_rank]
        if entry in self._team_sigs[team.id]:
            self._team_sigs[team.id].remove(entry)
        self._in_shadow = True
        try:
            for m in sorted(entry.mirrors):
                self.unr.endpoint(m).sig_free(entry.mirrors[m])
        finally:
            self._in_shadow = False

    def on_blk_init(self, blk: "Blk") -> None:
        if self._in_shadow:
            return
        mr_entry = self._mrs.get((blk.rank, blk.mr_handle))
        if mr_entry is None:
            return
        mirrors: Dict[int, "Blk"] = {}
        self._in_shadow = True
        try:
            for m in sorted(mr_entry.mirrors):
                mirror_mr = mr_entry.mirrors[m]
                # Mirror BLKs carry no signal: shadow transfers move data
                # only; notification state lives in the token ledger.
                mirrors[m] = self.unr.endpoint(m).blk_init(
                    mirror_mr, blk.offset, blk.size, signal=None
                )
        finally:
            self._in_shadow = False
        self._blks[blk] = mirrors

    # -- op shadowing ----------------------------------------------------
    def _descriptor(self, op: Any) -> bytes:
        return (
            f"{op.kind}|{op.src_rank}|{op.dst_rank}|{op.nbytes}|"
            f"{op.rsid}|{op.lsid}"
        ).encode()

    def on_op_posted(self, op: Any) -> None:
        """Shadow one application PUT/GET onto the live mirrors of the
        rank whose memory it lands on.  Called by ``post_op`` after the
        primary post; re-entrant shadow posts are guarded out."""
        if self._in_shadow or op.kind not in ("put", "get"):
            return
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
        mirrors = [m for m in sorted(mirror_blks) if m in team.live]
        for m in mirrors:
            mblk = mirror_blks[m]
            self._in_shadow = True
            self._shadow_target = (team, m)
            try:
                if op.kind == "put":
                    shadow = engine.prepare_put(
                        op.src_rank, op.local_blk, mblk, None, None
                    )
                else:
                    shadow = engine.prepare_get(m, mblk, op.remote_blk, None, None)
                engine.post_op(shadow)
            finally:
                self._in_shadow = False
                self._shadow_target = None
            team.digests[m].update(desc)
            mr_entry = self._mrs.get((blk.rank, blk.mr_handle))
            if mr_entry is not None:
                mr_entry.inbound = True
            self.unr.stats["replication_shadow_ops"] += 1

    def on_shadow_fragment(self, delivered: Any) -> None:
        """Engine feed: a reliable shadow fragment's delivery event, for
        the pre-promotion quiesce."""
        if self._shadow_target is None:
            return
        team, member = self._shadow_target
        pending = team.outstanding.setdefault(member, [])
        # Lazily prune what already delivered so the list stays small.
        if len(pending) > 32:
            pending[:] = [e for e in pending if not e.triggered]
        pending.append(delivered)

    # -- token ledger ----------------------------------------------------
    def note_fragment(
        self,
        fid: int,
        remote_sig: Optional[Tuple[int, int, int]],
        rtok: Optional[int],
        local_sig: Optional[Tuple[int, int, int]],
        ltok: Optional[int],
    ) -> None:
        """Engine feed: one reliable fragment's notification specs.
        Specs aimed at a replicated signal are recorded as owed tokens
        until the fragment retires."""
        recorded: List[Tuple[Tuple[int, int], int]] = []
        for spec, token in ((remote_sig, rtok), (local_sig, ltok)):
            if spec is None or token is None:
                continue
            key = (spec[0], spec[1])
            ledger = self._ledgers.get(key)
            if ledger is None:
                continue
            ledger[token] = spec[2]
            recorded.append((key, token))
        if recorded:
            self._frag_specs[fid] = recorded

    def on_fragment_retired(self, fid: int) -> None:
        """Engine feed: the fragment settled (delivered, drained or
        cancelled) — its tokens are no longer owed."""
        recorded = self._frag_specs.pop(fid, None)
        if recorded is None:
            return
        for key, token in recorded:
            ledger = self._ledgers.get(key)
            if ledger is not None:
                ledger.pop(token, None)

    # -- heartbeats and the monitor sweep --------------------------------
    def _pulse(self):
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
        job, health, channel = self.job, self.unr.health, self.unr.channel
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
                        on_deliver=self._beat_cb(health, src, dst),
                        ordered=True,
                    )
                    self.unr.stats["replication_heartbeats"] += 1

    @staticmethod
    def _beat_cb(health: Any, src: int, dst: int):
        return lambda _payload: health.record_heartbeat(src, dst)

    def _sweep(self, period: float):
        health, job = self.unr.health, self.job
        k = self.config.suspicion_threshold
        for team in self._teams:
            if len(team.live) <= 1:
                continue
            for member in list(team.live):
                observers = [o for o in team.live if o != member]
                missed = min(
                    health.missed_heartbeats(member, o, period)
                    for o in observers
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
        health = self.unr.health
        times = [
            health.last_heartbeat(member, o) or -1.0
            for o in team.live
            if o != member
        ]
        return max(times) if times else -1.0

    def _promote(self, team: _Team):
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
        pending = [
            e for e in team.outstanding.get(promoted, ()) if not e.triggered
        ]
        while pending:
            yield env.all_of(pending)
            pending = [
                e for e in team.outstanding.get(promoted, ()) if not e.triggered
            ]
        team.outstanding.pop(promoted, None)

        # 2. Divergence check: the mirror must have shadowed exactly the
        #    primary's op stream — refuse a silent split-brain.
        if self.config.divergence_check:
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
        #    mirror node's table and replay the owed-token ledger.
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
            ledger = self._ledgers.pop(old_key, {})
            for token in sorted(ledger):
                unr._apply_add(mirror_node, sig.sid, ledger[token], token=token)
                replayed += 1
            entry.node = mirror_node
            self._sigs.pop(old_key, None)
            self._sigs[(mirror_node, sig.sid)] = entry
            self._ledgers[(mirror_node, sig.sid)] = {}
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
        team.outstanding.pop(member, None)
        self.unr.stats["replication_mirrors_dropped"] += 1
        if self.unr.obs is not None:
            self.unr.obs.event(
                "replication.mirror_dropped", track="replication",
                team=team.id, rank=member,
            )
        self._settle_waiters(team)

    def _settle_waiters(self, team: _Team) -> None:
        waiters, team.waiters = team.waiters, []
        for evt in waiters:
            if not evt.triggered:
                evt.succeed()

    def _fail_team(self, team: _Team, err: UnrFailoverError) -> None:
        """Propagate a refused failover into everything blocked on it."""
        waiters, team.waiters = team.waiters, []
        for evt in waiters:
            if not evt.triggered:
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
