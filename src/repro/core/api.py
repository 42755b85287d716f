"""UNR public API: the library object and per-rank endpoints.

Mirrors the paper's interface (Code 2):

=====================  =======================================
Paper                  Here
=====================  =======================================
``UNR_Mem_Reg``        :meth:`UnrEndpoint.mem_reg`
``UNR_Sig_Init``       :meth:`UnrEndpoint.sig_init`
``UNR_Sig_Reset``      :meth:`UnrEndpoint.sig_reset`
``UNR_Sig_Wait``       :meth:`UnrEndpoint.sig_wait`
``UNR_Blk_Init``       :meth:`UnrEndpoint.blk_init`
``UNR_Put``            :meth:`UnrEndpoint.put`
``UNR_Get``            :meth:`UnrEndpoint.get`
``UNR_RMA_Plan``       :meth:`UnrEndpoint.plan`
=====================  =======================================

The endpoint methods that wait (``sig_wait``, ``exchange_blk``) are
generators — drive them with ``yield from`` inside rank programs.
``put``/``get`` are non-blocking posts: completion is observed through
signals, never through return values (that is the point of the paper).

This module is a thin facade: ``put``/``get``/``send_ctl`` only resolve
per-call signal overrides and hand a descriptor to the unified
:class:`~repro.core.engine.TransferEngine`, where stripe planning,
reliability and posting live once for every datapath.  Completion
records come back through the per-node
:class:`~repro.core.engine.ProgressEngine` into the ``_handle_*``
handlers registered below.  The passive tiers — observation and the
sanitizer — are imported only when ``Unr`` arms them.
"""

from __future__ import annotations

import warnings
from collections import Counter
from typing import TYPE_CHECKING, Any, Generator, List, Optional, Set, Tuple, Union

import numpy as np

from ..interconnect import MpiFallbackChannel, RmaChannel, get_capability
from ..netsim import CompletionRecord
from ..runtime import Job
from ..sim import FilterStore
from ..units import US
from .engine import CTRL_BYTES, ProgressEngine, TransferEngine
from .health import HealthMonitor
from .errors import (
    UnrDegradeWarning,
    UnrSyncWarning,
    UnrUsageError,
)
from .levels import LevelPolicy, max_signals, policy_for_channel
from .memory import Blk, MemoryRegion
from .polling import PollingConfig
from .signal import DEFAULT_N_BITS, Signal
from .transport import DEFAULT_STRIPE_THRESHOLD

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..analysis.sanitizer import SanitizerReport, UnrSanitizer
    from ..obs import Recorder

__all__ = ["Unr", "UnrEndpoint"]

_UNSET = object()


def notified_sids(
    local_blk: Blk, remote_blk: Blk, remote_sid: Any = _UNSET, local_signal: Any = _UNSET
) -> Tuple[Optional[int], Optional[int]]:
    """``(rsid, lsid)``: the signals a post notifies.  Its blocks' own,
    unless the call overrides one — ``remote_sid`` a target-side signal
    id, ``local_signal`` a local :class:`Signal`, either ``None`` for
    no notification on that side."""
    rsid = remote_blk.signal_sid if remote_sid is _UNSET else remote_sid
    if local_signal is _UNSET:
        lsid = local_blk.signal_sid
    else:
        lsid = None if local_signal is None else local_signal.sid
    return rsid, lsid


class Unr:
    """One UNR library instance for a job.

    Parameters
    ----------
    job:
        The :class:`~repro.runtime.Job` to serve.
    channel:
        Interface name (``glex``, ``verbs``, ``utofu``, ``ugni``,
        ``pami``, ``portals``, ``mpi`` for the fallback) or a channel
        instance.
    polling:
        :class:`PollingConfig`, a mode string, or ``None`` for the
        default (busy polling when the level requires it, none for
        Level 4 / the fallback).
    mode2_split:
        Level-2 mode-2: number of pointer bits ``x`` out of 32
        (``None`` selects mode 1: all bits for ``p``).
    stripe_threshold:
        Messages at least this large are striped over multiple rails
        when the level supports aggregation.
    max_stripe_rails:
        Cap on rails used per message (``None`` = all rails).
    reliability:
        ``False`` (default) — trust the fabric, the happy path.
        ``True`` arms the reliability layer: every unordered PUT/GET
        fragment gets a delivery watchdog with timeout +
        exponential-backoff retransmit and rail failover (the policy
        constants live in :mod:`repro.core.transport`), and all
        notifications carry idempotence tokens so re-deliveries never
        double-count (required when a
        :class:`~repro.netsim.faults.FaultInjector` is attached).
    sanitize:
        Arm the :class:`~repro.analysis.sanitizer.UnrSanitizer` runtime
        checks (freed or degraded signal ids, overlapping registrations,
        leaked notifications); off by default.  The checks are passive —
        an armed run is trace-identical to a disarmed one; call
        :meth:`finalize` at the end of the job to collect the report.
    observe:
        Arm the :class:`~repro.obs.Recorder` observability layer —
        plan/collective spans, signal-wait latency histograms, poll-loop
        and retransmit counters, NIC transfer records, Perfetto export.
        ``True`` attaches a recorder to the job's cluster (or reuses the
        one already attached, e.g. by ``Recorder.attach``); a
        :class:`~repro.obs.Recorder` instance attaches that recorder;
        off by default.  Like the sanitizer, observation is passive: an
        armed run is trace-fingerprint-identical to a disarmed one.
    health:
        Arm the fault-domain resilience layer
        (:class:`~repro.core.health.HealthMonitor`): per-``(src, dst,
        rail)`` circuit breakers scored from watchdog timeouts and CQ
        completions gate rail selection, and when the breakers leave no
        live RMA rail to a peer, reliable ops transparently degrade to
        the MPI fallback channel with identical notification-token
        semantics — raising
        :class:`~repro.core.errors.UnrPeerDeadError` only when the
        fallback lane is dead too (fail-stop node crash).  ``True``
        arms it (the breaker constants live in
        :mod:`repro.core.health`) and needs ``reliability=True``: the
        degradation rests on the watchdog's idempotence tokens, so
        ``health=True`` alone raises :class:`UnrUsageError`; off by
        default.  Healthy armed runs are trace-fingerprint-identical to
        disarmed ones (the breakers are passive until something fails).

    A synchronization error found by ``sig_reset`` or an event overflow
    found by ``sig_wait`` counts its stat and warns
    :class:`~repro.core.errors.UnrSyncWarning`; to raise instead, set
    ``warnings.simplefilter("error", UnrSyncWarning)``.
    """

    def __init__(
        self,
        job: Job,
        channel: Union[str, RmaChannel] = "glex",
        *,
        polling: Union[PollingConfig, str, None] = None,
        mode2_split: Optional[int] = None,
        stripe_threshold: int = DEFAULT_STRIPE_THRESHOLD,
        max_stripe_rails: Optional[int] = None,
        reliability: bool = False,
        sanitize: Optional[bool] = None,
        observe: Union["Recorder", bool, None] = None,
        health: bool = False,
    ) -> None:
        self.job = job
        self.env = job.env
        if isinstance(channel, str):
            channel = (MpiFallbackChannel(job) if channel.lower() == "mpi"
                       else RmaChannel(job, get_capability(channel)))
        self.channel = channel
        #: lazily-built degraded lane (reused when ``channel`` already is one)
        self._fallback_channel: Optional[MpiFallbackChannel] = (
            channel if isinstance(channel, MpiFallbackChannel) else None
        )
        if health and not reliability:
            raise UnrUsageError(
                "health=True needs reliability=True: degrading to the fallback "
                "lane rests on the watchdog's idempotence tokens"
            )
        if stripe_threshold < 0:
            raise UnrUsageError("stripe_threshold must be >= 0")
        if max_stripe_rails is not None and max_stripe_rails < 1:
            raise UnrUsageError("max_stripe_rails must be >= 1 (or None)")
        self.stripe_threshold = stripe_threshold
        self.max_stripe_rails = max_stripe_rails
        self.reliability = bool(reliability)
        self._op_seq = 0

        self.put_remote_policy = policy_for_channel(channel, "put_remote", mode2_split)
        self.put_local_policy = policy_for_channel(channel, "put_local", mode2_split)
        self.get_remote_policy = policy_for_channel(channel, "get_remote", mode2_split)
        self.get_local_policy = policy_for_channel(channel, "get_local", mode2_split)
        #: addend width per RMA record kind: what the progress engine's
        #: handler needs to split a record's custom bits into (p, a)
        self._record_a_bits = {
            "put_remote": self.put_remote_policy.a_bits,
            "put_local": self.put_local_policy.a_bits,
            "get_remote": self.get_remote_policy.a_bits,
            "get_local": self.get_local_policy.a_bits,
        }

        def side_n(policy: LevelPolicy) -> int:
            n = policy.max_n_bits(DEFAULT_N_BITS)
            if policy.multi_channel and policy.a_bits > 0:
                # Leave addend headroom for striping (up to 8 rails).
                n = min(n, max(policy.a_bits - 5, 1))
            return n

        #: the event-field width ``N`` of every signal: the widest the
        #: addend bits allow, capped at 32 as on TH Express
        self.n_bits = min(
            side_n(self.put_remote_policy),
            side_n(self.put_local_policy),
            side_n(self.get_local_policy),
        )
        self.sid_capacity = max_signals(self.put_remote_policy)

        n_nodes = job.cluster.n_nodes
        self._sig_tables: List[dict] = [dict() for _ in range(n_nodes)]
        self._sid_next: List[int] = [0] * n_nodes
        self._sid_free: List[list] = [[] for _ in range(n_nodes)]
        self._freed_sids: List[Set[int]] = [set() for _ in range(n_nodes)]
        self._mrs: dict = {}
        self._mr_next: List[int] = [0] * job.n_ranks
        self._inbox: List[FilterStore] = [FilterStore(self.env) for _ in range(job.n_ranks)]
        self._endpoints: dict = {}
        self.stats: Counter = Counter()
        self._degrade_warned = False
        self.obs: Optional["Recorder"] = None
        self.sanitizer: Optional["UnrSanitizer"] = None

        self.health: Optional[HealthMonitor] = HealthMonitor(self) if health else None

        #: the unified transfer engine: every put/get/ctrl/fallback post
        #: flows through its :meth:`~repro.core.engine.TransferEngine.post_op`.
        self.engine = TransferEngine(self)

        self.polling_config = self._resolve_polling(polling)
        self.engines: List[ProgressEngine] = []
        if self.polling_config.mode != "none":
            for node in job.cluster.nodes:
                eng = ProgressEngine(
                    self.env, node, self.polling_config,
                    self._handle_unknown_record, health=self.health,
                )
                for kind in self._record_a_bits:
                    eng.register(kind, self._handle_rma_record)
                eng.register("ctrl", self._handle_ctrl_record)
                self.engines.append(eng)

        # Last: the passive tiers wrap what the lines above built.
        if observe:
            from ..obs.instrument import observe_unr

            self.obs = observe_unr(self, observe)
        if sanitize:
            from ..analysis.sanitizer import UnrSanitizer

            self.sanitizer = UnrSanitizer(self)

    # ------------------------------------------------------------------
    def _resolve_polling(self, polling: Union[PollingConfig, str, None]) -> PollingConfig:
        if isinstance(polling, PollingConfig):
            return polling
        if isinstance(polling, str):
            return PollingConfig(mode=polling)
        # Auto: Level 4 and the software-notified fallback need no thread.
        if self.channel.software_notify:
            return PollingConfig(mode="none")
        if self.put_remote_policy.hw_offload:
            return PollingConfig(mode="none")
        return PollingConfig(mode="busy")

    @property
    def level(self) -> int:
        return self.channel.level()

    def endpoint(self, rank: int) -> "UnrEndpoint":
        if rank not in self._endpoints:
            self._endpoints[rank] = UnrEndpoint(self, rank)
        return self._endpoints[rank]

    # -- signal table ----------------------------------------------------
    def _node_index(self, rank: int) -> int:
        return self.job.node_of(rank).index

    def _alloc_signal(self, rank: int, num_event: int) -> Signal:
        node = self._node_index(rank)
        if self._sid_free[node]:
            sid = self._sid_free[node].pop()
            self._freed_sids[node].discard(sid)
        else:
            sid = self._sid_next[node]
            self._sid_next[node] += 1
        sig = Signal(self.env, sid, num_event, n_bits=self.n_bits, owner_rank=rank)
        self._sig_tables[node][sid] = sig
        if self.obs is not None:
            self.obs.record_proto(
                "sig_init", rank=rank, node=node, sid=sid, num_event=num_event,
            )
        if sid >= self.sid_capacity:
            if self.obs is not None:
                self.obs.count("core.degraded_sids")
            if not self._degrade_warned:
                self._degrade_warned = True
                warnings.warn(
                    f"signal table exceeded the {self.sid_capacity} ids addressable "
                    f"with {self.put_remote_policy.p_bits} pointer bits at level "
                    f"{self.put_remote_policy.level}; overflowing signals use the "
                    "Level-0 ordered-message path",
                    UnrDegradeWarning,
                    stacklevel=3,
                )
        return sig

    def _free_signal(self, sig: Signal) -> None:
        node = self._node_index(sig.owner_rank)
        if self._sig_tables[node].get(sig.sid) is not sig:
            raise UnrUsageError(
                f"signal {sig.sid} is not registered (double free?)"
            )
        del self._sig_tables[node][sig.sid]
        sig.armed = False
        self._sid_free[node].append(sig.sid)
        self._freed_sids[node].add(sig.sid)
        if self.obs is not None:
            self.obs.record_proto(
                "sig_free", rank=sig.owner_rank, node=node, sid=sig.sid,
                num_event=sig.num_event,
            )

    def _signal_at(self, node: int, sid: int) -> Optional[Signal]:
        return self._sig_tables[node].get(sid)

    def _next_token(self) -> int:
        """Globally unique idempotence token for one reliable fragment."""
        self._op_seq += 1
        return self._op_seq

    def _apply_add(self, node: int, sid: int, addend: int, token: Optional[int] = None) -> None:
        sig = self._signal_at(node, sid)
        if sig is None:
            self.stats["stray_completions"] += 1
            if self.obs is not None:
                self.obs.record_proto(
                    "stray_add", rank=-1, node=node, sid=sid,
                    addend=addend, token=token, applied=False,
                )
            return
        before = sig.n_duplicates
        sig.add(addend, token=token)
        dup = sig.n_duplicates != before
        if dup:
            self.stats["duplicates_suppressed"] += 1
        else:
            self.stats["adds_applied"] += 1
        if self.obs is not None:
            self.obs.record_proto(
                "add", rank=sig.owner_rank, node=node, sid=sid,
                addend=addend, token=token, applied=not dup,
                triggered=sig.is_zero,
            )

    # -- progress-engine handlers (one per record kind) -----------------
    def _handle_rma_record(self, node: int, record: CompletionRecord) -> None:
        """RMA completion: decode the custom bits (as
        :func:`~repro.core.levels.decode_custom` does), apply the add.
        An untokened add nobody observes cannot be a duplicate and goes
        straight to its signal; the rest go through :meth:`_apply_add`.
        """
        custom = record.custom
        a_bits = self._record_a_bits[record.kind]
        if a_bits == 0:
            sid, addend = custom, -1
        else:
            sid = custom >> a_bits
            addend = custom & ((1 << a_bits) - 1)
            if addend >> (a_bits - 1):
                addend -= 1 << a_bits
        token = record.token
        if token is None and self.obs is None:
            sig = self._sig_tables[node].get(sid)
            if sig is not None:
                sig.add(addend)
                self.stats["adds_applied"] += 1
                return
        self._apply_add(node, sid, addend, token=token)

    def _handle_ctrl_record(self, node: int, record: CompletionRecord) -> None:
        """Level-0 control message: the (p, a) pair travels as payload."""
        sid, addend = record.payload
        self._apply_add(node, sid, addend, token=record.token)

    def _handle_unknown_record(self, node: int, record: CompletionRecord) -> None:
        self.stats["unknown_records"] += 1

    # -- memory ------------------------------------------------------------
    def _register_mr(
        self, rank: int, array: Optional[np.ndarray], virtual_nbytes: Optional[int] = None
    ) -> MemoryRegion:
        handle = self._mr_next[rank]
        self._mr_next[rank] += 1
        mr = MemoryRegion(rank, handle, array, virtual_nbytes=virtual_nbytes)
        if self.sanitizer is not None:
            self.sanitizer.on_mem_reg(mr)
        self._mrs[(rank, handle)] = mr
        return mr

    def _mr_of(self, blk: Blk) -> MemoryRegion:
        try:
            return self._mrs[(blk.rank, blk.mr_handle)]
        except KeyError:
            raise UnrUsageError(
                f"BLK references unregistered memory (rank={blk.rank}, "
                f"handle={blk.mr_handle})"
            ) from None

    # -- sync-error accounting -----------------------------------------------
    def _sync_error(self, message: str) -> None:
        self.stats["sync_errors"] += 1
        warnings.warn(message, UnrSyncWarning, stacklevel=4)

    def _overflow_error(self, message: str) -> None:
        self.stats["overflow_errors"] += 1
        warnings.warn(message, UnrSyncWarning, stacklevel=4)

    # -- resilience -----------------------------------------------------------
    def _fallback(self) -> MpiFallbackChannel:
        """The degraded MPI lane used when every RMA rail to a peer is
        gated (health layer).  Built lazily; when the primary channel
        already *is* the fallback it is reused as-is."""
        if self._fallback_channel is None:
            self._fallback_channel = MpiFallbackChannel(self.job)
        return self._fallback_channel

    def drain(self, peer_rank: Optional[int] = None) -> int:
        """Quiesce in-flight reliable fragments (drain protocol).

        Fragments against *dead* peers (fail-stop crash — even the
        fallback lane is down) are cancelled and their pending
        notifications discharged through the idempotent-add path, so no
        signal token leaks; fragments to live peers are left to their
        watchdogs.  ``peer_rank`` restricts the sweep to one peer.
        Called automatically by :meth:`finalize`.  Returns the number of
        fragments cancelled.
        """
        cancelled = self.engine.drain(peer_rank)
        if cancelled:
            self.stats["drains"] += 1
            if self.obs is not None:
                self.obs.event(
                    "health.drain", track="health", cancelled=cancelled,
                    peer_rank=-1 if peer_rank is None else peer_rank,
                )
        return cancelled

    def finalize(self) -> Optional["SanitizerReport"]:
        """End-of-job hook: drain dead-peer fragments, then collect the
        sanitizer report (if armed).

        The drain runs first so notifications owed by cancelled
        fragments are discharged before the leak scan.  The scan covers
        every node's signal table: leaked notifications (counters stuck
        mid-count), set overflow bits and stray completions.  Returns
        ``None`` when the sanitizer is disarmed; idempotent otherwise.
        """
        self.drain()
        if self.sanitizer is None:
            return None
        if not self.sanitizer.report.finalized:
            self.sanitizer.finalize()
        return self.sanitizer.report

    def __repr__(self) -> str:
        return (
            f"<Unr channel={self.channel.name} level={self.level} "
            f"N={self.n_bits} polling={self.polling_config.mode}>"
        )


class UnrEndpoint:
    """Per-rank view of the UNR library (use from that rank's program)."""

    def __init__(self, unr: Unr, rank: int) -> None:
        self.unr = unr
        self.rank = rank
        self.env = unr.env
        self.job = unr.job

    @property
    def node_index(self) -> int:
        """Node index of this rank."""
        return self.unr._node_index(self.rank)

    # -- registration --------------------------------------------------------
    def mem_reg(self, array: np.ndarray) -> MemoryRegion:
        """Register ``array`` for RMA (paper: ``UNR_Mem_Reg``)."""
        return self.unr._register_mr(self.rank, array)

    def mem_reg_virtual(self, nbytes: int) -> MemoryRegion:
        """Register a *virtual* region: geometry without backing storage.

        Timing, signals and notification behave exactly as for real
        regions; only the data plane is elided.  Used for performance
        runs whose working set exceeds host memory (e.g. the 1728-node
        strong-scaling experiments)."""
        return self.unr._register_mr(self.rank, None, virtual_nbytes=nbytes)

    def sig_init(self, num_event: int) -> Signal:
        """Create a signal triggering after ``num_event`` completions."""
        return self.unr._alloc_signal(self.rank, num_event)

    def sig_free(self, sig: Signal) -> None:
        self.unr._free_signal(sig)

    def blk_init(
        self,
        mr: MemoryRegion,
        offset: int,
        size: int,
        signal: Optional[Signal] = None,
    ) -> Blk:
        """Declare a block of ``mr`` (paper: ``UNR_Blk_Init``).

        ``signal`` is bound to the block: it receives one event whenever
        the block finishes sending (used as PUT source) or receiving
        (used as PUT destination).
        """
        if mr.owner_rank != self.rank:
            raise UnrUsageError(
                f"rank {self.rank} cannot create a BLK over rank "
                f"{mr.owner_rank}'s memory region"
            )
        mr.slice(offset, size)  # bounds check
        sid = None
        if signal is not None:
            # The caller's own signal is on the caller's node by
            # definition; placements are resolved only for another's.
            owner = signal.owner_rank
            if owner != self.rank and (
                self.unr._node_index(owner) != self.node_index
            ):
                raise UnrUsageError("signal must live on the caller's node")
            sid = signal.sid
        return Blk(rank=self.rank, mr_handle=mr.handle, offset=offset, size=size, signal_sid=sid)

    # -- signal operations ----------------------------------------------------
    def sig_reset(self, sig: Signal) -> None:
        """Re-arm ``sig`` (paper: ``UNR_Sig_Reset``).

        Must be called *after* the corresponding buffers are ready for
        the next iteration's RMA; if the counter is not zero, a message
        arrived earlier than expected — a synchronization error in the
        application (paper §IV-D)."""
        if not sig.is_zero:
            self.unr._sync_error(
                f"sig_reset(sid={sig.sid}): counter={sig.counter:#x} != 0 — "
                f"{'a message arrived before the buffer was declared ready' if sig.counter < sig.num_event or sig.overflow_bit else 'signal was never fully triggered'}"
            )
        sig._reset_counter()
        obs = self.unr.obs
        if obs is not None:
            obs.record_proto(
                "reset", rank=self.rank, node=self.node_index, sid=sig.sid,
                num_event=sig.num_event,
            )

    def sig_wait(self, sig: Signal) -> Generator[Any, Any, Signal]:
        """Generator: wait until ``sig`` triggers (paper: ``UNR_Sig_Wait``).

        Also checks the event-overflow detect bit: if more than
        ``num_event`` events were received the application sent more
        messages than the receiver armed for."""
        obs = self.unr.obs
        if obs is None:
            yield sig.wait_event()
        else:
            t0 = self.env.now
            with obs.span(f"rank{self.rank}", "unr.sig_wait", cat="core", sid=sig.sid):
                yield sig.wait_event()
            obs.observe("core.sig_wait_us", (self.env.now - t0) / US)
            obs.record_proto(
                "wait", rank=self.rank, node=self.node_index, sid=sig.sid,
                num_event=sig.num_event, t0=t0,
            )
        if sig.overflow_bit:
            self.unr._overflow_error(
                f"sig_wait(sid={sig.sid}): overflow bit set — more than "
                f"num_event={sig.num_event} events received"
            )
        return sig

    def sig_test(self, sig: Signal) -> bool:
        """Non-blocking check of ``sig`` (returns True when triggered)."""
        return sig.is_zero

    # -- out-of-band control (BLK exchange, paper Code 2 lines 6/12) --------
    def send_ctl(
        self, dst_rank: int, obj: Any, tag: Any = None, nbytes: int = CTRL_BYTES
    ) -> Generator[Any, Any, None]:
        """Generator: send a small control object to ``dst_rank``.

        ``nbytes`` sets the on-the-wire size (defaults to a bare (p, a)
        envelope; pass the payload size when shipping real data)."""
        inbox = self.unr._inbox[dst_rank]
        done = self.env.event()

        def deliver(item: Any) -> None:
            if done.triggered:
                return  # a duplicated copy (fault_ordered) already landed
            inbox.put(item)
            done.succeed()

        engine = self.unr.engine
        engine.post_op(
            engine.prepare_ctrl(
                self.rank, dst_rank, payload=(self.rank, tag, obj),
                on_deliver=deliver, nbytes=max(nbytes, CTRL_BYTES),
            )
        )
        yield done

    def recv_ctl(self, src_rank: int, tag: Any = None) -> Generator[Any, Any, Any]:
        """Generator: receive a control object from ``src_rank``."""
        item = yield self.unr._inbox[self.rank].get(
            lambda m: m[0] == src_rank and m[1] == tag
        )
        obs = self.unr.obs
        if obs is not None:
            obs.record_proto(
                "ctrl_recv", rank=self.rank, node=self.node_index,
                peer=src_rank, tag=None if tag is None else str(tag),
            )
        return item[2]

    def exchange_blk(
        self, peer_rank: int, blk: Blk, tag: Any = "blk"
    ) -> Generator[Any, Any, Blk]:
        """Generator: swap BLKs with ``peer_rank``; returns the peer's.

        This is the paper's replacement for manual remote-offset
        arithmetic: each side learns a transportable handle instead of
        computing remote addresses."""
        yield from self.send_ctl(peer_rank, blk, tag=tag)
        peer_blk = yield from self.recv_ctl(peer_rank, tag=tag)
        return peer_blk

    # -- data movement -----------------------------------------------------
    def put(
        self,
        src_blk: Blk,
        dst_blk: Blk,
        *,
        remote_sid: Any = _UNSET,
        local_signal: Any = _UNSET,
    ) -> None:
        """Non-blocking notifiable PUT (paper: ``UNR_Put``).

        Data from ``src_blk`` (local) lands in ``dst_blk`` (remote).
        The signal bound to ``dst_blk`` fires at the target when all
        bytes have arrived; the signal bound to ``src_blk`` fires here
        when the source buffer is reusable.  Either can be overridden
        per-call (``remote_sid`` — the target-side signal id;
        ``local_signal`` — a local :class:`Signal`)."""
        rsid, lsid = notified_sids(src_blk, dst_blk, remote_sid, local_signal)
        engine = self.unr.engine
        engine.post_op(engine.prepare_put(self.rank, src_blk, dst_blk, rsid, lsid))

    def get(
        self,
        local_blk: Blk,
        remote_blk: Blk,
        *,
        remote_sid: Any = _UNSET,
        local_signal: Any = _UNSET,
    ) -> None:
        """Non-blocking notifiable GET (paper: ``UNR_Get``).

        Data from ``remote_blk`` lands in ``local_blk``.  The signal
        bound to ``local_blk`` fires here when the data has arrived; the
        signal bound to ``remote_blk`` fires at the target when the read
        completes (where the interface supports GET-remote custom bits —
        elsewhere UNR sends a Level-0 control message after arrival)."""
        rsid, lsid = notified_sids(local_blk, remote_blk, remote_sid, local_signal)
        engine = self.unr.engine
        engine.post_op(engine.prepare_get(self.rank, local_blk, remote_blk, rsid, lsid))

    # -- plans ---------------------------------------------------------------
    def plan(self) -> "RmaPlan":
        """Record a reusable sequence of PUT/GET (paper: ``UNR_RMA_Plan``)."""
        from .plan import RmaPlan

        return RmaPlan(self)

    def __repr__(self) -> str:
        return f"<UnrEndpoint rank={self.rank}>"
