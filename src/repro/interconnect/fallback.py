"""MPI fallback channel (paper §IV-A, Figure 6 "UNR Fallback").

When no native Notifiable RMA Primitive is available, UNR transports
messages over plain two-sided MPI.  Notification is then *software*:
the arrival of the (ordered) MPI message itself tells the receiver the
data is complete, so no custom bits and no polling thread are involved —
but every transfer pays the MPI software overhead, and transfers above
the eager threshold pay a rendezvous handshake (an extra round trip
before the data moves).

This is why the fallback's usefulness is platform-dependent (paper
Figure 6): on TH-XY the MPI stack is lean (fallback still +20% for
PowerLLEL thanks to sync removal), while on TH-2A the rendezvous
handshake of its dated MPI serializes against the notification traffic
(−61%).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Optional

from ..units import US
from ..runtime import Job
from ..sim import Event
from .capabilities import Capability
from .channel import RmaChannel

__all__ = ["MpiFallbackConfig", "MpiFallbackChannel"]


@dataclass(frozen=True)
class MpiFallbackConfig:
    """Software characteristics of the host MPI implementation."""

    eager_threshold: int = 16 * 1024
    sw_overhead_us: float = 0.8  # per-message send+match cost
    rendezvous_rtts: float = 1.0  # handshake round trips above threshold
    #: multiplicative penalty on serialization for rendezvous traffic
    #: (models pipelining loss of handshake-per-message protocols)
    rendezvous_bw_penalty: float = 1.0


_FALLBACK_CAP = Capability(
    interface="MPI",
    interconnect="any (two-sided fallback)",
    systems="all",
    put_local=0, put_remote=0, get_local=0, get_remote=0,
)


class MpiFallbackChannel(RmaChannel):
    """UNR transport channel over two-sided MPI messages."""

    #: notifications are delivered by MPI progress, not by CQ polling
    software_notify = True

    def __init__(self, job: Job, config: Optional[MpiFallbackConfig] = None):
        super().__init__(job, _FALLBACK_CAP)
        self.config = config or MpiFallbackConfig()

    def put(
        self,
        src_rank: int,
        dst_rank: int,
        nbytes: int,
        *,
        payload: Any = None,
        on_deliver: Optional[Callable[[Any], None]] = None,
        remote_custom: Optional[int] = None,
        local_custom: Optional[int] = None,
        remote_action: Optional[Callable[[], None]] = None,
        local_action: Optional[Callable[[], None]] = None,
        rail: int = 0,
        ordered: bool = True,
        remote_token: Any = None,
        local_token: Any = None,
        done: bool = True,
    ) -> Optional[Event]:
        # remote_token/local_token are accepted for interface parity and
        # ignored: MPI delivery is already exactly-once (reliable lane).
        cfg = self.config
        env = self.env
        src_nic = self.job.nic_of(src_rank, rail)
        dst_nic = self.job.nic_of(dst_rank, rail)
        done_evt = env.event() if done else None
        # Looked up per call: the recorder may attach after channel creation.
        rec = getattr(self.job.cluster, "obs", None)
        if rec is not None:
            rec.count("fallback.puts")
            rec.count(
                "fallback.rendezvous" if nbytes > cfg.eager_threshold
                else "fallback.eager"
            )

        def deliver(data: Any) -> None:
            if on_deliver is not None:
                on_deliver(data)
            if remote_action is not None:
                remote_action()

        # One queue entry per step, as in ``MpiWorld``: start, the
        # software overhead, the handshake round trip(s), the injection.
        def start(_: Any) -> None:
            # Per-message MPI software overhead on the sender.
            env.defer(cfg.sw_overhead_us * US,
                      handshake if nbytes > cfg.eager_threshold else inject, nbytes)

        def handshake(_: Any) -> None:
            # Rendezvous: RTS/CTS handshake round trip(s) first.
            rtt = 2.0 * src_nic.latency + 2.0 * cfg.sw_overhead_us * US
            env.defer(cfg.rendezvous_rtts * rtt, inject,
                      int(nbytes * cfg.rendezvous_bw_penalty))

        def inject(eff_bytes: int) -> None:
            inj = src_nic.post_put(
                dst_nic,
                eff_bytes,
                payload=payload,
                on_deliver=deliver,
                ordered=True,  # MPI p2p is ordered per (src, dst)
            )
            assert inj is not None
            inj.callbacks.append(injected)

        def injected(_: Any) -> None:
            if local_action is not None:
                local_action()
            if done_evt is not None:
                done_evt.resolve(env.now)

        env.defer(0.0, start)
        return done_evt

    def get(
        self,
        src_rank: int,
        dst_rank: int,
        nbytes: int,
        *,
        fetch: Optional[Callable[[], Any]] = None,
        on_deliver: Optional[Callable[[Any], None]] = None,
        remote_custom: Optional[int] = None,
        local_custom: Optional[int] = None,
        remote_action: Optional[Callable[[], None]] = None,
        local_action: Optional[Callable[[], None]] = None,
        rail: int = 0,
        remote_token: Any = None,
        local_token: Any = None,
        done: bool = True,
    ) -> Optional[Event]:
        """Emulated GET: a request message plus a data message back."""
        cfg = self.config
        env = self.env
        src_nic = self.job.nic_of(src_rank, rail)
        dst_nic = self.job.nic_of(dst_rank, rail)
        done_evt = env.event() if done else None
        rec = getattr(self.job.cluster, "obs", None)
        if rec is not None:
            rec.count("fallback.gets")

        # Steps as in put: start, overhead, request landed, overhead,
        # response landed.
        def start(_: Any) -> None:
            # Request leg (small message, sender overhead).
            env.defer(cfg.sw_overhead_us * US, request)

        def request(_: Any) -> None:
            src_nic.post_put(
                dst_nic, 64, on_deliver=lambda _: env.defer(0.0, serve), ordered=True,
                done=False,
            )

        def serve(_: Any) -> None:
            data = fetch() if fetch is not None else None
            if remote_action is not None:
                remote_action()
            # Response leg with the data.
            env.defer(cfg.sw_overhead_us * US, respond, data)

        def respond(data: Any) -> None:
            dst_nic.post_put(
                src_nic,
                nbytes,
                payload=data,
                on_deliver=lambda d: env.defer(0.0, land, d),
                ordered=True,
                done=False,
            )

        def land(got: Any) -> None:
            if on_deliver is not None:
                on_deliver(got)
            if local_action is not None:
                local_action()
            if done_evt is not None:
                done_evt.resolve(env.now)

        env.defer(0.0, start)
        return done_evt
