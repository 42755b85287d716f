"""Simulated MPI: world, communicators, point-to-point protocols.

Two-sided semantics follow Figure 1a/1b of the paper:

* **Eager** — the message (plus envelope) is shipped immediately; the
  receiver matches it against posted receives (or buffers it as an
  unexpected message).  The send completes at injection.
* **Rendezvous** — above the eager threshold the sender ships an RTS
  envelope; the data only moves after the receiver matches and returns
  a CTS (the handshake whose cost one-sided communication avoids).

All operations are generators driven inside rank programs; nonblocking
variants return :class:`Request` objects (waitable events).
"""

from __future__ import annotations

from itertools import count
from typing import Any, Dict, List, Optional, Sequence

import numpy as np

from ..units import US
from ..runtime import Job
from ..sim import AllOf, Environment, Event, FilterStore
from .config import MpiConfig

__all__ = ["MpiWorld", "Comm", "Request", "MpiError"]


class MpiError(RuntimeError):
    """Misuse of the simulated MPI."""


class Request:
    """Handle for a nonblocking operation; ``yield req.event`` to wait."""

    __slots__ = ("event",)

    def __init__(self, event: Event):
        self.event = event

    @property
    def complete(self) -> bool:
        return self.event.triggered

    @property
    def value(self) -> Any:
        return self.event.value


class Phantom:
    """A message body with a size but no data (at-scale model runs).

    Transfers of :class:`Phantom` objects are timed exactly like real
    payloads of ``nbytes`` bytes; the receiver gets the Phantom back.
    """

    __slots__ = ("nbytes",)

    def __init__(self, nbytes: int):
        if nbytes < 0:
            raise ValueError("phantom size must be non-negative")
        self.nbytes = int(nbytes)

    def __repr__(self) -> str:
        return f"<Phantom {self.nbytes}B>"


def _nbytes(data: Any) -> int:
    if isinstance(data, np.ndarray):
        return data.nbytes
    if isinstance(data, (bytes, bytearray, memoryview)):
        return len(data)
    if isinstance(data, Phantom):
        return data.nbytes
    return 64  # python-object envelope


def _snapshot(data: Any) -> Any:
    if isinstance(data, np.ndarray):
        return data.copy()
    return data


class MpiWorld:
    """All MPI state for one job."""

    def __init__(self, job: Job, config: Optional[MpiConfig] = None):
        self.job = job
        self.env: Environment = job.env
        self.config = config or MpiConfig()
        self._boxes: List[FilterStore] = [
            FilterStore(self.env) for _ in range(job.n_ranks)
        ]
        self._cts: Dict[int, Event] = {}
        self._msgid = count()
        self._comms: Dict[tuple, "Comm"] = {}
        self.stats = {"eager": 0, "rendezvous": 0, "messages": 0, "bytes": 0}

    # ------------------------------------------------------------------
    def comm_world(self, rank: int) -> "Comm":
        """The per-rank COMM_WORLD handle."""
        return self.comm(rank, range(self.job.n_ranks))

    def comm(self, rank: int, ranks: Sequence[int]) -> "Comm":
        """Per-rank handle for the communicator over global ``ranks``.

        Deterministic construction (no wire traffic): every member must
        call with the same ``ranks`` tuple — the moral equivalent of
        ``MPI_Comm_split`` with precomputed colors."""
        key = (rank, tuple(ranks))
        if key not in self._comms:
            self._comms[key] = Comm(self, rank, tuple(ranks))
        return self._comms[key]

    # -- wire helpers -----------------------------------------------------
    def _post(
        self, src_g: int, dst_g: int, nbytes: int, item: tuple,
        ordered: bool = True, done: bool = True,
    ) -> Optional[Event]:
        """Ship ``item`` to dst's matching box; returns local completion
        (``None`` with ``done=False``)."""
        src_nic = self.job.nic_of(src_g)
        dst_nic = self.job.nic_of(dst_g)
        box = self._boxes[dst_g]
        return src_nic.post_put(
            dst_nic,
            nbytes,
            payload=item,
            on_deliver=lambda m: box.put(m),
            ordered=ordered,
            done=done,
        )

    def _send_proc(self, src_g: int, dst_g: int, data: Any, tag: Any, done: Event):
        cfg = self.config
        env = self.env
        nbytes = _nbytes(data)
        self.stats["messages"] += 1
        self.stats["bytes"] += nbytes
        # Looked up per send: the recorder may be attached to the
        # cluster after this world was built.
        rec = getattr(self.job.cluster, "obs", None)
        if rec is not None:
            rec.count("mpi.messages")
            rec.count("mpi.bytes", nbytes)
        yield env.timeout(cfg.sw_overhead_us * US)
        if nbytes <= cfg.eager_threshold:
            self.stats["eager"] += 1
            if rec is not None:
                rec.count("mpi.eager")
            inj = self._post(
                src_g, dst_g, nbytes,
                ("eager", src_g, tag, _snapshot(data), nbytes),
            )
            yield inj  # eager send completes once the data is injected
            done.succeed()
        else:
            self.stats["rendezvous"] += 1
            if rec is not None:
                rec.count("mpi.rendezvous")
            msgid = next(self._msgid)
            cts = self.env.event()
            self._cts[msgid] = cts
            self._post(src_g, dst_g, 64, ("rts", src_g, tag, msgid, nbytes), done=False)
            yield cts  # wait for the receiver's clear-to-send
            del self._cts[msgid]
            yield env.timeout(cfg.sw_overhead_us * US)
            inj = self._post(
                src_g, dst_g, nbytes,
                ("data", msgid, _snapshot(data)),
                ordered=False,
            )
            yield inj
            done.succeed()

    def _recv_proc(self, me_g: int, src_g: Optional[int], tag: Any, done: Event):
        env = self.env
        cfg = self.config

        def envelope_match(m):
            if m[0] not in ("eager", "rts"):
                return False
            if src_g is not None and m[1] != src_g:
                return False
            return tag is None or m[2] == tag

        msg = yield self._boxes[me_g].get(envelope_match)
        yield env.timeout(cfg.sw_overhead_us * US)
        if msg[0] == "eager":
            done.succeed(msg[3])
            return
        # Rendezvous: grant CTS back to the sender, then take the data.
        _kind, sender_g, _tag, msgid, _nbytes = msg
        cts_evt = self._cts[msgid]
        self.job.nic_of(me_g).post_put(
            self.job.nic_of(sender_g),
            64,
            on_deliver=lambda _m: cts_evt.succeed(),
            ordered=True,
            done=False,
        )
        data_msg = yield self._boxes[me_g].get(
            lambda m: m[0] == "data" and m[1] == msgid
        )
        done.succeed(data_msg[2])


class Comm:
    """Per-rank communicator handle (mpi4py-flavoured API, generators)."""

    def __init__(self, world: MpiWorld, me_global: int, ranks: tuple):
        if me_global not in ranks:
            raise MpiError(f"rank {me_global} not in communicator {ranks}")
        self.world = world
        self.env = world.env
        self.ranks = ranks
        self.me_global = me_global
        self.rank = ranks.index(me_global)
        self.size = len(ranks)

    def translate(self, local: int) -> int:
        if not 0 <= local < self.size:
            raise MpiError(f"peer rank {local} out of range 0..{self.size - 1}")
        return self.ranks[local]

    def sub(self, local_ranks: Sequence[int]) -> "Comm":
        """Deterministic sub-communicator (this rank must belong)."""
        globals_ = tuple(self.ranks[r] for r in local_ranks)
        return self.world.comm(self.me_global, globals_)

    # -- point to point ------------------------------------------------------
    def isend(self, dst: int, data: Any, tag: Any = 0) -> Request:
        done = self.env.event()
        self.env.process(
            self.world._send_proc(self.me_global, self.translate(dst), data, tag, done),
            name=f"isend{self.me_global}->{dst}",
        )
        return Request(done)

    def irecv(self, src: Optional[int] = None, tag: Any = 0) -> Request:
        done = self.env.event()
        src_g = None if src is None else self.translate(src)
        self.env.process(
            self.world._recv_proc(self.me_global, src_g, tag, done),
            name=f"irecv{self.me_global}<-{src}",
        )
        return Request(done)

    def send(self, dst: int, data: Any, tag: Any = 0):
        req = self.isend(dst, data, tag)
        yield req.event

    def recv(self, src: Optional[int] = None, tag: Any = 0):
        req = self.irecv(src, tag)
        data = yield req.event
        return data

    def sendrecv(self, dst: int, data: Any, src: int, tag: Any = 0):
        sreq = self.isend(dst, data, tag)
        rreq = self.irecv(src, tag)
        got = yield rreq.event
        yield sreq.event
        return got

    def waitall(self, requests: Sequence[Request]):
        yield AllOf(self.env, [r.event for r in requests])
        return [r.value for r in requests]

    def __repr__(self) -> str:
        return f"<Comm rank={self.rank}/{self.size}>"
