"""Simulated MPI: world, communicators, point-to-point protocols.

Two-sided semantics follow Figure 1a/1b of the paper:

* **Eager** — the message (plus envelope) is shipped immediately; the
  receiver matches it against posted receives (or buffers it as an
  unexpected message).  The send completes at injection.
* **Rendezvous** — above the eager threshold the sender ships an RTS
  envelope; the data only moves after the receiver matches and returns
  a CTS (the handshake whose cost one-sided communication avoids).

Blocking operations are generators driven inside rank programs;
nonblocking variants return :class:`Request` objects (waitable events).
Behind a request no process runs: ``isend`` and ``irecv`` each start a
chain of :meth:`~repro.sim.Environment.defer` callbacks, one queue entry
per step (start, software overhead, match hop, CTS hop, data hop) plus
the wire's own.

Matching follows MPI's non-overtaking rule: a new envelope goes to the
earliest posted receive that matches it, and a new receive takes the
earliest arrived envelope that matches it; ``src=None`` is
``ANY_SOURCE`` and ``tag=None`` is ``ANY_TAG``.
"""

from __future__ import annotations

from functools import partial
from itertools import count
from typing import Any, Callable, Dict, List, Optional, Sequence

import numpy as np

from ..units import US
from ..runtime import Job
from ..sim import AllOf, Environment, Event
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


def _matches(src_g: Optional[int], tag: Any, msg: tuple) -> bool:
    """Does envelope ``msg`` satisfy a receive of ``(src_g, tag)``?
    ``None`` is the wildcard for either."""
    return (src_g is None or msg[1] == src_g) and (tag is None or msg[2] == tag)


def _snapshot(data: Any) -> Any:
    if isinstance(data, np.ndarray):
        return data.copy()
    return data


class MpiWorld:
    """All MPI state for one job.

    Matching state is per destination rank: the receives posted and not
    yet matched (oldest first, each ``(src, tag, continuation)``) and
    the envelopes that arrived before any receive took them (in arrival
    order).  A rendezvous in flight is one entry of ``_rndv``: its msgid
    maps to what the CTS runs on the sender until the receiver matches
    the RTS, then to what the data runs on the receiver.
    """

    def __init__(self, job: Job, config: Optional[MpiConfig] = None):
        self.job = job
        self.env: Environment = job.env
        self.config = config or MpiConfig()
        self._posted: List[List[tuple]] = [[] for _ in range(job.n_ranks)]
        self._unexpected: List[List[tuple]] = [[] for _ in range(job.n_ranks)]
        self._arrivals = [partial(self._arrive, r) for r in range(job.n_ranks)]
        self._rndv: Dict[int, Callable[[Any], None]] = {}
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

    # -- matching -----------------------------------------------------------
    def _arrive(self, dst_g: int, msg: tuple) -> None:
        """An envelope lands at ``dst_g``: the earliest posted receive
        that matches it takes it (one queue entry, the match hop), or it
        waits as unexpected."""
        posted = self._posted[dst_g]
        for i, (src_g, tag, matched) in enumerate(posted):
            if _matches(src_g, tag, msg):
                del posted[i]
                self.env.defer(0.0, matched, msg)
                return
        self._unexpected[dst_g].append(msg)

    def _on_data(self, item: tuple) -> None:
        """Rendezvous data lands: hop to its receiver.  A second copy
        (a duplicating fabric) finds no receiver and is dropped."""
        then = self._rndv.pop(item[0], None)
        if then is not None:
            self.env.defer(0.0, then, item[1])

    # -- wire helpers -----------------------------------------------------
    def _post(
        self, src_g: int, dst_g: int, nbytes: int, item: Any,
        on_deliver: Callable[[Any], None], ordered: bool = True, done: bool = True,
    ) -> Optional[Event]:
        """Ship ``item`` to ``dst_g``; returns local completion (``None``
        with ``done=False``)."""
        return self.job.nic_of(src_g).post_put(
            self.job.nic_of(dst_g),
            nbytes,
            payload=item,
            on_deliver=on_deliver,
            ordered=ordered,
            done=done,
        )

    # -- the two protocols, as callback chains ------------------------------
    # Each step is one queue entry, minted at the moment and with the
    # delay the protocol waits.  Adding, merging or moving a step changes
    # the ``(time, phase, seq)`` order of same-time events, and with it
    # the golden ``<platform>/mpi`` fingerprints.

    def _send(self, src_g: int, dst_g: int, data: Any, tag: Any, done: Event) -> None:
        env = self.env
        cfg = self.config
        overhead = cfg.sw_overhead_us * US
        nbytes = _nbytes(data)

        def start(_: Any) -> None:
            self.stats["messages"] += 1
            self.stats["bytes"] += nbytes
            # Looked up per send: the recorder may be attached to the
            # cluster after this world was built.
            rec = getattr(self.job.cluster, "obs", None)
            if rec is not None:
                rec.count("mpi.messages")
                rec.count("mpi.bytes", nbytes)
            env.defer(overhead, eager if nbytes <= cfg.eager_threshold else rts, rec)

        def eager(rec: Any) -> None:
            self.stats["eager"] += 1
            if rec is not None:
                rec.count("mpi.eager")
            inj = self._post(
                src_g, dst_g, nbytes,
                ("eager", src_g, tag, _snapshot(data), nbytes),
                self._arrivals[dst_g],
            )
            assert inj is not None
            inj.callbacks.append(complete)  # eager send completes at injection

        def rts(rec: Any) -> None:
            self.stats["rendezvous"] += 1
            if rec is not None:
                rec.count("mpi.rendezvous")
            msgid = next(self._msgid)
            self._rndv[msgid] = cleared  # wait for the receiver's clear-to-send
            self._post(
                src_g, dst_g, 64, ("rts", src_g, tag, msgid, nbytes),
                self._arrivals[dst_g], done=False,
            )

        def cleared(msgid: int) -> None:
            env.defer(overhead, ship, msgid)

        def ship(msgid: int) -> None:
            inj = self._post(
                src_g, dst_g, nbytes, (msgid, _snapshot(data)),
                self._on_data, ordered=False,
            )
            assert inj is not None
            inj.callbacks.append(complete)

        def complete(_: Event) -> None:
            done.succeed()

        env.defer(0.0, start)

    def _recv(self, me_g: int, src_g: Optional[int], tag: Any, done: Event) -> None:
        env = self.env

        def start(_: Any) -> None:
            box = self._unexpected[me_g]
            for i, msg in enumerate(box):
                if _matches(src_g, tag, msg):
                    del box[i]
                    env.defer(0.0, matched, msg)
                    return
            self._posted[me_g].append((src_g, tag, matched))

        def matched(msg: tuple) -> None:
            env.defer(self.config.sw_overhead_us * US, accept, msg)

        def accept(msg: tuple) -> None:
            if msg[0] == "eager":
                done.succeed(msg[3])
                return
            # Rendezvous: grant CTS back to the sender, then take the data.
            sender_g, msgid = msg[1], msg[3]
            cleared = self._rndv[msgid]
            self._rndv[msgid] = done.succeed
            self._post(me_g, sender_g, 64, None,
                       lambda _m: env.defer(0.0, cleared, msgid), done=False)

        env.defer(0.0, start)


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
        self.world._send(self.me_global, self.translate(dst), data, tag, done)
        return Request(done)

    def irecv(self, src: Optional[int] = None, tag: Any = 0) -> Request:
        done = self.env.event()
        src_g = None if src is None else self.translate(src)
        self.world._recv(self.me_global, src_g, tag, done)
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
