"""MPI-RMA windows with the three synchronization schemes of Figure 4.

* **Fence** — collective epoch close: transmit every deferred op, wait
  for remote completion (delivery + ack), then a barrier.
* **PSCW** (Post-Start-Complete-Wait) — generalized active target.  As
  in real MPI implementations, small puts are *deferred and coalesced
  with the epoch-closing token*: ``complete`` ships one two-sided-style
  message carrying both the data and the completion notification —
  which is why the paper observes PSCW latency tracking two-sided
  communication (and occasionally beating UNR on IB/RoCE), while
  remaining a poor fit for computation-communication overlap.
* **Lock/Unlock + Flush** — passive target: acquiring the lock costs a
  round trip to the target, flush transmits pending ops and waits for
  remote-completion acks.

These are deliberately *synchronization-based* completions: the target
cannot learn about individual message arrival — the gap UNR fills.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

import numpy as np

from ..units import US
from ..sim import AllOf
from .world import Comm, MpiError, Phantom

__all__ = ["Win"]


class _PendingPut:
    """A deferred RMA write."""

    __slots__ = ("dst_local", "offset", "data", "nbytes")

    def __init__(self, dst_local: int, offset: int, data, nbytes: int):
        self.dst_local = dst_local
        self.offset = offset
        self.data = data
        self.nbytes = nbytes


class Win:
    """Per-rank view of an RMA window (create collectively, same order).

    >>> win = Win.create(comm, my_array)     # every rank of comm
    """

    def __init__(self, comm: Comm, array: np.ndarray, win_id: int):
        self.comm = comm
        self.env = comm.env
        self.array = array
        self.bytes_view = array.view(np.uint8).reshape(-1)
        self.win_id = win_id
        self._key = (comm.ranks, win_id)
        self._pending: List[_PendingPut] = []
        self._lock_holder: Dict[int, bool] = {}
        registry = comm.world.__dict__.setdefault("_win_registry", {})
        registry.setdefault(self._key, {})[comm.rank] = self

    @classmethod
    def create(cls, comm: Comm, array: np.ndarray) -> "Win":
        """Collective window creation (call on every rank, same order)."""
        # Each rank advances its own copy of the per-world sequence;
        # identical call order across ranks yields identical window ids.
        seq = comm.world.__dict__.setdefault("_win_seq", {})
        seq_key = (comm.ranks, comm.rank)
        win_id = seq.get(seq_key, 0)
        seq[seq_key] = win_id + 1
        return cls(comm, array, win_id)

    def _peer(self, dst_local: int) -> "Win":
        peers = self.comm.world.__dict__.setdefault("_win_registry", {}).get(self._key, {})
        try:
            return peers[dst_local]
        except KeyError:
            raise MpiError(
                f"window {self.win_id}: rank {dst_local} has not created "
                "its side yet (windows must be created collectively)"
            ) from None

    def _apply_writes(self, writes) -> None:
        """Apply (offset, data, nbytes) records to my window."""
        for offset, data, nbytes in writes:
            if data is not None:
                self.bytes_view[offset : offset + nbytes] = data

    # -- data movement -----------------------------------------------------
    def put(self, dst_local: int, data, offset: int = 0) -> None:
        """Nonblocking RMA write into ``dst``'s window at byte ``offset``.

        Deferred: the transfer happens at the epoch-closing call
        (``fence``/``complete``/``flush``/``unlock``), matching how MPI
        implementations queue RMA ops inside access epochs."""
        if isinstance(data, Phantom):
            nbytes = data.nbytes
            snapshot = None
        else:
            nbytes = data.nbytes
            snapshot = data.view(np.uint8).reshape(-1).copy()
        peer = self._peer(dst_local)
        if offset < 0 or offset + nbytes > peer.bytes_view.nbytes:
            raise MpiError(f"put of {nbytes}B at {offset} exceeds target window")
        self._pending.append(_PendingPut(dst_local, offset, snapshot, nbytes))

    def get(self, dst_local: int, nbytes: int, offset: int = 0):
        """Generator: RMA read of ``nbytes`` from ``dst``'s window."""
        comm = self.comm
        world = comm.world
        dst_g = comm.translate(dst_local)
        peer = self._peer(dst_local)
        src_view = peer.bytes_view[offset : offset + nbytes]
        if src_view.nbytes != nbytes:
            raise MpiError(f"get of {nbytes}B at {offset} exceeds target window")
        yield self.env.timeout(world.config.rma_op_overhead_us * US)
        box = {}
        done = world.job.nic_of(comm.me_global).post_get(
            world.job.nic_of(dst_g),
            nbytes,
            fetch=lambda: src_view.copy(),
            on_deliver=lambda d: box.__setitem__("data", d),
        )
        yield done
        return box.get("data")

    # -- epoch helpers -------------------------------------------------------
    def _take_pending(self, dst_local: Optional[int] = None) -> List[_PendingPut]:
        if dst_local is None:
            ops, self._pending = self._pending, []
            return ops
        ops = [op for op in self._pending if op.dst_local == dst_local]
        self._pending = [op for op in self._pending if op.dst_local != dst_local]
        return ops

    def _transmit(self, ops: Sequence[_PendingPut]):
        """Generator: ship ``ops`` as RDMA writes; wait for delivery."""
        if not ops:
            return
        comm = self.comm
        world = comm.world
        delivered = []
        for op in ops:
            yield self.env.timeout(world.config.rma_op_overhead_us * US)
            peer = self._peer(op.dst_local)
            view = peer.bytes_view[op.offset : op.offset + op.nbytes]
            evt = self.env.event()
            delivered.append(evt)

            def land(d, view=view, evt=evt):
                if d is not None:
                    view[:] = d
                evt.succeed()

            world.job.nic_of(comm.me_global).post_put(
                world.job.nic_of(comm.translate(op.dst_local)),
                op.nbytes,
                payload=op.data,
                on_deliver=land,
            )
        yield AllOf(self.env, delivered)

    def _ack_latency(self) -> float:
        return self.comm.world.job.nic_of(self.comm.me_global).latency

    # -- Fence ----------------------------------------------------------------
    def fence(self):
        """Generator: collective epoch boundary (MPI_Win_fence).

        Transmits deferred ops, waits for remote completion (delivery +
        ack), then synchronizes with a barrier."""
        cfg = self.comm.world.config
        yield self.env.timeout(cfg.fence_overhead_us * US)
        ops = self._take_pending()
        if ops:
            yield from self._transmit(ops)
            yield self.env.timeout(self._ack_latency())  # completion ack
        yield from self.comm.barrier()

    # -- PSCW -------------------------------------------------------------------
    def post(self, origins: Sequence[int]):
        """Generator: expose the window to ``origins`` (MPI_Win_post)."""
        cfg = self.comm.world.config
        yield self.env.timeout(cfg.pscw_overhead_us * US)
        for origin in origins:
            req = self.comm.isend(origin, b"", tag=("pscw-post", self.win_id))
            yield req.event

    def start(self, targets: Sequence[int]):
        """Generator: begin an access epoch on ``targets`` (MPI_Win_start)."""
        cfg = self.comm.world.config
        yield self.env.timeout(cfg.pscw_overhead_us * US)
        for target in targets:
            yield from self.comm.recv(target, tag=("pscw-post", self.win_id))

    def complete(self, targets: Sequence[int]):
        """Generator: end the access epoch (MPI_Win_complete).

        Small deferred puts are coalesced into the completion token —
        one two-sided-style message per target carries data + epoch
        close, the optimization that keeps PSCW latency near two-sided
        latency on InfiniBand-class fabrics."""
        cfg = self.comm.world.config
        yield self.env.timeout(cfg.pscw_overhead_us * US)
        for target in targets:
            ops = self._take_pending(target)
            total = sum(op.nbytes for op in ops)
            if ops and total <= cfg.eager_threshold:
                writes = [(op.offset, op.data, op.nbytes) for op in ops]
                payload = ("pscw-data", writes, total)
                yield from self.comm.send(
                    target, payload, tag=("pscw-done", self.win_id)
                )
            else:
                yield from self._transmit(ops)
                yield from self.comm.send(target, b"", tag=("pscw-done", self.win_id))

    def wait(self, origins: Sequence[int]):
        """Generator: wait for every origin's complete (MPI_Win_wait)."""
        for origin in origins:
            msg = yield from self.comm.recv(origin, tag=("pscw-done", self.win_id))
            if isinstance(msg, tuple) and msg and msg[0] == "pscw-data":
                self._apply_writes(msg[1])

    # -- passive target -----------------------------------------------------------
    def lock(self, dst_local: int):
        """Generator: acquire the exclusive lock at ``dst`` (one RTT)."""
        cfg = self.comm.world.config
        peer = self._peer(dst_local)
        yield self.env.timeout(cfg.lock_overhead_us * US)
        rtt = 2.0 * self._ack_latency()
        # Lock contention spin, not a transfer retry loop.
        while peer._lock_holder.get(0, False):  # unrlint: disable=UNR008
            yield self.env.timeout(rtt)  # retry (contention backoff)
        peer._lock_holder[0] = True
        yield self.env.timeout(rtt)

    def unlock(self, dst_local: int):
        """Generator: flush ops to ``dst`` and release the lock."""
        cfg = self.comm.world.config
        peer = self._peer(dst_local)
        yield from self.flush(dst_local)
        yield self.env.timeout(cfg.lock_overhead_us * US)
        peer._lock_holder[0] = False

    def flush(self, dst_local: int):
        """Generator: transmit + wait until remotely complete (ack RTT)."""
        ops = self._take_pending(dst_local)
        if ops:
            yield from self._transmit(ops)
        yield self.env.timeout(self._ack_latency())  # completion ack
