"""Figure 4 drivers: ping-pong latency, UNR vs MPI-RMA sync schemes.

Each scheme performs the same logical exchange — rank 0 ships ``size``
bytes to rank 1 *and rank 1 learns the data is complete*, then the
direction reverses — and we report half the round-trip time:

* ``unr``   — notifiable PUT; the receiver waits on an MMAS signal.
* ``fence`` — MPI_Win_fence epochs around every transfer (collective).
* ``pscw``  — Post-Start-Complete-Wait generalized active target.
* ``lock``  — passive target: lock, put data, put a flag word, unlock;
  the receiver *polls the flag in memory* (the only way a passive
  target learns anything — and the reason the paper calls partial-byte
  polling unsafe).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

import numpy as np

from ..core import Unr
from ..mpi import MpiWorld, Win
from ..obs import HostProfiler, Recorder
from ..platforms import get_platform, make_job
from ..runtime import run_job

__all__ = ["unr_pingpong", "unr_get_pull", "mpi_rma_pingpong", "latency_table",
           "DEFAULT_SIZES"]

DEFAULT_SIZES = [8, 64, 512, 4096, 32768, 262144, 1048576]


def unr_pingpong(
    platform: str,
    size: int,
    iters: int = 20,
    *,
    offload: bool = False,
    observe: bool = False,
    out: Optional[Dict] = None,
    profiler: Optional["HostProfiler"] = None,
) -> float:
    """Half round-trip latency (seconds) of a UNR notified ping-pong.

    With ``observe=True`` (or an ``out`` dict to receive the recorder
    and job) the run is traced through :mod:`repro.obs` — passively, so
    the reported latency is unchanged.  A ``profiler``
    (:class:`repro.obs.HostProfiler`) attaches before engine
    construction and attributes host time without touching the wire."""
    plat = get_platform(platform)
    job = make_job(platform, 2, offload=offload)
    recorder = Recorder.attach(job.cluster) if (observe or out is not None) else None
    if profiler is not None:
        HostProfiler.attach(job.cluster, profiler)
    unr = Unr(job, plat.channel, observe=recorder)
    if out is not None:
        out["recorder"] = recorder
        out["job"] = job
    results = {}

    def program(ctx):
        ep = unr.endpoint(ctx.rank)
        peer = 1 - ctx.rank
        buf = np.zeros(max(size, 1), dtype=np.uint8)
        mr = ep.mem_reg(buf)
        sig = ep.sig_init(1)
        blk = ep.blk_init(mr, 0, max(size, 1), signal=sig)
        rmt = yield from ep.exchange_blk(peer, blk)
        t0 = ctx.env.now
        for _ in range(iters):
            if ctx.rank == 0:
                ep.put(blk, rmt, local_signal=None)
                yield from ep.sig_wait(sig)  # ping back arrived
                ep.sig_reset(sig)
            else:
                yield from ep.sig_wait(sig)
                ep.sig_reset(sig)
                ep.put(blk, rmt, local_signal=None)
        results[ctx.rank] = (ctx.env.now - t0) / iters / 2.0

    run_job(job, program)
    return results[0]


def unr_get_pull(
    platform: str,
    size: int,
    iters: int = 20,
    *,
    seed: int = 2024,
    profiler: Optional["HostProfiler"] = None,
) -> Recorder:
    """Rank 0 GETs a patterned ``size``-byte buffer from rank 1 ``iters``
    times, one credit per pull; returns the run's recorder.  The GET-side
    twin of :func:`unr_pingpong`: together they are the two datapath runs
    ``tests/bench/test_datapath_cost.py`` pins and ``measure_overhead``
    times."""
    plat = get_platform(platform)
    job = make_job(platform, 2, seed=seed)
    recorder = Recorder.attach(job.cluster)
    if profiler is not None:
        HostProfiler.attach(job.cluster, profiler)
    unr = Unr(job, plat.channel, observe=recorder)

    def program(ctx):
        ep = unr.endpoint(ctx.rank)
        buf = np.zeros(size, dtype=np.uint8)
        mr = ep.mem_reg(buf)
        if ctx.rank == 0:
            sig = ep.sig_init(1)
            blk = ep.blk_init(mr, 0, size, signal=sig)
            rmt = yield from ep.recv_ctl(1, tag="addr")
            for _ in range(iters):
                ep.get(blk, rmt)
                yield from ep.sig_wait(sig)
                ep.sig_reset(sig)
                yield from ep.send_ctl(1, "next", tag="credit")
        else:
            buf[:] = (np.arange(size) * 7 + 3) % 251
            blk = ep.blk_init(mr, 0, size)
            yield from ep.send_ctl(0, blk, tag="addr")
            for _ in range(iters):
                yield from ep.recv_ctl(0, tag="credit")

    run_job(job, program)
    return recorder


def mpi_rma_pingpong(platform: str, scheme: str, size: int, iters: int = 20) -> float:
    """Half round-trip latency (seconds) under an MPI-RMA sync scheme."""
    if scheme not in ("fence", "pscw", "lock"):
        raise ValueError(f"unknown scheme {scheme!r}")
    plat = get_platform(platform)
    job = make_job(platform, 2)
    world = MpiWorld(job, plat.mpi)
    results = {}
    poll_interval = 1e-6

    def program(ctx):
        comm = world.comm_world(ctx.rank)
        peer = 1 - comm.rank
        buf = np.zeros(max(size, 1) + 8, dtype=np.uint8)
        win = Win.create(comm, buf)
        data = np.ones(max(size, 1), dtype=np.uint8)
        flag = np.full(8, 1, dtype=np.uint8)
        yield from comm.barrier()
        t0 = ctx.env.now
        for it in range(iters):
            me_first = comm.rank == 0
            for phase in (0, 1):
                sending = (phase == 0) == me_first
                if scheme == "fence":
                    if sending:
                        win.put(peer, data)
                    yield from win.fence()
                elif scheme == "pscw":
                    if sending:
                        yield from win.start([peer])
                        win.put(peer, data)
                        yield from win.complete([peer])
                    else:
                        yield from win.post([peer])
                        yield from win.wait([peer])
                else:  # lock + flag polling
                    if sending:
                        # The flag needs its own epoch *after* the data
                        # flush: shipped together, the small flag would
                        # overtake the bulk data in the fabric — the
                        # unsafe-partial-polling hazard of paper §II.
                        yield from win.lock(peer)
                        win.put(peer, data)
                        yield from win.unlock(peer)
                        yield from win.lock(peer)
                        win.put(peer, flag + it, offset=max(size, 1))
                        yield from win.unlock(peer)
                    else:
                        # MPI baseline polls a flag byte, not a retry loop.
                        while buf[max(size, 1)] != (1 + it) % 256:
                            yield ctx.env.timeout(poll_interval)
        results[comm.rank] = (ctx.env.now - t0) / iters / 2.0

    run_job(job, program)
    return results[0]


def latency_table(
    platform: str,
    sizes: Sequence[int] = DEFAULT_SIZES,
    iters: int = 10,
) -> Dict[str, List[float]]:
    """All four schemes over ``sizes``; values in microseconds."""
    out: Dict[str, List[float]] = {"sizes": list(sizes)}
    out["unr"] = [unr_pingpong(platform, s, iters) * 1e6 for s in sizes]
    for scheme in ("fence", "pscw", "lock"):
        out[scheme] = [
            mpi_rma_pingpong(platform, scheme, s, iters) * 1e6 for s in sizes
        ]
    return out
