"""Drivers of the ledger's studies beyond the paper's figures: two of the
design ablations (DESIGN.md §1) and the collectives built on UNR that
the paper proposes (§IV-E.3).  Every value is simulated time.

Imported by :mod:`repro.bench.paper` only, not from ``repro.bench``.
"""

from __future__ import annotations

from typing import Dict

import numpy as np

from ..collectives import UnrCollectives
from ..core import Unr
from ..interconnect import Capability, RmaChannel
from ..mpi import MpiWorld
from ..netsim import Cluster, ClusterSpec, FabricSpec, NicSpec, NodeSpec
from ..platforms import get_platform, make_job
from ..runtime import Job, run_job
from ..sim import Environment

__all__ = ["collective_time", "ordered_burst", "striped_put"]


def _burst(job: Job, unr: Unr, size: int, count: int) -> float:
    """Simulated time (s) from the block exchange until rank 1 has seen
    ``count`` notified PUTs of ``size`` bytes from rank 0 land."""
    t: Dict[str, float] = {}

    def program(ctx):
        ep = unr.endpoint(ctx.rank)
        mr = ep.mem_reg(np.zeros(size * count, dtype=np.uint8))
        sig = ep.sig_init(count)
        blks = [ep.blk_init(mr, i * size, size, signal=sig) for i in range(count)]
        rmts = yield from ep.exchange_blk(1 - ctx.rank, blks)
        t0 = ctx.env.now
        if ctx.rank == 0:
            for blk, rmt in zip(blks, rmts):
                ep.put(blk, rmt, local_signal=None)
        else:
            yield from ep.sig_wait(sig)
            t["landed"] = ctx.env.now - t0

    run_job(job, program)
    return t["landed"]


def striped_put(rails: int) -> float:
    """One 4 MiB notified PUT between two TH-XY nodes, striped over at
    most ``rails`` of their two rails."""
    job = make_job("th-xy", 2)
    unr = Unr(job, "glex", stripe_threshold=64 * 1024, max_stripe_rails=rails)
    return _burst(job, unr, 4 << 20, 1)


def ordered_burst(bits: int) -> float:
    """64 notified 4 KiB PUTs between two nodes whose NIC carries ``bits``
    custom bits in each field (0: Table I's Level-0 ordered message).
    Routing jitter is off: the ordered data path would otherwise dodge
    it and mask the extra message."""
    cap = Capability("X", "x", "-", bits, bits, bits, bits)
    spec = ClusterSpec("t", 2, NodeSpec(cores=4), NicSpec(bandwidth_gbps=100, latency_us=1.0),
                       FabricSpec(routing_jitter=0.0), seed=4)
    job = Job(Cluster(Environment(), spec))
    return _burst(job, Unr(job, RmaChannel(job, cap)), 4096, 64)


def collective_time(lib: str, op: str, platform: str, ranks: int, chunk: int,
                    iters: int = 8) -> float:
    """Simulated time (s) per call of collective ``op`` on ``ranks`` ranks
    of ``platform``, by the UNR library (``lib="unr"``) or the simulated
    MPI's (``"mpi"``): the slowest rank's mean over ``iters`` calls."""
    plat = get_platform(platform)
    job = make_job(platform, ranks)
    unr = Unr(job, plat.channel) if lib == "unr" else None
    world = MpiWorld(job, plat.mpi) if unr is None else None
    t: Dict[int, float] = {}

    def program(ctx):
        if unr is None:
            coll = world.comm_world(ctx.rank)
        else:
            coll = UnrCollectives(unr, list(range(ranks)), ctx.rank, chunk_bytes=chunk)
            yield from coll.setup()
        yield from coll.barrier()
        t0 = ctx.env.now
        payload = np.full(chunk, ctx.rank % 251, np.uint8)
        args = {"barrier": (), "bcast": (payload if ctx.rank == 0 else None,),
                "allgather": (payload,), "alltoall": ([payload] * ranks,)}[op]
        for _ in range(iters):
            yield from getattr(coll, op)(*args)
        t[ctx.rank] = (ctx.env.now - t0) / iters

    run_job(job, program)
    return max(t.values())
