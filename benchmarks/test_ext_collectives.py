"""Extension benchmark: UNR-based collectives vs MPI collectives.

The paper suggests (§IV-E.3) building collective acceleration libraries
on top of UNR.  This bench compares `repro.collectives` (notified-PUT
algorithms) against the simulated MPI's collectives on the same
hardware — the gain comes from removing per-message matching costs and
rendezvous handshakes.
"""

import numpy as np
import pytest

from repro.bench import format_table
from repro.collectives import UnrCollectives
from repro.core import Unr
from repro.mpi import MpiWorld
from repro.platforms import get_platform, make_job
from repro.runtime import run_job


def time_unr(op, platform, n, chunk, iters=8):
    plat = get_platform(platform)
    job = make_job(platform, n)
    unr = Unr(job, plat.channel)
    t = {}

    def program(ctx):
        coll = UnrCollectives(unr, list(range(n)), ctx.rank, chunk_bytes=chunk)
        yield from coll.setup()
        yield from coll.barrier()
        t0 = ctx.env.now
        payload = np.full(chunk, ctx.rank % 251, np.uint8)
        for _ in range(iters):
            if op == "barrier":
                yield from coll.barrier()
            elif op == "allgather":
                yield from coll.allgather(payload)
            elif op == "alltoall":
                yield from coll.alltoall([payload] * n)
            elif op == "bcast":
                yield from coll.bcast(payload if ctx.rank == 0 else None, root=0)
        t[ctx.rank] = (ctx.env.now - t0) / iters

    run_job(job, program)
    return max(t.values())


def time_mpi(op, platform, n, chunk, iters=8):
    plat = get_platform(platform)
    job = make_job(platform, n)
    world = MpiWorld(job, plat.mpi)
    t = {}

    def program(ctx):
        comm = world.comm_world(ctx.rank)
        yield from comm.barrier()
        t0 = ctx.env.now
        payload = np.full(chunk, ctx.rank % 251, np.uint8)
        for _ in range(iters):
            if op == "barrier":
                yield from comm.barrier()
            elif op == "allgather":
                yield from comm.allgather(payload)
            elif op == "alltoall":
                yield from comm.alltoall([payload] * n)
            elif op == "bcast":
                yield from comm.bcast(payload if ctx.rank == 0 else None, root=0)
        t[ctx.rank] = (ctx.env.now - t0) / iters

    run_job(job, program)
    return max(t.values())


OPS = ["barrier", "bcast", "allgather", "alltoall"]


def test_ext_collectives_report(emit):
    def run():
        rows = []
        for op in OPS:
            chunk = 1 if op == "barrier" else 8192
            mpi_t = time_mpi(op, "th-2a", 8, chunk)
            unr_t = time_unr(op, "th-2a", 8, chunk)
            rows.append([op, mpi_t * 1e6, unr_t * 1e6, mpi_t / unr_t])
        return rows

    rows = run()
    emit(
        "Extension: UNR-based collectives vs MPI (TH-2A, 8 ranks, 8 KiB)",
        format_table(["op", "MPI (us)", "UNR (us)", "speedup"], rows),
    )
    # The notified-PUT library wins on the message-heavy collectives.
    by_op = {r[0]: r[3] for r in rows}
    assert by_op["alltoall"] > 1.0
    assert by_op["allgather"] > 0.8  # at worst competitive


@pytest.mark.parametrize("op", OPS)
def test_ext_collectives_correct_under_timing(op):
    """Each collective completes and is reusable at realistic scale."""

    def run():
        return time_unr(op, "hpc-ib", 6, 4096, iters=4)

    t = run()
    assert t > 0
