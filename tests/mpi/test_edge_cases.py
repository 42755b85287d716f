"""MPI substrate edge cases: self-messaging, phantoms, sizes, ordering."""

import numpy as np
import pytest

from repro.mpi import MpiConfig, MpiWorld, Phantom
from repro.netsim import Cluster, ClusterSpec, NicSpec, NodeSpec
from repro.runtime import Job, run_job
from repro.sim import Environment, SimulationError


def make_world(n_nodes=2, ppn=1, **cfg):
    env = Environment()
    spec = ClusterSpec(
        "t", n_nodes, NodeSpec(cores=4),
        NicSpec(bandwidth_gbps=100, latency_us=1.0), seed=25,
    )
    job = Job(Cluster(env, spec), ranks_per_node=ppn)
    return job, MpiWorld(job, MpiConfig(**cfg) if cfg else None)


def test_send_to_self():
    job, world = make_world(n_nodes=1)
    got = {}

    def program(ctx):
        comm = world.comm_world(ctx.rank)
        req = comm.isend(0, b"self", tag=0)
        got["data"] = yield from comm.recv(0, tag=0)
        yield req.event

    run_job(job, program)
    assert got["data"] == b"self"


def test_zero_byte_message():
    job, world = make_world()
    got = {}

    def program(ctx):
        comm = world.comm_world(ctx.rank)
        if ctx.rank == 0:
            yield from comm.send(1, b"", tag=0)
        else:
            got["data"] = yield from comm.recv(0, tag=0)

    run_job(job, program)
    assert got["data"] == b""


def test_phantom_roundtrip_preserves_size():
    job, world = make_world(eager_threshold=64)
    got = {}

    def program(ctx):
        comm = world.comm_world(ctx.rank)
        if ctx.rank == 0:
            yield from comm.send(1, Phantom(1 << 20), tag=0)
        else:
            got["msg"] = yield from comm.recv(0, tag=0)

    run_job(job, program)
    assert isinstance(got["msg"], Phantom)
    assert got["msg"].nbytes == 1 << 20
    assert world.stats["rendezvous"] == 1  # phantoms obey the threshold


def test_phantom_negative_size_rejected():
    with pytest.raises(ValueError):
        Phantom(-1)


def test_message_order_preserved_same_tag():
    job, world = make_world()
    got = []

    def program(ctx):
        comm = world.comm_world(ctx.rank)
        if ctx.rank == 0:
            for i in range(10):
                yield from comm.send(1, bytes([i]), tag="t")
        else:
            for _ in range(10):
                data = yield from comm.recv(0, tag="t")
                got.append(data[0])

    run_job(job, program)
    assert got == list(range(10))


def test_mixed_eager_rendezvous_ordering():
    """An eager message sent after a rendezvous one must not be matched
    first when the receiver posts in order (envelope order holds)."""
    job, world = make_world(eager_threshold=256)
    got = []

    def program(ctx):
        comm = world.comm_world(ctx.rank)
        if ctx.rank == 0:
            r1 = comm.isend(1, np.full(1024, 1, np.uint8), tag="t")  # rendezvous
            r2 = comm.isend(1, np.full(16, 2, np.uint8), tag="t")  # eager
            yield from comm.waitall([r1, r2])
        else:
            a = yield from comm.recv(0, tag="t")
            b = yield from comm.recv(0, tag="t")
            got.append((int(a[0]), a.nbytes))
            got.append((int(b[0]), b.nbytes))

    run_job(job, program)
    assert got == [(1, 1024), (2, 16)]


def test_many_outstanding_irecvs():
    job, world = make_world()
    got = {}

    def program(ctx):
        comm = world.comm_world(ctx.rank)
        if ctx.rank == 0:
            reqs = [comm.irecv(1, tag=i) for i in range(20)]
            vals = yield from comm.waitall(reqs)
            got["vals"] = [v[0] for v in vals]
        else:
            for i in reversed(range(20)):  # send in reverse tag order
                yield from comm.send(0, bytes([i]), tag=i)

    run_job(job, program)
    assert got["vals"] == list(range(20))


def test_intranode_ranks_use_fast_path():
    """Messages between co-located ranks beat inter-node latency."""
    job, world = make_world(n_nodes=2, ppn=2)
    times = {}

    def program(ctx):
        comm = world.comm_world(ctx.rank)
        if ctx.rank == 0:
            t0 = ctx.env.now
            yield from comm.send(1, b"x" * 64, tag="local")  # same node
            yield from comm.recv(1, tag="lack")
            times["local"] = ctx.env.now - t0
            t0 = ctx.env.now
            yield from comm.send(2, b"x" * 64, tag="remote")  # other node
            yield from comm.recv(2, tag="rack")
            times["remote"] = ctx.env.now - t0
        elif ctx.rank == 1:
            yield from comm.recv(0, tag="local")
            yield from comm.send(0, b"", tag="lack")
        elif ctx.rank == 2:
            yield from comm.recv(0, tag="remote")
            yield from comm.send(0, b"", tag="rack")
        else:
            yield ctx.env.timeout(0)

    run_job(job, program)
    assert times["local"] < times["remote"]


def test_barrier_then_traffic_no_cross_talk():
    """Collectives and p2p with clashing-looking tags don't interfere."""
    job, world = make_world(n_nodes=4)
    got = {}

    def program(ctx):
        comm = world.comm_world(ctx.rank)
        yield from comm.barrier()
        if ctx.rank == 0:
            yield from comm.send(1, b"payload", tag=("bar", 0))  # looks like a barrier tag
        elif ctx.rank == 1:
            got["data"] = yield from comm.recv(0, tag=("bar", 0))
        yield from comm.barrier()

    run_job(job, program)
    assert got["data"] == b"payload"


# -- matching: which receive takes which envelope ---------------------------------


def test_any_tag_takes_the_earliest_arrival():
    job, world = make_world()
    got = []

    def program(ctx):
        comm = world.comm_world(ctx.rank)
        if ctx.rank == 0:
            yield from comm.send(1, b"first", tag=3)
            yield from comm.send(1, b"second", tag=1)
        else:
            yield ctx.env.timeout(1.0)  # both envelopes are unexpected by now
            got.append((yield from comm.recv(0, tag=None)))
            got.append((yield from comm.recv(0, tag=None)))

    run_job(job, program)
    assert got == [b"first", b"second"]


def test_any_source_takes_the_earliest_arrival_across_senders():
    job, world = make_world(n_nodes=3)
    got = []

    def program(ctx):
        comm = world.comm_world(ctx.rank)
        if ctx.rank == 0:
            yield ctx.env.timeout(1.0)
            got.append((yield from comm.recv(None, tag=0)))
            got.append((yield from comm.recv(None, tag=0)))
        else:
            # rank 2 sends first although rank 1 has the lower rank
            yield ctx.env.timeout(1e-3 if ctx.rank == 1 else 0.0)
            yield from comm.send(0, ctx.rank, tag=0)

    run_job(job, program)
    assert got == [2, 1]


def test_rendezvous_rts_before_the_receive_is_posted():
    job, world = make_world(eager_threshold=1024)
    times = {}

    def program(ctx):
        comm = world.comm_world(ctx.rank)
        if ctx.rank == 0:
            yield from comm.send(1, np.arange(4096, dtype=np.int32), tag=4)
            times["send_done"] = ctx.env.now
        else:
            yield ctx.env.timeout(1.0)  # the RTS waits as unexpected
            times["data"] = yield from comm.recv(0, tag=4)

    run_job(job, program)
    np.testing.assert_array_equal(times["data"], np.arange(4096, dtype=np.int32))
    assert world.stats["rendezvous"] == 1
    assert times["send_done"] > 1.0  # the CTS waited for the receive


@pytest.mark.parametrize("first, second", [
    ((0, None), (0, 5)),
    ((None, 5), (0, None)),
    ((None, None), (0, 5)),
], ids=["any-tag-first", "any-source-first", "wildcards-first"])
def test_receives_that_match_one_envelope_are_served_fifo(first, second):
    job, world = make_world()
    got = {}

    def program(ctx):
        comm = world.comm_world(ctx.rank)
        if ctx.rank == 0:
            yield ctx.env.timeout(1.0)  # both receives are posted by now
            yield from comm.send(1, b"a", tag=5)
            yield from comm.send(1, b"b", tag=5)
        else:
            reqs = [comm.irecv(*first), comm.irecv(*second)]
            got["values"] = yield from comm.waitall(reqs)

    run_job(job, program)
    assert got["values"] == [b"a", b"b"]


def test_receive_that_never_matches_names_its_rank():
    job, world = make_world()

    def program(ctx):
        comm = world.comm_world(ctx.rank)
        if ctx.rank == 0:
            yield from comm.send(1, b"x", tag=1)
        else:
            yield from comm.recv(0, tag=2)

    with pytest.raises(SimulationError, match=r"^rank1 did not finish"):
        run_job(job, program)
    assert len(world._unexpected[1]) == 1 and len(world._posted[1]) == 1
