"""Tests for the Job/rank runtime (`repro.runtime`)."""

import numpy as np
import pytest

from repro.core import Unr
from repro.netsim import Cluster, ClusterSpec, NicSpec, NodeSpec
from repro.runtime import Job, run_job
from repro.sim import Environment, SimulationError


def make_cluster(n_nodes=4, nics=2, cores=8):
    env = Environment()
    spec = ClusterSpec(
        "t", n_nodes, NodeSpec(cores=cores, nics=nics),
        NicSpec(bandwidth_gbps=100, latency_us=1.0), seed=2,
    )
    return Cluster(env, spec)


def test_block_placement():
    job = Job(make_cluster(4), ranks_per_node=2)
    assert job.n_ranks == 8
    assert job.node_of(0).index == 0
    assert job.node_of(1).index == 0
    assert job.node_of(2).index == 1
    assert job.local_index(3) == 1
    assert job.co_located(0, 1)
    assert not job.co_located(1, 2)


def test_partial_job():
    job = Job(make_cluster(4), ranks_per_node=2, n_ranks=5)
    assert job.n_ranks == 5
    with pytest.raises(ValueError):
        job.node_of(5)


def test_invalid_job_sizes():
    with pytest.raises(ValueError):
        Job(make_cluster(2), ranks_per_node=0)
    with pytest.raises(ValueError):
        Job(make_cluster(2), ranks_per_node=1, n_ranks=3)


def test_rank_rail_spread():
    job = Job(make_cluster(2, nics=2), ranks_per_node=2)
    # Co-located ranks use different default rails.
    assert job.nic_of(0).index == 0
    assert job.nic_of(1).index == 1
    # Explicit rails rotate from the rank's base rail.
    assert job.nic_of(1, rail=1).index == 0


def test_placement_lookups_are_memoized():
    job = Job(make_cluster(4, nics=2))
    node, nic = job.node_of(1), job.nic_of(1, 1)
    assert job.node_of(1) is node and job.nic_of(1, 1) is nic
    assert (node.index, nic.index) == (1, 1)
    assert job.nic_of(1) is job.cluster.node(1).nic(0)
    assert not job.co_located(1, 3)


def test_out_of_range_rank_raises_on_every_call():
    job = Job(make_cluster(2))
    for _ in range(2):  # a miss is never memoized
        with pytest.raises(ValueError):
            job.node_of(2)
        with pytest.raises(ValueError):
            job.nic_of(-1)


def test_run_job_collects_return_values():
    job = Job(make_cluster(2))

    def program(ctx, base):
        yield ctx.env.timeout(ctx.rank * 1.0)
        return base + ctx.rank

    assert run_job(job, program, 100) == [100, 101]


def test_run_job_reports_deadlock():
    job = Job(make_cluster(4))

    def program(ctx):
        yield ctx.env.timeout(1.5)
        if ctx.rank in (1, 3):
            yield ctx.env.event()  # never fires

    with pytest.raises(SimulationError, match="did not finish") as err:
        run_job(job, program)
    assert isinstance(err.value, RuntimeError)  # existing catches still hold
    message = str(err.value)
    assert "rank1, rank3 did not finish" in message
    assert "rank0" not in message and "rank2" not in message
    assert "t=1.5" in message
    # A plain event's repr holds its address: only its type is named.
    assert message.endswith("rank1 waits on Event; rank3 waits on Event")


def test_a_rank_blocked_in_sig_wait_names_its_signal():
    """The receiver arms two events and gets one PUT: the error names
    the signal's sid, its num_event and the counter left."""
    job = Job(make_cluster(2))
    unr = Unr(job, "glex")

    def program(ctx):
        ep = unr.endpoint(ctx.rank)
        mr = ep.mem_reg(np.zeros(8, np.uint8))
        if ctx.rank == 1:
            ep.sig_init(1)  # so the armed signal's sid is not 0
            sig = ep.sig_init(2)
            yield from ep.send_ctl(0, ep.blk_init(mr, 0, 8, sig))
            yield from ep.sig_wait(sig)
        else:
            dst = yield from ep.recv_ctl(1)
            ep.put(ep.blk_init(mr, 0, 8), dst)

    with pytest.raises(SimulationError, match=r"^rank1 did not finish") as err:
        run_job(job, program)
    assert str(err.value).endswith(
        "rank1 waits on <sig_wait sid=1 num_event=2 counter=1>"
    )


def test_run_job_propagates_rank_exception():
    job = Job(make_cluster(2))

    def program(ctx):
        yield ctx.env.timeout(1)
        if ctx.rank == 1:
            raise ValueError("rank 1 exploded")

    with pytest.raises(ValueError, match="rank 1 exploded"):
        run_job(job, program)


def test_run_job_subset_of_ranks():
    job = Job(make_cluster(4))
    seen = []

    def program(ctx):
        seen.append(ctx.rank)
        yield ctx.env.timeout(0)

    run_job(job, program, ranks=[1, 3])
    assert sorted(seen) == [1, 3]


def test_context_compute_charges_node():
    job = Job(make_cluster(1, cores=4))

    def program(ctx):
        yield from ctx.compute(2.0, threads=2)
        return ctx.env.now

    assert run_job(job, program) == [2.0]
    assert job.cluster.node(0).cpu.busy_seconds == 4.0


def test_services_shared_between_ranks():
    job = Job(make_cluster(2))

    def program(ctx):
        ctx.services.setdefault("seen", []).append(ctx.rank)
        yield ctx.env.timeout(0)
        return len(ctx.services["seen"])

    results = run_job(job, program, services={})
    assert max(results) == 2
