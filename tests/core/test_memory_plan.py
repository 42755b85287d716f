"""Unit tests for memory regions, BLK handles and RMA plans."""

import dataclasses

import numpy as np
import pytest

from repro.core import Blk, MemoryRegion, Unr, UnrUsageError
from repro.netsim import Cluster, ClusterSpec, NicSpec, NodeSpec
from repro.runtime import Job, run_job
from repro.sim import Environment


def make_unr():
    env = Environment()
    spec = ClusterSpec(
        "t", 2, NodeSpec(cores=2),
        NicSpec(bandwidth_gbps=100, latency_us=1.0), seed=8,
    )
    job = Job(Cluster(env, spec))
    return job, Unr(job, "glex")


# --------------------------------------------------------- MemoryRegion


def test_region_requires_contiguous_array():
    arr = np.zeros((4, 4))[:, ::2]  # non-contiguous view
    with pytest.raises(UnrUsageError, match="contiguous"):
        MemoryRegion(0, 0, arr)


def test_region_rejects_non_array():
    with pytest.raises(UnrUsageError, match="numpy array"):
        MemoryRegion(0, 0, [1, 2, 3])


def test_region_rejects_empty():
    with pytest.raises(UnrUsageError, match="empty"):
        MemoryRegion(0, 0, np.zeros(0))


def test_region_slice_bounds():
    mr = MemoryRegion(0, 0, np.zeros(10, dtype=np.uint8))
    assert mr.slice(2, 4).nbytes == 4
    with pytest.raises(UnrUsageError):
        mr.slice(8, 4)
    with pytest.raises(UnrUsageError):
        mr.slice(-1, 2)


def test_region_multidtype_byte_view():
    arr = np.arange(4, dtype=np.float64)
    mr = MemoryRegion(0, 0, arr)
    assert mr.nbytes == 32
    view = mr.slice(0, 8)
    assert view.view(np.float64)[0] == 0.0
    view.view(np.float64)[0] = 7.0
    assert arr[0] == 7.0  # writes through to user memory


def test_virtual_region_geometry_only():
    mr = MemoryRegion(0, 0, None, virtual_nbytes=1 << 30)
    assert mr.is_virtual
    assert mr.nbytes == 1 << 30
    assert mr.slice(0, 1 << 20) is None
    with pytest.raises(UnrUsageError):
        mr.slice(1 << 30, 1)
    with pytest.raises(UnrUsageError):
        MemoryRegion(0, 0, None, virtual_nbytes=0)


# ----------------------------------------------------------------- Blk


def test_blk_validation():
    with pytest.raises(UnrUsageError):
        Blk(rank=0, mr_handle=0, offset=-1, size=8)
    with pytest.raises(UnrUsageError):
        Blk(rank=0, mr_handle=0, offset=0, size=0)


def test_blk_sub_blocks():
    blk = Blk(rank=1, mr_handle=2, offset=100, size=50, signal_sid=7)
    sub = blk.sub(10, 20)
    assert (sub.offset, sub.size) == (110, 20)
    assert sub.signal_sid == 7
    with pytest.raises(UnrUsageError):
        blk.sub(40, 20)


def test_blk_with_signal_replaces_sid():
    blk = Blk(rank=0, mr_handle=0, offset=0, size=8, signal_sid=1)
    assert blk.with_signal(9).signal_sid == 9
    assert blk.with_signal(None).signal_sid is None


def test_blk_is_hashable_and_frozen():
    blk = Blk(rank=0, mr_handle=0, offset=0, size=8)
    {blk: 1}
    with pytest.raises(dataclasses.FrozenInstanceError):
        blk.size = 16  # type: ignore[misc]


def test_blk_is_slotted():
    """A big transpose holds one BLK per (row peer x slab) per rank."""
    blk = Blk(rank=0, mr_handle=0, offset=0, size=8)
    assert not hasattr(blk, "__dict__")


def test_equal_blks_are_one_dict_key():
    """BLKs are values: equal descriptors are one key of a lookup table."""
    a = Blk(rank=1, mr_handle=2, offset=64, size=8, signal_sid=3)
    b = Blk(rank=1, mr_handle=2, offset=64, size=8, signal_sid=3)
    assert a is not b and a == b and hash(a) == hash(b)
    table = {a: "mirror"}
    assert table[b] == "mirror"
    assert a.sub(0, 8) == a and a.with_signal(3) == a
    assert a.with_signal(None) not in table


# ------------------------------------------------------- virtual put/get


def test_virtual_put_times_without_data():
    job, unr = make_unr()
    times = {}

    def program(ctx):
        ep = unr.endpoint(ctx.rank)
        if ctx.rank == 0:
            mr = ep.mem_reg_virtual(1 << 20)
            blk = ep.blk_init(mr, 0, 1 << 20)
            rmt = yield from ep.recv_ctl(1, tag="b")
            ep.put(blk, rmt)  # notification via the peer's bound signal
        else:
            mr = ep.mem_reg_virtual(1 << 20)
            sig = ep.sig_init(1)
            blk = ep.blk_init(mr, 0, 1 << 20, signal=sig)
            yield from ep.send_ctl(0, blk, tag="b")
            t0 = ctx.env.now
            yield from ep.sig_wait(sig)
            times["transfer"] = ctx.env.now - t0

    run_job(job, program)
    # 1 MiB at 100 Gb/s is ~84 us: timing is faithful despite no data.
    assert times["transfer"] > (1 << 20) / (100e9 / 8)


def test_virtual_and_real_put_take_equal_sim_time():
    def run(virtual):
        job, unr = make_unr()
        t = {}

        def program(ctx):
            ep = unr.endpoint(ctx.rank)
            size = 1 << 18
            if virtual:
                mr = ep.mem_reg_virtual(size)
            else:
                mr = ep.mem_reg(np.zeros(size, dtype=np.uint8))
            sig = ep.sig_init(1)
            blk = ep.blk_init(mr, 0, size, signal=sig)
            rmt = yield from ep.exchange_blk(1 - ctx.rank, blk)
            if ctx.rank == 0:
                ep.put(blk, rmt, local_signal=None)
                yield ctx.env.timeout(0)
            else:
                yield from ep.sig_wait(sig)
                t["x"] = ctx.env.now

        run_job(job, program)
        return t["x"]

    assert run(True) == run(False)


# ---------------------------------------------------------------- plans


def test_plan_start_uses_remote_override():
    job, unr = make_unr()
    hits = {}

    def program(ctx):
        ep = unr.endpoint(ctx.rank)
        if ctx.rank == 0:
            mr = ep.mem_reg(np.ones(64, dtype=np.uint8))
            blk = ep.blk_init(mr, 0, 64)
            rmt, alt_sid = yield from ep.recv_ctl(1, tag="b")
            plan = ep.plan().record_put(blk, rmt, remote_sid=alt_sid)
            plan.start()
            yield ctx.env.timeout(1e-4)
        else:
            mr = ep.mem_reg(np.zeros(64, dtype=np.uint8))
            bound_sig = ep.sig_init(1)
            alt_sig = ep.sig_init(1)
            blk = ep.blk_init(mr, 0, 64, signal=bound_sig)
            yield from ep.send_ctl(0, (blk, alt_sig.sid), tag="b")
            yield from ep.sig_wait(alt_sig)  # the override target fires
            hits["alt"] = True
            hits["bound_untouched"] = not bound_sig.is_zero

    run_job(job, program)
    assert hits == {"alt": True, "bound_untouched": True}
