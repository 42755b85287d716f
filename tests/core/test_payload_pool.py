"""The engine's payload pool: a snapshot reuses a buffer nothing holds.

A PUT fragment is copied at post and a GET at fetch, so the caller may
reuse its source at once.  A snapshot of at least ``POOL_FLOOR`` bytes
is written into a pooled buffer of its size whose only reference is the
pool's; whatever still holds a snapshot — the NIC event in flight, a
fault injector's pending duplicate, a reliable fragment awaiting its
retransmit — keeps that buffer out of reuse.  Each landing must carry
the bytes of its own post, whatever was posted since.
"""

import weakref

import numpy as np
import pytest

from repro.core import Unr
from repro.core.engine import POOL_FLOOR, PayloadPool
from repro.netsim import Cluster, ClusterSpec, FabricSpec, NicSpec, NodeSpec
from repro.netsim.faults import FaultInjector, FaultSpec
from repro.runtime import Job
from repro.sim import Environment

SIZE = 2 * POOL_FLOOR  # one fragment: a single rail never stripes


def make_unr(latency_us=1.0, **kw):
    env = Environment()
    spec = ClusterSpec(
        "t", 2, NodeSpec(cores=4, nics=1),
        NicSpec(bandwidth_gbps=100, latency_us=latency_us),
        FabricSpec(routing_jitter=0.3), seed=11,
    )
    return Unr(Job(Cluster(env, spec), ranks_per_node=1), "glex", **kw)


def blocks(unr, n, size=SIZE):
    """``(source, dests)``: rank 0's source array and block, and ``n``
    signal-free destination blocks on rank 1 with their arrays."""
    ep0, ep1 = unr.endpoint(0), unr.endpoint(1)
    src = np.zeros(size, np.uint8)
    sblk = ep0.blk_init(ep0.mem_reg(src), 0, size)
    dsts = [np.zeros(size, np.uint8) for _ in range(n)]
    dblks = [ep1.blk_init(ep1.mem_reg(d), 0, size) for d in dsts]
    return src, sblk, dsts, dblks


def spy_landings(unr):
    """Record ``(post number, first byte, id of the data)`` per landing of
    every first post, through the engine's ``on_post`` seam."""
    landings, posts = [], [0]

    def on_post(op, sp, rail, attempt, rtok, ltok, deliver):
        posts[0] += 1
        number = posts[0]

        def spied(data):
            landings.append((number, int(data[0]), id(data)))
            deliver(data)

        return spied

    unr.engine.on_post = on_post
    return landings


def pooled(unr, size=SIZE):
    return unr.engine.payloads._bufs.get(size, [])


def test_a_dead_buffer_is_reused():
    pool = PayloadPool()
    source = np.arange(SIZE, dtype=np.uint64).astype(np.uint8)
    first = pool.snapshot(source)
    assert first is not source and np.array_equal(first, source)
    buf = weakref.ref(first)  # no reference of ours may keep it held
    del first
    source += 1
    again = pool.snapshot(source)
    assert again is buf() and np.array_equal(again, source)
    # Held by its caller, it is not reused: a second buffer is made.
    other = pool.snapshot(source)
    assert other is not again and len(pool._bufs[SIZE]) == 2


def test_a_put_posted_after_the_last_landed_reuses_its_buffer():
    unr = make_unr()
    src, sblk, dsts, dblks = blocks(unr, 1)
    landings = spy_landings(unr)
    ep0 = unr.endpoint(0)
    for value in (1, 2, 3):
        src[:] = value
        ep0.put(sblk, dblks[0])
        unr.env.run()
        assert (dsts[0] == value).all()
    assert [value for _, value, _ in landings] == [1, 2, 3]
    assert len({buf for _, _, buf in landings}) == 1
    (buf,) = pooled(unr)
    assert id(buf) == landings[0][2]


def test_a_pending_duplicate_keeps_its_buffer_and_lands_its_own_bytes():
    unr = make_unr()
    # Every fragment lands twice; the replica trails by 250-1250 us,
    # long after the original (~25 us).
    FaultInjector.attach(unr.job.cluster,
                         FaultSpec(duplicate=1.0, delay_us=1000.0, seed=3))
    src, sblk, dsts, dblks = blocks(unr, 2)
    landings = spy_landings(unr)
    ep0, env = unr.endpoint(0), unr.env
    src[:] = 1
    ep0.put(sblk, dblks[0])
    env.run(until=env.now + 100e-6)
    assert [n for n, _, _ in landings] == [1]  # the original landed, the replica waits
    src[:] = 2
    ep0.put(sblk, dblks[1])
    env.run()
    first = [(value, buf) for n, value, buf in landings if n == 1]
    second = [(value, buf) for n, value, buf in landings if n == 2]
    assert [value for value, _ in first] == [1, 1]
    assert [value for value, _ in second] == [2, 2]
    assert first[0][1] != second[0][1]
    assert len(pooled(unr)) == 2
    assert (dsts[0] == 1).all() and (dsts[1] == 2).all()


def test_a_reliable_retransmit_resends_its_original_bytes():
    unr = make_unr(reliability=True)
    src, sblk, dsts, dblks = blocks(unr, 2)
    ep0, env = unr.endpoint(0), unr.env
    seen = []

    def on_post(op, sp, rail, attempt, rtok, ltok, deliver):
        if attempt or op.remote_blk is not dblks[0]:
            return deliver

        def lose_first(data):
            seen.append(int(data[0]))
            if len(seen) > 1:  # the first landing is lost: retransmit
                deliver(data)

        return lose_first

    unr.engine.on_post = on_post
    src[:] = 1
    ep0.put(sblk, dblks[0])
    while not seen:  # step to the lost landing
        env.step()
    assert unr.stats["retransmits"] == 0
    src[:] = 2
    ep0.put(sblk, dblks[1])  # its snapshot must not take the waiting one's buffer
    env.run()
    assert unr.stats["retransmits"] == 1
    assert seen == [1, 1]
    assert (dsts[0] == 1).all() and (dsts[1] == 2).all()


def test_a_get_delivers_the_bytes_present_at_fetch_time():
    # A GET fetches when its response leaves the target; a long wire keeps
    # the first response in flight while the second is fetched.
    unr = make_unr(latency_us=50.0)
    env = unr.env
    ep0, ep1 = unr.endpoint(0), unr.endpoint(1)
    remote = np.full(SIZE, 1, np.uint8)
    rblk = ep1.blk_init(ep1.mem_reg(remote), 0, SIZE)
    locals_ = [np.zeros(SIZE, np.uint8) for _ in range(3)]
    lblks = [ep0.blk_init(ep0.mem_reg(a), 0, SIZE) for a in locals_]
    ep0.get(lblks[0], rblk)
    ep0.get(lblks[1], rblk)
    while not pooled(unr):  # step to the first fetch
        env.step()
    assert (locals_[0] == 0).all()  # fetched, not yet landed
    remote[:] = 2  # before the second fetch, which must take another buffer
    env.run()
    assert (locals_[0] == 1).all() and (locals_[1] == 2).all()
    assert len(pooled(unr)) == 2
    remote[:] = 3
    ep0.get(lblks[2], rblk)
    env.run()
    assert (locals_[2] == 3).all() and len(pooled(unr)) == 2


@pytest.mark.parametrize("size", [8, 16 * 1024, POOL_FLOOR - 1])
def test_blocks_below_the_floor_are_never_pooled(size):
    pool = PayloadPool()
    view = np.ones(size, np.uint8)
    snaps = [pool.snapshot(view) for _ in range(2)]
    assert snaps[0] is not snaps[1] and pool._bufs == {}
    unr = make_unr()
    src, sblk, dsts, dblks = blocks(unr, 1, size)
    src[:] = 7
    unr.endpoint(0).put(sblk, dblks[0])
    unr.endpoint(1).get(dblks[0], sblk)
    unr.env.run()
    assert (dsts[0] == 7).all() and unr.engine.payloads._bufs == {}


def test_finalize_empties_the_pool():
    unr = make_unr()
    src, sblk, dsts, dblks = blocks(unr, 1)
    unr.endpoint(0).put(sblk, dblks[0])
    unr.endpoint(1).get(dblks[0], sblk)
    unr.env.run()
    assert len(pooled(unr)) == 1
    unr.finalize()
    assert unr.engine.payloads._bufs == {}


def test_the_pool_holds_no_more_buffers_of_a_size_than_were_in_flight():
    unr = make_unr()
    src, sblk, dsts, dblks = blocks(unr, 4)
    ep0, env = unr.endpoint(0), unr.env
    most = 0
    for n in (3, 2, 4, 1, 4):  # n PUTs in flight at once, then all land
        for dblk in dblks[:n]:
            ep0.put(sblk, dblk)
        env.run()
        most = max(most, n)
        assert len(pooled(unr)) == most
    # A snapshot of another size that finds no dead buffer releases the
    # dead ones of every other size first.
    big = 2 * SIZE
    _, bblk, _, bdst = blocks(unr, 1, big)
    ep0.put(bblk, bdst[0])
    env.run()
    assert pooled(unr) == [] and len(pooled(unr, big)) == 1
