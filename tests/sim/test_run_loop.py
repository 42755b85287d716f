"""The dispatch loop in ``Environment.run`` and its collector policy.

``run()`` holds CPython's cyclic collector off while it dispatches and
puts the caller's setting back on every way out.  That is only sound
while the simulator's per-operation garbage is acyclic, so the policy's
premise is pinned here too: an armed run executed with the collector
off leaves nothing for ``gc.collect()`` to find.
"""

import gc

import numpy as np
import pytest

from repro import Unr, make_job, run_job
from repro.netsim.faults import FaultInjector, FaultSpec
from repro.sim import Environment, SimulationError


@pytest.fixture
def collector():
    """Hand the test a known collector state and put the real one back."""
    was_enabled = gc.isenabled()
    gc.enable()
    try:
        yield
    finally:
        (gc.enable if was_enabled else gc.disable)()


def ticker(env, seen, n=3):
    for _ in range(n):
        yield env.timeout(1.0)
        seen.append(gc.isenabled())


# -- collector policy -----------------------------------------------------------

def test_collector_off_during_run_and_restored_after(collector):
    env, seen = Environment(), []
    env.process(ticker(env, seen))
    env.run()
    assert seen == [False, False, False]
    assert gc.isenabled()


def test_collector_restored_when_a_process_raises(collector):
    env = Environment()

    def boom(env):
        yield env.timeout(1.0)
        raise KeyError("boom")

    env.process(boom(env))
    with pytest.raises(KeyError):
        env.run()
    assert gc.isenabled()


def test_collector_restored_on_until_return(collector):
    env, seen = Environment(), []
    env.process(ticker(env, seen, n=10))
    env.run(until=2.5)
    assert seen == [False, False] and env.now == 2.5
    assert gc.isenabled()


def test_collector_left_off_when_entered_off(collector):
    gc.disable()
    env, seen = Environment(), []
    env.process(ticker(env, seen))
    env.run()
    assert seen == [False, False, False]
    assert not gc.isenabled()


def test_nested_run_does_not_reenable_early(collector):
    outer, inner, seen = Environment(), Environment(), []
    inner.process(ticker(inner, [], n=1))

    def nest(env):
        yield env.timeout(1.0)
        inner.run()
        seen.append(gc.isenabled())  # the outer run is still dispatching

    outer.process(nest(outer))
    outer.run()
    assert seen == [False]
    assert gc.isenabled()


def test_armed_run_leaves_no_cyclic_garbage(collector):
    """Reliability + seeded drop/dup over 400 puts, collector off from
    construction to the last event: reference counting must have freed
    everything the run dropped.  One reference cycle per put (or per
    retransmit, fragment, ...) would show up here as hundreds."""
    n_ranks, size, iters = 4, 4096, 100
    gc.collect()
    gc.disable()
    job = make_job("th-xy", n_ranks, seed=7)
    FaultInjector.attach(job.cluster, FaultSpec.parse("drop=0.05,dup=0.02", seed=11))
    unr = Unr(job, "glex", reliability=True)

    def program(ctx):
        ep, me = unr.endpoint(ctx.rank), ctx.rank
        right, left = (me + 1) % n_ranks, (me - 1) % n_ranks
        sbuf = np.full(size, me, dtype=np.uint8)
        rbuf = np.zeros(size, dtype=np.uint8)
        send_sig, recv_sig = ep.sig_init(1), ep.sig_init(1)
        sblk = ep.blk_init(ep.mem_reg(sbuf), 0, size, signal=send_sig)
        rblk = ep.blk_init(ep.mem_reg(rbuf), 0, size, signal=recv_sig)
        yield from ep.send_ctl(left, rblk, tag="rblk")
        dst = yield from ep.recv_ctl(right, tag="rblk")
        for it in range(iters):
            ep.put(sblk, dst)
            yield from ep.sig_wait(recv_sig)
            ep.sig_reset(recv_sig)
            yield from ep.sig_wait(send_sig)
            ep.sig_reset(send_sig)
            yield from ep.send_ctl(left, it, tag="credit")
            yield from ep.recv_ctl(right, tag="credit")

    run_job(job, program)
    assert unr.stats["puts"] == n_ranks * iters
    assert unr.stats["retransmits"] > 0  # the schedule did bite
    assert not gc.isenabled()
    assert gc.collect() <= 16


# -- the loop ---------------------------------------------------------------------

class CountingHook:
    """Stands in for a ``Recorder``: counts dispatched events."""

    def __init__(self):
        self.depths = []

    def on_sim_step(self, depth):
        self.depths.append(depth)


def test_hook_attached_mid_run_sees_every_later_event():
    env, hook = Environment(), CountingHook()
    fired = []
    env.defer(1.0, lambda _v: setattr(env, "obs", hook))
    for i in range(5):
        env.defer(2.0 + i, fired.append, i)
    env.run()
    assert fired == [0, 1, 2, 3, 4]
    # Not the attaching event itself (its hook read came first), then
    # all five later ones, each reporting the depth left behind it.
    assert hook.depths == [4, 3, 2, 1, 0]


def test_event_at_exactly_until_is_dispatched():
    env, fired = Environment(), []
    env.defer(2.0, fired.append, "at")
    env.defer(2.0 + 1e-9, fired.append, "after")
    env.run(until=2.0)
    assert fired == ["at"] and env.now == 2.0
    env.run()
    assert fired == ["at", "after"]


def test_until_advances_clock_over_an_empty_queue():
    env = Environment()
    env.run(until=3.0)
    assert env.now == 3.0


def test_nan_until_rejected():
    env = Environment()
    with pytest.raises(SimulationError, match="until"):
        env.run(until=float("nan"))
    assert env.now == 0.0


def test_callback_index_error_escapes_run():
    # The loop ends on the scheduler's IndexError; one raised by a
    # callback must not be mistaken for it.
    env, fired = Environment(), []
    env.defer(1.0, lambda _v: [][0])
    env.defer(2.0, fired.append, "later")
    with pytest.raises(IndexError):
        env.run()
    assert env.now == 1.0 and fired == []
    env.run()
    assert fired == ["later"]


def test_step_dispatches_exactly_one_event():
    env, fired = Environment(), []
    for i in range(3):
        env.defer(float(i), fired.append, i)
    env.step()
    assert fired == [0] and env.now == 0.0
    env.step()
    env.step()
    assert fired == [0, 1, 2] and env.now == 2.0
    with pytest.raises(SimulationError, match="no scheduled events"):
        env.step()
