"""Sweep semantics of the process-free progress engine.

The property test drives `ProgressEngine` with random record arrivals,
bursts, CQ stall windows and a shallow CQ, and compares what it
dispatched — and the CQ's own accounting — against `reference_rail`, a
plain-Python statement of the batching rule.  The unit tests below it
pin the parked-consumer hand-off at its edges.
"""

from dataclasses import replace
from math import inf

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.core.engine import ProgressEngine
from repro.core.polling import PollingConfig
from repro.netsim import Cluster, ClusterSpec, CompletionRecord, NicSpec, NodeSpec
from repro.sim import Environment

TICK = 0.25e-6  # the default busy-mode dispatch delay, so fires land on arrivals


def make_node(nics=1, cq_depth=4096, env=None):
    env = env or Environment()
    spec = ClusterSpec(
        "t", 1, NodeSpec(cores=8, nics=nics),
        NicSpec(bandwidth_gbps=100, latency_us=1.0, cq_depth=cq_depth), seed=6,
    )
    return env, Cluster(env, spec).node(0)


def record(rid, now=0.0):
    return CompletionRecord(kind="put_remote", custom=rid, complete_time=now)


class SweepCounter:
    """The two Recorder calls the engine makes, counted."""

    def __init__(self):
        self.counts = {}

    def count(self, name):
        self.counts[name] = self.counts.get(name, 0) + 1

    def observe(self, name, value):
        pass


def reference_rail(arrivals, stalls, delay, limit, depth):
    """One rail's batching rule.

    ``arrivals`` is ``[(time, id)]`` in push order, ``stalls`` is
    ``[(opens, until)]``.  A record reaching a parked sweeper starts a
    sweep; the sweep waits out a stall, then ``delay``, dispatches that
    record and — unless the CQ is stalled by then — up to ``limit`` more;
    a remaining backlog starts the next sweep at once, otherwise the
    sweeper parks.  Whatever arrives at the instant of a fire is queued
    before it.  A full CQ blocks the pusher until a slot frees.
    """
    def stalled_until(now):
        return max([until for opens, until in stalls if opens <= now], default=0.0)

    def start_sweep(now):
        while now < stalled_until(now):
            now = now + (stalled_until(now) - now)
        return now + delay

    def pop():
        rid = queue.pop(0)
        if blocked:
            queue.append(blocked.pop(0))
        return rid

    pending, queue, blocked, out = list(arrivals), [], [], []
    first, fire = None, inf
    sweeps = high_water = overflows = 0
    while pending or first is not None:
        if pending and pending[0][0] <= fire:
            now, rid = pending.pop(0)
            if first is None:
                sweeps, first, fire = sweeps + 1, rid, start_sweep(now)
            elif len(queue) < depth:
                queue.append(rid)
                high_water = max(high_water, len(queue))
            else:
                # Whether a pusher that starts at the very instant of a
                # fire still finds the CQ full is kernel tie-breaking,
                # not the batching rule: outside this reference.
                assume(now != fire)
                overflows += 1
                blocked.append(rid)
            continue
        now = fire
        out.append((now, first))
        if now >= stalled_until(now):
            for _ in range(limit):
                if not queue:
                    break
                out.append((now, pop()))
        if queue:
            sweeps, first, fire = sweeps + 1, pop(), start_sweep(now)
        else:
            first, fire = None, inf
    return out, sweeps, high_water, overflows


configs = st.builds(
    lambda config, batch: replace(config, sweep_batch=batch),
    st.sampled_from([
        PollingConfig(),  # busy, 0.25 us
        PollingConfig(poll_cost_us=0.0),  # zero dispatch delay
        PollingConfig(mode="interval", interval_us=3.0),
    ]),
    st.sampled_from([2, 3, 64]),
)
# (rail, tick, burst size) and (rail, opening tick, length in ticks)
bursts = st.lists(
    st.tuples(st.integers(0, 1), st.integers(0, 40), st.integers(1, 10)),
    min_size=1, max_size=12,
)
windows = st.lists(
    st.tuples(st.integers(0, 1), st.integers(0, 44), st.integers(1, 9)),
    max_size=3,
)


@settings(max_examples=300, deadline=None)
@given(config=configs, n_rails=st.sampled_from([1, 2]),
       depth=st.sampled_from([4, 64]), bursts=bursts, windows=windows)
def test_sweeps_match_the_batching_rule(config, n_rails, depth, bursts, windows):
    env, node = make_node(nics=n_rails, cq_depth=depth)
    log = []
    obs = SweepCounter()
    engine = ProgressEngine(
        env, node, config, lambda n, rec: log.append((env.now, rec.custom)), obs=obs,
    )

    arrivals = [[] for _ in range(n_rails)]
    stalls = [[] for _ in range(n_rails)]
    rail_of = {}

    def arrive(rid):
        cq = node.nic(rail_of[rid]).cq
        rec = record(rid, env.now)
        if not cq.try_push(rec):  # what the NIC does on overflow
            env.process(cq.push(rec))

    # Scheduled before any arrival, so a window opening at t is seen by
    # a record arriving at t.
    for rail, tick, length in windows:
        rail %= n_rails
        opens, until = tick * TICK, (tick + length) * TICK
        stalls[rail].append((opens, until))
        env.defer(opens, node.nic(rail).cq.stall, until)
    rid = 0
    for rail, tick, size in sorted(bursts, key=lambda b: b[1]):
        rail %= n_rails
        for _ in range(size):
            rail_of[rid] = rail
            arrivals[rail].append((tick * TICK, rid))
            env.defer(tick * TICK, arrive, rid)
            rid += 1

    expected = [
        reference_rail(arrivals[r], stalls[r], config.dispatch_delay,
                       config.sweep_batch, depth)
        for r in range(n_rails)
    ]
    env.run()  # returns: nothing is left blocked on an empty CQ

    arrived_at = {rid: t for rail in arrivals for t, rid in rail}
    for r in range(n_rails):
        out, _sweeps, high_water, overflows = expected[r]
        assert [e for e in log if rail_of[e[1]] == r] == out
        cq = node.nic(r).cq
        assert len(cq) == 0
        assert cq.n_pushed == len(arrivals[r])
        assert cq.high_water == high_water
        assert cq.n_overflow_stalls == overflows
    assert engine.n_dispatched == rid
    assert engine.total_delay == pytest.approx(
        sum(t - arrived_at[i] for t, i in log), rel=1e-9, abs=1e-15
    )
    assert obs.counts["core.poll_sweeps"] == sum(e[1] for e in expected)
    assert obs.counts["core.poll_dispatches"] == rid


# -- the hand-off at its edges -------------------------------------------------

def test_handler_registered_after_construction_is_seen():
    env, node = make_node()
    default, late = [], []
    engine = ProgressEngine(env, node, PollingConfig(),
                            lambda n, rec: default.append(rec.custom))
    cq = node.nic(0).cq
    assert cq.try_push(record(1))
    env.run()
    # Same kind as the record just dispatched: the memo must not hide it.
    engine.register("put_remote", lambda n, rec: late.append(rec.custom))
    assert cq.try_push(record(2))
    env.run()
    assert (default, late) == ([1], [2])


def test_mode_none_parks_nothing():
    env, node = make_node()
    engine = ProgressEngine(env, node, PollingConfig(mode="none"), lambda n, r: None)
    cq = node.nic(0).cq
    assert cq.try_push(record(1))
    env.run()
    assert engine.n_dispatched == 0
    # The queue is an ordinary Store-backed FIFO: depth, high water, poll.
    assert (len(cq), cq.high_water, cq.n_pushed) == (1, 1, 1)
    assert cq.poll().custom == 1


@pytest.mark.parametrize("config", [PollingConfig(), PollingConfig(poll_cost_us=0.0)])
def test_blocking_push_onto_idle_queue_is_dispatched(config):
    env, node = make_node()
    order = []
    engine = ProgressEngine(env, node, config,
                            lambda n, rec: order.append(("dispatch", rec.custom, env.now)))
    cq = node.nic(0).cq

    def pusher(env):
        yield env.timeout(2e-6)
        yield from cq.push(record(7, env.now))
        order.append(("pushed", 7, env.now))  # the push still costs its one yield

    env.process(pusher(env))
    env.run()
    # Even with no dispatch delay the pusher resumes first: the handler
    # runs in an event of its own, after the one that queued the record.
    assert order == [("pushed", 7, 2e-6), ("dispatch", 7, 2e-6 + config.dispatch_delay)]
    assert (cq.n_pushed, cq.high_water, len(cq)) == (1, 0, 0)
    assert engine.n_dispatched == 1


def test_handler_never_runs_inside_the_producers_event():
    env, node = make_node()
    seen = []
    ProgressEngine(env, node, PollingConfig(poll_cost_us=0.0),
                   lambda n, rec: seen.append(rec.custom))
    cq = node.nic(0).cq

    def deliver(_value):
        assert cq.try_push(record(1, env.now))
        assert seen == []  # scheduled, not run

    env.defer(1e-6, deliver)
    env.run()
    assert seen == [1]


class ProcessLog(Environment):
    """An Environment that remembers every process it was asked to run."""

    __slots__ = ("spawned",)

    def process(self, generator, name=""):
        self.spawned.append(name)
        return super().process(generator, name=name)


def test_run_returns_after_the_last_record_with_no_process_left_behind():
    env = ProcessLog()
    env.spawned = []
    env, node = make_node(nics=2, env=env)
    engine = ProgressEngine(env, node, PollingConfig(), lambda n, r: None)
    for rail in (0, 1):
        env.defer(1e-6, lambda _v, rail=rail: node.nic(rail).cq.try_push(record(rail, env.now)))
    env.run()  # no `until`
    assert engine.n_dispatched == 2
    assert env.spawned == []  # the sweepers are callbacks, not processes
    assert env.peek() == inf
    assert env.now == pytest.approx(1.25e-6)
    assert all(len(nic.cq) == 0 for nic in node.nics)


def test_one_parked_consumer_per_queue():
    env, node = make_node()
    ProgressEngine(env, node, PollingConfig(), lambda n, r: None)
    with pytest.raises(RuntimeError, match="parked consumer"):
        node.nic(0).cq.park(lambda rec: None)


@pytest.mark.parametrize("config", [PollingConfig(), PollingConfig(poll_cost_us=0.0)],
                         ids=["delay", "no-delay"])
def test_stalled_queue_holds_its_record_until_the_window_closes(config):
    """A record reaching a stalled CQ waits the window out — including
    an extension made while it waits — then the dispatch delay; with no
    delay the fire runs inside the window-closing event itself."""
    env, node = make_node()
    log = []
    obs = SweepCounter()
    engine = ProgressEngine(
        env, node, config, lambda n, rec: log.append((rec.custom, env.now)), obs=obs,
    )
    cq = node.nic(0).cq
    delay = config.dispatch_delay
    env.defer(1e-6, cq.stall, 4e-6)
    env.defer(2e-6, lambda _v: cq.try_push(record(1, env.now)))
    env.defer(3e-6, cq.stall, 6e-6)  # extended while record 1 waits
    env.defer(5e-6, lambda _v: cq.try_push(record(2, env.now)))  # queues behind it
    n_events = [0]

    class Count:
        def on_sim_step(self, depth):
            n_events[0] += 1

    env.obs = Count()
    env.run()
    window_closes = 2e-6 + (4e-6 - 2e-6) + (6e-6 - 4e-6)  # as the sweeper adds it up
    assert log == [(1, window_closes + delay), (2, window_closes + delay)]
    assert obs.counts["core.poll_sweeps"] == 1  # record 2 rode the same sweep
    assert engine.n_dispatched == 2
    assert engine.total_delay == pytest.approx(
        (window_closes + delay - 2e-6) + (window_closes + delay - 5e-6)
    )
    # 4 scripted deferreds, two stall-over wake-ups, and the fire as an
    # event of its own only when there is a delay to wait.
    assert n_events[0] == 6 + (1 if delay > 0 else 0)
    assert (len(cq), cq.high_water, cq.n_pushed) == (0, 1, 2)
