"""Unit tests for the polling config (`repro.core.polling`) and the
per-node progress core (`repro.core.engine.ProgressEngine`)."""

import pytest

from repro.core.engine import ProgressEngine
from repro.core.polling import PollingConfig
from repro.netsim import Cluster, ClusterSpec, CompletionRecord, NicSpec, NodeSpec
from repro.sim import Environment


def make_node(cores=8, nics=1):
    env = Environment()
    spec = ClusterSpec(
        "t", 1, NodeSpec(cores=cores, nics=nics),
        NicSpec(bandwidth_gbps=100, latency_us=1.0), seed=6,
    )
    return env, Cluster(env, spec).node(0)


def test_config_validation():
    with pytest.raises(ValueError):
        PollingConfig(mode="turbo")
    with pytest.raises(ValueError):
        PollingConfig(mode="interval", interval_us=0)


def test_interval_overload_warns_instead_of_silently_clamping():
    """poll_cost_us > interval_us means the duty cycle would exceed 1:
    cpu_duty saturates, and the config must say so out loud."""
    with pytest.warns(UserWarning, match="poll_cost_us"):
        cfg = PollingConfig(mode="interval", interval_us=1.0, poll_cost_us=4.0)
    assert cfg.cpu_duty == pytest.approx(cfg.busy_interference)

    import warnings

    with warnings.catch_warnings():
        warnings.simplefilter("error")
        ok = PollingConfig(mode="interval", interval_us=5.0, poll_cost_us=0.5)
        # Busy mode with a huge poll cost is explicit, not a misconfig.
        PollingConfig(mode="busy", poll_cost_us=4.0)
    assert ok.cpu_duty < ok.busy_interference


def test_dispatch_delay_by_mode():
    assert PollingConfig(mode="none").dispatch_delay == 0.0
    assert PollingConfig(mode="interval", interval_us=10).dispatch_delay == pytest.approx(5e-6)
    assert PollingConfig(mode="busy", poll_cost_us=0.5).dispatch_delay == pytest.approx(0.25e-6)


def test_cpu_duty_by_mode():
    assert PollingConfig(mode="none").cpu_duty == 0.0
    assert PollingConfig(mode="reserved").cpu_duty == 0.0
    busy = PollingConfig(mode="busy")
    assert busy.cpu_duty == busy.busy_interference
    # Interval polling interferes proportionally to its duty cycle.
    rare = PollingConfig(mode="interval", interval_us=100.0, poll_cost_us=0.5)
    often = PollingConfig(mode="interval", interval_us=1.0, poll_cost_us=0.5)
    assert rare.cpu_duty < often.cpu_duty


def test_engine_dispatches_records_to_handler():
    env, node = make_node()
    got = []
    engine = ProgressEngine(env, node, PollingConfig(mode="busy"),
                            lambda n, rec: got.append((n, rec.custom)))

    def feed(env):
        for i in range(5):
            yield from node.nic(0).cq.push(
                CompletionRecord(kind="put_remote", custom=i, complete_time=env.now)
            )
            yield env.timeout(1e-6)

    env.process(feed(env))
    env.run(until=1e-3)
    assert [c for _n, c in got] == [0, 1, 2, 3, 4]
    assert engine.n_dispatched == 5
    assert engine.total_delay > 0


def test_engine_none_mode_spawns_nothing():
    env, node = make_node()
    engine = ProgressEngine(env, node, PollingConfig(mode="none"), lambda n, r: None)
    env.process(node.nic(0).cq.push(CompletionRecord(kind="put_remote", custom=1)))
    env.run(until=1e-3)
    assert engine.n_dispatched == 0
    assert len(node.nic(0).cq) == 1  # nobody drained it


def test_engine_reserved_mode_reserves_cores():
    env, node = make_node(cores=8)
    ProgressEngine(env, node, PollingConfig(mode="reserved", reserved_cores=2),
                   lambda n, r: None)
    assert node.cpu.reserved == 2
    assert node.cpu.polling_load == 0.0


def test_engine_polls_all_rails():
    env, node = make_node(nics=2)
    got = []
    ProgressEngine(env, node, PollingConfig(mode="busy"),
                   lambda n, rec: got.append(rec.custom))

    def feed(env):
        yield from node.nic(0).cq.push(CompletionRecord(kind="put_remote", custom=10))
        yield from node.nic(1).cq.push(CompletionRecord(kind="put_remote", custom=20))

    env.process(feed(env))
    env.run(until=1e-3)
    assert sorted(got) == [10, 20]


def test_engine_batches_backlog():
    """Records accumulated during a dispatch delay drain in one sweep."""
    env, node = make_node()
    times = []
    cfg = PollingConfig(mode="interval", interval_us=50.0)
    ProgressEngine(env, node, cfg, lambda n, rec: times.append(env.now))

    def feed(env):
        for i in range(10):
            yield from node.nic(0).cq.push(
                CompletionRecord(kind="put_remote", custom=i, complete_time=env.now)
            )

    env.process(feed(env))
    env.run(until=1e-3)
    assert len(times) == 10
    # All ten applied at the same poll instant (one sweep).
    assert max(times) - min(times) < 1e-9


def test_engine_dispatches_by_registered_kind():
    """Records route to the handler registered for their kind; anything
    unregistered falls through to the default handler."""
    env, node = make_node()
    ctrl, rma, other = [], [], []
    engine = ProgressEngine(env, node, PollingConfig(mode="busy"),
                            lambda n, rec: other.append(rec.kind))
    engine.register("ctrl", lambda n, rec: ctrl.append(rec.payload))
    engine.register("put_remote", lambda n, rec: rma.append(rec.custom))

    def feed(env):
        yield from node.nic(0).cq.push(
            CompletionRecord(kind="put_remote", custom=7, complete_time=env.now)
        )
        yield from node.nic(0).cq.push(
            CompletionRecord(kind="ctrl", payload=(3, -1), complete_time=env.now)
        )
        yield from node.nic(0).cq.push(
            CompletionRecord(kind="msg", complete_time=env.now)
        )

    env.process(feed(env))
    env.run(until=1e-3)
    assert rma == [7]
    assert ctrl == [(3, -1)]
    assert other == ["msg"]
    assert engine.n_dispatched == 3
