"""Unit tests for the discrete-event kernel (`repro.sim.core`)."""

import pytest

from repro.sim import (
    AllOf,
    Environment,
    Interrupt,
    SimulationError,
    StopProcess,
)


def test_timeout_advances_clock():
    env = Environment()
    log = []

    def proc(env):
        yield env.timeout(1.5)
        log.append(env.now)
        yield env.timeout(2.0)
        log.append(env.now)

    env.process(proc(env))
    env.run()
    assert log == [1.5, 3.5]


def test_timeout_value_passthrough():
    env = Environment()

    def proc(env):
        got = yield env.timeout(1, value="payload")
        return got

    assert env.run_process(proc(env)) == "payload"


def test_zero_delay_timeout_fires_in_order():
    env = Environment()
    log = []

    def proc(env, tag):
        yield env.timeout(0)
        log.append(tag)

    env.process(proc(env, "a"))
    env.process(proc(env, "b"))
    env.run()
    assert log == ["a", "b"]


def test_negative_delay_rejected():
    env = Environment()
    with pytest.raises(SimulationError):
        env.timeout(-1)


def test_process_return_value():
    env = Environment()

    def child(env):
        yield env.timeout(3)
        return 42

    def parent(env):
        value = yield env.process(child(env))
        return value * 2

    assert env.run_process(parent(env)) == 84
    assert env.now == 3


def test_stop_process_exception_sets_value():
    env = Environment()

    def proc(env):
        yield env.timeout(1)
        raise StopProcess("early")

    assert env.run_process(proc(env)) == "early"


def test_event_succeed_wakes_waiter():
    env = Environment()
    evt = env.event()
    log = []

    def waiter(env):
        value = yield evt
        log.append((env.now, value))

    def firer(env):
        yield env.timeout(5)
        evt.succeed("done")

    env.process(waiter(env))
    env.process(firer(env))
    env.run()
    assert log == [(5, "done")]


def test_event_double_trigger_raises():
    env = Environment()
    evt = env.event()
    evt.succeed(1)
    with pytest.raises(SimulationError):
        evt.succeed(2)


def test_waiting_on_already_processed_event():
    env = Environment()
    evt = env.event()
    evt.succeed("v")
    env.run()  # processes the event with no waiters
    assert evt.processed

    def late(env):
        value = yield evt
        return value

    assert env.run_process(late(env)) == "v"


def test_event_failure_propagates_into_process():
    env = Environment()
    evt = env.event()

    def proc(env):
        try:
            yield evt
        except ValueError as exc:
            return f"caught {exc}"

    def firer(env):
        yield env.timeout(1)
        evt.fail(ValueError("boom"))

    p = env.process(proc(env))
    env.process(firer(env))
    env.run()
    assert p.value == "caught boom"


def test_unhandled_process_failure_raises_from_run():
    env = Environment()

    def proc(env):
        yield env.timeout(1)
        raise RuntimeError("unhandled")

    env.process(proc(env))
    with pytest.raises(RuntimeError, match="unhandled"):
        env.run()


def test_yield_non_event_fails_process():
    env = Environment()

    def proc(env):
        yield 17

    with pytest.raises(SimulationError, match="non-event"):
        env.run_process(proc(env))


def test_all_of_waits_for_every_event():
    env = Environment()

    def proc(env):
        t1 = env.timeout(2, value="a")
        t2 = env.timeout(5, value="b")
        results = yield AllOf(env, [t1, t2])
        return (env.now, sorted(results.values()))

    assert env.run_process(proc(env)) == (5, ["a", "b"])


def test_all_of_empty_is_immediate():
    env = Environment()

    def proc(env):
        result = yield AllOf(env, [])
        return result

    assert env.run_process(proc(env)) == {}


def test_interrupt_delivers_cause():
    env = Environment()
    log = []

    def victim(env):
        try:
            yield env.timeout(100)
        except Interrupt as i:
            log.append((env.now, i.cause))

    def interrupter(env, target):
        yield env.timeout(3)
        target.interrupt("wake up")

    v = env.process(victim(env))
    env.process(interrupter(env, v))
    env.run()
    assert log == [(3, "wake up")]


def test_interrupt_dead_process_raises():
    env = Environment()

    def victim(env):
        yield env.timeout(1)

    v = env.process(victim(env))
    env.run()
    with pytest.raises(SimulationError):
        v.interrupt()


def test_run_until_freezes_clock():
    env = Environment()

    def proc(env):
        yield env.timeout(10)

    env.process(proc(env))
    env.run(until=4)
    assert env.now == 4

    env.run()
    assert env.now == 10


def test_run_until_in_past_rejected():
    env = Environment(initial_time=5)
    with pytest.raises(SimulationError):
        env.run(until=1)


def test_determinism_same_schedule_twice():
    def build():
        env = Environment()
        log = []

        def proc(env, tag, delay):
            yield env.timeout(delay)
            log.append(tag)
            yield env.timeout(delay)
            log.append(tag + "!")

        for i, d in enumerate([3, 1, 2, 1, 3]):
            env.process(proc(env, f"p{i}", d))
        env.run()
        return log

    assert build() == build()


def test_process_requires_generator():
    env = Environment()
    with pytest.raises(SimulationError, match="generator"):
        env.process(lambda: None)  # type: ignore[arg-type]


def test_active_process_tracking():
    env = Environment()
    seen = []

    def proc(env):
        seen.append(env.active_process)
        yield env.timeout(1)
        seen.append(env.active_process)

    p = env.process(proc(env))
    env.run()
    assert seen == [p, p]
    assert env.active_process is None
