"""Property-based tests on the simulation kernel's ordering guarantees."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim import AllOf, AnyOf, Environment, Store


@settings(max_examples=100, deadline=None)
@given(delays=st.lists(st.floats(0, 100, allow_nan=False), min_size=1, max_size=20))
def test_timeouts_fire_in_time_order(delays):
    env = Environment()
    fired = []

    def proc(env, d, i):
        yield env.timeout(d)
        fired.append((env.now, i))

    for i, d in enumerate(delays):
        env.process(proc(env, d, i))
    env.run()
    times = [t for t, _ in fired]
    assert times == sorted(times)
    assert len(fired) == len(delays)
    # Equal delays preserve spawn order (deterministic tie-break).
    by_time = {}
    for t, i in fired:
        by_time.setdefault(t, []).append(i)
    for group in by_time.values():
        assert group == sorted(group)


@settings(max_examples=100, deadline=None)
@given(
    items=st.lists(st.integers(), min_size=1, max_size=30),
    consumer_delay=st.floats(0, 10, allow_nan=False),
)
def test_store_is_fifo_under_any_timing(items, consumer_delay):
    env = Environment()
    store = Store(env)
    got = []

    def producer(env):
        for x in items:
            yield store.put(x)
            yield env.timeout(0.5)

    def consumer(env):
        yield env.timeout(consumer_delay)
        for _ in items:
            v = yield store.get()
            got.append(v)

    env.process(producer(env))
    env.process(consumer(env))
    env.run()
    assert got == items


@settings(max_examples=100, deadline=None)
@given(delays=st.lists(st.floats(0.001, 50, allow_nan=False), min_size=1, max_size=10))
def test_allof_fires_at_max_anyof_at_min(delays):
    env = Environment()
    results = {}

    def proc(env):
        ts_all = [env.timeout(d) for d in delays]
        yield AllOf(env, ts_all)
        results["all"] = env.now

    def proc2(env):
        ts_any = [env.timeout(d) for d in delays]
        yield AnyOf(env, ts_any)
        results["any"] = env.now

    env.process(proc(env))
    env.process(proc2(env))
    env.run()
    assert results["all"] == max(delays)
    assert results["any"] == min(delays)
