"""Unit tests for `repro.sim.resources`."""

import pytest

from repro.sim import (
    Environment,
    FilterStore,
    SimulationError,
    Store,
)


# ---------------------------------------------------------------- Store


def test_store_fifo_order():
    env = Environment()
    store = Store(env)
    got = []

    def producer(env):
        for i in range(3):
            yield store.put(i)
            yield env.timeout(1)

    def consumer(env):
        for _ in range(3):
            item = yield store.get()
            got.append(item)

    env.process(producer(env))
    env.process(consumer(env))
    env.run()
    assert got == [0, 1, 2]


def test_store_get_blocks_until_put():
    env = Environment()
    store = Store(env)
    times = []

    def consumer(env):
        item = yield store.get()
        times.append((env.now, item))

    def producer(env):
        yield env.timeout(7)
        yield store.put("x")

    env.process(consumer(env))
    env.process(producer(env))
    env.run()
    assert times == [(7, "x")]


def test_store_capacity_backpressure():
    env = Environment()
    store = Store(env, capacity=1)
    log = []

    def producer(env):
        yield store.put("a")
        log.append(("a stored", env.now))
        yield store.put("b")  # blocks until "a" is taken
        log.append(("b stored", env.now))

    def consumer(env):
        yield env.timeout(10)
        item = yield store.get()
        log.append((f"got {item}", env.now))

    env.process(producer(env))
    env.process(consumer(env))
    env.run()
    assert ("a stored", 0) in log
    assert ("b stored", 10) in log


def test_store_try_get_nonblocking():
    env = Environment()
    store = Store(env)
    assert store.try_get() is None
    store.put(5)
    env.run()
    assert store.try_get() == 5
    assert store.try_get() is None


def test_store_invalid_capacity():
    env = Environment()
    with pytest.raises(SimulationError):
        Store(env, capacity=0)


def test_store_len():
    env = Environment()
    store = Store(env)
    for i in range(4):
        store.put(i)
    env.run()
    assert len(store) == 4


# ------------------------------------------------------------ FilterStore


def test_filter_store_matches_predicate():
    env = Environment()
    store = FilterStore(env)
    got = []

    def run(env):
        yield store.put({"tag": 1, "data": "one"})
        yield store.put({"tag": 2, "data": "two"})
        item = yield store.get(lambda m: m["tag"] == 2)
        got.append(item["data"])
        item = yield store.get(lambda m: m["tag"] == 1)
        got.append(item["data"])

    env.run_process(run(env))
    assert got == ["two", "one"]


def test_filter_store_blocks_until_match_arrives():
    env = Environment()
    store = FilterStore(env)
    times = []

    def consumer(env):
        item = yield store.get(lambda m: m == "wanted")
        times.append((env.now, item))

    def producer(env):
        yield store.put("unwanted")
        yield env.timeout(4)
        yield store.put("wanted")

    env.process(consumer(env))
    env.process(producer(env))
    env.run()
    assert times == [(4, "wanted")]
    assert list(store.items) == ["unwanted"]


def test_filter_store_multiple_waiters_distinct_matches():
    env = Environment()
    store = FilterStore(env)
    got = {}

    def consumer(env, key):
        item = yield store.get(lambda m, key=key: m[0] == key)
        got[key] = item[1]

    env.process(consumer(env, "a"))
    env.process(consumer(env, "b"))

    def producer(env):
        yield env.timeout(1)
        yield store.put(("b", 2))
        yield store.put(("a", 1))

    env.process(producer(env))
    env.run()
    assert got == {"a": 1, "b": 2}
