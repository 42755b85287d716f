"""Tests for the NIC timing/delivery model (`repro.netsim.nic`)."""

import numpy as np
import pytest

from repro.netsim import (
    Cluster,
    ClusterSpec,
    CompletionRecord,
    FabricSpec,
    NicSpec,
    NodeSpec,
)
from repro.sim import Environment


def make_cluster(
    n_nodes=2,
    nics=1,
    bw=100.0,
    lat_us=1.0,
    overhead_us=0.3,
    rx_overhead_us=0.2,
    cq_depth=4096,
    jitter=0.0,
    offload=False,
):
    env = Environment()
    spec = ClusterSpec(
        "test",
        n_nodes,
        NodeSpec(cores=4, nics=nics),
        NicSpec(
            bandwidth_gbps=bw,
            latency_us=lat_us,
            msg_overhead_us=overhead_us,
            rx_overhead_us=rx_overhead_us,
            cq_depth=cq_depth,
            atomic_offload=offload,
        ),
        FabricSpec(routing_jitter=jitter),
        seed=42,
    )
    return env, Cluster(env, spec)


def test_put_latency_matches_model():
    env, cluster = make_cluster()
    a, b = cluster.nodes[0].nic(), cluster.nodes[1].nic()
    delivered = []

    def run(env):
        done = a.post_put(b, 8, on_deliver=lambda _: delivered.append(env.now))
        yield done

    env.run_process(run(env))
    env.run()
    spec = a.spec
    expected = spec.msg_overhead + 8 / spec.bandwidth + spec.latency + spec.rx_overhead
    assert delivered[0] == pytest.approx(expected, rel=1e-9)


def test_put_local_completion_at_injection_end():
    env, cluster = make_cluster()
    a, b = cluster.nodes[0].nic(), cluster.nodes[1].nic()

    def run(env):
        t = yield a.post_put(b, 1000)
        return t

    t = env.run_process(run(env))
    env.run()
    assert t == pytest.approx(a.spec.msg_overhead + 1000 / a.spec.bandwidth)


def test_large_put_dominated_by_bandwidth():
    env, cluster = make_cluster(bw=100.0)
    a, b = cluster.nodes[0].nic(), cluster.nodes[1].nic()
    delivered = []
    nbytes = 1 << 20

    def run(env):
        yield a.post_put(b, nbytes, on_deliver=lambda _: delivered.append(env.now))

    env.run_process(run(env))
    env.run()
    serialization = nbytes / a.spec.bandwidth
    assert delivered[0] == pytest.approx(serialization, rel=0.05)


def test_tx_serialization_two_messages_back_to_back():
    env, cluster = make_cluster()
    a, b = cluster.nodes[0].nic(), cluster.nodes[1].nic()
    delivered = []
    nbytes = 1 << 16

    def run(env):
        e1 = a.post_put(b, nbytes, on_deliver=lambda _: delivered.append(env.now))
        e2 = a.post_put(b, nbytes, on_deliver=lambda _: delivered.append(env.now))
        yield e1
        yield e2

    env.run_process(run(env))
    env.run()
    gap = delivered[1] - delivered[0]
    # Second message completes one serialization+overhead later.
    assert gap == pytest.approx(a.spec.msg_overhead + nbytes / a.spec.bandwidth, rel=1e-6)


def test_rx_contention_serializes_two_senders():
    env, cluster = make_cluster(n_nodes=3)
    a = cluster.nodes[0].nic()
    c = cluster.nodes[2].nic()
    b = cluster.nodes[1].nic()
    delivered = []
    nbytes = 1 << 20

    def run(env):
        e1 = a.post_put(b, nbytes, on_deliver=lambda _: delivered.append(env.now))
        e2 = c.post_put(b, nbytes, on_deliver=lambda _: delivered.append(env.now))
        yield e1
        yield e2

    env.run_process(run(env))
    env.run()
    # Receiver port must serialize: the second delivery lands roughly a
    # full serialization time after the first, not at the same instant.
    serialization = nbytes / b.spec.bandwidth
    assert delivered[1] - delivered[0] == pytest.approx(serialization, rel=0.05)


def test_put_copies_payload_through_on_deliver():
    env, cluster = make_cluster()
    a, b = cluster.nodes[0].nic(), cluster.nodes[1].nic()
    dst = np.zeros(4, dtype=np.int64)
    src = np.arange(4, dtype=np.int64)

    def deliver(data):
        dst[:] = data

    def run(env):
        yield a.post_put(b, src.nbytes, payload=src.copy(), on_deliver=deliver)

    env.run_process(run(env))
    env.run()
    np.testing.assert_array_equal(dst, src)


def test_remote_record_lands_in_destination_cq():
    env, cluster = make_cluster()
    a, b = cluster.nodes[0].nic(), cluster.nodes[1].nic()
    rec = CompletionRecord(kind="put_remote", custom=0xBEEF, nbytes=64)

    def run(env):
        yield a.post_put(b, 64, remote_record=rec)
        yield env.timeout(1.0)

    env.run_process(run(env))
    got = b.cq.poll()
    assert got is rec
    assert got.custom == 0xBEEF
    assert got.complete_time > 0
    assert a.cq.poll() is None


def test_local_record_lands_in_source_cq():
    env, cluster = make_cluster()
    a, b = cluster.nodes[0].nic(), cluster.nodes[1].nic()
    rec = CompletionRecord(kind="put_local", custom=7)

    def run(env):
        yield a.post_put(b, 64, local_record=rec)

    env.run_process(run(env))
    env.run()
    assert a.cq.poll() is rec


def test_atomic_offload_runs_action_without_cq_entry():
    env, cluster = make_cluster(offload=True)
    a, b = cluster.nodes[0].nic(), cluster.nodes[1].nic()
    counter = []

    def run(env):
        yield a.post_put(
            b,
            64,
            remote_action=lambda: counter.append(env.now),
            remote_record=CompletionRecord(kind="put_remote"),
        )
        yield env.timeout(1.0)

    env.run_process(run(env))
    assert counter  # action executed
    assert b.cq.poll() is None  # no CQ entry posted


def test_without_offload_action_is_ignored_record_used():
    env, cluster = make_cluster(offload=False)
    a, b = cluster.nodes[0].nic(), cluster.nodes[1].nic()
    hit = []
    rec = CompletionRecord(kind="put_remote")

    def run(env):
        yield a.post_put(b, 64, remote_action=lambda: hit.append(1), remote_record=rec)
        yield env.timeout(1.0)

    env.run_process(run(env))
    assert not hit
    assert b.cq.poll() is rec


def test_cq_overflow_stalls_delivery():
    env, cluster = make_cluster(cq_depth=2)
    a, b = cluster.nodes[0].nic(), cluster.nodes[1].nic()

    def run(env):
        for i in range(5):
            a.post_put(b, 8, remote_record=CompletionRecord(kind="put_remote", custom=i))
        yield env.timeout(0.1)  # nobody polls

    env.run_process(run(env))
    assert len(b.cq) == 2
    assert b.cq.n_overflow_stalls > 0

    # After polling, the stalled records flow in.
    def drain(env):
        got = []
        while len(got) < 5:
            rec = b.cq.poll()
            if rec is not None:
                got.append(rec.custom)
            yield env.timeout(0.001)
        return got

    got = env.run_process(drain(env))
    assert sorted(got) == [0, 1, 2, 3, 4]


def test_ordered_messages_preserve_send_order_under_jitter():
    env, cluster = make_cluster(jitter=2.0)
    a, b = cluster.nodes[0].nic(), cluster.nodes[1].nic()
    order = []

    def run(env):
        evts = []
        for i in range(20):
            evts.append(
                a.post_put(b, 4096, on_deliver=lambda _, i=i: order.append(i), ordered=True)
            )
        for e in evts:
            yield e
        yield env.timeout(1.0)

    env.run_process(run(env))
    assert order == list(range(20))


def test_unordered_fragments_can_arrive_out_of_order():
    env, cluster = make_cluster(jitter=4.0)
    a, b = cluster.nodes[0].nic(), cluster.nodes[1].nic()
    order = []

    def run(env):
        for i in range(64):
            a.post_put(b, 1 << 17, on_deliver=lambda _, i=i: order.append(i))
        yield env.timeout(10.0)

    env.run_process(run(env))
    assert sorted(order) == list(range(64))
    assert order != list(range(64)), "adaptive-routing jitter should reorder"


def test_get_round_trip_latency_exceeds_put():
    env, cluster = make_cluster()
    a, b = cluster.nodes[0].nic(), cluster.nodes[1].nic()
    times = {}

    def run(env):
        t0 = env.now
        yield a.post_get(b, 8, fetch=lambda: b"x" * 8)
        times["get"] = env.now - t0
        t0 = env.now
        done = a.post_put(b, 8, on_deliver=lambda _: times.__setitem__("put", env.now - t0))
        yield done
        yield env.timeout(1.0)

    env.run_process(run(env))
    assert times["get"] > times["put"]
    # GET pays roughly an extra one-way latency.
    assert times["get"] - times["put"] >= a.spec.latency * 0.9


def test_get_fetches_remote_data():
    env, cluster = make_cluster()
    a, b = cluster.nodes[0].nic(), cluster.nodes[1].nic()
    remote = np.arange(10.0)
    landed = {}

    def run(env):
        yield a.post_get(
            b,
            remote.nbytes,
            fetch=lambda: remote.copy(),
            on_deliver=lambda d: landed.__setitem__("data", d),
        )

    env.run_process(run(env))
    np.testing.assert_array_equal(landed["data"], remote)


def test_intra_node_put_uses_fast_path():
    env, cluster = make_cluster(nics=2)
    node = cluster.nodes[0]
    a, b = node.nic(0), node.nic(1)
    delivered = []

    def run(env):
        yield a.post_put(b, 8, on_deliver=lambda _: delivered.append(env.now))

    env.run_process(run(env))
    env.run()
    assert delivered[0] < a.spec.latency + a.spec.msg_overhead + a.spec.rx_overhead


def test_negative_size_rejected():
    env, cluster = make_cluster()
    a, b = cluster.nodes[0].nic(), cluster.nodes[1].nic()
    with pytest.raises(ValueError):
        a.post_put(b, -1)
    with pytest.raises(ValueError):
        a.post_get(b, -1)


def test_traffic_counters():
    env, cluster = make_cluster()
    a, b = cluster.nodes[0].nic(), cluster.nodes[1].nic()

    def run(env):
        yield a.post_put(b, 100)
        yield a.post_put(b, 200)
        yield env.timeout(1)

    env.run_process(run(env))
    assert a.tx_msgs == 2
    assert a.tx_bytes == 300
    assert b.rx_msgs == 2
    assert b.rx_bytes == 300
    totals = cluster.total_traffic()
    assert totals["tx_bytes"] == 300


# -- routing jitter: block draws vs one uniform() per message ----------------
#
# The NIC takes its jitter doubles from ``rng.random(_JITTER_BLOCK)`` and
# scales them itself.  The references below are the per-message model:
# busy-until bookkeeping in plain Python and one
# ``rng.uniform(0.0, routing_jitter * serialization)`` per jittered
# message, on a generator seeded like the NIC's own.

def make_jitter_pair():
    """Two identically seeded 2-node, 2-rail clusters: the first posts,
    the second only lends its (untouched) NIC generator to the reference."""
    def build():
        env = Environment()
        spec = ClusterSpec(
            "jit", 2, NodeSpec(cores=4, nics=2),
            NicSpec(bandwidth_gbps=100.0, latency_us=1.0),
            FabricSpec(routing_jitter=0.7), seed=20240,
        )
        return env, Cluster(env, spec)

    env, cluster = build()
    _env, twin = build()
    return env, cluster, twin.nodes[0].nic(0).rng


def mixed_posts(n_jittered):
    """``(kind, nbytes)``: unordered posts on both sides of the
    small-message cutoff, with an ordered and an intra-node post (no
    draw) after every third one."""
    sizes = [8, 64 * 1024, 4096, 1 << 20, 8192, 8193, 300_000]
    posts = []
    for i in range(n_jittered):
        posts.append(("unordered", sizes[i % len(sizes)]))
        if i % 3 == 2:
            posts.append(("ordered", sizes[(i + 2) % len(sizes)]))
            posts.append(("intra", sizes[(i + 4) % len(sizes)]))
    return posts


def test_block_drawn_put_jitter_equals_a_uniform_draw_per_message():
    from repro.netsim.nic import _JITTER_BLOCK

    env, cluster, ref_rng = make_jitter_pair()
    a, a2, b = cluster.nodes[0].nic(0), cluster.nodes[0].nic(1), cluster.nodes[1].nic(0)
    posts = mixed_posts(3 * _JITTER_BLOCK + 5)
    got = {}

    def run(env):
        for i, (kind, nbytes) in enumerate(posts):
            a.post_put(
                a2 if kind == "intra" else b, nbytes,
                on_deliver=lambda _, i=i: got.__setitem__(i, env.now),
                ordered=kind == "ordered",
            )
        yield env.timeout(1.0)

    env.run_process(run(env))

    spec, fabric = a.spec, a.fabric
    tx_msg_free = tx_free = rx_free = loop_free = horizon = 0.0
    want = {}
    for i, (kind, nbytes) in enumerate(posts):  # all posted at t = 0
        if kind == "intra":
            tx_end = loop_free + nbytes / fabric.intra_node_bandwidth
            loop_free = tx_end
            want[i] = tx_end + fabric.intra_node_latency
            continue
        serialization = nbytes / spec.bandwidth
        jitter = 0.0 if kind == "ordered" else float(
            ref_rng.uniform(0.0, fabric.routing_jitter * serialization)
        )
        if nbytes <= fabric.small_message_cutoff:
            start = tx_msg_free
            tx_msg_free = start + spec.msg_overhead
            tx_end = start + spec.msg_overhead + serialization
            at = tx_end + spec.latency + spec.rx_overhead + jitter
        else:
            tx_start = tx_free
            tx_end = tx_start + spec.msg_overhead + serialization
            tx_free = tx_end
            rx_start = max(tx_start + spec.msg_overhead + spec.latency, rx_free)
            rx_free = rx_start + serialization
            at = (
                max(tx_end + spec.latency, rx_start + serialization)
                + spec.rx_overhead + jitter
            )
        if kind == "ordered":
            at = horizon = max(at, horizon)
        want[i] = at
    assert got == want  # bit-identical, not approximately


def test_block_drawn_get_jitter_equals_a_uniform_draw_per_message():
    from repro.netsim.nic import _JITTER_BLOCK

    env, cluster, ref_rng = make_jitter_pair()
    a, a2, b = cluster.nodes[0].nic(0), cluster.nodes[0].nic(1), cluster.nodes[1].nic(0)
    gets = [
        (kind, nbytes) for kind, nbytes in mixed_posts(3 * _JITTER_BLOCK + 5)
        if kind != "ordered"  # a GET has no ordered flavour
    ]
    got = {}

    def run(env):
        for i, (kind, nbytes) in enumerate(gets):
            a.post_get(
                a2 if kind == "intra" else b, nbytes,
                on_deliver=lambda _, i=i: got.__setitem__(i, env.now),
            )
        yield env.timeout(1.0)

    env.run_process(run(env))

    spec, fabric = a.spec, a.fabric
    # busy-until horizons: a's tx/rx ports, and each target's tx port
    tx_free = rx_free = 0.0
    peer_tx_free = {"intra": 0.0, "unordered": 0.0}
    want = {}
    for i, (kind, nbytes) in enumerate(gets):
        if kind == "intra":
            bw, latency = fabric.intra_node_bandwidth, fabric.intra_node_latency
        else:
            bw, latency = spec.bandwidth, spec.latency
        req_end = tx_free + spec.msg_overhead
        tx_free = req_end
        serialization = nbytes / bw
        resp_start = max(req_end + latency, peer_tx_free[kind])
        resp_end = resp_start + spec.msg_overhead + serialization
        peer_tx_free[kind] = resp_end
        rx_start = max(resp_start + spec.msg_overhead + latency, rx_free)
        rx_free = rx_start + serialization
        jitter = 0.0 if kind == "intra" else float(
            ref_rng.uniform(0.0, fabric.routing_jitter * serialization)
        )
        want[i] = (
            max(resp_end + latency, rx_start + serialization)
            + spec.rx_overhead + jitter
        )
    assert got == want


# -- local-side CQ overflow: completion waits for the queue -------------------

def _overflow_script(op, depth):
    """Four posts with a local record each on a depth-``depth`` source CQ
    nobody polls until t = 50 us, then one poll per 10 us.  Returns, per
    post, when its ``done`` fired, with what value, and how many records
    the CQ had accepted by then; plus the CQ's own accounting."""
    env, cluster = make_cluster(cq_depth=depth)
    a, b = cluster.nodes[0].nic(), cluster.nodes[1].nic()
    post = a.post_put if op == "put" else a.post_get
    fired, polled = [], []
    for i in range(4):
        done = post(b, 4096, local_record=CompletionRecord(kind=f"{op}_local", custom=i))
        done.callbacks.append(
            lambda evt, i=i: fired.append((i, env.now, evt.value, a.cq.n_pushed))
        )

    def poller(env):
        yield env.timeout(50e-6)
        while len(polled) < 4:
            rec = a.cq.poll()
            if rec is not None:
                polled.append((rec.custom, env.now))
            yield env.timeout(10e-6)

    env.run_process(poller(env))
    cq = a.cq
    return fired, polled, (cq.n_overflow_stalls, cq.stall_time, cq.high_water, cq.n_pushed)


@pytest.mark.parametrize("op, depth, accounting", [
    # (overflow stalls, stalled seconds, high water, pushes) as measured
    # before the two sides of a post became slotted events (PR 24).
    ("put", 1, (3, 0.00017631696, 1, 4)),
    ("put", 2, (2, 0.00010724464000000001, 2, 4)),
    ("get", 1, (3, 0.00016685088000000002, 1, 4)),
    ("get", 2, (2, 0.00010060624000000001, 2, 4)),
])
def test_done_waits_for_an_overflowed_local_record(op, depth, accounting):
    fired, polled, measured = _overflow_script(op, depth)
    assert [i for i, *_ in fired] == [c for c, _ in polled] == [0, 1, 2, 3]
    for i, when, value, n_pushed in fired:
        # The record is in the queue by the time done fires ...
        assert n_pushed >= i + 1
        if i < depth:
            assert when < 50e-6  # room in the CQ: local completion time
        else:
            # ... so an overflowed one waits for the poll that frees a slot.
            assert when == polled[i - depth][1]
        # A PUT resolves with its fixed tx_end, a GET with the enqueue time.
        assert (value < 50e-6) if op == "put" else (value == when)
    assert measured == accounting
