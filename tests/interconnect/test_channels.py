"""Tests for interconnect channels and width enforcement."""

import numpy as np
import pytest

from repro.core import Unr
from repro.interconnect import (
    TABLE_II,
    ChannelError,
    MpiFallbackChannel,
    MpiFallbackConfig,
    RmaChannel,
)
from repro.netsim import Cluster, ClusterSpec, FabricSpec, NicSpec, NodeSpec
from repro.runtime import Job
from repro.sim import Environment


def make_job(n_nodes=2, nics=1, ppn=1, offload=False, jitter=0.0):
    env = Environment()
    spec = ClusterSpec(
        "t",
        n_nodes,
        NodeSpec(cores=4, nics=nics),
        NicSpec(bandwidth_gbps=100, latency_us=1.0, atomic_offload=offload),
        FabricSpec(routing_jitter=jitter),
        seed=3,
    )
    return env, Job(Cluster(env, spec), ranks_per_node=ppn)


def test_interface_names_resolve_to_their_capability():
    env, job = make_job()
    unr = Unr(job, "GLEX")
    assert unr.channel.capability is TABLE_II["glex"]
    assert unr.channel.name == "glex"
    assert Unr(job, "mpi").channel.name == "mpi"
    with pytest.raises(KeyError, match="unknown interface 'nope'"):
        Unr(job, "nope")


def test_channel_level_reflects_cluster_offload():
    env, job = make_job(offload=True)
    assert RmaChannel(job, TABLE_II["glex"]).level() == 4
    assert RmaChannel(job, TABLE_II["verbs"]).level() == 2
    env, job = make_job(offload=False)
    assert RmaChannel(job, TABLE_II["glex"]).level() == 3


def test_put_delivers_payload_and_remote_custom():
    env, job = make_job()
    ch = RmaChannel(job, TABLE_II["verbs"])
    landed = {}

    def run(env):
        yield ch.put(
            0, 1, 256,
            payload=b"data",
            on_deliver=lambda d: landed.__setitem__("data", d),
            remote_custom=0xABCD,
        )
        yield env.timeout(1)

    env.run_process(run(env))
    assert landed["data"] == b"data"
    rec = job.nic_of(1).cq.poll()
    assert rec.kind == "put_remote"
    assert rec.custom == 0xABCD


def test_put_remote_custom_width_enforced():
    env, job = make_job()
    ch = RmaChannel(job, TABLE_II["verbs"])  # 32 remote bits
    with pytest.raises(ChannelError, match="32"):
        ch.put(0, 1, 8, remote_custom=1 << 32)
    # 32 bits exactly fits.
    ch.put(0, 1, 8, remote_custom=(1 << 32) - 1)


def test_utofu_8bit_limit():
    env, job = make_job()
    ch = RmaChannel(job, TABLE_II["utofu"])
    with pytest.raises(ChannelError):
        ch.put(0, 1, 8, remote_custom=256)
    ch.put(0, 1, 8, remote_custom=255)


def test_negative_custom_rejected():
    env, job = make_job()
    ch = RmaChannel(job, TABLE_II["glex"])
    with pytest.raises(ChannelError, match="unsigned"):
        ch.put(0, 1, 8, remote_custom=-1)


def test_verbs_get_remote_notification_impossible():
    env, job = make_job()
    ch = RmaChannel(job, TABLE_II["verbs"])
    with pytest.raises(ChannelError, match="no custom bits"):
        ch.get(0, 1, 8, remote_custom=1)


def test_glex_get_remote_notification_works():
    env, job = make_job()
    ch = RmaChannel(job, TABLE_II["glex"])

    def run(env):
        yield ch.get(0, 1, 64, fetch=lambda: b"x", remote_custom=42)
        yield env.timeout(1)

    env.run_process(run(env))
    rec = job.nic_of(1).cq.poll()
    assert rec.kind == "get_remote"
    assert rec.custom == 42


def test_local_custom_lands_in_source_cq():
    env, job = make_job()
    ch = RmaChannel(job, TABLE_II["glex"])

    def run(env):
        yield ch.put(0, 1, 64, local_custom=7)

    env.run_process(run(env))
    env.run()
    rec = job.nic_of(0).cq.poll()
    assert rec.kind == "put_local"
    assert rec.custom == 7


def test_level4_action_bypasses_cq():
    env, job = make_job(offload=True)
    ch = RmaChannel(job, TABLE_II["glex"])
    hits = []

    def run(env):
        yield ch.put(0, 1, 64, remote_action=lambda: hits.append(env.now))
        yield env.timeout(1)

    env.run_process(run(env))
    assert hits
    assert job.nic_of(1).cq.poll() is None


def test_multi_rail_ranks_map_to_distinct_nics():
    env, job = make_job(nics=2, ppn=2)
    assert job.nic_of(0).index == 0
    assert job.nic_of(1).index == 1
    # Explicit rail selection wraps.
    assert job.nic_of(0, rail=1).index == 1
    assert job.nic_of(0, rail=2).index == 0


def test_striping_uses_both_rails():
    env, job = make_job(nics=2)
    ch = RmaChannel(job, TABLE_II["glex"])

    def run(env):
        e0 = ch.put(0, 1, 1 << 20, rail=0)
        e1 = ch.put(0, 1, 1 << 20, rail=1)
        yield e0
        yield e1
        yield env.timeout(1)

    env.run_process(run(env))
    n0 = job.cluster.node(0)
    assert n0.nic(0).tx_msgs == 1
    assert n0.nic(1).tx_msgs == 1


# ---------------------------------------------------------------- fallback


def test_fallback_software_notify_flag():
    env, job = make_job()
    ch = MpiFallbackChannel(job)
    assert ch.software_notify is True
    assert ch.level() == 0


def test_fallback_put_invokes_actions_directly():
    env, job = make_job()
    ch = MpiFallbackChannel(job)
    log = []

    def run(env):
        yield ch.put(
            0, 1, 128,
            payload=b"p",
            on_deliver=lambda d: log.append(("deliver", d)),
            remote_action=lambda: log.append(("remote",)),
            local_action=lambda: log.append(("local",)),
        )
        yield env.timeout(1)

    env.run_process(run(env))
    assert ("deliver", b"p") in log
    assert ("remote",) in log
    assert ("local",) in log
    # No CQ entries: notification is software.
    assert job.nic_of(1).cq.poll() is None


def test_fallback_rendezvous_slower_than_eager():
    def one_put(nbytes, threshold):
        env, job = make_job()
        ch = MpiFallbackChannel(job, MpiFallbackConfig(eager_threshold=threshold))
        t = {}

        def run(env):
            done = env.event()
            ch.put(0, 1, nbytes, remote_action=lambda: done.succeed(env.now))
            t["arrival"] = yield done

        env.run_process(run(env))
        return t["arrival"]

    nbytes = 8192
    eager = one_put(nbytes, threshold=16 * 1024)
    rndv = one_put(nbytes, threshold=4 * 1024)
    assert rndv > eager
    # Rendezvous pays at least one extra round trip (2 x 1us latency).
    assert rndv - eager >= 2e-6 * 0.9


def test_fallback_get_round_trip():
    env, job = make_job()
    ch = MpiFallbackChannel(job)
    landed = {}

    def run(env):
        yield ch.get(
            0, 1, 256,
            fetch=lambda: np.arange(4),
            on_deliver=lambda d: landed.__setitem__("d", d),
        )

    env.run_process(run(env))
    np.testing.assert_array_equal(landed["d"], np.arange(4))


def test_fallback_preserves_order():
    env, job = make_job()
    ch = MpiFallbackChannel(job)
    order = []

    def run(env):
        for i in range(10):
            ch.put(0, 1, 64, remote_action=lambda i=i: order.append(i))
        yield env.timeout(1.0)

    env.run_process(run(env))
    assert order == list(range(10))


# ------------------------------------------------------- done on request only


def test_channel_put_get_without_done_still_notify():
    env, job = make_job()
    ch = RmaChannel(job, TABLE_II["glex"])
    landed = []
    assert ch.put(0, 1, 64, payload=b"p", on_deliver=landed.append,
                  remote_custom=3, local_custom=4, done=False) is None
    assert ch.get(0, 1, 64, fetch=lambda: b"g", on_deliver=landed.append,
                  local_custom=5, done=False) is None
    env.run()
    assert landed == [b"p", b"g"]
    assert job.nic_of(1).cq.poll().custom == 3
    assert sorted(r.custom for r in job.nic_of(0).cq.poll_batch()) == [4, 5]


def test_fallback_without_done_runs_its_actions():
    env, job = make_job()
    ch = MpiFallbackChannel(job)
    log = []
    assert ch.put(0, 1, 128, on_deliver=lambda d: log.append("deliver"),
                  local_action=lambda: log.append("local"), done=False) is None
    assert ch.get(0, 1, 128, fetch=lambda: 1, on_deliver=lambda d: log.append(("got", d)),
                  local_action=lambda: log.append("get-local"), done=False) is None
    env.run()
    assert sorted(log, key=str) == sorted(
        ["deliver", "local", ("got", 1), "get-local"], key=str
    )


def _fallback_listener(op, resolve_is_succeed, monkeypatch):
    """(time, events minted so far) when a listener hung on a fallback
    ``done`` at post time runs; with ``resolve_is_succeed`` the done
    event is triggered the way it was before ``Event.resolve``."""
    from repro.sim import Event

    if resolve_is_succeed:
        monkeypatch.setattr(Event, "resolve", Event.succeed)
    env, job = make_job()
    ch = MpiFallbackChannel(job)
    seen = {}
    if op == "put":
        done = ch.put(0, 1, 4096, payload=b"x",
                      local_action=lambda: seen.setdefault("action", env.now))
    else:
        done = ch.get(0, 1, 4096, fetch=lambda: b"x",
                      local_action=lambda: seen.setdefault("action", env.now))
    done.callbacks.append(lambda evt: seen.setdefault("fired", (env.now, env._seq, evt.value)))
    env.run()
    monkeypatch.undo()
    return seen


@pytest.mark.parametrize("op", ["put", "get"])
def test_listened_fallback_done_fires_as_a_kernel_event(op, monkeypatch):
    """A listener hung at post time is served exactly as by ``succeed``:
    same time, same sequence number, same value."""
    now = _fallback_listener(op, False, monkeypatch)
    before = _fallback_listener(op, True, monkeypatch)
    assert now == before
    when, _seq, value = now["fired"]
    assert when == value == now["action"]
