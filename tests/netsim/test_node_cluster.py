"""Tests for CpuSet / Node / Cluster."""

import pytest

from repro.netsim import Cluster, ClusterSpec, CpuSet, FabricSpec, NicSpec, NodeSpec
from repro.sim import Environment


def test_cpuset_compute_basic():
    env = Environment()
    cpu = CpuSet(env, 4)

    def run(env):
        yield from cpu.compute(2.0, threads=2)

    env.run_process(run(env))
    assert env.now == pytest.approx(2.0)
    assert cpu.busy_seconds == pytest.approx(4.0)


def test_cpuset_oversubscription_slows_down():
    env = Environment()
    cpu = CpuSet(env, 4)
    assert cpu.slowdown(4) == 1.0
    assert cpu.slowdown(8) == 2.0


def test_cpuset_polling_load_interferes():
    env = Environment()
    cpu = CpuSet(env, 18)
    cpu.add_polling_load(1.0)
    # 18 app threads + 1 polling thread on 18 cores.
    assert cpu.slowdown(18) == pytest.approx(19 / 18)
    cpu.remove_polling_load(1.0)
    assert cpu.slowdown(18) == 1.0


def test_cpuset_reserved_cores_avoid_interference():
    env = Environment()
    cpu = CpuSet(env, 18)
    cpu.reserve(2)
    assert cpu.available == 16
    # 16 app threads on 16 free cores: no slowdown even with polling
    # pinned to the reserved cores (polling_load stays 0).
    assert cpu.slowdown(16) == 1.0


def test_cpuset_cannot_reserve_all_cores():
    env = Environment()
    cpu = CpuSet(env, 4)
    with pytest.raises(ValueError):
        cpu.reserve(4)


def test_cpuset_negative_compute_rejected():
    env = Environment()
    cpu = CpuSet(env, 2)
    with pytest.raises(ValueError):
        list(cpu.compute(-1.0))


def test_cluster_builds_nodes_and_rails():
    env = Environment()
    spec = ClusterSpec(
        "c", 4, NodeSpec(cores=8, nics=2), NicSpec(bandwidth_gbps=100, latency_us=1)
    )
    cluster = Cluster(env, spec)
    assert cluster.n_nodes == 4
    assert all(n.n_rails == 2 for n in cluster.nodes)
    assert cluster.node(3).index == 3


def test_cluster_rejects_bad_specs():
    with pytest.raises(ValueError):
        ClusterSpec("c", 0, NodeSpec(cores=1), NicSpec(bandwidth_gbps=1, latency_us=1))
    with pytest.raises(ValueError):
        ClusterSpec("c", 1, NodeSpec(cores=1, nics=0), NicSpec(bandwidth_gbps=1, latency_us=1))


def test_nic_rng_streams_differ_between_rails():
    env = Environment()
    spec = ClusterSpec(
        "c", 1, NodeSpec(cores=2, nics=2), NicSpec(bandwidth_gbps=100, latency_us=1)
    )
    cluster = Cluster(env, spec)
    r0 = cluster.node(0).nic(0).rng.uniform(size=4)
    r1 = cluster.node(0).nic(1).rng.uniform(size=4)
    assert not (r0 == r1).all()


def test_cluster_deterministic_across_builds():
    def sample():
        env = Environment()
        spec = ClusterSpec(
            "c", 2, NodeSpec(cores=2, nics=1), NicSpec(bandwidth_gbps=100, latency_us=1),
            FabricSpec(routing_jitter=1.0), seed=7,
        )
        cluster = Cluster(env, spec)
        return cluster.node(0).nic(0).rng.uniform(size=8).tolist()

    assert sample() == sample()


def test_total_traffic_sums_materialized_nics_and_builds_none():
    env = Environment()
    spec = ClusterSpec(
        "c", 16, NodeSpec(cores=2, nics=2), NicSpec(bandwidth_gbps=100, latency_us=1)
    )
    cluster = Cluster(env, spec)
    assert cluster.total_traffic() == dict.fromkeys(
        ("tx_msgs", "tx_bytes", "rx_msgs", "rx_bytes", "cq_overflow_stalls"), 0
    )
    a, b = cluster.node(2), cluster.node(9)
    a.nic(0).post_put(b.nic(0), 4096)
    a.nic(1).post_put(b.nic(1), 1 << 20)
    b.nic(0).post_put(b.nic(1), 512)  # intra-node
    b.nic(1).post_get(a.nic(1), 8192)
    env.run()

    nics = [nic for node in cluster.materialized_nodes() for nic in node.nics]
    traffic = cluster.total_traffic()
    assert traffic == {
        "tx_msgs": sum(nic.tx_msgs for nic in nics),
        "tx_bytes": sum(nic.tx_bytes for nic in nics),
        "rx_msgs": sum(nic.rx_msgs for nic in nics),
        "rx_bytes": sum(nic.rx_bytes for nic in nics),
        "cq_overflow_stalls": sum(nic.cq.n_overflow_stalls for nic in nics),
    }
    assert traffic["tx_msgs"] == 5 and traffic["rx_msgs"] == 4  # a GET sends twice
    assert traffic["tx_bytes"] == traffic["rx_bytes"] == 4096 + (1 << 20) + 512 + 8192
    assert [node.index for node in cluster.materialized_nodes()] == [2, 9]
