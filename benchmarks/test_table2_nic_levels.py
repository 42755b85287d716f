"""Table II: the UNR support level of high-performance NICs.

Verifies each interface adapter actually *enforces* its custom-bit
widths on the wire, and that UNR configures itself from the adapter
alone; the matrix and levels themselves are the ledger's
(``repro paper --only table2``).
"""

import pytest

from conftest import record
from repro.bench.paper import TABLE2_LEVELS
from repro.core import Unr
from repro.interconnect import (
    CHANNEL_TYPES,
    ChannelError,
    make_channel,
)
from repro.netsim import Cluster, ClusterSpec, NicSpec, NodeSpec
from repro.runtime import Job
from repro.sim import Environment


def make_job():
    env = Environment()
    spec = ClusterSpec(
        "t", 2, NodeSpec(cores=2), NicSpec(bandwidth_gbps=100, latency_us=1.0)
    )
    return Job(Cluster(env, spec))


@pytest.mark.parametrize("name", sorted(CHANNEL_TYPES))
def test_adapter_enforces_width(benchmark, name):
    """Each adapter rejects custom bits wider than its hardware field."""
    job = make_job()

    def run():
        ch = make_channel(name, job)
        bits = ch.capability.effective_put_remote
        if bits > 0:
            ch.put(0, 1, 8, remote_custom=(1 << bits) - 1)  # fits
        try:
            ch.put(0, 1, 8, remote_custom=1 << max(bits, 1))
            return False  # should have raised
        except ChannelError:
            return True

    assert record(benchmark, run)


@pytest.mark.parametrize("name", sorted(CHANNEL_TYPES))
def test_unr_auto_configures_from_adapter(benchmark, name):
    """UNR derives its level/encoding purely from the adapter."""
    job = make_job()

    def run():
        unr = Unr(job, name)
        return unr.level, unr.sid_capacity

    level, capacity = record(benchmark, run)
    assert level == TABLE2_LEVELS[name]
    if name == "utofu":
        assert capacity == 256  # 8-bit pointer: "maximum number of signals is limited"
