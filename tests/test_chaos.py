"""Chaos soak: the four-platform resilience acceptance run (slow).

``make test-chaos`` runs this module plus the ``repro chaos`` CLI that
uploads ``BENCH_resilience.json``.  Each platform's schedule kills every
rail of the consumer's node mid-workload; the run must stay correct by
degrading to the MPI fallback channel, re-promote after recovery, and
replay bit-identically from its seed.
"""

import pytest

from repro.bench import resilience_bench, resilience_failures
from repro.bench import fault_demo
from repro.core import UnrPeerDeadError
from repro.platforms import PLATFORMS

pytestmark = [pytest.mark.slow, pytest.mark.chaos]


def test_chaos_soak_holds_on_all_platforms():
    record = resilience_bench()
    assert resilience_failures(record) == []
    assert set(record["platforms"]) == set(PLATFORMS)
    assert record["correct"], "a degraded op lost data somewhere"
    assert record["identical"], "degradation/re-promotion is not deterministic"
    for name, block in record["platforms"].items():
        assert block["degraded"], f"{name}: endpoint-down never forced the fallback"
        for run in block["runs"]:
            assert run["repromotions"] >= 1, f"{name}: RMA plane never re-promoted"
            assert run["recovered_ops"] >= 1, f"{name}: no op survived a retransmit"
            ttr = run["time_to_recover_us"]
            assert ttr["n"] >= 1 and ttr["p50"] > 0.0, f"{name}: empty recovery log"
    rep = record["replication"]
    assert rep is not None, "soak must exercise the replication tier"
    assert rep["correct"], "a surviving replica world lost data"
    assert rep["identical"], "world stops are not deterministic"
    assert rep["overhead_ratio"] < 1.5, "healthy replication overhead blew up"
    for name, block in rep["platforms"].items():
        assert block["crash"]["failovers"] >= 1, f"{name}: crash stopped no world"
        assert block["crash"]["ttr_us"]["p95"] > 0.0, f"{name}: empty failover log"
        for run in block["crash"]["runs"]:
            assert run["correct"] == run["received"], (
                f"{name}: corrupt payload delivered in a replica world")


@pytest.mark.parametrize("platform", list(PLATFORMS))
def test_node_kill_degrades_and_stays_replay_identical(platform):
    """Endpoint down (every rail of the peer) mid-stream, per platform:
    correct delivery through the fallback lane and identical replays."""
    demo = fault_demo(
        "endpoint_down@t=40:dur=250:node=1",
        platform=platform,
        size=64 * 1024,
        iters=32,
        fault_seed=3,
        health=True,
    )
    assert demo["correct"], f"{platform}: degraded stream corrupted data"
    assert demo["identical"], f"{platform}: replays diverged"
    assert all(r["degraded_ops"] > 0 for r in demo["runs"]), platform


def test_permanent_node_crash_is_fail_stop():
    """With no recovery window even the fallback lane is dead: the soak
    schedule must end in UnrPeerDeadError, not a hang."""
    with pytest.raises(UnrPeerDeadError) as excinfo:
        fault_demo(
            "node_crash@t=60:node=1",
            platform="th-xy",
            size=64 * 1024,
            iters=16,
            fault_seed=3,
            health=True,
        )
    ctx = excinfo.value.context
    assert ctx is not None and ctx.attempts
