"""Datapath cost, pinned on two exact runs and one full-size machine.

The 64 KiB x 6 notified PUT ping-pong and GET pull on th-xy are
deterministic, so what the engine schedules per operation is an
integer: every extra coroutine, timeout or deferred per post shows up
in ``sim.events``.  The halo ring on the 1728-node machine pins the
other cost that must not grow: nodes built per rank that runs.
"""

import pytest

from repro.bench import unr_get_pull, unr_pingpong
from repro.core import Unr
from repro.core.engine import CTRL_BYTES
from repro.netsim.trace import transfer_fingerprint
from repro.platforms import get_platform, make_job
from repro.runtime import run_job
from repro.units import US

SIZE, ITERS = 65536, 6

#: 8.17 measured (98 events / 12 PUTs) plus slack for one extra
#: bookkeeping event per PUT; raising it needs a justification.  The
#: pre-coalescing datapath cost 280 / 12 = 23.33.
MAX_EVENTS_PER_PUT = 10.0

#: ops per *simulated* second are set by the modelled th-xy physics, not
#: host speed: a drop means the datapath added simulated time per PUT.
MIN_PUT_OPS_PER_SIM_SEC = 270_000


def _cost(path):
    """(ops, kernel events, simulated end time in us, wire fingerprint)."""
    if path == "put":
        out = {}
        unr_pingpong("th-xy", SIZE, ITERS, out=out)
        recorder = out["recorder"]
    else:
        recorder = unr_get_pull("th-xy", SIZE, ITERS, seed=2024)
    snap = recorder.snapshot()
    return (
        int(snap["counters"][f"core.{path}s"]),
        int(snap["counters"]["sim.events"]),
        snap["t_end"] / US,
        transfer_fingerprint(recorder.transfers),
    )


def test_put_cost_stays_under_both_ceilings():
    ops, events, t_end_us, _ = _cost("put")
    assert events / ops <= MAX_EVENTS_PER_PUT
    assert ops / (t_end_us * US) >= MIN_PUT_OPS_PER_SIM_SEC


@pytest.mark.parametrize("path, expected", [
    ("put", (12, 98, 43.71160967621647,
             "d4e12436426cb0e93d6c3da5b5674e33bd109f9f2584f4aae747e0738ef18975")),
    ("get", (6, 63, 50.33144705980915,
             "1bd518ad56d68cebfb2d2cb53707673d83e0fc9b7d79dc741e82db654205c0ba")),
], ids=["put", "get"])
def test_exact_cost_and_wire_snapshot(path, expected):
    """Update the tuple after an intentional datapath change; a wire
    fingerprint may only move together with the golden corpus."""
    cost = _cost(path)
    assert cost == expected
    assert _cost(path) == cost, "same seed must replay bit-identically"


RING, HALO_ITERS = 16, 8


def _halo_ring(n_nodes):
    """Build the whole ``n_nodes`` th-xy machine, run a notified halo
    ring over its first 16 ranks only (virtual regions, Level-4 path)."""
    job = make_job("th-xy", n_nodes, offload=True, seed=2024)
    unr = Unr(job, get_platform("th-xy").channel)

    def program(ctx):
        i = ctx.rank
        right, left = (i + 1) % RING, (i - 1) % RING
        ep = unr.endpoint(i)
        sig = ep.sig_init(1)
        blk = ep.blk_init(ep.mem_reg_virtual(SIZE), 0, SIZE, signal=sig)
        # Parity-split exchange order so the ring of blocking ctl
        # handshakes cannot wait on itself.
        if i % 2 == 0:
            rmt_right = yield from ep.exchange_blk(right, blk)
            yield from ep.exchange_blk(left, blk)
        else:
            yield from ep.exchange_blk(left, blk)
            rmt_right = yield from ep.exchange_blk(right, blk)
        for _ in range(HALO_ITERS):
            ep.put(blk, rmt_right, local_signal=None)
            yield from ep.sig_wait(sig)  # halo from the left arrived
            ep.sig_reset(sig)

    run_job(job, program, ranks=range(RING))
    return job, unr


def test_full_machine_costs_its_active_set_not_its_nodes():
    job, unr = _halo_ring(1728)
    assert job.cluster.n_nodes == 1728
    assert job.cluster.n_materialized == RING
    traffic = job.cluster.total_traffic()
    halo_bytes = RING * HALO_ITERS * SIZE
    handshake_bytes = 2 * RING * CTRL_BYTES
    assert unr.stats["puts"] == RING * HALO_ITERS
    assert traffic["tx_bytes"] == traffic["rx_bytes"] == halo_bytes + handshake_bytes

    # The workload is constant while the machine grows.
    small_job, small_unr = _halo_ring(288)
    assert small_job.cluster.n_materialized == RING
    assert small_job.env.now == job.env.now
    assert small_unr.stats["puts"] == unr.stats["puts"]
    assert small_job.cluster.total_traffic() == traffic
