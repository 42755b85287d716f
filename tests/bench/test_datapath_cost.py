"""Datapath cost, pinned on two exact runs and one full-size machine.

The 64 KiB x 6 notified PUT ping-pong and GET pull on th-xy are
deterministic, so what the engine schedules per operation is an
integer: every extra coroutine, timeout or deferred per post shows up
in ``sim.events``.  The halo ring on the 1728-node machine pins the
other cost that must not grow: nodes built per rank that runs.  The
last group pins what one posted message keeps in flight and how many
frames its completion takes — structure, not host time.
"""

import ast
import gc
import sys
import tracemalloc
from pathlib import Path

import pytest

import repro
from repro.bench import unr_get_pull, unr_pingpong
from repro.core import Signal, Unr
from repro.core.engine import CTRL_BYTES
from repro.netsim.trace import transfer_fingerprint
from repro.platforms import get_platform, make_job
from repro.runtime import run_job
from repro.sim import InFlight
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


# -- what a posted message leaves in flight ------------------------------------

PENDING_PUTS = 2000

#: allocator blocks and traced bytes per *pending* notified 8-byte PUT,
#: steady state (record pool and scheduler warm).  10.8 / 742 measured;
#: 30.8 / 1750 when each side of a post was a closure behind a Deferred
#: with its own callback list.  The resident set of a big all-to-all is
#: its pending set, so this is the Figure 7 points' peak RSS per message.
MAX_BLOCKS_PER_PENDING_PUT = 14
MAX_BYTES_PER_PENDING_PUT = 800


def test_pending_put_footprint():
    job = make_job("th-xy", 2, seed=2024)
    unr = Unr(job, get_platform("th-xy").channel)
    ends = {}

    def program(ctx):
        ep = unr.endpoint(ctx.rank)
        sig = ep.sig_init(PENDING_PUTS)
        blk = ep.blk_init(ep.mem_reg_virtual(8), 0, 8, signal=sig)
        ends[ctx.rank] = (ep, blk, (yield from ep.exchange_blk(1 - ctx.rank, blk)))

    run_job(job, program)
    ep, blk, remote = ends[0]

    def post_all():
        for _ in range(PENDING_PUTS):
            ep.put(blk, remote, local_signal=None)

    post_all()
    job.env.run()  # one full round first: pools, plan memo, buckets warm
    gc.collect()
    tracemalloc.start()
    try:
        blocks, traced = sys.getallocatedblocks(), tracemalloc.get_traced_memory()[0]
        post_all()  # the clock does not move: every message stays pending
        blocks = sys.getallocatedblocks() - blocks
        traced = tracemalloc.get_traced_memory()[0] - traced
    finally:
        tracemalloc.stop()
    assert blocks / PENDING_PUTS <= MAX_BLOCKS_PER_PENDING_PUT
    assert traced / PENDING_PUTS <= MAX_BYTES_PER_PENDING_PUT
    job.env.run()
    assert unr.stats["adds_applied"] == 2 * PENDING_PUTS


def test_unarmed_record_reaches_signal_add_in_four_frames(monkeypatch):
    """Kernel callback -> sweeper fire -> engine dispatch -> RMA handler
    -> Signal.add: every further frame is paid once per wire message."""
    stacks = set()
    real_add = Signal.add

    def add(self, addend, token=None):
        names, frame = [], sys._getframe(1)
        while not (frame.f_code.co_name == "_dispatch"
                   and frame.f_code.co_filename.endswith("sim/core.py")):
            names.append(frame.f_code.co_name)
            frame = frame.f_back
        stacks.add(tuple(names))
        return real_add(self, addend, token)

    monkeypatch.setattr(Signal, "add", add)
    unr_pingpong("th-xy", SIZE, ITERS)
    assert stacks == {("_handle_rma_record", "_dispatch", "_fire", "_sweep_fire")}
    # An observed run takes the one definition of the general path.
    stacks.clear()
    assert _cost("put")[:2] == (12, 98)
    assert stacks == {
        ("_apply_add", "_handle_rma_record", "_dispatch", "_fire", "_sweep_fire")
    }


SRC = Path(repro.__file__).parent


def _classes(path):
    return {
        node.name: node
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.ClassDef)
    }


@pytest.mark.parametrize("path, cls, method", [
    ("netsim/nic.py", "Nic", "post_put"),
    ("netsim/nic.py", "Nic", "post_get"),
    ("core/engine.py", "_Sweeper", "on_record"),
])
def test_per_message_paths_build_no_callables(path, cls, method):
    """A closure or lambda per message is an object (plus its cells) in
    flight per message; arguments ride in the event's own slots."""
    body = next(
        node for node in _classes(SRC / path)[cls].body
        if isinstance(node, ast.FunctionDef) and node.name == method
    )
    nested = [
        node for node in ast.walk(body)
        if isinstance(node, (ast.FunctionDef, ast.Lambda)) and node is not body
    ]
    assert nested == []


def test_every_in_flight_event_class_is_slotted():
    def names(cls):
        return {cls.__name__}.union(*(names(sub) for sub in cls.__subclasses__()))

    in_flight, found = names(InFlight), set()
    for path in sorted(SRC.rglob("*.py")):
        for name, node in _classes(path).items():
            if name in in_flight:
                found.add(name)
                assert any(
                    isinstance(stmt, ast.Assign)
                    and any(getattr(t, "id", None) == "__slots__" for t in stmt.targets)
                    for stmt in node.body
                ), f"{path.name}:{name} has no __slots__ (each instance grows a __dict__)"
    assert {"_LocalSide", "_PutRemote", "_GetRemote", "_SweepFire"} <= found
