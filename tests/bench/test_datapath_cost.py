"""Datapath cost, pinned on two exact runs and one full-size machine.

The 64 KiB x 6 notified PUT ping-pong and GET pull on th-xy are
deterministic, so what the engine schedules per operation is an
integer: every extra coroutine, timeout or deferred per post shows up
in ``sim.events``.  The halo ring on the 1728-node machine pins the
other cost that must not grow: nodes built per rank that runs.  An
MPI message is pinned the same way, in queue entries per send/recv.  The
last groups pin what one posted message keeps in flight, what a rank's
transposers hold before the first PUT, and how many frames a
completion takes — structure, not host time.
"""

import ast
import gc
import importlib
import pkgutil
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import repro
from repro.bench import FIG7_SERIES, unr_get_pull, unr_pingpong
from repro.core import Signal, Unr
from repro.core.engine import CTRL_BYTES, StripePlan, TransferOp
from repro.interconnect import MpiFallbackChannel
from repro.mpi import MpiWorld
from repro.netsim import FaultInjector, FaultSpec
from repro.netsim.trace import transfer_fingerprint
from repro.obs import Recorder
from repro.platforms import get_platform, make_job
from repro.powerllel.backend_unr import _UnrTranspose
from repro.powerllel.state import PowerLLELConfig, RankData
from repro.runtime import RankContext, run_job
from repro.sim import Event, Process
from repro.units import US

SIZE, ITERS = 65536, 6

#: 6.0 measured (72 events / 12 PUTs) plus one bookkeeping event per
#: PUT; raising it needs a justification.  The pre-coalescing datapath
#: cost 280 / 12 = 23.33.
MAX_EVENTS_PER_PUT = 7.0

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
    ("put", (12, 72, 43.71160967621647,
             "d4e12436426cb0e93d6c3da5b5674e33bd109f9f2584f4aae747e0738ef18975")),
    ("get", (6, 56, 50.33144705980915,
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


# -- what the reliability tier adds per message --------------------------------

PING_ITERS = 100

#: kernel events a fault-free reliable 8 B PUT may cost above the same
#: PUT unreliable: its one watchdog timer.  5.0 measured (8.06 against
#: 3.06 per PUT) while every reliable fragment ran a generator process:
#: Initialize, AnyOf, a ``delivered`` event, the exit and a Timeout.
MAX_RELIABLE_EXTRA_EVENTS_PER_PUT = 1.0


def _ping_pong_8b(faults=None, **tiers):
    """A notified 8 B PUT ping-pong on th-xy (glex) with the optional
    tiers ``tiers`` armed; returns ``(unr, fault injector, kernel
    events)``."""
    job = make_job("th-xy", 2, seed=2024)
    inj = None
    if faults is not None:
        inj = FaultInjector.attach(job.cluster, FaultSpec.parse(faults, seed=11))
    recorder = Recorder.attach(job.cluster)
    unr = Unr(job, "glex", **tiers)

    def program(ctx):
        ep = unr.endpoint(ctx.rank)
        sig = ep.sig_init(1)
        blk = ep.blk_init(ep.mem_reg(np.zeros(8, dtype=np.uint8)), 0, 8, signal=sig)
        rmt = yield from ep.exchange_blk(1 - ctx.rank, blk)
        for _ in range(PING_ITERS):
            if ctx.rank == 0:
                ep.put(blk, rmt, local_signal=None)
            yield from ep.sig_wait(sig)
            ep.sig_reset(sig)
            if ctx.rank == 1:
                ep.put(blk, rmt, local_signal=None)

    run_job(job, program)
    assert unr.stats["puts"] == 2 * PING_ITERS
    return unr, inj, int(recorder.snapshot()["counters"]["sim.events"])


def test_reliable_put_costs_one_event_more():
    plain, _, plain_events = _ping_pong_8b()
    armed, _, armed_events = _ping_pong_8b(reliability=True)
    assert "retransmits" not in armed.stats  # fault-free: pure overhead
    extra = (armed_events - plain_events) / armed.stats["puts"]
    assert extra <= MAX_RELIABLE_EXTRA_EVENTS_PER_PUT


def test_faulted_armed_run_spawns_no_process_per_fragment(monkeypatch):
    """Watchdogs and faulted deliveries into a roomy CQ are timers and
    synchronous pushes: the only processes are the two rank programs."""
    spawned = []
    real_init = Process.__init__

    def init(self, env, generator, name=""):
        real_init(self, env, generator, name)
        spawned.append(self.name)

    monkeypatch.setattr(Process, "__init__", init)
    unr, inj, _ = _ping_pong_8b(
        faults="drop=0.1,dup=0.1,reorder=0.3",
        reliability=True, health=True, sanitize=True,
    )
    assert unr.stats["retransmits"] and inj.stats["duplicated"] and inj.stats["delayed"]
    assert spawned == ["rank0", "rank1"]


# -- what one MPI message costs ------------------------------------------------

#: queue entries of a 2-rank hpc-ib send/recv, the two rank processes
#: included.  Eager: each side's start, software overhead and request
#: completion, the match hop and the wire's two sides.  Rendezvous adds
#: the RTS, the CTS and its hop, and the data's hop.  17 / 23 while
#: every isend and irecv ran a process and every delivery made a
#: StorePut event.
MPI_MESSAGE_EVENTS = {1024: 14, 256 * 1024: 19}


def _mpi_message(nbytes):
    job = make_job("hpc-ib", 2)
    recorder = Recorder.attach(job.cluster)
    world = MpiWorld(job, get_platform("hpc-ib").mpi)
    data = np.arange(nbytes, dtype=np.uint8)
    got = {}

    def program(ctx):
        comm = world.comm_world(ctx.rank)
        if ctx.rank == 0:
            yield from comm.send(1, data)
        else:
            got["data"] = yield from comm.recv(0)

    run_job(job, program)
    np.testing.assert_array_equal(got["data"], data)
    return world, int(recorder.snapshot()["counters"]["sim.events"])


@pytest.mark.parametrize("nbytes", sorted(MPI_MESSAGE_EVENTS), ids=["eager", "rendezvous"])
def test_mpi_message_cost(nbytes):
    world, events = _mpi_message(nbytes)
    assert world.stats["rendezvous"] == (nbytes > world.config.eager_threshold)
    assert events == MPI_MESSAGE_EVENTS[nbytes]


def test_mpi_and_fallback_messages_spawn_no_process(monkeypatch):
    """isend, irecv and the fallback lane's put and get are callback
    chains: the only processes are the rank programs."""
    spawned = []
    real_init = Process.__init__

    def init(self, env, generator, name=""):
        real_init(self, env, generator, name)
        spawned.append(self.name)

    monkeypatch.setattr(Process, "__init__", init)
    for nbytes in MPI_MESSAGE_EVENTS:
        _mpi_message(nbytes)
    assert spawned == ["rank0", "rank1"] * 2

    spawned.clear()
    plat = get_platform("hpc-ib")
    job = make_job("hpc-ib", 2)
    lane = MpiFallbackChannel(job, plat.fallback)
    landed = []

    def program(ctx):
        if ctx.rank == 0:
            for nbytes in (1024, 4 * plat.fallback.eager_threshold):
                yield lane.put(0, 1, nbytes, payload=nbytes, on_deliver=landed.append)
            got = yield lane.get(0, 1, 4096, fetch=lambda: "fetched",
                                 on_deliver=landed.append)
            assert got == ctx.env.now

    run_job(job, program)
    assert landed == [1024, 4 * plat.fallback.eager_threshold, "fetched"]
    assert spawned == ["rank0", "rank1"]


# -- what a posted message leaves in flight ------------------------------------

PENDING_PUTS = 2000

#: allocator blocks and traced bytes per *pending* notified 8-byte PUT,
#: steady state (record pool and scheduler warm).  3.8 / 318 measured;
#: 10.8 / 742 while every post also allocated a ``done`` event and
#: scheduled its local side, 30.8 / 1750 when each side of a post was a
#: closure behind a Deferred with its own callback list.  The resident
#: set of a big all-to-all is its pending set, so this is the Figure 7
#: points' peak RSS per message.
MAX_BLOCKS_PER_PENDING_PUT = 6
MAX_BYTES_PER_PENDING_PUT = 400


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


# -- what a rank holds before its first PUT -----------------------------------

#: traced bytes per (row peer x slab) of one rank's forward and inverse
#: transposers together, four BLKs each, after a warm-up build.  768
#: measured; 1763 while ``Blk`` carried a ``__dict__`` and the offsets
#: and BLKs sat in dicts keyed by ``(j, s)`` tuples.  The 1728-node
#: Figure 7 point holds one such table per rank, so this is its setup
#: footprint per rank and row peer.
MAX_SETUP_BYTES_PER_PEER_SLAB = 1000


def test_transposer_setup_footprint():
    point = FIG7_SERIES["th-xy"]["points"][0]
    job = make_job("th-xy", point["nodes"], seed=2024)
    unr = Unr(job, get_platform("th-xy").channel)
    cfg = PowerLLELConfig(
        **FIG7_SERIES["th-xy"]["grid"], py=point["py"], pz=point["pz"], steps=1,
        mode="model", pipeline_slabs=2, lengths=(1.0, 1.0, 8.0),
    )
    assert (cfg.py, cfg.pz) == (24, 12)
    rd = RankData(RankContext(job=job, rank=0, services={}), cfg)
    ep = unr.endpoint(0)

    def build():
        return [_UnrTranspose(rd, ep, forward, tag) for forward, tag in
                ((True, "fwd"), (False, "inv"))]

    build()  # warm-up: the endpoint's signal and region tables grow once
    gc.collect()
    tracemalloc.start()
    try:
        traced = tracemalloc.get_traced_memory()[0]
        kept = build()
        traced = tracemalloc.get_traced_memory()[0] - traced
    finally:
        tracemalloc.stop()
    assert len(rd.slabs) == 2
    assert [len(t.send_blk) for t in kept] == [cfg.py, cfg.py]
    assert traced / (cfg.py * len(rd.slabs)) <= MAX_SETUP_BYTES_PER_PEER_SLAB


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
    # An observed run takes the one definition of the general path, under
    # the recorder's dispatch-delay wrapper.
    stacks.clear()
    assert _cost("put")[:2] == (12, 72)
    assert stacks == {
        ("_apply_add", "_handle_rma_record", "timed_handler", "_dispatch", "_fire",
         "_sweep_fire")
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
    ("core/polling.py", "_Sweeper", "on_record"),
    ("core/engine.py", "TransferEngine", "_post_fragment"),
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


#: the simulator modules that allocate per simulated event.
HOT_PATH_MODULES = ("sim.core", "sim.scheduler", "sim.resources", "netsim.nic", "netsim.node")

#: the one class allowed a ``__dict__``, with the reason from its
#: docstring: the fault-injection and observability layers wrap a live
#: NIC by assigning ``nic.post_put`` / ``nic.post_get`` on the instance,
#: and there is one Nic per rail per node, not one per event.
DICT_EXEMPT = {"repro.netsim.nic.Nic"}


def hot_path_classes(module):
    """The classes ``module`` defines, exceptions and warnings aside."""
    return {
        c for c in vars(module).values()
        if isinstance(c, type) and c.__module__ == module.__name__
        and not issubclass(c, BaseException)
    }


def with_dict(classes):
    """Qualified names of the classes whose instances grow a ``__dict__``."""
    return {f"{c.__module__}.{c.__qualname__}" for c in classes if c.__dictoffset__ != 0}


def test_every_in_flight_event_class_is_slotted():
    """Every ``Event`` subclass under ``repro`` and every class of the
    hot-path modules but an exception is slotted up its whole MRO, so
    no instance grows a ``__dict__``."""
    for info in pkgutil.walk_packages(repro.__path__, "repro."):
        if not info.name.endswith(".__main__"):  # runs the CLI on import
            importlib.import_module(info.name)

    def events(cls):
        return {cls}.union(*(events(sub) for sub in cls.__subclasses__()))

    classes = {c for c in events(Event) if c.__module__.startswith("repro.")}
    for name in HOT_PATH_MODULES:
        classes.update(hot_path_classes(importlib.import_module(f"repro.{name}")))
    # The descriptors the engine builds per PUT/GET and per fragment,
    # and keeps in its memo.
    classes.update({StripePlan, TransferOp})
    names = {f"{c.__module__}.{c.__qualname__}" for c in classes}
    assert DICT_EXEMPT <= names, "drop the exemption of a class that is gone"
    assert with_dict(classes) == DICT_EXEMPT
    assert {"_LocalSide", "_PutRemote", "_GetRemote", "_SweepFire", "Scheduler",
            "CompletionRecord", "Node", "SignalWait"} <= {c.__name__ for c in classes}
