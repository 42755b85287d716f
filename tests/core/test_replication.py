"""Replication tier: replica worlds, heartbeats and world stops.

The e2e tests run a credit-flow stream from logical rank 0 to logical
rank 1 in every replica world of a ``2 * team_size``-node job (worlds
``{0,1}`` and ``{2,3}`` at team size 2) and kill nodes under it; the
success criterion everywhere is *payload* correctness — every
surviving world must receive every iteration's pattern bit-exact.
"""

import ast
import dataclasses
import inspect
import re
from pathlib import Path

import numpy as np
import pytest

import repro.core
from repro.core import Unr, UnrTimeoutError, UnrUsageError
from repro.core.engine import ProgressEngine, TransferOp
from repro.netsim import (
    Cluster,
    ClusterSpec,
    FabricSpec,
    FaultInjector,
    FaultSpec,
    NicSpec,
    NodeCrash,
    NodeSpec,
)
from repro.netsim.faults import Partition
from repro.replication import (
    HEARTBEAT_BYTES,
    HEARTBEAT_PERIOD_US,
    SUSPICION_THRESHOLD,
    TeamWorld,
)
from repro.runtime import Job, run_job
from repro.sim import Environment
from repro.units import US


def make_job(n_nodes=4):
    spec = ClusterSpec(
        "t",
        n_nodes,
        NodeSpec(cores=4, nics=2),
        NicSpec(bandwidth_gbps=100, latency_us=1.0),
        FabricSpec(routing_jitter=0.3),
        seed=11,
    )
    return Job(Cluster(Environment(), spec), ranks_per_node=1)


def make_world(n_nodes=4, faults=None, team_size=2, **kw):
    job = make_job(n_nodes)
    if faults is not None:
        FaultInjector.attach(job.cluster, faults)
    unr = Unr(job, "glex", **{"reliability": True, "health": True, **kw})
    return unr, TeamWorld(unr, team_size)


def pattern(it, size):
    return ((np.arange(size) * 13 + it) % 251).astype(np.uint8)


def stream_program(results, *, size, iters, bufs=None):
    """Rank 0 streams patterned buffers to rank 1, credit flow; rank 1
    records ``results[world, it]`` and its final buffer in ``bufs``."""

    def program(ctx):
        ep = ctx.services["unr"](ctx.rank)
        world = ep.rank // ctx.n_ranks
        buf = np.zeros(size, dtype=np.uint8)
        mr = ep.mem_reg(buf)
        sig = ep.sig_init(1)
        blk = ep.blk_init(mr, 0, size, signal=sig)
        if ctx.rank == 0:
            rmt = yield from ep.recv_ctl(1, tag="addr")
            for it in range(iters):
                buf[:] = pattern(it, size)
                ep.put(blk, rmt)
                yield from ep.sig_wait(sig)
                ep.sig_reset(sig)
                yield from ep.recv_ctl(1, tag="credit")
        else:
            yield from ep.send_ctl(0, blk, tag="addr")
            for it in range(iters):
                yield from ep.sig_wait(sig)
                results[world, it] = np.array_equal(buf, pattern(it, size))
                ep.sig_reset(sig)
                yield from ep.send_ctl(0, "go", tag="credit")
            if bufs is not None:
                bufs[world] = buf.copy()
        return ctx.env.now

    return program


def intact(results, worlds, iters):
    """Every iteration landed bit-exact in each of ``worlds``."""
    return all(results.get((w, it)) for w in worlds for it in range(iters))


#: iterations of a 4 KiB stream that last past a crash at 120-180 us
#: (~3.8 us each)
ITERS = 60


def crash_schedule(*crashes):
    return FaultSpec(node_crashes=tuple(NodeCrash(t, node=n) for t, n in crashes))


# ---------------------------------------------------------------- config
def test_replication_config_validates():
    with pytest.raises(ValueError, match="team_size"):
        make_world(team_size=1)


def test_replication_requires_divisible_world():
    with pytest.raises(UnrUsageError, match="divisible"):
        make_world(n_nodes=5)


# ---------------------------------------------------------------- worlds
def test_team_world_math():
    _, world = make_world(n_nodes=6, team_size=3)
    assert world.logical_size == 2
    assert world.team_size == 3
    assert world.members_of(0) == (0, 2, 4)
    assert world.members_of(1) == (1, 3, 5)
    for rank in range(6):
        assert world.team_of(rank) == rank % 2
        assert world.world_of(rank) == rank // 2
    world.live.remove(1)
    assert world.live_members_of(1) == [1, 5]
    assert HEARTBEAT_BYTES > 0


def test_each_world_sees_a_logical_job():
    """``ctx.rank`` and ``ctx.n_ranks`` are logical, ``ctx.node`` and the
    endpoint are the replica's, and control peers are named logically."""
    _, world = make_world(n_nodes=6, team_size=3)
    seen = {}

    def program(ctx):
        ep = ctx.services["unr"](ctx.rank)
        peer = 1 - ctx.rank
        yield from ep.send_ctl(peer, ep.rank, tag="hi")
        got = yield from ep.recv_ctl(peer, tag="hi")
        seen[ep.rank] = (ctx.rank, ctx.n_ranks, ctx.node.index, got)
        return ep.rank

    assert world.run(program) == [0, 1]  # the lowest surviving world
    assert seen == {p: (p % 2, 2, p, p ^ 1) for p in range(6)}


def test_disarmed_unr_has_no_replication_state():
    """The tier wraps ``Unr`` from outside: a plain library has no trace
    of it, and ``Unr.__init__`` takes 8 keywords."""
    job = make_job()
    unr = Unr(job, "glex", reliability=True)
    results = {}
    run_job(job, stream_program(results, size=1024, iters=2), ranks=[0, 1],
            services={"unr": unr.endpoint})
    assert intact(results, [0], 2)
    assert not hasattr(unr, "replication")
    assert not any(k.startswith("replication") for k in unr.stats)
    params = inspect.signature(Unr.__init__).parameters.values()
    assert sum(p.kind is p.KEYWORD_ONLY for p in params) == 8


PERIOD = HEARTBEAT_PERIOD_US * US


def test_heartbeat_ledger_records_and_counts_missed_periods():
    unr, world = make_world()
    env = unr.env
    assert world.heartbeats.get((0, 1)) is None
    # Before any beat: no silence evidence, so never any missed periods.
    assert world.missed_heartbeats(0, 1, period=PERIOD) == 0

    world.record_heartbeat(0, 1)
    assert world.heartbeats[(0, 1)] == env.now
    assert world.missed_heartbeats(0, 1, period=PERIOD) == 0
    assert unr.stats["heartbeats_seen"] == 1

    # SUSPICION_THRESHOLD whole periods of silence, and a bit
    env.run(until=env.now + (SUSPICION_THRESHOLD + 0.2) * PERIOD)
    assert world.missed_heartbeats(0, 1, period=PERIOD) == SUSPICION_THRESHOLD
    # The edge is directed: the reverse direction has no evidence.
    assert world.heartbeats.get((1, 0)) is None
    assert world.missed_heartbeats(1, 0, period=PERIOD) == 0

    # A fresh beat clears the silence count.
    world.record_heartbeat(0, 1)
    assert world.missed_heartbeats(0, 1, period=PERIOD) == 0
    assert unr.stats["heartbeats_seen"] == 2


# ---------------------------------------------------------------- healthy
def test_healthy_replicated_stream_shadows_ops():
    """Every world runs every op: replica t's stream is a full copy."""
    unr, world = make_world()
    results = {}
    iters = 6
    world.run(stream_program(results, size=4096, iters=iters))
    assert intact(results, [0, 1], iters)
    assert unr.stats["puts"] == 2 * iters
    assert unr.stats["replication_heartbeats"] > 0
    assert unr.stats["replication_failovers"] == 0
    assert unr.stats["replication_suspicions"] == 0
    assert world.live == [0, 1] and not world.failover_log
    assert unr.finalize() is None  # sanitizer disarmed, drain clean


def test_mirror_memory_converges_on_primary_state():
    _, world = make_world(n_nodes=6, team_size=3)
    results, bufs = {}, {}
    world.run(stream_program(results, size=2048, iters=3, bufs=bufs))
    # Each replica's inbound region holds the last delivered pattern.
    assert sorted(bufs) == [0, 1, 2]
    for buf in bufs.values():
        assert np.array_equal(buf, pattern(2, 2048))


# ---------------------------------------------------------------- crashes
def test_primary_crash_promotes_warm_mirror():
    """Node 1 (world 0's receiver) dies: world 0 stops, world 1's
    replica carries logical rank 1 to the end."""
    unr, world = make_world(faults=crash_schedule((120.0, 1)))
    results = {}
    iters = ITERS
    ends = world.run(stream_program(results, size=4096, iters=iters))
    assert intact(results, [1], iters)
    assert unr.stats["replication_failovers"] == 1
    assert world.live == [1]
    [rec] = world.failover_log
    assert rec["team"] == 1 and rec["dead_rank"] == 1
    assert rec["stopped_world"] == 0
    assert rec["ttr_us"] > 0.0
    assert len(ends) == 2 and ends[1] > rec["detected_at_us"] * US
    unr.finalize()


def failover_run(team_size, reverse):
    """Stream under a crash of node 1 -> (failover log, end times,
    payloads); ``reverse`` holds the live-world list in reverse."""
    _, world = make_world(n_nodes=2 * team_size, team_size=team_size,
                          faults=crash_schedule((120.0, 1)))
    if reverse:
        world.live.reverse()
    results = {}
    ends = world.run(stream_program(results, size=4096, iters=ITERS))
    return world.failover_log, ends, sorted(results.items())


def test_failover_is_deterministic_across_runs():
    """Same seed, same failover; the order of the live-world list must
    not change the heartbeat order, the stop, or the result."""
    for team_size in (2, 3):
        log_a, ends_a, res_a = failover_run(team_size, reverse=False)
        log_b, ends_b, res_b = failover_run(team_size, reverse=True)
        assert [rec["stopped_world"] for rec in log_a] == [0]
        assert log_a == log_b
        assert ends_a == ends_b
        assert res_a == res_b


def test_sender_side_crash_also_fails_over():
    # Crash node 0 (world 0's *sending* rank): world 0 stops and the
    # stream still completes in world 1.
    unr, world = make_world(faults=crash_schedule((150.0, 0)))
    results = {}
    iters = ITERS
    world.run(stream_program(results, size=4096, iters=iters))
    assert intact(results, [1], iters)
    [rec] = world.failover_log
    assert rec["team"] == 0 and rec["dead_rank"] == 0 and rec["stopped_world"] == 0
    unr.finalize()


@pytest.mark.parametrize("node", [0, 1])
def test_crash_before_first_heartbeat_still_fails_over(node):
    """A node that dies at 20 us, before its first 25 us heartbeat can
    land, is still suspected: silence counts from the first heartbeat
    round.  The simulated deadline turns a never-stopped world (its
    blocked ranks and the pulse loop run forever) into a failure."""
    unr, world = make_world(faults=crash_schedule((20.0, node)))
    results = {}
    iters = 8
    world.run(stream_program(results, size=4096, iters=iters), until=2000.0 * US)
    assert intact(results, [1], iters)
    assert unr.stats["replication_failovers"] == 1
    [rec] = world.failover_log
    assert rec["dead_rank"] == node and rec["stopped_world"] == 0
    unr.finalize()


@pytest.mark.parametrize("reliability, health", [
    (True, True), (True, False), (False, False),
], ids=["reliability+health", "reliability", "none"])
@pytest.mark.parametrize("node", [0, 1])
def test_every_tier_combination_survives_a_crash(node, reliability, health):
    """Neither lower tier is required: without them a crash surfaces
    later (heartbeats instead of a contained error), not differently."""
    unr, world = make_world(faults=crash_schedule((60.0, node)),
                            reliability=reliability, health=health, sanitize=True)
    results = {}
    world.run(stream_program(results, size=4096, iters=8), until=2000.0 * US)
    assert intact(results, [1], 8)
    assert [rec["stopped_world"] for rec in world.failover_log] == [0]
    assert list(unr.finalize()) == []


def test_two_crashes_in_two_worlds_stop_two_worlds():
    """Team size 3: node 1 (world 0) and node 3 (world 1) die; the third
    world stays byte-exact."""
    unr, world = make_world(n_nodes=6, team_size=3,
                            faults=crash_schedule((120.0, 1), (160.0, 3)))
    results = {}
    iters = ITERS
    world.run(stream_program(results, size=4096, iters=iters))
    assert intact(results, [2], iters)
    assert world.live == [2]
    assert sorted(rec["stopped_world"] for rec in world.failover_log) == [0, 1]
    assert unr.stats["replication_failovers"] == 2
    unr.finalize()


def test_team_exhaustion_raises_failover_error_with_context():
    """Team 1 loses both members (nodes 1 and 3): the last world is never
    stopped, so its own structured error ends the run — no hang."""
    _, world = make_world(faults=crash_schedule((120.0, 1), (180.0, 3)))
    with pytest.raises(UnrTimeoutError) as excinfo:
        world.run(stream_program({}, size=4096, iters=ITERS), until=5000.0 * US)
    ctx = excinfo.value.context
    assert ctx is not None and 3 in (ctx.src_rank, ctx.dst_rank)
    assert "rank3" in str(excinfo.value)
    assert world.live == [1]
    assert [rec["stopped_world"] for rec in world.failover_log] == [0]


def test_drain_and_finalize_during_inflight_failover():
    # Drain the dead rank *while* its world still runs (after the crash,
    # before the heartbeats stop it): the stop's own drain and the
    # discharge must both be idempotent, so payloads stay exact.
    unr, world = make_world(faults=crash_schedule((120.0, 1)))
    env = unr.env
    results = {}
    iters = ITERS

    def mid_failover_drain():
        yield env.timeout(140.0 * US)
        unr.engine.drain(1)

    env.process(mid_failover_drain(), name="mid-drain")
    world.run(stream_program(results, size=4096, iters=iters))
    assert intact(results, [1], iters)
    assert unr.stats["replication_failovers"] == 1
    assert unr.finalize() is None  # post-stop finalize stays clean


def test_plan_replay_across_promotion():
    # An RmaPlan recorded before the crash keeps replaying in the
    # surviving world without being re-recorded.
    unr, world = make_world(faults=crash_schedule((120.0, 1)))
    size, iters = 4096, ITERS
    results = {}

    def program(ctx):
        ep = ctx.services["unr"](ctx.rank)
        buf = np.zeros(size, dtype=np.uint8)
        mr = ep.mem_reg(buf)
        sig = ep.sig_init(1)
        blk = ep.blk_init(mr, 0, size, signal=sig)
        if ctx.rank == 0:
            rmt = yield from ep.recv_ctl(1, tag="addr")
            plan = ep.plan().record_put(blk, rmt)
            for it in range(iters):
                buf[:] = pattern(it, size)
                plan.start()
                yield from ep.sig_wait(sig)
                ep.sig_reset(sig)
                yield from ep.recv_ctl(1, tag="credit")
        else:
            yield from ep.send_ctl(0, blk, tag="addr")
            for it in range(iters):
                yield from ep.sig_wait(sig)
                results[ep.rank // ctx.n_ranks, it] = np.array_equal(
                    buf, pattern(it, size))
                ep.sig_reset(sig)
                yield from ep.send_ctl(0, "go", tag="credit")
        return ctx.env.now

    world.run(program)
    assert intact(results, [1], iters)
    assert unr.stats["replication_failovers"] == 1
    unr.finalize()


def test_failover_run_is_sanitizer_clean_and_notification_balanced():
    unr, world = make_world(faults=crash_schedule((120.0, 1)), sanitize=True)
    results = {}
    world.run(stream_program(results, size=4096, iters=ITERS))
    assert intact(results, [1], ITERS)
    report = unr.finalize()
    assert report is not None
    assert list(report) == [], [f.detail for f in report]


# ------------------------------------------------------- contained errors
def test_sender_crash_mid_striped_put_replays_owed_tokens():
    """Node 0 dies while rank 0's striped 256 KiB PUT is on the wire.  A
    fragment's watchdog declares the peer dead before the heartbeats
    see the crash; that error stops world 0 (the stop's drain
    discharges the notifications the lost fragments owe), no
    exception escapes, and world 1 stays byte-exact."""
    unr, world = make_world(faults=crash_schedule((40.0, 0)), sanitize=True)
    results = {}
    iters = 4
    world.run(stream_program(results, size=256 * 1024, iters=iters))
    assert intact(results, [1], iters)
    assert unr.stats["fragments"] > 2 * iters  # striped: more than one per PUT
    [rec] = world.failover_log
    assert rec["team"] == 0 and rec["stopped_world"] == 0
    # Stopped by the contained error, before the heartbeats could.
    assert rec["detected_at_us"] < 40.0 + SUSPICION_THRESHOLD * HEARTBEAT_PERIOD_US
    report = unr.finalize()
    assert list(report) == [], [f.detail for f in report]


def crashed_peer_program(got, *, ctrl):
    """Rank 0 waits until node 1 has crashed but no world has stopped
    yet, then sends rank 1 one PUT (``ctrl=False``) or one control
    message (``ctrl=True``)."""
    size = 4096

    def program(ctx):
        ep = ctx.services["unr"](ctx.rank)
        world = ep.rank // ctx.n_ranks
        buf = np.zeros(size, dtype=np.uint8)
        mr = ep.mem_reg(buf)
        sig = ep.sig_init(1)
        blk = ep.blk_init(mr, 0, size, signal=sig)
        if ctx.rank == 0:
            rmt = yield from ep.recv_ctl(1, tag="addr")
            yield ctx.env.timeout(140.0 * US - ctx.env.now)
            got["posted_before_stop"] = got.get("posted_before_stop", True) and len(
                got["world"].live) == 2
            if ctrl:
                yield from ep.send_ctl(1, "go", tag="go")
            else:
                buf[:] = pattern(7, size)
                ep.put(blk, rmt)
                yield from ep.sig_wait(sig)
        else:
            yield from ep.send_ctl(0, blk, tag="addr")
            if ctrl:
                got[world] = yield from ep.recv_ctl(0, tag="go")
            else:
                yield from ep.sig_wait(sig)
                got[world] = buf.copy()
        return ctx.env.now

    return program


def test_put_toward_crashed_primary_stops_its_world():
    # No RMA rail and no fallback lane reach node 1: the post is
    # rejected with a peer-dead error, which stops world 0 at once.
    unr, world = make_world(faults=crash_schedule((120.0, 1)))
    got = {"world": world}
    world.run(crashed_peer_program(got, ctrl=False))
    assert got["posted_before_stop"]
    assert np.array_equal(got[1], pattern(7, 4096))
    assert 0 not in got
    [rec] = world.failover_log
    assert rec["stopped_world"] == 0 and rec["detected_at_us"] == pytest.approx(140.0)
    unr.finalize()


def test_send_ctl_toward_crashed_primary_lands_after_promotion():
    unr, world = make_world(faults=crash_schedule((120.0, 1)))
    got = {"world": world}
    world.run(crashed_peer_program(got, ctrl=True))
    assert got["posted_before_stop"]
    assert got[1] == "go" and 0 not in got
    assert [rec["stopped_world"] for rec in world.failover_log] == [0]
    unr.finalize()


# ---------------------------------------------------------------- partition
def test_partition_raises_suspicion_but_never_promotes():
    # Control-plane partition between the two worlds: heartbeats are
    # lost for 400us (>> SUSPICION_THRESHOLD periods) but the fail-stop
    # predicate never confirms, so no world is stopped.
    job = make_job()
    inj = FaultInjector.attach(job.cluster, FaultSpec(
        partitions=(Partition(time_us=100.0, duration_us=400.0,
                              a=(0, 1), b=(2, 3)),)
    ))
    unr = Unr(job, "glex", reliability=True, health=True)
    world = TeamWorld(unr)
    results = {}
    iters = 150  # streams through the whole partition window
    world.run(stream_program(results, size=4096, iters=iters))
    assert intact(results, [0, 1], iters)
    assert unr.stats["replication_suspicions"] > 0
    assert unr.stats["replication_failovers"] == 0
    assert inj.stats["partition_dropped"] > 0
    assert inj.stats["partitions"] == 1
    assert inj.stats["partitions_healed"] == 1
    assert world.live == [0, 1] and not world.failover_log
    unr.finalize()


# ---------------------------------------------------------------- layering
CORE = Path(repro.core.__file__).parent


def code_lines(tree, source):
    """(line number, text) of every source line outside a docstring."""
    docs = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef)) and node.body:
            first = node.body[0]
            if isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant):
                docs.update(range(first.lineno, first.end_lineno + 1))
    return [(n, line) for n, line in enumerate(source.splitlines(), 1) if n not in docs]


def names_the_tier(node):
    """An import of a ``replication`` module, or its dotted name as a string."""
    if isinstance(node, ast.ImportFrom):
        return "replication" in (node.module or "").split(".") or any(
            alias.name == "replication" for alias in node.names)
    if isinstance(node, ast.Import):
        return any("replication" in alias.name.split(".") for alias in node.names)
    return isinstance(node, ast.Constant) and node.value == "repro.replication"


def test_core_does_not_know_the_team_tier():
    """The team tier wraps ``core`` from outside: no ``core`` code line
    imports or mentions it, the engine has no recovery seam, the
    heartbeat ledger is the tier's own, and a job's placement is fixed."""
    assert not (CORE / "replication.py").exists()
    sources = {path.name: path.read_text() for path in sorted(CORE.glob("*.py"))}
    trees = {name: ast.parse(source) for name, source in sources.items()}
    imports = [(name, node.lineno) for name, tree in trees.items()
               for node in ast.walk(tree) if names_the_tier(node)]
    assert imports == []
    mentions = [(name, n) for name in sources
                for n, line in code_lines(trees[name], sources[name])
                if "replicat" in line.lower()]
    assert mentions == []
    assert not hasattr(Unr(make_job(), "glex").engine, "peer_recovery")
    assert "heartbeat" not in sources["health.py"].lower()
    assert not hasattr(Job, "reassign_node")


def runtime_imports(tree, package):
    """Absolute names of the modules a module imports when it is itself
    imported: outside functions and ``if TYPE_CHECKING:`` blocks."""
    stack = list(tree.body)
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        if isinstance(node, ast.If) and getattr(node.test, "id", None) == "TYPE_CHECKING":
            stack.extend(node.orelse)
        elif isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            base = package.rsplit(".", node.level - 1)[0] if node.level else ""
            yield ".".join(part for part in (base, node.module) if part)
        else:
            stack.extend(ast.iter_child_nodes(node))


def test_engine_knows_only_its_datapath():
    """Observation and the sanitizer attach at the library's boundary:
    no engine code line names them, the progress engine takes no
    recorder, a descriptor counts no posts, and no ``core`` module
    imports ``repro.obs`` or ``repro.analysis`` when it is imported."""
    source = (CORE / "engine.py").read_text()
    pattern = re.compile(r"\bobs\b|sanitizer|Recorder|record_op|check_rma")
    named = [n for n, line in code_lines(ast.parse(source), source) if pattern.search(line)]
    assert named == []
    assert "obs" not in inspect.signature(ProgressEngine).parameters
    assert "n_posts" not in {f.name for f in dataclasses.fields(TransferOp)}
    reached = [
        (path.name, name) for path in sorted(CORE.glob("*.py"))
        for name in runtime_imports(ast.parse(path.read_text()), "repro.core")
        if name.split(".")[:2] in (["repro", "obs"], ["repro", "analysis"])
    ]
    assert reached == []
    # The resolver itself: relative imports resolve, typing-only ones are skipped.
    probe = ast.parse("from ..obs import Recorder\nif TYPE_CHECKING:\n"
                      "    from ..analysis import sanitizer\nfrom .api import Unr\n")
    assert sorted(runtime_imports(probe, "repro.core")) == ["repro.core.api", "repro.obs"]


#: options that had one value in every caller, and the errors only the
#: deleted ``Unr(strict=)`` mode raised
DELETED_OPTIONS = {
    "ReliabilityConfig", "HealthConfig", "ReplicationConfig", "_tier_config",
    "UnrSyncError", "UnrOverflowError", "CqOverflowError",
}


def test_single_valued_options_are_constants():
    """``Unr`` takes its 8 keywords and ``TeamWorld`` the one value a
    caller sets; no module under ``src/repro`` defines, imports or
    exports a deleted option; the constants hold the values every golden
    was recorded with."""
    from repro.core import health, transport

    params = inspect.signature(Unr.__init__).parameters.values()
    assert [p.name for p in params if p.kind is p.KEYWORD_ONLY] == [
        "polling", "mode2_split", "stripe_threshold", "max_stripe_rails",
        "reliability", "sanitize", "observe", "health",
    ]
    assert list(inspect.signature(TeamWorld.__init__).parameters) == [
        "self", "unr", "team_size",
    ]
    named = []
    for path in sorted(CORE.parent.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            names = {getattr(node, key, None) for key in ("name", "id", "attr", "value")}
            names.update(getattr(alias, "name", alias) for alias in getattr(node, "names", ()))
            named += [(path.name, node.lineno) for _ in names & DELETED_OPTIONS]
    assert named == []
    assert (transport.TIMEOUT_US, transport.TIMEOUT_FACTOR, transport.MAX_RETRIES,
            transport.BACKOFF_FACTOR, transport.MAX_BACKOFF_US) == (25.0, 4.0, 10, 2.0, 2000.0)
    assert (health.FAILURE_THRESHOLD, health.OPEN_BACKOFF_US, health.BACKOFF_FACTOR,
            health.MAX_BACKOFF_US) == (2, 100.0, 2.0, 5000.0)
    assert (HEARTBEAT_PERIOD_US, SUSPICION_THRESHOLD) == (25.0, 3)
    with pytest.raises(ValueError, match="team_size"):
        TeamWorld(Unr(make_job(), "glex"), team_size=1)
