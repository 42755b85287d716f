"""Replication tier: transparent rank teams and warm failover.

The e2e tests run a credit-flow stream between the two logical ranks
of a 4-node job (teams ``{0,2}`` and ``{1,3}``) and kill nodes under
it; the success criterion everywhere is *payload* correctness — every
iteration's pattern must land bit-exact even when the receiving rank
migrates to its mirror node mid-stream.
"""

import ast
from pathlib import Path

import numpy as np
import pytest

import repro.core
from repro.core import (
    FailoverContext,
    Unr,
    UnrFailoverError,
    UnrUsageError,
)
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
from repro.replication import HEARTBEAT_BYTES, ReplicationConfig
from repro.runtime import Job, run_job
from repro.sim import Environment
from repro.units import US


def make_unr(n_nodes=4, faults=None, replication=True, **kw):
    env = Environment()
    spec = ClusterSpec(
        "t",
        n_nodes,
        NodeSpec(cores=4, nics=2),
        NicSpec(bandwidth_gbps=100, latency_us=1.0),
        FabricSpec(routing_jitter=0.3),
        seed=11,
    )
    job = Job(Cluster(env, spec), ranks_per_node=1)
    inj = FaultInjector.attach(job.cluster, faults) if faults is not None else None
    rep_cfg = ReplicationConfig(team_size=2) if replication is True else replication
    unr = Unr(job, "glex", reliability=True, replication=rep_cfg, **kw)
    unr._test_injector = inj
    return job, unr


def pattern(it, size):
    return ((np.arange(size) * 13 + it) % 251).astype(np.uint8)


def stream_program(unr, results, *, size, iters):
    """Rank 0 streams patterned buffers to logical rank 1, credit flow."""

    def program(ctx):
        ep = unr.endpoint(ctx.rank)
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
                results[it] = np.array_equal(buf, pattern(it, size))
                ep.sig_reset(sig)
                yield from ep.send_ctl(0, "go", tag="credit")
        return ctx.env.now

    return program


# ---------------------------------------------------------------- config
def test_replication_config_validates():
    with pytest.raises(ValueError, match="team_size"):
        ReplicationConfig(team_size=1)
    with pytest.raises(ValueError, match="heartbeat_period_us"):
        ReplicationConfig(heartbeat_period_us=0.0)
    with pytest.raises(ValueError, match="suspicion_threshold"):
        ReplicationConfig(suspicion_threshold=0)


def test_replication_requires_reliability_layer():
    env = Environment()
    spec = ClusterSpec(
        "t", 4, NodeSpec(cores=4, nics=2),
        NicSpec(bandwidth_gbps=100, latency_us=1.0),
        FabricSpec(routing_jitter=0.3), seed=11,
    )
    job = Job(Cluster(env, spec), ranks_per_node=1)
    with pytest.raises(UnrUsageError, match="reliability"):
        Unr(job, "glex", replication=ReplicationConfig(team_size=2))


def test_replication_requires_divisible_world():
    with pytest.raises(UnrUsageError, match="divisible"):
        make_unr(n_nodes=5, replication=ReplicationConfig(team_size=2))


def test_replication_arms_health_automatically():
    _, unr = make_unr()
    assert unr.health is not None
    assert unr.replication is not None


# ---------------------------------------------------------------- teams
def test_team_world_math():
    _, unr = make_unr(n_nodes=6, replication=ReplicationConfig(team_size=3))
    world = unr.replication.world
    assert world.logical_size == 2
    assert world.team_size == 3
    assert world.app_ranks == [0, 1]
    assert world.members_of(0) == (0, 2, 4)
    assert world.members_of(1) == (1, 3, 5)
    for rank in range(6):
        assert world.team_of(rank) == rank % 2
    assert world.mirrors_of(0) == (2, 4)
    assert world.node_of(1) == 1
    assert HEARTBEAT_BYTES > 0


def test_disarmed_unr_has_no_replication_state():
    _, unr = make_unr(replication=None)
    assert unr.replication is None
    assert not any(k.startswith("replication") for k in unr.stats)


def test_heartbeat_ledger_records_and_counts_missed_periods():
    _, unr = make_unr()
    rep = unr.replication
    env = unr.env
    assert rep.heartbeats.get((0, 1)) is None
    # Before any beat: no silence evidence, so never any missed periods.
    assert rep.missed_heartbeats(0, 1, period=25.0 * US) == 0

    rep.record_heartbeat(0, 1)
    assert rep.heartbeats[(0, 1)] == env.now
    assert rep.missed_heartbeats(0, 1, period=25.0 * US) == 0
    assert unr.stats["heartbeats_seen"] == 1

    env.run(until=env.now + 80.0 * US)  # 3 whole periods of silence
    assert rep.missed_heartbeats(0, 1, period=25.0 * US) == 3
    # The edge is directed: the reverse direction has no evidence.
    assert rep.heartbeats.get((1, 0)) is None
    assert rep.missed_heartbeats(1, 0, period=25.0 * US) == 0

    # A fresh beat clears the silence count.
    rep.record_heartbeat(0, 1)
    assert rep.missed_heartbeats(0, 1, period=25.0 * US) == 0
    assert unr.stats["heartbeats_seen"] == 2


# ---------------------------------------------------------------- healthy
def test_healthy_replicated_stream_shadows_ops():
    _, unr = make_unr()
    rep = unr.replication
    results = {}
    iters = 6
    run_job(unr.job, stream_program(unr, results, size=4096, iters=iters),
            ranks=rep.world.app_ranks)
    assert len(results) == iters and all(results.values())
    assert unr.stats["replication_shadow_ops"] == iters
    assert unr.stats["replication_heartbeats"] > 0
    assert unr.stats.get("replication_failovers", 0) == 0
    assert rep.divergence_ok()
    snap = rep.snapshot()
    assert snap["failovers"] == 0
    assert all(not t["failed_over"] for t in snap["teams"])
    assert unr.finalize() is None  # sanitizer disarmed, drain clean


def test_mirror_memory_converges_on_primary_state():
    _, unr = make_unr()
    rep = unr.replication
    results = {}
    run_job(unr.job, stream_program(unr, results, size=2048, iters=3),
            ranks=rep.world.app_ranks)
    # Logical rank 1's inbound region is mirrored on rank 3's node: the
    # warm copy must hold the last delivered pattern.
    entries = [e for (r, _h), e in sorted(rep._mrs.items()) if r == 1 and e.inbound]
    assert entries, "rank 1's inbound MR was never marked"
    for entry in entries:
        mirror = entry.mirrors[3]
        assert np.array_equal(
            np.frombuffer(mirror.bytes_view, dtype=np.uint8), pattern(2, 2048)
        )


# ---------------------------------------------------------------- failover
def crash_schedule(*crashes):
    return FaultSpec(node_crashes=tuple(NodeCrash(t, node=n) for t, n in crashes))


def test_primary_crash_promotes_warm_mirror():
    _, unr = make_unr(faults=crash_schedule((120.0, 1)))
    rep = unr.replication
    results = {}
    iters = 10
    run_job(unr.job, stream_program(unr, results, size=4096, iters=iters),
            ranks=rep.world.app_ranks)
    # Every payload correct — including the ones delivered after the
    # receiving rank migrated to node 3.
    assert len(results) == iters and all(results.values())
    assert unr.stats["replication_failovers"] == 1
    assert rep.divergence_ok()
    [rec] = rep.failover_log
    assert rec["team"] == 1 and rec["dead_rank"] == 1
    assert rec["promoted_rank"] == 3
    assert rec["ttr_us"] > 0.0
    assert rec["shadow_ops"] >= 1
    assert rep.world.node_of(1) == 3  # placement override took
    snap = rep.snapshot()
    assert snap["teams"][1]["failed_over"]
    unr.finalize()


def failover_run(team_size, reverse):
    """Stream under a crash of node 1 -> (failover log, end times,
    payloads); ``reverse`` holds every team's live list in reverse."""
    _, unr = make_unr(n_nodes=2 * team_size, faults=crash_schedule((120.0, 1)),
                      replication=ReplicationConfig(team_size=team_size))
    rep = unr.replication
    if reverse:
        for team in rep._teams:
            team.live.reverse()
    results = {}
    ends = run_job(unr.job, stream_program(unr, results, size=4096, iters=10),
                   ranks=rep.world.app_ranks)
    return rep.failover_log, ends, sorted(results.items())


def test_failover_is_deterministic_across_runs():
    """Same seed, same failover.  With three members a team has two
    candidate mirrors, and the second run holds every team's live list
    in reverse: membership order must not pick the promoted rank."""
    for team_size in (2, 3):
        log_a, ends_a, res_a = failover_run(team_size, reverse=False)
        log_b, ends_b, res_b = failover_run(team_size, reverse=team_size == 3)
        assert [rec["promoted_rank"] for rec in log_a] == [3]
        assert log_a == log_b
        assert ends_a == ends_b
        assert res_a == res_b


def test_sender_side_crash_also_fails_over():
    # Crash node 0 (the *sending* logical rank): its team {0,2} promotes
    # and the stream still completes from the mirror node.
    _, unr = make_unr(faults=crash_schedule((150.0, 0)))
    rep = unr.replication
    results = {}
    iters = 10
    run_job(unr.job, stream_program(unr, results, size=4096, iters=iters),
            ranks=rep.world.app_ranks)
    assert len(results) == iters and all(results.values())
    assert unr.stats["replication_failovers"] == 1
    [rec] = rep.failover_log
    assert rec["team"] == 0 and rec["promoted_rank"] == 2
    unr.finalize()


def test_team_exhaustion_raises_failover_error_with_context():
    _, unr = make_unr(faults=crash_schedule((120.0, 1), (180.0, 3)))
    rep = unr.replication
    with pytest.raises(UnrFailoverError) as excinfo:
        run_job(unr.job, stream_program(unr, {}, size=4096, iters=10),
                ranks=rep.world.app_ranks)
    err = excinfo.value
    assert err.context is not None
    assert err.context.team == 1
    assert err.context.promoted_rank == -1
    text = str(err)
    assert "exhausted" in text
    assert "team=1" in text and "dead=rank1" in text


def test_failover_error_str_renders_context():
    ctx = FailoverContext(team=2, dead_rank=5, promoted_rank=8,
                          ttr_us=75.25, replayed_ops=12)
    err = UnrFailoverError("boom", context=ctx)
    text = str(err)
    assert text.startswith("boom")
    assert "team=2" in text
    assert "dead=rank5" in text
    assert "promoted rank 8" in text
    assert "replayed_ops=12" in text
    assert "ttr=75.2us" in text
    # Exhausted teams render the no-promotion arm instead.
    bare = UnrFailoverError("plain")
    assert str(bare) == "plain"


def test_drain_and_finalize_during_inflight_failover():
    # Drain the dead rank *while* the team is still detecting/promoting:
    # the ledger discharge and the promotion replay must both be
    # idempotent (token dedup), so payloads stay exact.
    _, unr = make_unr(faults=crash_schedule((120.0, 1)))
    rep = unr.replication
    env = unr.env
    results = {}
    iters = 10

    def mid_failover_drain():
        yield env.timeout(140.0 * US)  # after the crash, before promotion
        unr.engine.drain(1)

    env.process(mid_failover_drain(), name="mid-drain")
    run_job(unr.job, stream_program(unr, results, size=4096, iters=iters),
            ranks=rep.world.app_ranks)
    assert len(results) == iters and all(results.values())
    assert unr.stats["replication_failovers"] == 1
    assert unr.finalize() is None  # post-failover finalize stays clean


def test_plan_replay_across_promotion():
    # An RmaPlan recorded before the crash must replay against the
    # promoted placement without being re-recorded.
    _, unr = make_unr(faults=crash_schedule((120.0, 1)))
    rep = unr.replication
    size, iters = 4096, 10
    results = {}

    def program(ctx):
        ep = unr.endpoint(ctx.rank)
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
                results[it] = np.array_equal(buf, pattern(it, size))
                ep.sig_reset(sig)
                yield from ep.send_ctl(0, "go", tag="credit")
        return ctx.env.now

    run_job(unr.job, program, ranks=rep.world.app_ranks)
    assert len(results) == iters and all(results.values())
    assert unr.stats["replication_failovers"] == 1
    unr.finalize()


def test_failover_run_is_sanitizer_clean_and_notification_balanced():
    _, unr = make_unr(faults=crash_schedule((120.0, 1)), sanitize=True)
    rep = unr.replication
    results = {}
    run_job(unr.job, stream_program(unr, results, size=4096, iters=10),
            ranks=rep.world.app_ranks)
    assert all(results.values())
    report = unr.finalize()
    assert report is not None
    assert list(report) == [], [f.detail for f in report]


# ------------------------------------------------------- in-flight replay
def test_sender_crash_mid_striped_put_replays_owed_tokens():
    """Node 0 dies while rank 0's striped 256 KiB PUT is on the wire.
    The fragments park on team 0's failover; the promotion replays the
    local-completion tokens they still owe rank 0's signal onto the
    mirror node, and their re-posts from there land byte-exact."""
    _, unr = make_unr(faults=crash_schedule((40.0, 0)), sanitize=True)
    rep = unr.replication
    results = {}
    iters = 4
    run_job(unr.job, stream_program(unr, results, size=256 * 1024, iters=iters),
            ranks=rep.world.app_ranks)
    assert len(results) == iters and all(results.values())
    assert unr.stats["fragments"] > iters  # striped: more than one per PUT
    assert unr.stats["replication_tokens_replayed"] >= 1
    [rec] = rep.failover_log
    assert rec["team"] == 0 and rec["replayed_tokens"] >= 1
    report = unr.finalize()
    assert list(report) == [], [f.detail for f in report]


def crashed_peer_program(unr, got, *, ctrl):
    """Rank 0 waits until node 1 has crashed but team 1 has not yet
    promoted, then sends rank 1 one PUT (``ctrl=False``) or one control
    message (``ctrl=True``)."""
    size = 4096

    def program(ctx):
        ep = unr.endpoint(ctx.rank)
        buf = np.zeros(size, dtype=np.uint8)
        mr = ep.mem_reg(buf)
        sig = ep.sig_init(1)
        blk = ep.blk_init(mr, 0, size, signal=sig)
        if ctx.rank == 0:
            rmt = yield from ep.recv_ctl(1, tag="addr")
            yield ctx.env.timeout(140.0 * US - ctx.env.now)
            got["posted_before_promotion"] = not unr.replication.failover_log
            if ctrl:
                yield from ep.send_ctl(1, "go", tag="go")
            else:
                buf[:] = pattern(7, size)
                ep.put(blk, rmt)
                yield from ep.sig_wait(sig)
        else:
            yield from ep.send_ctl(0, blk, tag="addr")
            if ctrl:
                got["msg"] = yield from ep.recv_ctl(0, tag="go")
            else:
                yield from ep.sig_wait(sig)
                got["payload"] = buf.copy()
        return ctx.env.now

    return program


def test_put_toward_crashed_primary_parks_until_promotion():
    # No RMA rail and no fallback lane reach node 1, yet the first post
    # is not rejected: it goes to the fallback lane, the watchdog parks
    # on team 1's failover, and the re-post reaches the promoted node.
    _, unr = make_unr(faults=crash_schedule((120.0, 1)))
    got = {}
    run_job(unr.job, crashed_peer_program(unr, got, ctrl=False),
            ranks=unr.replication.world.app_ranks)
    assert got["posted_before_promotion"]
    assert np.array_equal(got["payload"], pattern(7, 4096))
    assert unr.stats["fallback_posts"] >= 1
    assert unr.stats["failover_parks"] >= 1
    assert unr.stats["replication_failovers"] == 1
    unr.finalize()


def test_send_ctl_toward_crashed_primary_lands_after_promotion():
    _, unr = make_unr(faults=crash_schedule((120.0, 1)))
    got = {}
    run_job(unr.job, crashed_peer_program(unr, got, ctrl=True),
            ranks=unr.replication.world.app_ranks)
    assert got["posted_before_promotion"]
    assert got["msg"] == "go"
    assert unr.stats["replication_failovers"] == 1
    unr.finalize()


# ---------------------------------------------------------------- partition
def test_partition_raises_suspicion_but_never_promotes():
    # Control-plane partition between the two team "columns": heartbeats
    # are lost for 400us (>> suspicion_threshold periods) but the
    # fail-stop predicate never confirms, so nobody is promoted.
    faults = FaultSpec(
        partitions=(Partition(time_us=100.0, duration_us=400.0,
                              a=(0, 1), b=(2, 3)),)
    )
    job, unr = make_unr(faults=faults)
    rep = unr.replication
    inj = unr._test_injector
    results = {}
    iters = 12
    run_job(unr.job, stream_program(unr, results, size=4096, iters=iters),
            ranks=rep.world.app_ranks)
    assert len(results) == iters and all(results.values())
    assert unr.stats["replication_suspicions"] > 0
    assert unr.stats.get("replication_failovers", 0) == 0
    assert inj.stats["partition_dropped"] > 0
    assert inj.stats["partitions"] == 1
    assert inj.stats["partitions_healed"] == 1
    assert not rep.failover_log
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
    """The team tier wraps ``core`` from outside: ``Unr.__init__`` names
    it on at most three lines (the keyword, the import, building it), no
    other ``core`` code imports or mentions it, and the heartbeat ledger
    is the tier's own."""
    assert not (CORE / "replication.py").exists()
    sources = {path.name: path.read_text() for path in sorted(CORE.glob("*.py"))}
    trees = {name: ast.parse(source) for name, source in sources.items()}
    unr = next(node for node in trees["api.py"].body
               if isinstance(node, ast.ClassDef) and node.name == "Unr")
    init = next(node for node in unr.body
                if isinstance(node, ast.FunctionDef) and node.name == "__init__")
    in_init = range(init.lineno, init.end_lineno + 1)
    imports = [(name, node.lineno) for name, tree in trees.items()
               for node in ast.walk(tree) if names_the_tier(node)]
    assert [(name, line in in_init) for name, line in imports] == [("api.py", True)]
    mentions = [(name, n) for name in ("api.py", "engine.py")
                for n, line in code_lines(trees[name], sources[name])
                if "replicat" in line.lower()]
    assert len(mentions) <= 3 and all(
        name == "api.py" and n in in_init for name, n in mentions), mentions
    assert "heartbeat" not in sources["health.py"].lower()
