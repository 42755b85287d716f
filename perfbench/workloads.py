"""The eight perfbench workloads: one more layer of the stack per rung.

Every workload is a closed loop whose client count is its rank count:
a simulated rank posts its next operation only after the notification
of the previous one arrived.  Each function takes a
:class:`~harness.Run`, generates its inputs from ``run.rng`` (seeded by
``--seed``), wraps exactly one :meth:`~harness.Run.measured` section
around the public calls that do the work, then checks every output and
reports public counters.  Nothing here reads a private attribute of the
program.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from repro import Recorder, Unr, make_job, run_job
from repro.bench.powerllel_bench import FIG6_GRIDS
from repro.interconnect import MpiFallbackChannel
from repro.mpi import MpiWorld, Win
from repro.netsim import (
    FaultInjector,
    FaultSpec,
    alloc_record,
    record_pool_stats,
    recycle_record,
)
from repro.platforms import get_platform
from repro.powerllel import PowerLLELConfig, run_powerllel
from repro.sim import AllOf, Environment, HeapScheduler, Store

from harness import Run

__all__ = ["WORKLOADS"]

KIB = 1024


def _cluster_seed(run: Run) -> int:
    """A cluster seed (routing jitter, node RNG streams) from ``--seed``."""
    return int(run.rng.integers(1, 2**31))


def _make_job(run: Run, platform: str, n_nodes: int) -> Tuple[Any, Optional[Recorder]]:
    """``make_job`` under its span, and the Recorder of a traced run."""
    seed = _cluster_seed(run)
    with run.span("make_job", "netsim"):
        job = make_job(platform, n_nodes, seed=seed)
    return job, (Recorder.attach(job.cluster) if run.traced else None)


# ---------------------------------------------------------------------------
# counters shared by several rungs (public attributes and functions only)

def _sim_counters(run: Run, rec: Optional[Recorder]) -> None:
    """Kernel and sweep counts, available when a Recorder watched the run."""
    if rec is None:
        return
    snap = rec.snapshot()
    counters, gauges = snap["counters"], snap["gauges"]
    run.count("sim.events", counters["sim.events"])  # the probes' own are taken off at exit
    run.peak("sim.heap_depth_max", gauges["sim.heap_depth_max"])
    run.count("core.poll_sweeps", counters.get("core.poll_sweeps", 0))
    run.count("core.poll_dispatches", counters.get("core.poll_dispatches", 0))
    # Posts through the MPI fallback channel, degraded or chosen: only the
    # channel's Recorder hook counts both.
    run.count("interconnect.fallback_posts",
              counters.get("fallback.puts", 0) + counters.get("fallback.gets", 0))


def _net_counters(run: Run, cluster: Any, pool: Optional[Dict[str, float]] = None) -> None:
    """Fabric totals of one cluster.  The record pool is process-global and
    reset by every new cluster, so a workload that builds several passes
    the ``record_pool_stats()`` it took while each was the current one."""
    traffic = cluster.total_traffic()
    run.count("netsim.posts", traffic["tx_msgs"])
    run.count("netsim.bytes", traffic["tx_bytes"])
    run.count("netsim.cq_overflow_stalls", traffic["cq_overflow_stalls"])
    run.count("netsim.nodes_materialized", cluster.n_materialized)
    run.peak("netsim.cq_high_water", max(
        (nic.cq.high_water for node in cluster.materialized_nodes() for nic in node.nics),
        default=0))
    pool = pool or record_pool_stats()
    run.count("netsim.pool_hits", pool["hits"])
    run.count("netsim.pool_misses", pool["misses"])
    run.digest("traffic", traffic)


_UNR_STATS = {
    "core.puts": "puts",
    "core.gets": "gets",
    "core.fragments": "fragments",
    "core.coalesced_runs": "coalesced_runs",
    "core.ctrl_msgs": "ctrl_msgs",
    "core.retransmits": "retransmits",
    "core.duplicates_suppressed": "duplicates_suppressed",
    "core.degraded_ops": "degraded_ops",
    "core.breaker_opens": "breaker_opens",
}


def _unr_counters(run: Run, stats: Dict[str, int]) -> None:
    for metric, key in _UNR_STATS.items():
        run.count(metric, stats.get(key, 0))
    run.digest("unr.stats", dict(stats))


# ---------------------------------------------------------------------------
# 1. kernel_churn — repro.sim only

def _churn(env: Environment, periods: List[float], n_ticks: int, n_items: int,
           n_joins: int, out: Dict[str, Any]) -> None:
    """Schedule the churn processes on ``env`` (nothing runs yet)."""

    def ticker(i: int):
        period = periods[i % len(periods)]
        for _ in range(n_ticks):
            yield env.timeout(period)
        out["ticks"] += n_ticks
        out["ticker_end"].append(env.now)

    def producer(store: Store, i: int):
        period = periods[(i + 3) % len(periods)]
        for item in range(n_items):
            yield store.put(item)
            yield env.timeout(period)

    def consumer(store: Store):
        total = 0
        for _ in range(n_items):
            total += yield store.get()
        out["consumed"] += total

    def joiner():
        for j in range(n_joins):
            yield AllOf(env, [env.timeout(periods[(j + k) % len(periods)]) for k in range(8)])
            out["joins"] += 1

    for i in range(64):
        env.process(ticker(i))
    for i in range(16):
        store = Store(env, capacity=4)
        env.process(producer(store, i))
        env.process(consumer(store))
    env.process(joiner())


def kernel_churn(run: Run) -> None:
    n_ticks = run.scaled(12_000)
    n_items = run.scaled(5_000)
    n_joins = run.scaled(2_000)
    # Seven distinct periods: a seeded permutation of fixed magnitudes, so
    # every seed schedules the same number of events in a different order.
    periods = [float(p) * 1e-6 for p in run.rng.permutation([1.0, 1.7, 2.3, 3.1, 4.9, 7.3, 11.0])]
    run.ops = 64 * n_ticks + 16 * 3 * n_items + 9 * n_joins

    def fresh() -> Dict[str, Any]:
        return {"ticks": 0, "consumed": 0, "joins": 0, "ticker_end": []}

    if run.traced:
        # Auxiliary leg, profiler off: the same program on the reference
        # heap scheduler (the row that decides Calendar vs Heap).
        env = Environment(scheduler=HeapScheduler())
        _churn(env, periods, n_ticks, n_items, n_joins, fresh())
        with run.span("env.run[heap]", "sim"):
            env.run()
        run.count("sim.heap_leg_s", run.span_seconds("env.run[heap]"))

    out = fresh()
    with run.span("Environment", "sim"):
        env = Environment()
    rec = None
    if run.traced:
        rec = Recorder(env)
        env.obs = rec
    with run.measured():
        _churn(env, periods, n_ticks, n_items, n_joins, out)
        run.probe(env)
        with run.span("env.run", "sim"):
            env.run()

    with run.span("check", "host"):
        run.check("ticks delivered == scheduled", out["ticks"] == 64 * n_ticks)
        run.check("items consumed == produced",
                  out["consumed"] == 16 * n_items * (n_items - 1) // 2)
        run.check("joins completed", out["joins"] == n_joins)
        end_of = {}
        for period in periods:
            t = 0.0
            for _ in range(n_ticks):
                t += period
            end_of[period] = t
        run.check("ticker wake times exact", sorted(out["ticker_end"]) == sorted(
            end_of[periods[i % len(periods)]] for i in range(64)))
    _sim_counters(run, rec)
    run.digest("env.now", env.now)
    run.digest("ticker_end", out["ticker_end"])


# ---------------------------------------------------------------------------
# 2. nic_stream — repro.netsim only

def nic_stream(run: Run) -> None:
    n_nodes = 8
    per_node = run.scaled(18_750, floor=12)
    window = 16
    sizes = [8, 4 * KIB, 256 * KIB]
    # One (size, ordered, is_get) schedule per node: a seeded permutation
    # of a fixed cycle, so bytes and post counts are the same for every seed.
    cycle = [(size, ordered, is_get)
             for size in sizes for ordered in (False, True) for is_get in (False, False, True)]
    schedules = []
    for _ in range(n_nodes):
        order = run.rng.permutation(len(cycle))
        schedules.append([cycle[order[i % len(cycle)]] for i in range(per_node)])
    values = run.rng.integers(1, 2**31, size=(n_nodes, per_node)).tolist()

    job, rec = _make_job(run, "th-xy", n_nodes)
    env = job.env
    nics = [[job.nic_of(node, rail) for rail in (0, 1)] for node in range(n_nodes)]
    landed: List[List[int]] = [[] for _ in range(n_nodes)]  # payload values delivered into each node
    drained = [0] * n_nodes  # completion records drained at each node
    drained_custom = [0] * n_nodes
    posted = [0] * n_nodes

    def drain(node: int, cq: Any, expect: int):
        buf: List[Any] = [None] * 64
        seen = custom = 0
        while seen < expect:
            record = yield cq.get()
            custom += record.custom
            recycle_record(record)
            seen += 1
            n = cq.poll_batch_into(buf, 64)
            for i in range(n):
                custom += buf[i].custom
                recycle_record(buf[i])
                buf[i] = None
            seen += n
        drained[node] += seen
        drained_custom[node] += custom

    def driver(node: int):
        mine, right, left = nics[node], nics[(node + 1) % n_nodes], nics[(node - 1) % n_nodes]
        to_right, to_me = landed[(node + 1) % n_nodes].append, landed[node].append
        # A GET's value is snapshotted at the target by ``fetch``; only the
        # sum is checked, so the fetches may be served in any order.
        fetch = iter([v for v, op in zip(values[node], schedules[node]) if op[2]]).__next__
        inflight: deque = deque()
        for i, (size, ordered, is_get) in enumerate(schedules[node]):
            rail = i & 1
            value = values[node][i]
            if is_get:
                # The completion record lands on *my* CQ when the data does.
                done = mine[rail].post_get(
                    left[rail], size, fetch=fetch, on_deliver=to_me,
                    local_record=alloc_record("get_local", custom=value, nbytes=size),
                )
            else:
                done = mine[rail].post_put(
                    right[rail], size, payload=value, on_deliver=to_right,
                    remote_record=alloc_record("put_remote", custom=value, nbytes=size),
                    ordered=ordered,
                )
            inflight.append(done)
            if len(inflight) == window:
                yield inflight.popleft()
        posted[node] = len(schedules[node])
        for done in inflight:
            yield done

    # Records expected on each (node, rail) CQ: my own GETs plus the PUTs
    # of my left neighbour, split by the rail the post used.
    expect = [[0, 0] for _ in range(n_nodes)]
    want_landed = [0] * n_nodes
    for node in range(n_nodes):
        for i, (_size, _ordered, is_get) in enumerate(schedules[node]):
            target = node if is_get else (node + 1) % n_nodes
            expect[target][i & 1] += 1
            want_landed[target] += values[node][i]

    with run.measured():
        for node in range(n_nodes):
            for rail in (0, 1):
                env.process(drain(node, nics[node][rail].cq, expect[node][rail]))
            env.process(driver(node))
        run.probe(env)
        with run.span("env.run", "netsim"):
            env.run()

    run.ops = n_nodes * per_node
    with run.span("check", "host"):
        run.check("posts issued", sum(posted) == run.ops)
        run.check("records drained == posted", sum(drained) == run.ops)
        run.check("payload values landed", [sum(v) for v in landed] == want_landed)
        run.check("custom bits drained", drained_custom == want_landed)
        run.check("NIC tx count", job.cluster.total_traffic()["tx_msgs"] >= run.ops)
    _net_counters(run, job.cluster)
    _sim_counters(run, rec)
    run.digest("env.now", env.now)
    run.digest("landed", [sum(v) for v in landed])


# ---------------------------------------------------------------------------
# 3. unr_small — repro.core, per-op bound

def unr_small(run: Run) -> None:
    iters = run.scaled(20_000, floor=4)
    # Payloads: one 8-byte word per hop, generated up front.
    words = run.rng.integers(0, 2**63, size=(2, iters), dtype=np.uint64)
    job, rec = _make_job(run, "th-xy", 2)
    with run.span("Unr", "core"):
        unr = Unr(job, "glex", observe=rec)
    bad = [0, 0]
    received = [0, 0]
    last: Dict[int, np.ndarray] = {}

    def program(ctx):
        ep = unr.endpoint(ctx.rank)
        me, peer = ctx.rank, 1 - ctx.rank
        sbuf = np.zeros(1, dtype=np.uint64)
        rbuf = last[me] = np.zeros(1, dtype=np.uint64)
        sig = ep.sig_init(1)
        sblk = ep.blk_init(ep.mem_reg(sbuf), 0, 8)
        rblk = ep.blk_init(ep.mem_reg(rbuf), 0, 8, signal=sig)
        rmt = yield from ep.exchange_blk(peer, rblk)
        mine, theirs = words[me], words[peer]
        for it in range(iters):
            if me == 0:
                sbuf[0] = mine[it]
                ep.put(sblk, rmt)
                yield from ep.sig_wait(sig)
            else:
                yield from ep.sig_wait(sig)
            received[me] += 1
            if rbuf[0] != theirs[it]:
                bad[me] += 1
            ep.sig_reset(sig)
            if me == 1:
                sbuf[0] = mine[it]
                ep.put(sblk, rmt)
        return ctx.env.now

    with run.measured():
        run.probe(job.env)
        with run.span("run_job", "core"):
            times = run_job(job, program)
        with run.span("finalize", "core"):
            unr.finalize()

    run.ops = 2 * iters
    with run.span("check", "host"):
        run.check("puts posted", unr.stats["puts"] == run.ops)
        run.check("notifications delivered == posted", received == [iters, iters])
        run.check("every 8 B payload exact", bad == [0, 0])
        for me in (0, 1):
            run.check_payload(f"rank {me} last payload", last[me], words[1 - me][-1:])
        run.check("no sync errors", unr.stats["sync_errors"] == 0)
    _unr_counters(run, unr.stats)
    _net_counters(run, job.cluster)
    _sim_counters(run, rec)
    run.count("core.put_leg_s", run.span_seconds("run_job"))
    run.digest("rank finish times", times)


# ---------------------------------------------------------------------------
# 4. unr_bulk — repro.core, per-byte bound, reads beside writes

def unr_bulk(run: Run) -> None:
    n_ranks, window, size = 4, 8, 256 * KIB
    rounds = run.scaled(120, floor=2)
    total = window * size
    base = run.rng.integers(0, 256, size=(n_ranks, total), dtype=np.uint8)
    job, rec = _make_job(run, "th-xy", n_ranks)
    with run.span("Unr", "core"):
        unr = Unr(job, "glex", observe=rec)
    state: Dict[int, Dict[str, Any]] = {}
    mismatches = {"put": 0, "get": 0}
    verified = {"put": 0, "get": 0}

    def compare(kind: str, got: np.ndarray, want: np.ndarray) -> None:
        verified[kind] += 1
        if not np.array_equal(got, want):
            mismatches[kind] += 1

    def setup(ctx):
        """Register buffers and swap block handles (outside both legs)."""
        ep = unr.endpoint(ctx.rank)
        me = ctx.rank
        right, left = (me + 1) % n_ranks, (me - 1) % n_ranks
        sbuf, rbuf = base[me].copy(), np.zeros(total, dtype=np.uint8)
        smr, rmr = ep.mem_reg(sbuf), ep.mem_reg(rbuf)
        send_sig, recv_sig = ep.sig_init(window), ep.sig_init(window)
        sblks = [ep.blk_init(smr, i * size, size, signal=send_sig) for i in range(window)]
        rblks = [ep.blk_init(rmr, i * size, size, signal=recv_sig) for i in range(window)]
        # My PUTs land in right's receive blocks; my GETs read left's send blocks.
        yield from ep.send_ctl(left, rblks, tag="rblks")
        yield from ep.send_ctl(right, sblks, tag="sblks")
        dst = yield from ep.recv_ctl(right, tag="rblks")
        src = yield from ep.recv_ctl(left, tag="sblks")
        put_plan, get_plan = ep.plan(), ep.plan()
        for i in range(window):
            put_plan.record_put(sblks[i], dst[i])
            get_plan.record_get(rblks[i], src[i])
        state[me] = dict(
            ep=ep, sbuf=sbuf, rbuf=rbuf, send_sig=send_sig, recv_sig=recv_sig,
            sblks=sblks, rblks=rblks, dst=dst, src=src,
            put_plan=put_plan, get_plan=get_plan,
            expect=base[left].copy(), right=right, left=left,
        )

    def put_leg(ctx):
        s = state[ctx.rank]
        ep = s["ep"]
        for rnd in range(rounds):
            if rnd & 1:
                s["put_plan"].start()
            else:
                for i in range(window):
                    ep.put(s["sblks"][i], s["dst"][i])
            yield from ep.sig_wait(s["recv_sig"])
            compare("put", s["rbuf"], s["expect"])
            ep.sig_reset(s["recv_sig"])
            yield from ep.sig_wait(s["send_sig"])
            ep.sig_reset(s["send_sig"])
            # Next round's payload differs; the credit tells my writer
            # (left) that its target buffer has been read.
            np.add(s["sbuf"], 1, out=s["sbuf"])
            np.add(s["expect"], 1, out=s["expect"])
            yield from ep.send_ctl(s["left"], rnd, tag="credit")
            yield from ep.recv_ctl(s["right"], tag="credit")
        return ctx.env.now

    def get_leg(ctx):
        s = state[ctx.rank]
        ep = s["ep"]
        for rnd in range(rounds):
            # My source buffer is final for this round: let my reader go.
            yield from ep.send_ctl(s["right"], rnd, tag="ready")
            yield from ep.recv_ctl(s["left"], tag="ready")
            if rnd & 1:
                s["get_plan"].start()
            else:
                for i in range(window):
                    ep.get(s["rblks"][i], s["src"][i])
            yield from ep.sig_wait(s["recv_sig"])
            compare("get", s["rbuf"], s["expect"])
            ep.sig_reset(s["recv_sig"])
            # The remote notification of right's GETs: my buffer was read.
            yield from ep.sig_wait(s["send_sig"])
            ep.sig_reset(s["send_sig"])
            np.add(s["sbuf"], 1, out=s["sbuf"])
            np.add(s["expect"], 1, out=s["expect"])
        return ctx.env.now

    with run.span("exchange_blk", "core"):
        run_job(job, setup)
    with run.measured():
        run.probe(job.env)
        with run.span("run_job[put]", "core"):
            put_times = run_job(job, put_leg)
        run.probe(job.env)
        with run.span("run_job[get]", "core"):
            get_times = run_job(job, get_leg)
        with run.span("finalize", "core"):
            unr.finalize()

    per_leg = n_ranks * window * rounds
    run.ops = 2 * per_leg
    with run.span("check", "host"):
        run.check("puts posted", unr.stats["puts"] == per_leg)
        run.check("gets posted", unr.stats["gets"] == per_leg)
        run.check("windows verified", verified == {"put": n_ranks * rounds, "get": n_ranks * rounds})
        run.check("PUT payloads byte-exact", mismatches["put"] == 0)
        run.check("GET payloads byte-exact", mismatches["get"] == 0)
        for me, s in state.items():
            # After the last round every rank still holds its reader's view.
            run.check_payload(f"rank {me} final window", s["rbuf"], s["expect"] - 1)
        run.check("plans replayed", all(
            s["put_plan"].n_starts == rounds // 2 and s["get_plan"].n_starts == rounds // 2
            for s in state.values()))
    _unr_counters(run, unr.stats)
    _net_counters(run, job.cluster)
    _sim_counters(run, rec)
    run.count("core.put_leg_s", run.span_seconds("run_job[put]"))
    run.count("core.get_leg_s", run.span_seconds("run_job[get]"))
    run.digest("rank finish times", [put_times, get_times])


# ---------------------------------------------------------------------------
# 5. unr_armed — repro.core with every interposing tier on

def unr_armed(run: Run) -> None:
    n_ranks, size = 4, 16 * KIB
    iters = run.scaled(3_000, floor=4)
    base = run.rng.integers(0, 256, size=(n_ranks, size), dtype=np.uint8)
    fault_seed = int(run.rng.integers(1, 2**31))
    seed = _cluster_seed(run)
    with run.span("make_job", "netsim"):
        job = make_job("th-xy", n_ranks, seed=seed)
    faults = FaultSpec.parse("drop=0.05,dup=0.02,reorder=0.1", seed=fault_seed)
    injector = FaultInjector.attach(job.cluster, faults)
    rec = Recorder.attach(job.cluster)  # armed untraced too: it is one of the tiers
    with run.span("Unr", "core"):
        unr = Unr(job, "glex", reliability=True, health=True, sanitize=True, observe=rec)
    mismatches = [0] * n_ranks
    received = [0] * n_ranks
    final: Dict[int, Any] = {}

    def program(ctx):
        ep = unr.endpoint(ctx.rank)
        me = ctx.rank
        right, left = (me + 1) % n_ranks, (me - 1) % n_ranks
        sbuf, rbuf = base[me].copy(), np.zeros(size, dtype=np.uint8)
        expect = base[left].copy()
        send_sig, recv_sig = ep.sig_init(1), ep.sig_init(1)
        sblk = ep.blk_init(ep.mem_reg(sbuf), 0, size, signal=send_sig)
        rblk = ep.blk_init(ep.mem_reg(rbuf), 0, size, signal=recv_sig)
        yield from ep.send_ctl(left, rblk, tag="rblk")
        dst = yield from ep.recv_ctl(right, tag="rblk")
        for it in range(iters):
            ep.put(sblk, dst)
            yield from ep.sig_wait(recv_sig)
            received[me] += 1
            if not np.array_equal(rbuf, expect):
                mismatches[me] += 1
            ep.sig_reset(recv_sig)
            yield from ep.sig_wait(send_sig)
            ep.sig_reset(send_sig)
            np.add(sbuf, 1, out=sbuf)
            np.add(expect, 1, out=expect)
            yield from ep.send_ctl(left, it, tag="credit")
            yield from ep.recv_ctl(right, tag="credit")
        final[me] = (rbuf, expect - 1)
        # No ``sig_free`` here: a duplicated or retransmitted copy of the last
        # PUT may still be in flight (seed 1894702508), and landing on a freed
        # id it is, rightly, a stray completion.  ``finalize()`` scans the
        # signals where they stand.
        return ctx.env.now

    with run.measured():
        run.probe(job.env)
        with run.span("run_job", "core"):
            times = run_job(job, program)
        with run.span("finalize", "core"):
            report = unr.finalize()

    run.ops = n_ranks * iters
    with run.span("check", "host"):
        run.check("puts posted", unr.stats["puts"] == run.ops)
        run.check("notifications delivered == posted", received == [iters] * n_ranks)
        run.check("every 16 KiB payload exact", mismatches == [0] * n_ranks)
        for me, (rbuf, expect) in final.items():
            run.check_payload(f"rank {me} final payload", rbuf, expect)
        run.check("sanitizer clean", report is not None and report.ok)
        # A PUT posted while a breaker is open goes over the fallback lane,
        # past the injector: a few on most seeds, several hundred on some.
        run.check("fault injector saw the traffic",
                  injector.stats["fragments_seen"] + unr.stats["degraded_ops"] >= run.ops)
    _unr_counters(run, unr.stats)
    _net_counters(run, job.cluster)
    _sim_counters(run, rec)
    run.count("core.put_leg_s", run.span_seconds("run_job"))
    run.digest("rank finish times", times)
    run.digest("faults", dict(injector.stats))


# ---------------------------------------------------------------------------
# 6. mpi_mix — repro.mpi only

def mpi_mix(run: Run) -> None:
    n_ranks = 16
    rounds = run.scaled(160, floor=4)
    rma_iters = run.scaled(400, floor=2)
    eager = run.rng.integers(0, 256, size=(n_ranks, KIB), dtype=np.uint8)
    bulk = run.rng.integers(0, 256, size=(n_ranks, 256 * KIB), dtype=np.uint8)
    rma_data = run.rng.integers(0, 256, size=4 * KIB, dtype=np.uint8)
    job, rec = _make_job(run, "hpc-ib", n_ranks)
    with run.span("MpiWorld", "mpi"):
        world = MpiWorld(job, get_platform("hpc-ib").mpi)
    bad = {"eager": 0, "bulk": 0, "a2a": 0, "allreduce": 0, "rma": 0}
    rma_ops = [0]

    def ring(ctx):
        comm = world.comm_world(ctx.rank)
        me = comm.rank
        right, left = (me + 1) % n_ranks, (me - 1) % n_ranks
        for rnd in range(rounds):
            got = yield from comm.sendrecv(right, eager[me], left, tag=("e", rnd))
            if not np.array_equal(got, eager[left]):
                bad["eager"] += 1
            got = yield from comm.sendrecv(right, bulk[me], left, tag=("b", rnd))
            if not np.array_equal(got, bulk[left]):
                bad["bulk"] += 1
            if rnd % 4 == 3:
                blocks = yield from comm.alltoall([eager[me][j::n_ranks] for j in range(n_ranks)])
                if not all(np.array_equal(blocks[j], eager[j][me::n_ranks]) for j in range(n_ranks)):
                    bad["a2a"] += 1
                total = yield from comm.allreduce(me + rnd)
                if total != n_ranks * rnd + n_ranks * (n_ranks - 1) // 2:
                    bad["allreduce"] += 1
        return ctx.env.now

    def rma(ctx, scheme: str):
        """Fig 4's MPI-RMA ping-pong between ranks 0 and 1 of a pair comm."""
        comm = world.comm(ctx.rank, (0, 1))
        peer = 1 - comm.rank
        n = rma_data.nbytes
        buf = np.zeros(n + 8, dtype=np.uint8)
        win = Win.create(comm, buf)
        flag = np.zeros(8, dtype=np.uint8)
        yield from comm.barrier()
        for it in range(rma_iters):
            for phase in (0, 1):
                sending = (phase == 0) == (comm.rank == 0)
                if sending:
                    rma_ops[0] += 1
                if scheme == "fence":
                    if sending:
                        win.put(peer, rma_data)
                    yield from win.fence()
                elif scheme == "pscw":
                    if sending:
                        yield from win.start([peer])
                        win.put(peer, rma_data)
                        yield from win.complete([peer])
                    else:
                        yield from win.post([peer])
                        yield from win.wait([peer])
                elif sending:
                    yield from win.lock(peer)
                    win.put(peer, rma_data)
                    yield from win.unlock(peer)
                    yield from win.lock(peer)
                    flag[0] = 1 + it % 250
                    win.put(peer, flag, offset=n)
                    yield from win.unlock(peer)
                else:
                    while buf[n] != 1 + it % 250:
                        yield ctx.env.timeout(1e-6)
                if not sending and not np.array_equal(buf[:n], rma_data):
                    bad["rma"] += 1
        return ctx.env.now

    with run.measured():
        run.probe(job.env)
        with run.span("run_job[ring]", "mpi"):
            times = [run_job(job, ring)]
        for scheme in ("fence", "pscw", "lock"):
            run.probe(job.env)
            with run.span(f"run_job[{scheme}]", "mpi"):
                times.append(run_job(job, rma, scheme, ranks=(0, 1)))

    stats = world.stats
    run.ops = stats["messages"] + rma_ops[0]
    with run.span("check", "host"):
        run.check("ring eager payloads exact", bad["eager"] == 0)
        run.check("ring rendezvous payloads exact", bad["bulk"] == 0)
        run.check("alltoall blocks exact", bad["a2a"] == 0)
        run.check("allreduce sums exact", bad["allreduce"] == 0)
        run.check("RMA window contents exact", bad["rma"] == 0)
        run.check("RMA epochs completed", rma_ops[0] == 3 * 2 * rma_iters)
        run.check("both protocols exercised", stats["eager"] > 0 and stats["rendezvous"] > 0)
    run.count("mpi.messages", stats["messages"])
    run.count("mpi.eager", stats["eager"])
    run.count("mpi.rendezvous", stats["rendezvous"])
    run.count("mpi.bytes", stats["bytes"])
    _net_counters(run, job.cluster)
    _sim_counters(run, rec)
    run.digest("rank finish times", times)
    run.digest("mpi.stats", dict(stats))


# ---------------------------------------------------------------------------
# 7/8. fig6_thxy and fig7_thxy288 — the product, through powerllel

def _powerllel_leg(run: Run, name: str, seed: int, cfg: PowerLLELConfig,
                   nodes: int) -> Dict[str, Any]:
    """One Figure 6/7 leg, assembled exactly as ``powerllel_point`` does
    (``perfbench/tests`` pins the two to the same simulated time)
    but from its public parts, so that construction is timed by itself
    and the probe can reach the job's environment."""
    plat = get_platform("th-xy")
    with run.span(f"leg[{name}]", "powerllel"):
        with run.span("make_job", "netsim"):
            job = make_job("th-xy", nodes, seed=seed)
        rec = Recorder.attach(job.cluster) if run.traced else None
        run.probe(job.env)
        if name == "mpi":
            with run.span("MpiWorld", "mpi"):
                world = MpiWorld(job, plat.mpi)
            with run.span("run_powerllel", "powerllel"):
                res = run_powerllel(job, cfg, backend="mpi", world=world)
        else:
            with run.span("Unr", "core"):
                channel = MpiFallbackChannel(job, plat.fallback) if name == "fallback" else plat.channel
                unr = Unr(job, channel, observe=rec)
            with run.span("run_powerllel", "powerllel"):
                res = run_powerllel(job, cfg, backend="unr", unr=unr)
    res["job"], res["recorder"], res["pool"] = job, rec, record_pool_stats()
    return res


def _powerllel_report(run: Run, name: str, res: Dict[str, Any]) -> None:
    """Checks, counters and digest of one finished leg."""
    job = res["job"]
    run.count(f"powerllel.{name}_leg_s", run.span_seconds(f"leg[{name}]"))
    run.digest(f"{name}.time", res["time"])
    run.digest(f"{name}.phases", res["phases"])
    run.check(f"{name}: every rank reported", len(res["ranks"]) == job.n_ranks and res["time"] > 0)
    run.check(f"{name}: phases within the run",
              0 < res["phases"]["ppe"] < res["phases"]["total"] <= res["time"] * (1 + 1e-9))
    if "unr_stats" in res:
        _unr_counters(run, res["unr_stats"])
    _net_counters(run, job.cluster, res["pool"])
    _sim_counters(run, res["recorder"])


def fig6_thxy(run: Run) -> None:
    if run.scale >= 1:
        grid, steps = dict(FIG6_GRIDS["th-xy"]), 2
    else:  # tests: the same three legs on a 4-node toy grid
        grid, steps = dict(nx=96, ny=96, nz=72, nodes=4, py=2, pz=2), 1
    seed = _cluster_seed(run)
    nodes = grid.pop("nodes")
    cfg = PowerLLELConfig(steps=steps, mode="model", pipeline_slabs=4,
                          lengths=(1.0, 1.0, 8.0), **grid)
    with run.measured():
        legs = {name: _powerllel_leg(run, name, seed, cfg, nodes)
                for name in ("mpi", "unr", "fallback")}
    run.ops = 3 * nodes * steps
    speedup_unr = legs["mpi"]["time"] / legs["unr"]["time"]
    speedup_fallback = legs["mpi"]["time"] / legs["fallback"]["time"]
    with run.span("check", "host"):
        for name, res in legs.items():
            _powerllel_report(run, name, res)
        run.check("speedup_unr > 1", speedup_unr > 1.0)
        run.check("fallback between baseline and UNR", 1.0 < speedup_fallback < speedup_unr)
    run.count("powerllel.sim_time_ms", legs["unr"]["time"] * 1e3)
    run.count("powerllel.speedup_unr", speedup_unr)
    run.count("powerllel.speedup_fallback", speedup_fallback)


def fig7_thxy288(run: Run) -> None:
    if run.scale >= 1:
        nodes, grid = 288, dict(py=24, pz=12, nx=2880, ny=2880, nz=2160)
    else:
        nodes, grid = 8, dict(py=4, pz=2, nx=96, ny=96, nz=72)
    seed = _cluster_seed(run)
    cfg = PowerLLELConfig(steps=1, mode="model", pipeline_slabs=2,
                          lengths=(1.0, 1.0, 8.0), **grid)
    with run.measured():
        res = _powerllel_leg(run, "unr", seed, cfg, nodes)
    run.ops = nodes
    with run.span("check", "host"):
        _powerllel_report(run, "unr", res)
        run.check("every rank posted", res["unr_stats"]["puts"] >= nodes)
    run.count("powerllel.sim_time_ms", res["time"] * 1e3)


#: In ladder order; ``BENCHMARK.json`` says why each exists.
WORKLOADS = {
    fn.__name__: fn
    for fn in (kernel_churn, nic_stream, unr_small, unr_bulk, unr_armed, mpi_mix,
               fig6_thxy, fig7_thxy288)
}
