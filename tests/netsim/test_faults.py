"""Property tests for the fault-injection layer.

Seeded loops stand in for hypothesis: each property is checked across a
range of fault schedules and seeds, and every failure is reproducible
from the seed printed in the assertion message.
"""

import numpy as np
import pytest

from repro.core import Unr
from repro.netsim import (
    Cluster,
    ClusterSpec,
    CqStall,
    FabricSpec,
    FaultInjector,
    FaultSpec,
    NicSpec,
    NodeSpec,
    RailFailure,
    US,
    record_pool_stats,
)
from repro.netsim.faults import Partition
from repro.netsim.trace import transfer_fingerprint, transfer_summary
from repro.obs import Recorder
from repro.platforms import make_job
from repro.runtime import run_job
from repro.sim import Environment


def make_cluster(n_nodes=2, nics=2, seed=11, jitter=0.3):
    env = Environment()
    spec = ClusterSpec(
        "t",
        n_nodes,
        NodeSpec(cores=4, nics=nics),
        NicSpec(bandwidth_gbps=100, latency_us=1.0),
        FabricSpec(routing_jitter=jitter),
        seed=seed,
    )
    return env, Cluster(env, spec)


def blast(env, cluster, *, n_msgs=30, nbytes=20000, rng_seed=5, payloads=False):
    """Post a deterministic pseudo-random burst of puts; run to quiescence.

    Returns (delivered_payloads, posted_payloads) keyed by message id.
    """
    rng = np.random.default_rng(rng_seed)
    sent, got = {}, {}
    nodes = cluster.nodes
    for i in range(n_msgs):
        src = nodes[int(rng.integers(len(nodes)))]
        dst = nodes[int(rng.integers(len(nodes)))]
        if dst is src:
            dst = nodes[(src.index + 1) % len(nodes)]
        s_nic = src.nics[int(rng.integers(src.n_rails))]
        d_nic = dst.nics[int(rng.integers(dst.n_rails))]
        size = int(rng.integers(nbytes // 2, nbytes))
        data = rng.integers(0, 256, size=8).astype(np.uint8) if payloads else None
        if payloads:
            sent[i] = data.copy()
        s_nic.post_put(
            d_nic, size, payload=data,
            on_deliver=lambda d, i=i: got.__setitem__(i, None if d is None else d.copy()),
        )
        # Spread posts over time so fates interleave with deliveries.
        env.run(until=env.now + float(rng.uniform(0.0, 3.0)) * US)
    env.run()
    return got, sent


SCHEDULES = [
    FaultSpec(),
    FaultSpec(drop=0.3),
    FaultSpec(duplicate=0.4, reorder=0.5),
    FaultSpec(drop=0.2, duplicate=0.2, delay=0.5, corrupt=0.1),
    FaultSpec(drop=0.1, reorder=0.8, rail_failures=(RailFailure(time_us=30.0),)),
]


@pytest.mark.parametrize("schedule", SCHEDULES)
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_same_seed_identical_trace(schedule, seed):
    """Property (a): any schedule + seed replays to an identical trace."""
    import dataclasses

    runs = []
    for _ in range(2):
        env, cluster = make_cluster(seed=17)
        FaultInjector.attach(cluster, dataclasses.replace(schedule, seed=seed))
        transfers = Recorder.attach(cluster).transfers
        blast(env, cluster, rng_seed=seed + 100)
        runs.append(transfers)
    assert runs[0] == runs[1], f"trace diverged for schedule={schedule} seed={seed}"
    assert transfer_fingerprint(runs[0]) == transfer_fingerprint(runs[1])


@pytest.mark.parametrize("seed", range(6))
def test_delivered_puts_carry_posted_bytes(seed):
    """Property (b): whatever is delivered is exactly what was posted —
    faults may lose or replay fragments, never hand over other bytes."""
    schedule = FaultSpec(drop=0.3, duplicate=0.3, reorder=0.6, seed=seed)
    env, cluster = make_cluster()
    FaultInjector.attach(cluster, schedule)
    got, sent = blast(env, cluster, rng_seed=seed, payloads=True)
    assert got, f"everything dropped for seed={seed} (suspicious schedule)"
    for i, data in got.items():
        np.testing.assert_array_equal(
            data, sent[i], err_msg=f"payload {i} mangled, seed={seed}"
        )


def test_drop_probability_one_drops_everything():
    env, cluster = make_cluster()
    inj = FaultInjector.attach(cluster, FaultSpec(drop=1.0, seed=3))
    transfers = Recorder.attach(cluster).transfers
    got, _ = blast(env, cluster, n_msgs=20)
    assert got == {}
    s = transfer_summary(transfers)
    assert s["n_messages"] == 20
    assert s["n_delivered"] == 0
    assert s["n_dropped"] == 20  # the latent-bug fix: explicit accounting
    assert inj.stats["dropped"] == 20


def test_noop_schedule_changes_nothing():
    """drop=dup=...=0 must leave the timeline exactly as un-faulted."""
    baseline = []
    for attach in (False, True):
        env, cluster = make_cluster(seed=23)
        if attach:
            inj = FaultInjector.attach(cluster, FaultSpec(seed=9))
            assert inj.spec.is_noop
        transfers = Recorder.attach(cluster).transfers
        blast(env, cluster, rng_seed=7)
        baseline.append(transfer_fingerprint(transfers))
    assert baseline[0] == baseline[1]


def test_duplicate_delivers_twice():
    env, cluster = make_cluster(jitter=0.0)
    inj = FaultInjector.attach(cluster, FaultSpec(duplicate=1.0, seed=1))
    hits = []
    a, b = cluster.nodes[0].nics[0], cluster.nodes[1].nics[0]
    a.post_put(b, 4096, on_deliver=lambda d: hits.append(env.now))
    env.run()
    assert len(hits) == 2
    assert hits[1] > hits[0]
    assert inj.stats["duplicated"] == 1


def test_corrupt_frame_is_discarded_by_the_link_crc():
    env, cluster = make_cluster(jitter=0.0)
    inj = FaultInjector.attach(cluster, FaultSpec(corrupt=1.0, seed=2))
    hits = []
    a, b = cluster.nodes[0].nics[0], cluster.nodes[1].nics[0]
    a.post_put(b, 64, payload=np.zeros(64, dtype=np.uint8), on_deliver=hits.append)
    env.run()
    assert hits == []
    assert inj.stats["corrupt_discarded"] == 1


def test_rail_failure_kills_in_flight_and_later_posts():
    env, cluster = make_cluster(jitter=0.0)
    inj = FaultInjector.attach(
        cluster,
        FaultSpec(rail_failures=(RailFailure(time_us=2.0, node=1, rail=0),), seed=4),
    )
    a = cluster.nodes[0].nics[0]
    b0, b1 = cluster.nodes[1].nics[0], cluster.nodes[1].nics[1]
    hits = []
    # In flight when the rail dies at t=2us (latency alone is 1us + serialization).
    a.post_put(b0, 200_000, on_deliver=lambda d: hits.append("dead-rail"))
    # Other rail is unaffected.
    a.post_put(b1, 200_000, on_deliver=lambda d: hits.append("live-rail"))
    env.run()
    assert b0.failed and not b1.failed
    assert hits == ["live-rail"]
    assert inj.stats["killed_in_flight"] == 1
    # Posting on the dead rail after the failure delivers nothing.
    a.post_put(b0, 64, on_deliver=lambda d: hits.append("late"))
    env.run()
    assert hits == ["live-rail"]
    assert inj.stats["posts_on_dead_rail"] == 1


def test_cq_stall_withholds_records():
    env, cluster = make_cluster(jitter=0.0)
    FaultInjector.attach(
        cluster,
        FaultSpec(cq_stalls=(CqStall(time_us=0.0, duration_us=50.0, node=1, rail=0),),
                  seed=5),
    )
    from repro.netsim import CompletionRecord

    a = cluster.nodes[0].nics[0]
    b = cluster.nodes[1].nics[0]
    rec = CompletionRecord(kind="put_remote", custom=7)
    a.post_put(b, 4096, remote_record=rec)
    env.run(until=10.0 * US)
    assert len(b.cq) == 1  # the record landed...
    assert b.cq.poll() is None  # ...but the stalled CQ won't serve it
    assert b.cq.poll_batch() == []
    env.run(until=60.0 * US)
    assert not b.cq.is_stalled
    out = b.cq.poll()
    assert out is not None and out.kind == "put_remote" and out.custom == 7


def test_ordered_traffic_exempt_by_default():
    env, cluster = make_cluster(jitter=0.0)
    inj = FaultInjector.attach(cluster, FaultSpec(drop=1.0, seed=6))
    hits = []
    a, b = cluster.nodes[0].nics[0], cluster.nodes[1].nics[0]
    a.post_put(b, 4096, on_deliver=lambda d: hits.append("ordered"), ordered=True)
    env.run()
    assert hits == ["ordered"]  # the reliable lane ignores the schedule
    assert inj.stats["fragments_seen"] == 0


def test_fault_ordered_opt_in():
    env, cluster = make_cluster(jitter=0.0)
    FaultInjector.attach(cluster, FaultSpec(drop=1.0, fault_ordered=True, seed=6))
    hits = []
    a, b = cluster.nodes[0].nics[0], cluster.nodes[1].nics[0]
    a.post_put(b, 4096, on_deliver=lambda d: hits.append("ordered"), ordered=True)
    env.run()
    assert hits == []


def test_partition_drops_ordered_lane_between_sets_only():
    # During the window, ordered (control-lane) frames crossing the cut
    # are dropped; unordered (data-rail) frames and intra-set ordered
    # frames pass.  After the heal, cross-set control traffic resumes.
    env, cluster = make_cluster(n_nodes=4)
    inj = FaultInjector.attach(cluster, FaultSpec(
        partitions=(Partition(time_us=10.0, duration_us=100.0,
                              a=(0, 1), b=(2, 3)),),
    ))
    hits = []

    def post(t_us, src, dst, label, ordered):
        def proc():
            yield env.timeout(t_us * US)
            cluster.nodes[src].nics[0].post_put(
                cluster.nodes[dst].nics[0], 256,
                on_deliver=lambda d: hits.append(label), ordered=ordered,
            )
        env.process(proc())

    post(20.0, 0, 2, "cut-ordered", True)     # dropped: crosses the cut
    post(20.0, 2, 0, "cut-reverse", True)     # dropped: cut is symmetric
    post(20.0, 0, 1, "intra-ordered", True)   # same side: passes
    post(20.0, 0, 2, "cut-data", False)       # data rail: passes
    post(150.0, 0, 2, "healed-ordered", True)  # after heal: passes
    env.run()
    assert sorted(hits) == ["cut-data", "healed-ordered", "intra-ordered"]
    assert inj.stats["partition_dropped"] == 2
    assert inj.stats["partitions"] == 1
    assert inj.stats["partitions_healed"] == 1


def test_partition_validates():
    with pytest.raises(ValueError, match="duration"):
        Partition(time_us=1.0, duration_us=0.0, a=(0,), b=(1,))
    with pytest.raises(ValueError, match="both node sets"):
        Partition(time_us=1.0, duration_us=5.0, a=(0,), b=())
    with pytest.raises(ValueError, match="overlap"):
        Partition(time_us=1.0, duration_us=5.0, a=(0, 1), b=(1, 2))


def test_spec_parse_partition_token():
    spec = FaultSpec.parse("partition@t=40:dur=100:a=0+1:b=2+3")
    assert spec.partitions == (
        Partition(time_us=40.0, duration_us=100.0, a=(0, 1), b=(2, 3)),
    )
    assert not spec.is_noop


def test_spec_parse_roundtrip():
    spec = FaultSpec.parse(
        "drop=0.3, dup=0.1, reorder=0.2, reorder_us=4.5, corrupt=0.05,"
        "rail_fail@t=5.0, rail_fail@t=9:node=1:rail=0,"
        "cq_stall@t=3:dur=10:node=0, seed=0xBEEF, ordered=1"
    )
    assert spec.drop == 0.3 and spec.duplicate == 0.1
    assert spec.reorder == 0.2 and spec.reorder_us == 4.5
    assert spec.corrupt == 0.05
    assert spec.fault_ordered is True
    assert spec.seed == 0xBEEF
    assert spec.rail_failures == (
        RailFailure(time_us=5.0),
        RailFailure(time_us=9.0, node=1, rail=0),
    )
    assert spec.cq_stalls == (CqStall(time_us=3.0, duration_us=10.0, node=0),)


@pytest.mark.parametrize("bad", [
    "drop",                      # no value
    "drop=2.0",                  # not a probability
    "unknown=1",                 # unknown key
    "rail_fail@node=1",          # missing t
    "cq_stall@t=3",              # missing dur
    "rail_fail@t=1:bogus=2",     # unknown option
    "partition@t=1:a=0:b=1",     # missing dur
    "partition@t=1:dur=5:a=0",   # missing set b
    "partition@t=1:dur=5:a=0:b=0",   # overlapping sets
    "partition@t=1:dur=5:a=0:b=1:x=2",  # unknown option
    "link_flap@t=1:down=2:n=0",  # zero flaps, as LinkFlap(n_flaps=0) rejects
    "corrupt=0.2,crc=0",  # corruption is always a CRC discard
])
def test_spec_parse_rejects(bad):
    with pytest.raises(ValueError):
        FaultSpec.parse(bad)


@pytest.mark.parametrize("bad, match", [
    # parse time: a time before the run, a stall that never stalls
    ("rail_fail@t=-5", r"'rail_fail@t=-5': t=-5.0 must be >= 0"),
    ("node_crash@t=-1", r"'node_crash@t=-1': t=-1.0 must be >= 0"),
    ("cq_stall@t=5:dur=-1", r"'cq_stall@t=5:dur=-1': cq_stall duration_us=-1.0"),
    ("cq_stall@t=5:dur=0", r"'cq_stall@t=5:dur=0': cq_stall duration_us=0.0"),
    # attach time: pins the 2-node, 2-rail cluster does not have
    ("rail_fail@t=5:node=0:rail=7", r"rail_fail rail=7: the cluster's nodes have 2 rails"),
    ("rail_fail@t=5:rail=-1", r"rail_fail rail=-1: the cluster's nodes have 2 rails"),
    ("link_flap@t=5:down=2:rail=2", r"link_flap rail=2: .* 2 rails"),
    ("node_crash@t=5:node=9", r"node_crash node=9: the cluster has 2 nodes"),
    ("cq_stall@t=5:dur=3:node=-1", r"cq_stall node=-1: the cluster has 2 nodes"),
    ("partition@t=1:dur=5:a=0:b=9", r"partition b=9: the cluster has 2 nodes"),
])
def test_fault_grammar_rejects_what_it_cannot_mean(bad, match):
    """No wrapping, clamping or silent no-op: a schedule either means
    something on this cluster or is a ValueError naming the token."""
    env, cluster = make_cluster()
    with pytest.raises(ValueError, match=match):
        FaultInjector.attach(cluster, FaultSpec.parse(bad))


def test_parse_seed_argument_vs_token():
    assert FaultSpec.parse("drop=0.1", seed=42).seed == 42
    # An explicit seed token wins over the argument.
    assert FaultSpec.parse("drop=0.1,seed=7", seed=42).seed == 7


#: every event token plus drop/dup/reorder; rail_fail draws both its
#: node and its rail, cq_stall and link_flap draw a rail.
PIN_SCHEDULE = (
    "drop=0.1,dup=0.1,reorder=0.2,"
    "rail_fail@t=30,"
    "cq_stall@t=20:dur=15:node=1,"
    "node_crash@t=50:node=3,"
    "endpoint_down@t=150.1:dur=100.3:node=1,"
    "link_flap@t=10.1:down=5.3:n=2:node=0,"
    "partition@t=5.3:dur=100.7:a=0+1:b=2+3"
)
PIN_DIGEST = "a3bf707a64dfd4a83e35f352511d3b18791f3cc50741305c43a4fd7691084d02"


def test_full_schedule_replays_to_pinned_digest():
    """The injector's replay contract in one number: node/rail draws,
    timeout order and delays, stats and ``fault.*`` markers, and the
    fate of every fragment of a producer→consumer stream on 4 TH-XY
    nodes with reliability and health armed, then of a raw GET burst."""
    import hashlib

    from repro.bench.stream import _producer_consumer
    from repro.core import Unr
    from repro.netsim import CompletionRecord
    from repro.platforms import get_platform, make_job

    job = make_job("th-xy", 4, seed=2024)
    inj = FaultInjector.attach(job.cluster, FaultSpec.parse(PIN_SCHEDULE, seed=3))
    rec = Recorder.attach(job.cluster)
    unr = Unr(job, get_platform("th-xy").channel, reliability=True, health=True)
    out = _producer_consumer(unr, job, size=64 * 1024, iters=32, ranks=[0, 1])
    assert out["correct"] == 32
    env, (n0, n1) = job.env, job.cluster.nodes[:2]
    got = []
    for i in range(32):
        n0.nics[i % 2].post_get(
            n1.nics[i % 2], 4096, fetch=lambda i=i: i,
            on_deliver=lambda d: got.append((float(env.now), d)),
            local_record=CompletionRecord(kind="get_local", custom=i),
            remote_record=CompletionRecord(kind="get_remote", custom=i),
        )
    env.run()
    assert got
    markers = [
        (repr(ev.t), ev.name, sorted(ev.args.items()))
        for ev in rec.events if ev.name.startswith("fault.")
    ]
    # The progress engine drains every CQ; count what was pushed.
    cq_pushes = [nic.cq.n_pushed
                 for node in job.cluster.materialized_nodes() for nic in node.nics]
    blob = repr((transfer_fingerprint(rec.transfers), sorted(inj.stats.items()),
                 markers, got, cq_pushes))
    assert hashlib.sha256(blob.encode()).hexdigest() == PIN_DIGEST, blob


def test_cluster_inject_faults_convenience():
    env, cluster = make_cluster()
    inj = cluster.inject_faults("drop=0.5,seed=3")
    assert isinstance(inj, FaultInjector)
    assert inj.spec.drop == 0.5


def _reliable_pingpong(faults, iters=50, landed=None):
    """An 8 B notified PUT ping-pong with reliability armed, under
    ``faults`` (None: no injector); ``landed`` collects each remote
    record's fields as the progress engine dispatches it.  Returns the
    record pool's accounting."""
    job = make_job("th-xy", 2, seed=3)
    if faults is not None:
        FaultInjector.attach(job.cluster, FaultSpec.parse(faults, seed=5))
    unr = Unr(job, "glex", reliability=True)
    if landed is not None:
        for eng in unr.engines:
            def spy(node, rec, _handle=eng.handlers["put_remote"]):
                landed.append((rec.kind, rec.custom, rec.payload, rec.token))
                _handle(node, rec)
            eng.register("put_remote", spy)

    def program(ctx):
        ep = unr.endpoint(ctx.rank)
        sig = ep.sig_init(1)
        blk = ep.blk_init(ep.mem_reg(np.zeros(8, dtype=np.uint8)), 0, 8, signal=sig)
        rmt = yield from ep.exchange_blk(1 - ctx.rank, blk)
        for _ in range(iters):
            if ctx.rank == 0:
                ep.put(blk, rmt, local_signal=None)
            yield from ep.sig_wait(sig)
            ep.sig_reset(sig)
            if ctx.rank == 1:
                ep.put(blk, rmt, local_signal=None)

    run_job(job, program)
    return record_pool_stats()


def test_attached_injector_leaves_the_record_pool_recycling():
    """A fault-free schedule lands each pool-owned remote record itself,
    so dispatch recycles it exactly as without an injector."""
    clean = _reliable_pingpong(None)
    assert clean["recycled"] == 100 and clean["misses"] == 1
    assert _reliable_pingpong("drop=0,dup=0") == clean


def test_duplicated_record_lands_whole_both_times():
    """Under dup=1.0 the first landing is a copy and the last the
    original, so neither reads a record dispatch already recycled."""
    landed = []
    _reliable_pingpong("dup=1.0", landed=landed)
    assert len(landed) == 200
    by_token = {}
    for kind, custom, payload, token in landed:
        assert token is not None
        by_token.setdefault(token, []).append((kind, custom, payload))
    assert len(by_token) == 100
    assert all(len(pair) == 2 and pair[0] == pair[1] and pair[0][0] == "put_remote"
               for pair in by_token.values())
