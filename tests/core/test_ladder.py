"""The reliability ladder alone: no cluster, no netsim.

:class:`~repro.core.reliability.ReliableDelivery` runs on a real
:class:`~repro.sim.Environment` against doubles of what it reads: a
two-node, two-rail job whose NICs carry only ``failed`` flags and one
spec for the timeout estimate, and an engine whose ``_attempt`` records
each ``(target, attempt)`` and lets the test deliver, drop or deliver
twice.  The end-to-end tests of the same ladder over a faulted fabric
are in ``test_reliability.py`` and ``test_health.py``.
"""

from collections import Counter
from types import SimpleNamespace

import numpy as np
import pytest

from repro.core import FALLBACK_RAIL, HealthMonitor, UnrPeerDeadError, UnrTimeoutError
from repro.core.engine import StripePlan, TransferOp
from repro.core.reliability import MAX_RETRIES, ReliableDelivery
from repro.interconnect import MpiFallbackConfig
from repro.sim import Environment
from repro.units import US

SIZE = 4096
#: (node, sid, addend) of the fragment's remote notification
REMOTE_SIG = (1, 7, 1)


class NicDouble:
    """One rail's NIC: a ``failed`` flag and the spec every NIC shares
    (the ladder's timeout estimate reads the source's)."""

    msg_overhead = 0.5 * US
    latency = 1.0 * US
    bandwidth = 12.5e9
    rx_overhead = 0.5 * US

    def __init__(self):
        self.failed = False


class NodeDouble:
    def __init__(self, index):
        self.index = index
        self.nics = [NicDouble(), NicDouble()]
        self.crashed = False

    @property
    def n_rails(self):
        return len(self.nics)


class JobDouble:
    """Two ranks, one per node, two rails each."""

    def __init__(self):
        self.nodes = [NodeDouble(0), NodeDouble(1)]

    def node_of(self, rank):
        return self.nodes[rank]

    def nic_of(self, rank, rail=0):
        return self.nodes[rank].nics[rail]


class UnrDouble:
    """What the ladder and the health monitor read of ``Unr``."""

    def __init__(self, env, job, health):
        self.env = env
        self.job = job
        self.stats = Counter()
        self.obs = None
        self.adds = []
        self.health = HealthMonitor(self) if health else None

    def _apply_add(self, node, sid, addend, token=None):
        self.adds.append((node, sid, addend, token))

    def _fallback(self):
        return SimpleNamespace(config=MpiFallbackConfig())

    def _signal_at(self, node, sid):
        return None  # no frame waits: a give-up raises through the kernel


class EngineDouble:
    """Stands in for the engine's ``_attempt``: records ``(target,
    attempt)`` per wire attempt and does what ``script(target, attempt)``
    says — ``"deliver"``, ``"drop"`` or ``"dup"`` (deliver, then a
    replica carrying other bytes)."""

    def __init__(self, unr, script):
        self.unr = unr
        self.on_post = None
        self.script = script
        self.posts = []

    def _attempt(self, op, sp, payload, deliver, rtok, ltok, rail):
        attempt = len(self.posts)
        self.posts.append((rail, attempt))
        action = self.script(rail, attempt)
        env = self.unr.env
        if action in ("deliver", "dup"):
            env.defer(1.0 * US, deliver, payload)
        if action == "dup":
            env.defer(2.0 * US, deliver, payload + 1)
        return None


def make_ladder(script, *, health=False):
    env = Environment()
    job = JobDouble()
    unr = UnrDouble(env, job, health)
    engine = EngineDouble(unr, script)
    return env, job, unr, engine, ReliableDelivery(engine)


def put_fragment():
    """A reliable one-fragment 4 KiB PUT from rank 0 to rank 1 on rail 0,
    with its destination view and its payload snapshot."""
    view = np.zeros(SIZE, dtype=np.uint8)
    sp = StripePlan(0, 0, 0, SIZE, view=view, remote_sig=REMOTE_SIG)
    op = TransferOp(kind="put", src_rank=0, dst_rank=1, src_node=0, dst_node=1,
                    nbytes=SIZE, reliable=True, stripes=(sp,))
    payload = np.full(SIZE, 5, dtype=np.uint8)
    return op, sp, payload, view


def test_delivery_retires_the_fragment():
    env, _, unr, engine, ladder = make_ladder(lambda rail, attempt: "deliver")
    op, sp, payload, view = put_fragment()
    ladder.post(op, sp, payload, 1, None)
    assert len(ladder._inflight) == 1
    env.run()
    assert engine.posts == [(0, 0)]
    assert not ladder._inflight
    assert (view == 5).all()
    assert unr.stats["retransmits"] == unr.stats["recovered_ops"] == 0


def test_duplicate_delivery_writes_once_and_counts_one_recovery():
    """The first attempt is lost; the retransmit arrives twice, the
    replica with other bytes: the view keeps the first write."""
    env, _, unr, engine, ladder = make_ladder(
        lambda rail, attempt: "drop" if attempt == 0 else "dup")
    op, sp, payload, view = put_fragment()
    ladder.post(op, sp, payload, 1, None)
    env.run()
    assert engine.posts == [(0, 0), (1, 1)]  # the retransmit moves to the next rail
    assert (view == 5).all()
    assert unr.stats["retransmits"] == unr.stats["recovered_ops"] == 1
    assert not ladder._inflight


def test_failed_rail_fails_over():
    env, job, _, engine, ladder = make_ladder(lambda rail, attempt: "deliver")
    job.nic_of(1, 0).failed = True
    op, sp, payload, view = put_fragment()
    ladder.post(op, sp, payload, 1, None)
    env.run()
    assert engine.posts == [(1, 0)]
    assert ladder.n_failovers == 1
    assert (view == 5).all() and not ladder._inflight


def test_give_up_after_max_retries():
    """Every attempt lost: MAX_RETRIES retransmits alternating the two
    rails, the timeout doubling from its 25 us floor up to the 2000 us
    ceiling, then UnrTimeoutError with the whole ladder in its context."""
    env, _, unr, engine, ladder = make_ladder(lambda rail, attempt: "drop")
    op, sp, payload, _ = put_fragment()
    ladder.post(op, sp, payload, 1, None)
    with pytest.raises(UnrTimeoutError, match=f"no delivery after {MAX_RETRIES} retransmits"
                       ) as excinfo:
        env.run()
    assert type(excinfo.value) is UnrTimeoutError
    ctx = excinfo.value.context
    assert [label for label, _ in ctx.attempts] == ["rail0", "rail1"] * 5 + ["rail0"]
    assert [t for _, t in ctx.attempts] == pytest.approx(
        [0, 25, 75, 175, 375, 775, 1575, 3175, 5175, 7175, 9175])
    assert not ctx.degraded
    assert engine.posts == [(i % 2, i) for i in range(1 + MAX_RETRIES)]
    assert unr.stats["retransmits"] == MAX_RETRIES
    assert unr.stats["reliability_failures"] == 1
    assert len(ladder._inflight) == 1  # left for a drain


def test_health_degrades_to_fallback_then_peer_dead():
    """Rail 0 is dead at post, rail 1 dies with the first attempt: the
    fragment degrades to the fallback lane; that attempt is lost with the
    peer's crash, so the ladder raises UnrPeerDeadError, and a drain
    discharges the notification the dead peer owes."""

    def script(rail, attempt):  # reads ``job``, bound below before any attempt
        if rail == FALLBACK_RAIL:
            job.nodes[1].crashed = True
        else:
            job.nic_of(1, rail).failed = True
        return "drop"

    env, job, unr, engine, ladder = make_ladder(script, health=True)
    job.nic_of(1, 0).failed = True
    op, sp, payload, _ = put_fragment()
    ladder.post(op, sp, payload, 1, None)
    with pytest.raises(UnrPeerDeadError) as excinfo:
        env.run()
    assert engine.posts == [(1, 0), (FALLBACK_RAIL, 1)]
    ctx = excinfo.value.context
    assert [label for label, _ in ctx.attempts] == ["rail1", "fallback"]
    assert [t for _, t in ctx.attempts] == pytest.approx([0, 25])
    assert ctx.degraded
    assert unr.stats["degraded_ops"] == unr.stats["retransmits"] == 1
    assert ladder.drain(1) == 1
    assert unr.adds == [(*REMOTE_SIG, 1)]
    assert not ladder._inflight and unr.stats["drained_fragments"] == 1
