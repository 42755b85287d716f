"""Differential tests: CalendarScheduler must be pop-for-pop identical
to the reference HeapScheduler.

The kernel keys every entry with a unique ``(time, phase, seq)`` tuple,
so the scheduler contract is an exact total order — not merely "sorted
by time".  The Hypothesis drive below interleaves pushes and pops the
way the kernel does (new entries never land before ``now``), across
delay magnitudes chosen to exercise every calendar-queue regime:
delay-0 cascades into the day being drained, sub-width packing, exact
bucket boundaries, and far-future days.  The golden-corpus test then
pins the other direction: swapping the kernel back onto the reference
heap must leave all wire fingerprints bit-identical.
"""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.sim.core as sim_core
from repro.bench.fingerprints import (
    GOLDEN_PATH,
    compare_corpus,
    run_schedule,
    run_schedule_observed,
)
from repro.sim import Environment, InFlight, Interrupt, SimulationError
from repro.sim.scheduler import (
    DEFAULT_BUCKET_WIDTH,
    CalendarScheduler,
    HeapScheduler,
)

REPO_GOLDEN = GOLDEN_PATH

# Delays spanning the interesting calendar regimes (seconds): zero,
# sub-width, exactly one width, a few widths, and far future.
DELAYS = [0.0, 1e-9, 2.5e-7, 1e-6, 3.3e-6, 1e-3]

ops_strategy = st.lists(
    st.tuples(
        st.sampled_from(DELAYS),      # delay from current time
        st.booleans(),                # priority (phase 0) push?
        st.integers(min_value=0, max_value=3),  # pops after the push
    ),
    min_size=1,
    max_size=200,
)


def drive(sched, ops):
    """Kernel-shaped drive: push at now+delay, pop advancing now."""
    log = []
    now = 0.0
    seq = 0
    for delay, priority, npops in ops:
        seq += 1
        sched.push((now + delay, 0 if priority else 1, seq, f"ev{seq}"))
        for _ in range(npops):
            if not sched:
                break
            log.append(("peek", sched.peek_time()))
            entry = sched.pop()
            now = entry[0]
            log.append(entry)
    # Drain whatever is left, logging peeks too.
    while sched:
        log.append(("peek", sched.peek_time()))
        log.append(sched.pop())
    log.append(("empty-peek", sched.peek_time()))
    return log


@settings(max_examples=300, deadline=None)
@given(ops=ops_strategy)
def test_calendar_matches_heap_pop_for_pop(ops):
    assert drive(CalendarScheduler(), ops) == drive(HeapScheduler(), ops)


@settings(max_examples=100, deadline=None)
@given(
    ops=ops_strategy,
    width=st.sampled_from([1e-9, 1e-7, DEFAULT_BUCKET_WIDTH, 1e-3, 10.0]),
)
def test_calendar_matches_heap_for_any_width(ops, width):
    # Degenerate widths (everything in one day / every entry its own
    # day) must degrade performance only, never order.
    assert drive(CalendarScheduler(width), ops) == drive(HeapScheduler(), ops)


def test_push_earlier_day_between_runs():
    # After a drain past day N, a top-level push can land on an earlier
    # day than the promoted one (env.run(); env.schedule(small delay);
    # env.run()).  The entry must still come out first.
    sched = CalendarScheduler(width=1e-6)
    sched.push((5e-6, 1, 1, "a"))  # day 5
    assert sched.pop()[3] == "a"
    assert sched.peek_time() == float("inf")
    # now=5e-6 in the kernel; a delay-0 push lands on day 5 again while
    # _cur_day is 5 — the "earlier or same day after promotion" path.
    sched.push((5e-6, 1, 2, "b"))
    sched.push((5.2e-6, 1, 3, "c"))  # same day, later time
    sched.push((12e-6, 1, 4, "d"))  # later day
    assert [sched.pop()[3] for _ in range(3)] == ["b", "c", "d"]
    with pytest.raises(IndexError):
        sched.pop()


def test_len_and_bool_track_content():
    sched = CalendarScheduler()
    assert not sched and len(sched) == 0
    for i in range(5):
        sched.push((i * 1e-6, 1, i, None))
    assert len(sched) == 5 and sched
    sched.pop()
    assert len(sched) == 4
    while sched:
        sched.pop()
    assert len(sched) == 0


def test_invalid_width_rejected():
    with pytest.raises(ValueError):
        CalendarScheduler(width=0.0)
    with pytest.raises(ValueError):
        CalendarScheduler(width=-1e-6)


def test_environment_accepts_explicit_scheduler():
    fired = []

    def proc(env):
        yield env.timeout(1.0)
        fired.append(env.now)

    for sched in (HeapScheduler(), CalendarScheduler()):
        env = Environment(scheduler=sched)
        env.process(proc(env))
        env.run()
    assert fired == [1.0, 1.0]


def _log_carried(event):
    event.log.append((event.env.now, event.tag))


class Carried(InFlight):
    """An event carrying its own arguments, the way a wire message does."""

    __slots__ = ("log", "tag")
    handlers = (_log_carried,)


def test_in_flight_event_runs_its_class_handlers_with_its_slots():
    env = Environment()
    log = []
    for delay, tag in ((2.0, "b"), (1.0, "a"), (2.0, "c")):
        event = Carried(env, delay)
        event.log, event.tag = log, tag
    assert event.callbacks is Carried.handlers  # no per-event list
    env.run()
    assert log == [(1.0, "a"), (2.0, "b"), (2.0, "c")]
    assert event.processed and event.ok and event.value is None


@pytest.mark.parametrize("make_sched", [HeapScheduler, CalendarScheduler])
@pytest.mark.parametrize("delay", [float("inf"), float("nan"), -1e-9])
def test_non_finite_or_negative_delay_rejected_by_both(make_sched, delay):
    # The heap used to accept inf/NaN silently (NaN corrupts its order)
    # while the calendar queue died inside push(): same answer now, and
    # nothing half-scheduled is left behind.
    env = Environment(scheduler=make_sched())
    with pytest.raises(SimulationError, match="delay"):
        env.timeout(delay)
    with pytest.raises(SimulationError, match="delay"):
        env.defer(delay, print)
    with pytest.raises(SimulationError, match="delay"):
        Carried(env, delay)
    event = env.event()
    with pytest.raises(SimulationError, match="delay"):
        env._schedule(event, delay=delay)
    assert env.peek() == float("inf")
    event.succeed("still schedulable")
    env.run()
    assert event.processed and env.now == 0.0


# -- whole-kernel differential ------------------------------------------------

program_strategy = st.lists(  # one entry per process: its (delay, action) steps
    st.lists(
        st.tuples(st.sampled_from(DELAYS), st.sampled_from(["wait", "defer", "join", "poke"])),
        min_size=1,
        max_size=12,
    ),
    min_size=1,
    max_size=8,
)


def run_program(sched, program, until):
    """Drive ``Environment.run`` itself: timeouts, deferreds, conditions
    and priority interrupts, stopped once at ``until`` and then drained."""
    env = Environment(scheduler=sched)
    log = []
    procs = []

    def worker(env, tag, steps):
        for delay, action in steps:
            try:
                if action == "join":
                    yield env.all_of([env.timeout(delay), env.timeout(delay / 2)])
                else:
                    yield env.timeout(delay)
                if action == "defer":
                    env.defer(delay, log.append, ("deferred", tag, delay))
                elif action == "poke" and tag != 0 and procs[0].is_alive:
                    procs[0].interrupt(tag)
            except Interrupt as hit:
                log.append((env.now, tag, "interrupted", hit.cause))
            log.append((env.now, tag, action))

    for tag, steps in enumerate(program):
        procs.append(env.process(worker(env, tag, steps)))
    env.run(until=until)
    log.append(("until", env.now, env.peek()))
    env.run()
    log.append(("end", env.now, env.peek()))
    return log


@settings(max_examples=150, deadline=None)
@given(program=program_strategy, until=st.sampled_from([0.0, 1e-6, 3.3e-6, 2e-3]))
def test_environment_run_identical_under_both_schedulers(program, until):
    assert run_program(CalendarScheduler(), program, until) == run_program(
        HeapScheduler(), program, until
    )


# -- corpus-level identity ----------------------------------------------------

def test_golden_corpus_identical_under_reference_heap(monkeypatch):
    """The strongest end-to-end pin: running the full golden corpus with
    the kernel forced back onto the reference heap must reproduce every
    recorded fingerprint — i.e. the calendar queue changed nothing."""
    monkeypatch.setattr(sim_core, "CalendarScheduler", HeapScheduler)
    problems = compare_corpus()
    assert problems == [], "\n".join(problems)


def test_armed_and_disarmed_runs_agree_on_new_kernel():
    # Observation must stay behavior-neutral under the calendar kernel.
    with open(REPO_GOLDEN) as fh:
        corpus = json.load(fh)
    key, golden = sorted(corpus["entries"].items())[0]
    platform, schedule = key.split("/")
    plain = run_schedule(platform, schedule)
    observed, _rec = run_schedule_observed(platform, schedule)
    assert plain == observed == golden
