"""Seeded mutation corpus for unrverify.

Each mutant is a deliberately broken variant of a golden-corpus
workload (latency/stream/powerllel shapes) carrying exactly one
ordering bug, plus the verifier rule that must catch it.  ``repro
verify --corpus mutants`` (and CI) runs every mutant and fails unless
**all** of them are flagged with their expected rule — the corpus is
the proof that the checker detects real violations, the complement of
the 16 golden scenarios proving zero false positives.

Each mutant but ``tampered_trace`` runs a tiny two-rank job on
``th-xy`` with observation armed; every one feeds its recorder to
:func:`repro.analysis.verify.verify_recorder`.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Any, Callable, Dict, Generator, List, Tuple

import numpy as np

from ..units import US

__all__ = ["Mutant", "MUTANTS", "MutantOutcome", "run_mutant", "run_all_mutants"]

_NBYTES = 4096
_LINGER = 2000 * US  # outlive every in-flight delivery before exiting


@dataclass(frozen=True)
class Mutant:
    """One seeded bug: a name, what it breaks, and the rule that must fire."""

    name: str
    expect: Tuple[str, ...]
    description: str


@dataclass
class MutantOutcome:
    name: str
    expect: Tuple[str, ...]
    got: Tuple[str, ...]

    @property
    def flagged(self) -> bool:
        return any(rule in self.got for rule in self.expect)


# -- the buggy programs --------------------------------------------------------


def _run_program(program_factory: Callable[[Any], Any]) -> Any:
    """Two ranks on th-xy, observation armed; returns the recorder."""
    from ..core import Unr
    from ..obs import Recorder
    from ..platforms import get_platform, make_job
    from ..runtime import run_job

    plat = get_platform("th-xy")
    job = make_job("th-xy", 2, seed=0xC0FFEE)
    recorder = Recorder.attach(job.cluster)
    unr = Unr(job, plat.channel, observe=recorder)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        run_job(job, program_factory(unr))
    return recorder


def _mutant_unawaited_notification() -> Any:
    """The producer notifies; the consumer never calls sig_wait (VER003)."""

    def factory(unr: Any) -> Any:
        def program(ctx: Any) -> Generator[Any, Any, None]:
            ep = unr.endpoint(ctx.rank)
            buf = np.zeros(_NBYTES, dtype=np.uint8)
            mr = ep.mem_reg(buf)
            if ctx.rank == 0:
                blk = ep.blk_init(mr, 0, _NBYTES)
                rmt = yield from ep.recv_ctl(1, tag="addr")
                ep.put(blk, rmt)
                yield ctx.env.timeout(_LINGER)
            else:
                sig = ep.sig_init(1)
                blk = ep.blk_init(mr, 0, _NBYTES, signal=sig)
                yield from ep.send_ctl(0, blk, tag="addr")
                yield ctx.env.timeout(_LINGER)  # BUG: no sig_wait

        return program

    return _run_program(factory)


def _mutant_racy_overlapping_puts() -> Any:
    """Two back-to-back PUTs into the same interval, no ordering (VER001)."""

    def factory(unr: Any) -> Any:
        def program(ctx: Any) -> Generator[Any, Any, None]:
            ep = unr.endpoint(ctx.rank)
            buf = np.zeros(_NBYTES, dtype=np.uint8)
            mr = ep.mem_reg(buf)
            if ctx.rank == 0:
                blk = ep.blk_init(mr, 0, _NBYTES)
                rmt = yield from ep.recv_ctl(1, tag="addr")
                ep.put(blk, rmt)
                ep.put(blk, rmt)  # BUG: no wait/credit between overlapping writes
                yield ctx.env.timeout(_LINGER)
            else:
                sig = ep.sig_init(2)
                blk = ep.blk_init(mr, 0, _NBYTES, signal=sig)
                yield from ep.send_ctl(0, blk, tag="addr")
                yield from ep.sig_wait(sig)

        return program

    return _run_program(factory)


def _mutant_read_before_notify() -> Any:
    """The consumer re-posts *from* its landing buffer before the
    guarding sig_wait (VER002)."""

    def factory(unr: Any) -> Any:
        def program(ctx: Any) -> Generator[Any, Any, None]:
            ep = unr.endpoint(ctx.rank)
            buf = np.zeros(_NBYTES, dtype=np.uint8)
            mr = ep.mem_reg(buf)
            if ctx.rank == 0:
                scratch = ep.blk_init(mr, 0, _NBYTES)
                yield from ep.send_ctl(1, scratch, tag="scratch")
                rmt = yield from ep.recv_ctl(1, tag="addr")
                blk = ep.blk_init(mr, 0, _NBYTES)
                ep.put(blk, rmt)
                yield ctx.env.timeout(_LINGER)
            else:
                sig = ep.sig_init(1)
                recv_blk = ep.blk_init(mr, 0, _NBYTES, signal=sig)
                yield from ep.send_ctl(0, recv_blk, tag="addr")
                scratch = yield from ep.recv_ctl(0, tag="scratch")
                # BUG: reads the landing buffer before the notification
                ep.put(recv_blk, scratch, remote_sid=None, local_signal=None)
                yield from ep.sig_wait(sig)
                yield ctx.env.timeout(_LINGER)

        return program

    return _run_program(factory)


def _mutant_credit_skip_stream() -> Any:
    """The stream producer drops the credit round-trip: local completion
    is mistaken for remote delivery, so iteration N+1's write races
    iteration N's (VER001)."""

    def factory(unr: Any) -> Any:
        def program(ctx: Any) -> Generator[Any, Any, None]:
            ep = unr.endpoint(ctx.rank)
            buf = np.zeros(_NBYTES, dtype=np.uint8)
            mr = ep.mem_reg(buf)
            if ctx.rank == 0:
                local = ep.sig_init(1)
                blk = ep.blk_init(mr, 0, _NBYTES)
                rmt = yield from ep.recv_ctl(1, tag="addr")
                for _ in range(2):
                    ep.put(blk, rmt, local_signal=local)
                    # BUG: waits only for *source reuse*, never for the
                    # consumer's credit — remote writes are unordered.
                    yield from ep.sig_wait(local)
                    ep.sig_reset(local)
                yield ctx.env.timeout(_LINGER)
            else:
                sig = ep.sig_init(1)
                blk = ep.blk_init(mr, 0, _NBYTES, signal=sig)
                yield from ep.send_ctl(0, blk, tag="addr")
                for _ in range(2):
                    yield from ep.sig_wait(sig)
                    ep.sig_reset(sig)

        return program

    return _run_program(factory)


def _mutant_plan_replay_no_rearm() -> Any:
    """A recorded plan replayed twice with no wait between the starts:
    the second replay overwrites what the first delivered (VER001)."""

    def factory(unr: Any) -> Any:
        def program(ctx: Any) -> Generator[Any, Any, None]:
            ep = unr.endpoint(ctx.rank)
            buf = np.zeros(_NBYTES, dtype=np.uint8)
            mr = ep.mem_reg(buf)
            if ctx.rank == 0:
                blk = ep.blk_init(mr, 0, _NBYTES)
                rmt = yield from ep.recv_ctl(1, tag="addr")
                plan = ep.plan().record_put(blk, rmt)
                plan.start()
                plan.start()  # BUG: no wait or re-arm between replays
                yield ctx.env.timeout(_LINGER)
            else:
                sig = ep.sig_init(2)
                blk = ep.blk_init(mr, 0, _NBYTES, signal=sig)
                yield from ep.send_ctl(0, blk, tag="addr")
                yield from ep.sig_wait(sig)

        return program

    return _run_program(factory)


def _mutant_free_then_post() -> Any:
    """The producer PUTs after the consumer freed the guarding signal:
    the notification lands on an unregistered sid (VER003)."""

    def factory(unr: Any) -> Any:
        def program(ctx: Any) -> Generator[Any, Any, None]:
            ep = unr.endpoint(ctx.rank)
            buf = np.zeros(_NBYTES, dtype=np.uint8)
            mr = ep.mem_reg(buf)
            if ctx.rank == 0:
                blk = ep.blk_init(mr, 0, _NBYTES)
                rmt = yield from ep.recv_ctl(1, tag="addr")
                yield from ep.recv_ctl(1, tag="freed")
                ep.put(blk, rmt)  # BUG: the target signal is gone
                yield ctx.env.timeout(_LINGER)
            else:
                sig = ep.sig_init(1)
                blk = ep.blk_init(mr, 0, _NBYTES, signal=sig)
                yield from ep.send_ctl(0, blk, tag="addr")
                ep.sig_free(sig)
                yield from ep.send_ctl(0, None, tag="freed")
                yield ctx.env.timeout(_LINGER)

        return program

    return _run_program(factory)


def _mutant_tampered_trace() -> Any:
    """A clean run whose trace is then corrupted: one delivery stamped
    before its post (VER004 — the nondeterminism/corruption detector)."""
    from ..bench.fingerprints import run_schedule_observed

    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        _, recorder = run_schedule_observed("th-xy", "latency")
    for op in recorder.ops:
        if op.deliver_time is not None:
            op.deliver_time = op.post_time - 1.0
            break
    return recorder


_RUNNERS: Dict[str, Callable[[], Any]] = {
    "unawaited_notification": _mutant_unawaited_notification,
    "racy_overlapping_puts": _mutant_racy_overlapping_puts,
    "read_before_notify": _mutant_read_before_notify,
    "credit_skip_stream": _mutant_credit_skip_stream,
    "plan_replay_no_rearm": _mutant_plan_replay_no_rearm,
    "free_then_post": _mutant_free_then_post,
    "tampered_trace": _mutant_tampered_trace,
}


MUTANTS: Dict[str, Mutant] = {
    m.name: m
    for m in (
        Mutant(
            "unawaited_notification", ("VER003",),
            "a PUT's arrival notification is applied but never awaited",
        ),
        Mutant(
            "racy_overlapping_puts", ("VER001",),
            "two unordered PUTs overlap the same MR interval",
        ),
        Mutant(
            "read_before_notify", ("VER002",),
            "the landing buffer is read before the guarding sig_wait",
        ),
        Mutant(
            "credit_skip_stream", ("VER001",),
            "stream without credits: local completion mistaken for delivery",
        ),
        Mutant(
            "plan_replay_no_rearm", ("VER001",),
            "plan replayed twice with no wait or re-arm between the starts",
        ),
        Mutant(
            "free_then_post", ("VER003",),
            "posting after the guarding signal was freed",
        ),
        Mutant(
            "tampered_trace", ("VER004",),
            "trace corruption: delivery stamped before its post",
        ),
    )
}


def run_mutant(name: str) -> MutantOutcome:
    """Run one mutant; returns what fired vs what was expected."""
    from .verify import verify_recorder

    report = verify_recorder(_RUNNERS[name](), origin=f"mutant/{name}")
    got = tuple(sorted({f.rule for f in report.findings}))
    return MutantOutcome(name=name, expect=MUTANTS[name].expect, got=got)


def run_all_mutants() -> List[MutantOutcome]:
    """Run the whole corpus in deterministic (name) order."""
    return [run_mutant(name) for name in sorted(MUTANTS)]
