"""Drivers behind ``repro check``: sanitized demo + violation battery.

Two acceptance surfaces for the UnrSanitizer:

* :func:`sanitized_stream_demo` — the clean producer→consumer stream
  run twice, armed and disarmed.  The armed run must report **zero**
  findings and both runs must produce bit-identical
  :func:`~repro.netsim.trace.transfer_fingerprint` digests (the
  sanitizer is passive: arming it cannot move a single event).
* :func:`sanitizer_selftest` — a battery of deliberately broken
  programs, one per finding kind, asserting the sanitizer actually
  catches what it claims to catch.
"""

from __future__ import annotations

from typing import Any, Dict, Generator, List, Tuple

import numpy as np

from ..core import Blk, Unr, UnrUsageError
from ..interconnect import ChannelError
from ..netsim.trace import transfer_fingerprint
from ..obs import Recorder
from ..platforms import get_platform, make_job
from ..runtime import Job, run_job
from .sanitizer import SanitizerReport

__all__ = ["sanitized_stream_demo", "sanitizer_selftest", "SELFTEST_KINDS"]


def _stream_program(unr: Unr, job: Job, *, size: int, iters: int) -> Dict:
    """Rank 0 streams ``iters`` buffers to rank 1; rank 1 verifies each."""
    out = {"received": 0, "correct": 0}

    def pattern(it: int) -> np.ndarray:
        return ((np.arange(size) * 17 + it * 13) % 251).astype(np.uint8)

    def program(ctx: Any) -> Generator[Any, Any, float]:
        ep = unr.endpoint(ctx.rank)
        if ctx.rank == 0:
            buf = np.zeros(size, dtype=np.uint8)
            mr = ep.mem_reg(buf)
            send_sig = ep.sig_init(1)
            send_blk = ep.blk_init(mr, 0, size, signal=send_sig)
            rmt_blk = yield from ep.recv_ctl(1, tag="addr")
            for it in range(iters):
                buf[:] = pattern(it)
                ep.put(send_blk, rmt_blk)
                yield from ep.sig_wait(send_sig)
                ep.sig_reset(send_sig)
                yield from ep.recv_ctl(1, tag="credit")
        else:
            buf = np.zeros(size, dtype=np.uint8)
            mr = ep.mem_reg(buf)
            recv_sig = ep.sig_init(1)
            recv_blk = ep.blk_init(mr, 0, size, signal=recv_sig)
            yield from ep.send_ctl(0, recv_blk, tag="addr")
            for it in range(iters):
                yield from ep.sig_wait(recv_sig)
                out["received"] += 1
                if np.array_equal(buf, pattern(it)):
                    out["correct"] += 1
                ep.sig_reset(recv_sig)
                yield from ep.send_ctl(0, "go", tag="credit")
        return ctx.env.now

    run_job(job, program)
    return out


def _one_stream_run(
    *, platform: str, size: int, iters: int, seed: int, sanitize: bool
) -> Tuple[str, Dict, Unr]:
    plat = get_platform(platform)
    job = make_job(platform, 2, seed=seed)
    recorder = Recorder.attach(job.cluster)
    unr = Unr(job, plat.channel, sanitize=sanitize)
    result = _stream_program(unr, job, size=size, iters=iters)
    return transfer_fingerprint(recorder.transfers), result, unr


def sanitized_stream_demo(
    *,
    platform: str = "th-xy",
    size: int = 65536,
    iters: int = 4,
    seed: int = 2024,
) -> Dict:
    """Run the stream demo armed and disarmed; compare traces.

    Returns ``report`` (the armed run's finalized
    :class:`SanitizerReport`), ``identical`` (fingerprint equality) and
    ``correct`` (all payloads intact in both runs).
    """
    fp_on, res_on, unr_on = _one_stream_run(
        platform=platform, size=size, iters=iters, seed=seed, sanitize=True
    )
    fp_off, res_off, _ = _one_stream_run(
        platform=platform, size=size, iters=iters, seed=seed, sanitize=False
    )
    report = unr_on.finalize()
    assert report is not None
    return {
        "report": report,
        "identical": fp_on == fp_off,
        "fingerprints": (fp_on, fp_off),
        "correct": res_on["correct"] == iters and res_off["correct"] == iters,
        "iters": iters,
    }


# -- deliberate-violation battery --------------------------------------------

#: finding kinds the self-test must produce, in battery order
SELFTEST_KINDS = (
    "oob",
    "custom-width",
    "leaked-notification",
    "use-after-free",
    "overlap",
    "freed-signal",
)


def _fresh(platform: str) -> Tuple[Unr, Job]:
    plat = get_platform(platform)
    job = make_job(platform, 2, seed=7)
    return Unr(job, plat.channel, sanitize=True), job


def _case_oob(platform: str) -> SanitizerReport:
    """PUT whose destination block runs past the registered region."""
    unr, job = _fresh(platform)
    ep0, ep1 = unr.endpoint(0), unr.endpoint(1)
    src = np.zeros(1024, dtype=np.uint8)
    dst = np.zeros(1024, dtype=np.uint8)
    src_blk = ep0.blk_init(ep0.mem_reg(src), 0, 1024)
    dst_mr = ep1.mem_reg(dst)
    # Hand-built BLK evading blk_init's bounds check — exactly what a
    # stale handle from a resized region looks like.
    rogue = Blk(rank=1, mr_handle=dst_mr.handle, offset=512, size=1024)
    try:
        ep0.put(src_blk, rogue)
    except UnrUsageError:
        pass
    return unr.sanitizer.report


def _case_custom_width(platform: str) -> SanitizerReport:
    """Custom-bit payload wider than the interface budget."""
    unr, _job = _fresh(platform)
    bits = unr.channel.capability.effective_put_remote
    too_wide = 1 << max(bits, 1)
    try:
        unr.channel.put(0, 1, 64, remote_custom=too_wide)
    except ChannelError:
        pass
    return unr.sanitizer.report


def _case_leaked_notification(platform: str) -> SanitizerReport:
    """Receiver arms for two events but only one message is ever sent."""
    unr, job = _fresh(platform)

    def program(ctx: Any) -> Generator[Any, Any, None]:
        ep = unr.endpoint(ctx.rank)
        buf = np.zeros(256, dtype=np.uint8)
        mr = ep.mem_reg(buf)
        if ctx.rank == 1:
            sig = ep.sig_init(2)  # expects 2 events; only 1 will come
            blk = ep.blk_init(mr, 0, 256, signal=sig)
            yield from ep.send_ctl(0, blk, tag="addr")
            yield ctx.env.timeout(1e-3)
        else:
            blk = ep.blk_init(mr, 0, 256)
            rmt = yield from ep.recv_ctl(1, tag="addr")
            ep.put(blk, rmt)
            yield ctx.env.timeout(1e-3)

    run_job(job, program)
    report = unr.finalize()
    assert report is not None
    return report


def _case_use_after_free(platform: str) -> SanitizerReport:
    """Plan started after UNR_Plan_Free."""
    unr, job = _fresh(platform)
    ep0, ep1 = unr.endpoint(0), unr.endpoint(1)
    a = np.zeros(128, dtype=np.uint8)
    b = np.zeros(128, dtype=np.uint8)
    src_blk = ep0.blk_init(ep0.mem_reg(a), 0, 128)
    dst_blk = ep1.blk_init(ep1.mem_reg(b), 0, 128)
    plan = ep0.plan().record_put(src_blk, dst_blk.with_signal(None))
    plan.free()
    try:
        plan.start()
    except UnrUsageError:
        pass
    return unr.sanitizer.report


def _case_overlap(platform: str) -> SanitizerReport:
    """Two registrations over the same backing buffer."""
    unr, _job = _fresh(platform)
    ep = unr.endpoint(0)
    buf = np.zeros(4096, dtype=np.uint8)
    ep.mem_reg(buf)
    ep.mem_reg(buf[1024:3072])
    return unr.sanitizer.report


def _case_freed_signal(platform: str) -> SanitizerReport:
    """PUT notifying a signal id that was already freed."""
    unr, _job = _fresh(platform)
    ep0, ep1 = unr.endpoint(0), unr.endpoint(1)
    a = np.zeros(128, dtype=np.uint8)
    b = np.zeros(128, dtype=np.uint8)
    src_blk = ep0.blk_init(ep0.mem_reg(a), 0, 128)
    sig = ep1.sig_init(1)
    dst_blk = ep1.blk_init(ep1.mem_reg(b), 0, 128, signal=sig)
    ep1.sig_free(sig)
    ep0.put(src_blk, dst_blk)  # dst_blk still names the freed sid
    return unr.sanitizer.report


_CASES = {
    "oob": _case_oob,
    "custom-width": _case_custom_width,
    "leaked-notification": _case_leaked_notification,
    "use-after-free": _case_use_after_free,
    "overlap": _case_overlap,
    "freed-signal": _case_freed_signal,
}


def sanitizer_selftest(platform: str = "th-xy") -> Dict[str, Dict]:
    """Run every deliberate-violation case; returns per-kind verdicts.

    Each entry maps the expected finding kind to ``{"found": bool,
    "findings": [...]}`` where ``findings`` are the formatted findings
    of that kind from the case's report.
    """
    out: Dict[str, Dict] = {}
    for kind in SELFTEST_KINDS:
        report = _CASES[kind](platform)
        matches: List[str] = [f.format() for f in report.by_kind(kind)]
        out[kind] = {"found": bool(matches), "findings": matches}
    return out
