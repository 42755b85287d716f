"""UnrSanitizer acceptance tests: the three headline findings (OOB PUT,
over-width payload, leaked notification), passivity (fingerprint
identity), the Table II width chokepoint, and the self-test battery."""

import numpy as np
import pytest

from repro.analysis import SanitizerReport
from repro.analysis.selfcheck import (
    SELFTEST_KINDS,
    sanitized_stream_demo,
    sanitizer_selftest,
)
from repro.core import Blk, Unr, UnrUsageError
from repro.interconnect import TABLE_II, ChannelError
from repro.interconnect.width import WidthViolation, fit_custom
from repro.platforms import get_platform, make_job
from repro.runtime import run_job

PLATFORM = "th-xy"


def fresh_unr(sanitize=True, n_ranks=2):
    plat = get_platform(PLATFORM)
    job = make_job(PLATFORM, n_ranks, seed=11)
    return Unr(job, plat.channel, sanitize=sanitize), job


# -- acceptance: the three headline findings ----------------------------------

def test_oob_put_is_reported():
    unr, _job = fresh_unr()
    ep0, ep1 = unr.endpoint(0), unr.endpoint(1)
    src = np.zeros(1024, dtype=np.uint8)
    dst = np.zeros(1024, dtype=np.uint8)
    src_blk = ep0.blk_init(ep0.mem_reg(src), 0, 1024)
    dst_mr = ep1.mem_reg(dst)
    rogue = Blk(rank=1, mr_handle=dst_mr.handle, offset=512, size=1024)
    with pytest.raises(UnrUsageError):
        ep0.put(src_blk, rogue)
    oob = unr.sanitizer.report.by_kind("oob")
    assert oob, "OOB PUT must produce an 'oob' finding"
    assert "put" in oob[0].format()


def test_over_width_payload_is_reported_before_truncation():
    unr, _job = fresh_unr()
    bits = unr.channel.capability.effective_put_remote
    with pytest.raises(ChannelError):
        unr.channel.put(0, 1, 64, remote_custom=1 << bits)
    findings = unr.sanitizer.report.by_kind("custom-width")
    assert findings
    assert str(bits) in findings[0].detail


def test_leaked_notification_reported_at_finalize():
    unr, job = fresh_unr()

    def program(ctx):
        ep = unr.endpoint(ctx.rank)
        buf = np.zeros(256, dtype=np.uint8)
        mr = ep.mem_reg(buf)
        if ctx.rank == 1:
            sig = ep.sig_init(2)  # armed for 2 events, only 1 arrives
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
    assert report.by_kind("leaked-notification")


# -- passivity: arming the sanitizer cannot move an event ---------------------

def test_armed_and_disarmed_runs_are_fingerprint_identical():
    demo = sanitized_stream_demo(platform=PLATFORM, size=8192, iters=3, seed=5)
    assert demo["identical"], (
        "sanitizer must be passive; fingerprints diverged: "
        f"{demo['fingerprints']}"
    )
    assert demo["correct"]
    assert len(demo["report"]) == 0  # the clean demo has nothing to report


# -- the Table II width chokepoint --------------------------------------------

@pytest.mark.parametrize("interface", sorted(TABLE_II))
@pytest.mark.parametrize("side", ["put_remote", "put_local", "get_remote", "get_local"])
def test_fit_custom_against_every_table_ii_width(interface, side):
    cap = TABLE_II[interface]
    bits = getattr(cap, f"effective_{side}")
    seen = []
    if bits:
        # The widest payload that fits must pass without touching the
        # observer; one bit more must notify it, then raise.
        widest = (1 << bits) - 1
        assert fit_custom(widest, bits, side, cap.interface, observer=seen.append) == widest
        assert seen == []
    with pytest.raises(ChannelError):
        fit_custom(1 << bits, bits, side, cap.interface, observer=seen.append)
    assert len(seen) == 1
    v = seen[0]
    assert isinstance(v, WidthViolation)
    assert v.bits_available == bits
    assert v.bits_needed == bits + 1
    assert v.interface == cap.interface
    if bits == 0:
        # A zero-bit interface rejects ANY explicit payload, even 0:
        # there is no wire to carry it (None is the "no payload" path).
        with pytest.raises(ChannelError):
            fit_custom(0, bits, side, cap.interface)
        assert "no custom bits" in v.describe()


def test_fit_custom_handles_none_and_negative():
    assert fit_custom(None, 8, "PUT remote", "Glex") == 0
    with pytest.raises(ChannelError):
        fit_custom(-1, 8, "PUT remote", "Glex")


# -- arming surfaces ----------------------------------------------------------

def test_disarmed_by_default():
    unr, _ = fresh_unr(sanitize=False)
    assert unr.sanitizer is None
    assert unr.finalize() is None


def test_finalize_is_idempotent():
    unr, _ = fresh_unr()
    first = unr.finalize()
    assert isinstance(first, SanitizerReport)
    assert unr.finalize() is first


# -- the full battery ---------------------------------------------------------

def test_selftest_catches_every_violation_kind():
    results = sanitizer_selftest(PLATFORM)
    missed = [kind for kind in SELFTEST_KINDS if not results[kind]["found"]]
    assert not missed, f"sanitizer missed: {missed}"


def test_report_formatting_and_counts():
    unr, _ = fresh_unr()
    ep = unr.endpoint(0)
    buf = np.zeros(4096, dtype=np.uint8)
    ep.mem_reg(buf)
    ep.mem_reg(buf[1024:3072])
    report = unr.sanitizer.report
    assert not report.ok
    assert report.counts().get("overlap") == 1
    text = report.format()
    assert "overlap" in text
