"""UnrSanitizer acceptance tests: a direct test for each finding kind
(leaked notification, PUT to a freed signal, overlapping registrations),
the misuses the library itself raises on (reported once, by the
exception, never again by the sanitizer), passivity (fingerprint
identity) and the Table II width chokepoint."""

import numpy as np
import pytest

from repro.analysis import SanitizerReport
from repro.bench.faultdemo import _producer_consumer
from repro.core import Blk, Unr, UnrUsageError
from repro.interconnect import TABLE_II, ChannelError
from repro.interconnect.width import fit_custom
from repro.netsim.trace import transfer_fingerprint
from repro.obs import Recorder
from repro.platforms import get_platform, make_job
from repro.runtime import run_job

PLATFORM = "th-xy"


def fresh_unr(sanitize=True, n_ranks=2):
    plat = get_platform(PLATFORM)
    job = make_job(PLATFORM, n_ranks, seed=11)
    return Unr(job, plat.channel, sanitize=sanitize), job


# -- misuse the library raises on: one report, the exception ---------------

def assert_raised_once(error, arm):
    """``arm(unr)`` sets up one misuse and returns it; the misuse raises
    ``error`` with the sanitizer armed and disarmed, and the armed
    sanitizer records nothing for it."""
    for sanitize in (True, False):
        unr, _job = fresh_unr(sanitize=sanitize)
        misuse = arm(unr)
        with pytest.raises(error):
            misuse()
        if sanitize:
            assert unr.finalize().findings == []


def blocks(unr, nbytes=1024):
    ep0, ep1 = unr.endpoint(0), unr.endpoint(1)
    src_blk = ep0.blk_init(ep0.mem_reg(np.zeros(nbytes, dtype=np.uint8)), 0, nbytes)
    return ep0, ep1, src_blk, ep1.mem_reg(np.zeros(nbytes, dtype=np.uint8))


def test_oob_put_is_reported():
    def arm(unr):
        ep0, _, src_blk, dst_mr = blocks(unr)
        rogue = Blk(rank=1, mr_handle=dst_mr.handle, offset=512, size=1024)
        return lambda: ep0.put(src_blk, rogue)

    assert_raised_once(UnrUsageError, arm)


def test_unregistered_handle_is_reported():
    def arm(unr):
        ep0, _, local_blk, dst_mr = blocks(unr)
        rogue = Blk(rank=1, mr_handle=dst_mr.handle + 7, offset=0, size=1024)
        return lambda: ep0.get(local_blk, rogue)

    assert_raised_once(UnrUsageError, arm)


def test_over_width_payload_is_reported_before_truncation():
    def arm(unr):
        bits = unr.channel.capability.effective_put_remote
        return lambda: unr.channel.put(0, 1, 64, remote_custom=1 << bits)

    assert_raised_once(ChannelError, arm)


def test_plan_start_after_free_is_reported():
    def arm(unr):
        ep0, ep1, src_blk, dst_mr = blocks(unr, 128)
        plan = ep0.plan().record_put(src_blk, ep1.blk_init(dst_mr, 0, 128))
        plan.free()
        return plan.start

    assert_raised_once(UnrUsageError, arm)


def test_double_sig_free_is_reported():
    def arm(unr):
        ep = unr.endpoint(1)
        sig = ep.sig_init(1)
        ep.sig_free(sig)
        return lambda: ep.sig_free(sig)

    assert_raised_once(UnrUsageError, arm)


# -- what only the sanitizer reports ------------------------------------------

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


def test_put_to_freed_signal_is_reported():
    unr, _job = fresh_unr()
    ep0, ep1 = unr.endpoint(0), unr.endpoint(1)
    src_blk = ep0.blk_init(ep0.mem_reg(np.zeros(128, dtype=np.uint8)), 0, 128)
    sig = ep1.sig_init(1)
    dst_blk = ep1.blk_init(ep1.mem_reg(np.zeros(128, dtype=np.uint8)), 0, 128,
                           signal=sig)
    ep1.sig_free(sig)
    ep0.put(src_blk, dst_blk)  # dst_blk still names the freed sid
    assert unr.sanitizer.report.by_kind("freed-signal")


# -- passivity: arming the sanitizer cannot move an event ---------------------

def stream_run(sanitize, iters=3):
    """The producer->consumer stream: (wire fingerprint, result, Unr)."""
    job = make_job(PLATFORM, 2, seed=5)
    recorder = Recorder.attach(job.cluster)
    unr = Unr(job, get_platform(PLATFORM).channel, sanitize=sanitize)
    result = _producer_consumer(unr, job, size=8192, iters=iters)
    return transfer_fingerprint(recorder.transfers), result, unr


def test_armed_and_disarmed_runs_are_fingerprint_identical():
    fp_on, res_on, unr_on = stream_run(sanitize=True)
    fp_off, res_off, _ = stream_run(sanitize=False)
    assert fp_on == fp_off, (
        f"sanitizer must be passive; fingerprints diverged: {fp_on} vs {fp_off}"
    )
    assert res_on["correct"] == res_off["correct"] == 3
    report = unr_on.finalize()
    assert report is not None
    assert len(report) == 0  # the clean stream has nothing to report


# -- the Table II width chokepoint --------------------------------------------

@pytest.mark.parametrize("interface", sorted(TABLE_II))
@pytest.mark.parametrize("side", ["put_remote", "put_local", "get_remote", "get_local"])
def test_fit_custom_against_every_table_ii_width(interface, side):
    cap = TABLE_II[interface]
    bits = getattr(cap, f"effective_{side}")
    if bits:
        # The widest payload that fits passes; one bit more raises.
        widest = (1 << bits) - 1
        assert fit_custom(widest, bits, side, cap.interface) == widest
        with pytest.raises(ChannelError, match=f"needs {bits + 1} bits"):
            fit_custom(1 << bits, bits, side, cap.interface)
    else:
        # A zero-bit interface rejects ANY explicit payload, even 0:
        # there is no wire to carry it (None is the "no payload" path).
        with pytest.raises(ChannelError, match="no custom bits"):
            fit_custom(0, bits, side, cap.interface)


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
