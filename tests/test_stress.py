"""Soak tests: sustained traffic under faults on all Table III platforms.

Marked ``slow`` — deselected by default (see pyproject addopts); run with
``make test-all`` or ``pytest -m slow``.  Each test drives a real
workload (producer/consumer stream, PowerLLEL halo exchange) on a
faulted fabric with the reliability layer armed, and asserts the
numerical results are exactly those of the fault-free run.
"""

import numpy as np
import pytest

from repro.bench import fault_demo
from repro.core import Unr
from repro.netsim import FaultInjector, FaultSpec
from repro.netsim.trace import transfer_fingerprint
from repro.obs import Recorder
from repro.platforms import get_platform, make_job
from repro.powerllel import PowerLLELConfig, gather_fields, run_powerllel

pytestmark = pytest.mark.slow

PLATFORMS = ["th-xy", "th-2a", "hpc-ib", "hpc-roce"]

# Rail failures only make sense where there is a spare rail to fail
# over to: of the Table III systems only TH-XY is multi-NIC.
FAULTS = {
    "th-xy": "drop=0.2,dup=0.1,reorder=0.3,rail_fail@t=40:node=1:rail=0",
    "th-2a": "drop=0.2,dup=0.1,reorder=0.3",
    "hpc-ib": "drop=0.2,dup=0.1,reorder=0.3,delay=0.2",
    "hpc-roce": "drop=0.3,dup=0.05,reorder=0.2",
}


@pytest.mark.parametrize("platform", PLATFORMS)
def test_producer_consumer_soak(platform):
    """Stream 8 x 128 KiB through a faulted fabric, twice: every buffer
    must arrive byte-exact and the two runs must replay identically."""
    res = fault_demo(
        FAULTS[platform], platform=platform,
        size=128 * 1024, iters=8, fault_seed=13,
    )
    assert res["correct"], f"corrupted stream on {platform}: {res['runs']}"
    assert res["identical"], f"non-deterministic replay on {platform}"
    for run in res["runs"]:
        assert run["faults"]["dropped"] > 0, (
            f"{platform}: schedule never dropped — soak is vacuous"
        )
        assert run["retransmits"] > 0


@pytest.mark.parametrize("seed", range(4))
def test_producer_consumer_seed_sweep(seed):
    """Property loop over fault seeds on the richest platform (multi-NIC
    striping + failover): correctness must hold for every schedule."""
    res = fault_demo(
        FAULTS["th-xy"], platform="th-xy",
        size=96 * 1024, iters=6, fault_seed=seed,
    )
    assert res["correct"] and res["identical"], f"failed for fault_seed={seed}"


def _halo_run(platform, faults, *, seed=0xC0FFEE, fault_seed=13):
    """One PowerLLEL run (real numerics) on ``platform``; returns fields."""
    plat = get_platform(platform)
    job = make_job(platform, 4, seed=seed)
    unr_kwargs = {}
    if faults is not None:
        spec = FaultSpec.parse(faults, seed=fault_seed)
        FaultInjector.attach(job.cluster, spec)
        unr_kwargs["reliability"] = True
    cfg = PowerLLELConfig(
        nx=32, ny=24, nz=32, py=2, pz=2, steps=2, lengths=(1.0, 1.0, 8.0),
    )
    unr = Unr(job, plat.channel, **unr_kwargs)
    res = run_powerllel(job, cfg, backend="unr", unr=unr)
    return gather_fields(res["ranks"], cfg), res, unr


@pytest.mark.parametrize("platform", PLATFORMS)
def test_powerllel_halo_faulted_matches_fault_free(platform):
    """The halo exchanges under drops/dups/reordering must produce the
    same velocity and pressure fields, bit for bit, as a clean fabric —
    the faults may cost time, never accuracy."""
    clean, clean_res, _ = _halo_run(platform, None)
    dirty, dirty_res, unr = _halo_run(platform, FAULTS[platform])
    for name in ("u", "v", "w", "p"):
        np.testing.assert_array_equal(
            clean[name], dirty[name],
            err_msg=f"{platform}: field {name} diverged under faults",
        )
    assert dirty_res["max_divergence"] < 1e-12
    assert unr.stats["sync_errors"] == 0
    assert unr.stats["reliability_failures"] == 0
    # Faults cost (simulated) time, never correctness.
    assert dirty_res["time"] >= clean_res["time"]


def test_powerllel_faulted_replays_identically():
    """Same seeds ⇒ the faulted halo-exchange timeline is bit-identical,
    down to the message trace fingerprint."""
    prints = []
    for _ in range(2):
        plat = get_platform("th-xy")
        job = make_job("th-xy", 4, seed=7)
        FaultInjector.attach(job.cluster, FaultSpec.parse(FAULTS["th-xy"], seed=3))
        transfers = Recorder.attach(job.cluster).transfers
        cfg = PowerLLELConfig(
            nx=32, ny=24, nz=32, py=2, pz=2, steps=2, lengths=(1.0, 1.0, 8.0),
        )
        unr = Unr(job, plat.channel, reliability=True)
        run_powerllel(job, cfg, backend="unr", unr=unr)
        prints.append(transfer_fingerprint(transfers))
    assert prints[0] == prints[1]
