"""Integration tests: distributed PowerLLEL vs the serial reference,
both backends, real and model modes."""

import numpy as np
import pytest

from repro.core import PollingConfig, Unr
from repro.mpi import MpiConfig
from repro.netsim import Cluster, ClusterSpec, FabricSpec, NicSpec, NodeSpec
from repro.powerllel import (
    PowerLLELConfig,
    SerialReference,
    gather_fields,
    run_powerllel,
)
from repro.runtime import Job
from repro.sim import Environment


def make_job(n_nodes, nics=1, cores=8, jitter=0.3):
    env = Environment()
    spec = ClusterSpec(
        "t",
        n_nodes,
        NodeSpec(cores=cores, nics=nics),
        NicSpec(bandwidth_gbps=100, latency_us=1.0),
        FabricSpec(routing_jitter=jitter),
        seed=3,
    )
    return Job(Cluster(env, spec))


CFG = dict(nx=16, ny=12, nz=16, steps=2, lengths=(1.0, 1.0, 8.0))


def serial_after(steps, **kw):
    ref = SerialReference(
        kw.get("nx", CFG["nx"]), kw.get("ny", CFG["ny"]), kw.get("nz", CFG["nz"]),
        lengths=kw.get("lengths", CFG["lengths"]),
    )
    for _ in range(steps):
        ref.step()
    return ref


# PDD is an *approximate* tridiagonal algorithm: its truncation error
# decays like mu^m where m = nz/pz is the local block size and
# mu ~ 1/(2 + |lambda| dz^2).  With nz=16 the pz<=2 blocks are exact to
# machine precision; pz=4 (m=4) leaves ~1e-4 on the weakest mode, as in
# the real PowerLLEL.
@pytest.mark.parametrize("backend", ["mpi", "unr"])
@pytest.mark.parametrize(
    "py,pz,atol",
    [(1, 1, 1e-11), (2, 2, 1e-11), (4, 1, 1e-11), (1, 4, 1e-3), (2, 4, 1e-3)],
)
def test_backend_matches_serial(backend, py, pz, atol):
    cfg = PowerLLELConfig(py=py, pz=pz, **CFG)
    job = make_job(py * pz)
    res = run_powerllel(job, cfg, backend=backend)
    ref = serial_after(CFG["steps"])
    fields = gather_fields(res["ranks"], cfg)
    for name in ("u", "v", "w"):
        np.testing.assert_allclose(
            fields[name],
            getattr(ref, name)[:, 1:-1, 1:-1],
            atol=atol,
            err_msg=f"{backend} {py}x{pz} field {name}",
        )


@pytest.mark.parametrize("backend", ["mpi", "unr"])
def test_projection_exact_distributed(backend):
    cfg = PowerLLELConfig(py=2, pz=2, **CFG)
    res = run_powerllel(make_job(4), cfg, backend=backend)
    assert res["max_divergence"] < 1e-12


def test_mpi_and_unr_agree_bitwise():
    cfg = PowerLLELConfig(py=2, pz=2, **CFG)
    a = run_powerllel(make_job(4), cfg, backend="mpi")
    b = run_powerllel(make_job(4), cfg, backend="unr")
    fa = gather_fields(a["ranks"], cfg)
    fb = gather_fields(b["ranks"], cfg)
    for name in ("u", "v", "w", "p"):
        np.testing.assert_array_equal(fa[name], fb[name])


@pytest.mark.parametrize("slabs", [1, 2, 4])
def test_unr_pipeline_slabs_do_not_change_results(slabs):
    cfg = PowerLLELConfig(py=2, pz=2, pipeline_slabs=slabs, **CFG)
    res = run_powerllel(make_job(4), cfg, backend="unr")
    ref = serial_after(CFG["steps"])
    fields = gather_fields(res["ranks"], cfg)
    np.testing.assert_allclose(fields["u"], ref.u[:, 1:-1, 1:-1], atol=1e-11)


@pytest.mark.parametrize("backend", ["mpi", "unr"])
def test_model_mode_runs_and_times(backend):
    cfg = PowerLLELConfig(
        nx=64, ny=64, nz=64, py=2, pz=2, steps=2, mode="model", lengths=(1, 1, 8)
    )
    res = run_powerllel(make_job(4), cfg, backend=backend)
    assert res["time"] > 0
    assert res["phases"]["vel_update"] > 0
    assert res["phases"]["ppe"] > 0
    assert "max_divergence" not in res


@pytest.mark.parametrize("backend", ["mpi", "unr"])
def test_ranks_share_one_read_only_set_of_spectra(backend):
    cfg = PowerLLELConfig(
        nx=64, ny=64, nz=64, py=2, pz=2, steps=1, mode="model", lengths=(1, 1, 8)
    )
    ranks = run_powerllel(make_job(4), cfg, backend=backend)["ranks"]
    a, b = ranks[0]["rank_data"], ranks[3]["rank_data"]
    for name in ("lam_y", "z_lower", "z_diag", "z_upper"):
        assert np.shares_memory(getattr(a, name), getattr(b, name)), name
    # lam_x is each rank's slice of the one x spectrum.
    assert len({id(info["rank_data"].lam_x.base) for info in ranks.values()}) == 1
    assert len(a.lam_x) < len(a.lam_x.base)
    for arr in (a.lam_x, a.lam_y, a.z_diag):
        with pytest.raises(ValueError, match="read-only"):
            arr[0] = 1.0


def test_model_mode_timing_scales_with_grid():
    def run(n):
        cfg = PowerLLELConfig(
            nx=n, ny=n, nz=n, py=2, pz=2, steps=1, mode="model", lengths=(1, 1, 8)
        )
        return run_powerllel(make_job(4), cfg, backend="mpi")["time"]

    assert run(128) > 2.0 * run(48)


def test_phase_breakdown_sums_to_total():
    cfg = PowerLLELConfig(py=2, pz=2, **CFG)
    res = run_powerllel(make_job(4), cfg, backend="mpi")
    p = res["phases"]
    # Per-rank totals sum exactly; the max-aggregated ones approximately.
    for rank_info in res["ranks"].values():
        ph = rank_info["phases"]
        assert ph["total"] == pytest.approx(
            ph["vel_update"] + ph["ppe"] + ph["other"]
        )
    assert p["total"] <= res["time"] * 1.001


def test_unr_faster_when_mpi_overheads_high():
    """The Figure-6 mechanism: with rendezvous-heavy MPI the UNR
    backend's sync-free pipeline wins."""
    heavy = MpiConfig(
        eager_threshold=1024, sw_overhead_us=4.0, rendezvous_rtts=4.0,
        # rendezvous pipeline stalls inflate effective transfer time
    )
    # Same compute threads on both sides so the comparison isolates the
    # communication mechanism (the polling core is reserved for UNR).
    cfg = PowerLLELConfig(
        nx=128, ny=128, nz=128, py=2, pz=2, steps=2, mode="model",
        lengths=(1, 1, 8), threads=6,
    )
    t_mpi = run_powerllel(make_job(4), cfg, backend="mpi", mpi_config=heavy)["time"]
    t_unr = run_powerllel(
        make_job(4), cfg, backend="unr",
        polling=PollingConfig(mode="reserved", reserved_cores=1),
    )["time"]
    assert t_unr < t_mpi


def test_run_powerllel_validates_rank_count():
    cfg = PowerLLELConfig(py=2, pz=2, **CFG)
    with pytest.raises(ValueError, match="ranks"):
        run_powerllel(make_job(2), cfg, backend="mpi")


def test_run_powerllel_rejects_unknown_backend():
    cfg = PowerLLELConfig(py=1, pz=1, **CFG)
    with pytest.raises(ValueError, match="backend"):
        run_powerllel(make_job(1), cfg, backend="rdma")


def test_unr_stats_reported():
    cfg = PowerLLELConfig(py=2, pz=2, **CFG)
    res = run_powerllel(make_job(4), cfg, backend="unr")
    assert res["unr_stats"]["puts"] > 0
    assert res["unr_stats"].get("sync_errors", 0) == 0
    assert res["unr_stats"].get("overflow_errors", 0) == 0


def test_unr_with_verbs_channel():
    """PowerLLEL over a Level-2 interconnect (no striping, 32-bit ids)."""
    cfg = PowerLLELConfig(py=2, pz=2, **CFG)
    res = run_powerllel(make_job(4), cfg, backend="unr", channel="verbs")
    ref = serial_after(CFG["steps"])
    fields = gather_fields(res["ranks"], cfg)
    np.testing.assert_allclose(fields["u"], ref.u[:, 1:-1, 1:-1], atol=1e-11)


def test_unr_with_fallback_channel():
    """PowerLLEL over the MPI fallback channel still computes correctly."""
    cfg = PowerLLELConfig(py=2, pz=2, **CFG)
    res = run_powerllel(make_job(4), cfg, backend="unr", channel="mpi")
    ref = serial_after(CFG["steps"])
    fields = gather_fields(res["ranks"], cfg)
    np.testing.assert_allclose(fields["u"], ref.u[:, 1:-1, 1:-1], atol=1e-11)


def test_unr_level4_offload():
    env = Environment()
    spec = ClusterSpec(
        "t", 4, NodeSpec(cores=8, nics=1),
        NicSpec(bandwidth_gbps=100, latency_us=1.0, atomic_offload=True),
        FabricSpec(routing_jitter=0.3), seed=3,
    )
    job = Job(Cluster(env, spec))
    cfg = PowerLLELConfig(py=2, pz=2, **CFG)
    unr = Unr(job, "glex")
    assert unr.level == 4
    res = run_powerllel(job, cfg, backend="unr", unr=unr)
    ref = serial_after(CFG["steps"])
    fields = gather_fields(res["ranks"], cfg)
    np.testing.assert_allclose(fields["u"], ref.u[:, 1:-1, 1:-1], atol=1e-11)


def test_polling_reservation_changes_compute_capacity():
    """Reserved polling cores shrink the compute pool (HPC-IB, Fig. 6)."""
    cfg = PowerLLELConfig(
        nx=64, ny=64, nz=64, py=2, pz=2, steps=1, mode="model", lengths=(1, 1, 8)
    )

    def run(polling, threads):
        job = make_job(4, cores=8)
        unr = Unr(job, "glex", polling=polling)
        c = PowerLLELConfig(
            nx=64, ny=64, nz=64, py=2, pz=2, steps=1, mode="model",
            lengths=(1, 1, 8), threads=threads,
        )
        return run_powerllel(job, c, backend="unr", unr=unr)["time"]

    t_shared = run(PollingConfig(mode="busy"), threads=8)
    t_reserved = run(PollingConfig(mode="reserved", reserved_cores=1), threads=7)
    # Oversubscribed busy polling hurts more than losing one core of 8.
    assert t_reserved < t_shared * 1.05
