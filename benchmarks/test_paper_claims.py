"""The ledger's claims (Tables I-III, Figures 4-7, the ablations, the
collectives and the chaos soak), checked through one session-scoped
computation of every point (:func:`repro.bench.paper.compute`): one test
per claim, and the committed record it must reproduce (``repro paper``
is the same check from a shell)."""

import os

import pytest

from repro.bench.paper import CLAIMS, POINTS, diff, efficiency, entries, load_record


@pytest.mark.parametrize("claim", [c.id for c in CLAIMS])
def test_claim(ledger, claim):
    entry = next(c for c in entries(ledger) if c["id"] == claim)
    assert entry["verdict"] != "NO-GO", entry


def test_ledger_reproduces_the_committed_record(ledger):
    assert diff(ledger, load_record()) == []


def test_ledger_runs_each_point_once(ledger, points):
    """The default run reads 14 Figure 6 PowerLLEL legs (the polling
    study's MPI baseline and 18-thread leg are HPC-IB's own), and no
    two of the points it computed are the same run."""
    assert len([pid for pid in points if pid.startswith("fig6.")]) == 14
    runs = [(POINTS[pid].driver, POINTS[pid].kwargs) for pid in points]
    assert all(runs.count(run) == 1 for run in runs)


@pytest.mark.skipif(not os.environ.get("REPRO_FULL_SCALE"),
                    reason="the 1728-node point is opt-in: REPRO_FULL_SCALE=1")
def test_fig7_thxy_full_scale(points):
    """Figure 7's TH-XY series out to the paper's 1728 nodes (the ledger
    stops at 1152 to keep host time modest): the 288- and 1728-node
    points, from the session's store, against the ledger's efficiency bound."""
    claim = next(c for c in CLAIMS if c.id == "fig7.th-xy.efficiency")
    value = efficiency(points, "th-xy", 1728)
    assert claim.verdict(value) != "NO-GO", value
