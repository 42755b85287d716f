"""The paper's claims (Tables I-III, Figures 4-7), checked through the
ledger: one session-scoped computation of every point
(:func:`repro.bench.paper.compute`), one test per claim, and the
committed record it must reproduce (``repro paper`` is the same check
from a shell)."""

import os

import pytest

from repro.bench.paper import CLAIMS, diff, entries, load_record
from repro.bench.powerllel_bench import fig7_scaling


@pytest.mark.parametrize("claim", [c.id for c in CLAIMS])
def test_claim(ledger, claim):
    entry = next(c for c in entries(ledger) if c["id"] == claim)
    assert entry["verdict"] != "NO-GO", entry


def test_ledger_reproduces_the_committed_record(ledger):
    assert diff(ledger, load_record()) == []


@pytest.mark.skipif(not os.environ.get("REPRO_FULL_SCALE"),
                    reason="the 1728-node point is opt-in: REPRO_FULL_SCALE=1")
def test_fig7_thxy_full_scale():
    """Figure 7's TH-XY series out to the paper's 1728 nodes (the ledger
    stops at 1152 to keep host time modest), against the ledger's bounds."""
    points = {"th-xy": fig7_scaling("th-xy", steps=1)}
    assert points["th-xy"][-1]["nodes"] == 1728
    for claim in CLAIMS:
        if claim.id.startswith("fig7.th-xy."):
            assert claim.verdict(claim.measure(points)) != "NO-GO", claim.id
