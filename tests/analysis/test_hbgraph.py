"""Tests for the unrverify mechanism layer: graph mechanics and
happens-before structure on the golden corpus."""

import pytest

from repro.analysis import HBGraph, build_hb_graph
from repro.bench.fingerprints import run_schedule_observed


# -- graph mechanics ----------------------------------------------------------

def test_cycle_is_detected_not_silently_ordered():
    g = HBGraph()
    a = g.add_event("r0", "post", 0.0, 0)
    b = g.add_event("r0", "wait", 1.0, 1)
    g.add_edge(a, b)
    g.add_edge(b, a)
    assert not g.is_acyclic()
    assert {ev.idx for ev in g.cycle_events()} == {a.idx, b.idx}


def test_reachability_is_exact_not_clock_approximate():
    # Two delivers share the node actor without a chaining edge: a
    # per-actor clock would order them, the bitset must not.
    g = HBGraph()
    p0 = g.add_event("r0", "post", 0.0, 0)
    p1 = g.add_event("r1", "post", 0.0, 1)
    d0 = g.add_event("n0:deliver", "deliver", 5.0, 2)
    d1 = g.add_event("n0:deliver", "deliver", 6.0, 3)
    g.add_edge(p0, d0)
    g.add_edge(p1, d1)
    assert g.is_acyclic()
    assert g.happens_before(p0, d0)
    assert g.concurrent(d0, d1)
    assert g.concurrent(p0, p1)


def test_self_edge_is_rejected():
    g = HBGraph()
    a = g.add_event("r0", "post", 0.0, 0)
    with pytest.raises(ValueError):
        g.add_edge(a, a)


# -- structure on the real corpus ---------------------------------------------

@pytest.mark.parametrize("platform,schedule", [
    ("th-xy", "latency"),
    ("th-xy", "stream"),
    ("hpc-ib", "powerllel"),
    ("th-2a", "fault_stress"),
])
def test_golden_graphs_are_acyclic_and_clock_monotone(platform, schedule):
    import warnings

    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        _, recorder = run_schedule_observed(platform, schedule)
    graph = build_hb_graph(recorder)
    assert len(graph.events) > 0
    assert graph.n_edges > 0
    assert graph.is_acyclic()
    assert graph.chain_time_regressions() == []
