"""Shared helpers for the paper-reproduction benchmarks.

The paper's tables and figures are computed once per session by the
claims ledger (the ``ledger`` fixture, checked by
``test_paper_claims.py``) from one store of points (``points``).  The
other benchmarks measure *simulated* time too (who wins, by what
factor); host time is ``perfbench``'s to measure.
"""

import pytest


@pytest.fixture(scope="session")
def points():
    """The session's one point store: each point runs once, on first read."""
    from repro.bench.paper import Points

    return Points()


@pytest.fixture(scope="session")
def ledger(points):
    """Every claim of the paper, computed once for the session."""
    from repro.bench.paper import compute

    return compute(points=points)


@pytest.fixture
def emit(capsys):
    """Print a report block that survives pytest's capture (-s not needed)."""

    def _emit(title: str, body: str):
        with capsys.disabled():
            print(f"\n=== {title} ===")
            print(body)

    return _emit
