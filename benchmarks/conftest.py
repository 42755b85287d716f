"""The claims ledger's session: the paper's tables and figures, the
design's ablations, the collectives built on UNR and the chaos soak,
each point computed once (``points``) and every claim read from that
one store (``ledger``), checked by ``test_paper_claims.py``.  Every
value is simulated time; host time is ``perfbench``'s to measure.
"""

import pytest


@pytest.fixture(scope="session")
def points():
    """The session's one point store: each point runs once, on first read."""
    from repro.bench.paper import Points

    return Points()


@pytest.fixture(scope="session")
def ledger(points):
    """Every claim of the ledger, computed once for the session."""
    from repro.bench.paper import compute

    return compute(points=points)
