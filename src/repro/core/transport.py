"""UNR transport-layer helpers: multi-rail striping plans and the
reliability layer's timeout policy.

The UNR Interface Module schedules one logical message across multiple
UNR Transport Channels (rails).  :func:`plan_stripes` decides how a
message of ``size`` bytes is fragmented, subject to the level policy
(striping requires addend bits), the rail count, and a minimum fragment
size (tiny fragments waste per-message overhead — the paper only
stripes large messages).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

from ..units import US

__all__ = [
    "Stripe",
    "plan_stripes",
    "fragment_timeout",
    "DEFAULT_STRIPE_THRESHOLD",
    "MIN_FRAGMENT",
]

DEFAULT_STRIPE_THRESHOLD = 64 * 1024
MIN_FRAGMENT = 8 * 1024


# The reliability layer's policy: a reliably posted fragment whose
# delivery is not confirmed within its timeout is retransmitted (rail
# failover, exponential backoff) up to MAX_RETRIES times, then
# UnrTimeoutError is raised.
#: floor of a fragment's watchdog timeout (simulated microseconds)
TIMEOUT_US = 25.0
#: a fragment's timeout is at least this many no-contention delivery times
TIMEOUT_FACTOR = 4.0
#: retransmits before a fragment is declared lost
MAX_RETRIES = 10
#: timeout growth per retransmit
BACKOFF_FACTOR = 2.0
#: backoff ceiling (simulated microseconds)
MAX_BACKOFF_US = 2000.0


def fragment_timeout(estimate: float) -> float:
    """Timeout in seconds for a fragment whose no-contention delivery
    time is ``estimate`` seconds: at least ``TIMEOUT_US`` and at least
    ``TIMEOUT_FACTOR`` delivery times, so 1 MiB stripes are not declared
    lost while still serializing onto the wire."""
    return max(TIMEOUT_US * US, TIMEOUT_FACTOR * estimate)


@dataclass(frozen=True)
class Stripe:
    """One fragment of a striped message."""

    index: int
    rail: int
    offset: int
    size: int


def plan_stripes(
    size: int,
    n_rails: int,
    *,
    threshold: int = DEFAULT_STRIPE_THRESHOLD,
    multi_channel: bool = True,
    max_fragments: int = 0,
    min_fragment: int = MIN_FRAGMENT,
) -> List[Stripe]:
    """Split ``size`` bytes over up to ``n_rails`` rails.

    Returns at least one stripe; a single stripe means no striping
    (small message, single rail, or a level that cannot aggregate
    sub-messages).  One fragment per rail (paper §IV-B): sizes differ
    by at most one byte so rails finish together, and the count never
    exceeds ``max_fragments`` (0 = no cap), the addend-bit budget.
    """
    if size < 0:
        raise ValueError("size must be non-negative")
    k = n_rails
    if not multi_channel or size < threshold or n_rails <= 1:
        k = 1
    if max_fragments:
        k = min(k, max_fragments)
    if k > 1:
        k = min(k, max(size // min_fragment, 1))
    k = max(k, 1)
    base, extra = divmod(size, k)
    stripes: List[Stripe] = []
    offset = 0
    for i in range(k):
        frag = base + (1 if i < extra else 0)
        stripes.append(Stripe(index=i, rail=i % n_rails, offset=offset, size=frag))
        offset += frag
    assert offset == size
    return stripes
