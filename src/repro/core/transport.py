"""UNR transport-layer helpers: multi-rail striping plans.

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
    "ReliabilityConfig",
    "DEFAULT_STRIPE_THRESHOLD",
    "MIN_FRAGMENT",
]

DEFAULT_STRIPE_THRESHOLD = 64 * 1024
MIN_FRAGMENT = 8 * 1024


@dataclass(frozen=True)
class ReliabilityConfig:
    """Per-operation timeout / retransmit policy (the reliability layer).

    Every reliably-posted fragment gets a watchdog: if delivery is not
    confirmed within the timeout, the fragment is retransmitted — on the
    next surviving rail when the message is striped (rail failover) —
    with exponential backoff, up to ``max_retries`` times, after which
    :class:`~repro.core.errors.UnrTimeoutError` is raised.

    The effective timeout scales with the fragment: it is at least
    ``timeout_us`` and at least ``timeout_factor`` times the model's
    no-contention delivery estimate, so 1 MiB stripes are not declared
    lost while still serializing onto the wire.
    """

    timeout_us: float = 25.0
    timeout_factor: float = 4.0
    max_retries: int = 10
    backoff_factor: float = 2.0
    max_backoff_us: float = 2000.0

    def __post_init__(self) -> None:
        if self.timeout_us <= 0:
            raise ValueError("timeout_us must be positive")
        if self.max_retries < 0:
            raise ValueError("max_retries must be >= 0")
        if self.backoff_factor < 1.0:
            raise ValueError("backoff_factor must be >= 1")

    @property
    def timeout(self) -> float:
        """Base timeout in seconds."""
        return self.timeout_us * US

    @property
    def max_backoff(self) -> float:
        """Backoff ceiling in seconds."""
        return self.max_backoff_us * US

    def fragment_timeout(self, estimate: float) -> float:
        """Timeout in seconds for a fragment whose no-contention
        delivery time is ``estimate`` seconds."""
        return max(self.timeout, self.timeout_factor * estimate)


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
