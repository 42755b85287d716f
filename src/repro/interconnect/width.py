"""Custom-bit width validation: the single truncation chokepoint.

Every adapter routes its custom-bit payloads through :func:`fit_custom`
before they reach the wire.  A payload wider than the interface's
Table II budget is *never* silently truncated: the helper raises
:class:`ChannelError` — the loud-failure discipline of the paper's
bug-avoiding interfaces (§IV-D).
"""

from __future__ import annotations

from typing import Optional

__all__ = ["ChannelError", "fit_custom"]


class ChannelError(RuntimeError):
    """Custom-bit overflow or unsupported primitive on this interface."""


def fit_custom(value: Optional[int], bits: int, what: str, interface: str) -> int:
    """Validate that ``value`` fits in ``bits`` unsigned custom bits.

    Returns the value (or 0 for ``None``).  On violation
    :class:`ChannelError` is raised; truncation never happens silently.
    """
    if value is None:
        return 0
    if value < 0:
        raise ChannelError(
            f"{what}: custom bits must be packed unsigned, got {value}"
        )
    if bits == 0:
        raise ChannelError(
            f"{interface} provides no custom bits for {what}; "
            "use the Level-0 ordered-message scheme instead"
        )
    needed = value.bit_length()
    if needed > bits:
        raise ChannelError(
            f"{what}: value needs {needed} bits, {interface} provides {bits}"
        )
    return value
