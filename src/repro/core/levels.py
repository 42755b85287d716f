"""UNR support levels: custom-bit budgets and wire encodings (Table I).

A :class:`LevelPolicy` says how the (pointer ``p``, addend ``a``) pair
of MMAS is packed into the custom bits a given interface offers:

* **Level 0** — no custom bits: ``(p, a)`` travel in an additional
  order-preserving control message (slow path, correctness only).
* **Level 1** — 8/16 bits: all bits are a signal index, ``a = -1``
  implied; at most ``2**bits`` signals; no multi-channel striping.
* **Level 2** — 32 bits: mode 1 uses all bits for ``p`` (``a = -1``);
  mode 2 splits ``x`` bits for ``p`` and ``32-x`` for ``a``, enabling
  limited striping.
* **Level 3** — 64/128 bits: half for ``p``, half for ``a``; the full
  MMAS including multi-NIC aggregation.
* **Level 4** — 128 bits **and** hardware atomic-add offload: as level
  3, but the NIC applies ``*p += a`` itself, so no polling thread runs.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional

from ..interconnect import RmaChannel, level_for_bits
from .errors import UnrUsageError

__all__ = [
    "LevelPolicy",
    "encode_custom",
    "decode_custom",
    "policy_for_channel",
    "max_signals",
]


@dataclass(frozen=True)
class LevelPolicy:
    """How (p, a) map onto one side (remote-PUT, local-PUT, …) of a channel."""

    level: int
    p_bits: int
    a_bits: int
    multi_channel: bool
    uses_polling: bool
    hw_offload: bool

    @property
    def implied_minus_one(self) -> bool:
        """True when no addend bits exist and ``a = -1`` is implied."""
        return self.a_bits == 0 and self.level >= 1

    def max_n_bits(self, default: int = 32) -> int:
        """Largest usable signal ``N`` given the addend width.

        A striping addend ``(-1) << (N+1)`` needs ``N+2`` bits of signed
        addend; with implied ``a = -1`` (no striping) the full 62-bit
        budget of the counter is available.
        """
        if self.a_bits == 0:
            return min(default, 62)
        return min(default, max(self.a_bits - 2, 1))


def max_signals(policy: LevelPolicy) -> int:
    """Maximum number of live signals addressable under ``policy``."""
    if policy.level == 0:
        return 1 << 62  # control messages carry full-width (p, a)
    return 1 << policy.p_bits


def encode_custom(sid: int, addend: int, policy: LevelPolicy) -> Optional[int]:
    """Pack ``(p=sid, a=addend)`` into the custom-bit integer.

    Returns ``None`` for level-0 policies (no custom bits; the caller
    must use the ordered control-message scheme instead).
    Raises :class:`UnrUsageError` when the values do not fit — the
    bug-avoiding layer turns silent truncation into a loud error.
    """
    if policy.level == 0:
        return None
    if sid < 0 or sid.bit_length() > policy.p_bits:
        raise UnrUsageError(
            f"signal id {sid} does not fit the {policy.p_bits} pointer bits "
            f"of level {policy.level}"
        )
    if policy.a_bits == 0:
        if addend != -1:
            raise UnrUsageError(
                f"level {policy.level} implies a = -1; got addend {addend} "
                "(multi-channel striping unsupported at this level)"
            )
        return sid
    half = 1 << (policy.a_bits - 1)
    if not -half <= addend < half:
        raise UnrUsageError(
            f"addend {addend} does not fit in {policy.a_bits} signed bits"
        )
    a_u = addend & ((1 << policy.a_bits) - 1)
    return (sid << policy.a_bits) | a_u


def decode_custom(custom: int, policy: LevelPolicy) -> tuple:
    """Unpack the custom-bit integer back into ``(sid, addend)``."""
    if policy.a_bits == 0:
        return custom, -1
    mask = (1 << policy.a_bits) - 1
    a_u = custom & mask
    sid = custom >> policy.a_bits
    if a_u >> (policy.a_bits - 1):
        a_u -= 1 << policy.a_bits
    return sid, a_u


def _policy_from_bits(
    bits: int, hw_offload: bool, mode2_split: Optional[int]
) -> LevelPolicy:
    """Table I's (p, a) split and flags for the level ``bits`` reach."""
    level = level_for_bits(bits, hw_offload)
    if level == 4:
        return LevelPolicy(
            level=4, p_bits=64, a_bits=64,
            multi_channel=True, uses_polling=False, hw_offload=True,
        )
    if level == 3:
        return LevelPolicy(
            level=3, p_bits=bits // 2, a_bits=bits // 2,
            multi_channel=True, uses_polling=True, hw_offload=False,
        )
    if level == 0:
        return LevelPolicy(
            level=0, p_bits=64, a_bits=64,
            multi_channel=False, uses_polling=True, hw_offload=False,
        )
    if level == 2 and mode2_split is not None:
        if not 1 <= mode2_split < bits:
            raise UnrUsageError(
                f"mode-2 split must leave both fields non-empty "
                f"(got x={mode2_split} of {bits})"
            )
        return LevelPolicy(
            level=2, p_bits=mode2_split, a_bits=bits - mode2_split,
            multi_channel=True, uses_polling=True, hw_offload=False,
        )
    # Level 1, and Level 2 mode 1: every bit indexes p, a = -1 implied.
    return LevelPolicy(
        level=level, p_bits=bits, a_bits=0,
        multi_channel=False, uses_polling=True, hw_offload=False,
    )


def policy_for_channel(
    channel: RmaChannel,
    side: str = "put_remote",
    mode2_split: Optional[int] = None,
) -> LevelPolicy:
    """Derive the policy for one completion side of ``channel``.

    ``side`` is one of ``put_remote``, ``put_local``, ``get_remote``,
    ``get_local``.  The channel's *classified* support level always uses
    the PUT-at-remote width (paper §IV-C); per-side policies let e.g.
    Verbs use its wider 64-bit local field for send-completion signals.
    """
    if channel.software_notify:
        # MPI fallback: the Level-0 scheme, but notification travels
        # with the message itself, so nothing polls.
        return replace(_policy_from_bits(0, False, None), uses_polling=False)
    bits = getattr(channel.capability, f"effective_{side}")
    return _policy_from_bits(bits, channel.hw_atomic_offload, mode2_split)
