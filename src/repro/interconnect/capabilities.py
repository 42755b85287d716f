"""Interconnect capability descriptors (paper Table II) and the UNR
support-level classification rule (paper Table I / §IV-C).

The *custom bits* of a Notifiable RMA Primitive are the opaque payload a
PUT/GET deposits into a completion-queue entry.  Their width at the
remote side of a PUT determines how much of the MMAS machinery (pointer
``p`` + addend ``a``) fits in hardware, which is exactly how the paper
classifies NICs into support levels:

====== ============================= =======================================
Level  PUT custom bits at remote     Implementation specification
====== ============================= =======================================
0      0                             extra order-preserving message for p, a
1      8 or 16                       all bits are an index for p; a = −1
2      32                            mode 1: all p; mode 2: x bits p, 32−x a
3      64 or 128                     half p, half a — full MMAS
4      128 + hardware atomic add     no polling thread required
====== ============================= =======================================
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

__all__ = ["Capability", "level_for_bits", "support_level", "TABLE_II", "get_capability"]


@dataclass(frozen=True)
class Capability:
    """Custom-bit widths of one low-level interface (one Table II row).

    Widths are in bits.  ``shared_put_bits`` marks PAMI-style interfaces
    where one field serves both local and remote completions (halving
    the effective remote width).  ``hash_local`` marks Portals-style
    interfaces with no local custom bits but a memory-region/offset pair
    usable as a lookup hash (effectively 64 bits of local context).
    """

    interface: str
    interconnect: str
    systems: str
    put_local: int
    put_remote: int
    get_local: int
    get_remote: int
    shared_put_bits: bool = False
    hash_local: bool = False

    @property
    def effective_put_remote(self) -> int:
        """Remote PUT custom bits available to UNR after sharing."""
        if self.shared_put_bits:
            return self.put_remote // 2
        return self.put_remote

    @property
    def effective_put_local(self) -> int:
        if self.hash_local:
            return 64
        if self.shared_put_bits:
            return self.put_local // 2
        return self.put_local

    @property
    def effective_get_local(self) -> int:
        if self.hash_local:
            return 64
        return self.get_local

    @property
    def effective_get_remote(self) -> int:
        return self.get_remote

    def display(self, field: str) -> str:
        """Formatted cell for the Table II report."""
        value = getattr(self, field)
        if self.hash_local and field in ("put_local", "get_local"):
            return "Hash"
        if self.shared_put_bits and field in ("put_local", "put_remote"):
            return f"{value}(Shared)"
        return str(value)


def level_for_bits(bits: int, hw_atomic_offload: bool = False) -> int:
    """Table I's thresholds: the support level ``bits`` custom bits
    reach.  Level 4 additionally requires the NIC to execute ``*p += a``
    itself.  The one copy of the rule: both :func:`support_level` and
    the wire encodings of :mod:`repro.core.levels` read it."""
    if hw_atomic_offload and bits >= 128:
        return 4
    if bits >= 64:
        return 3
    if bits >= 32:
        return 2
    return 1 if bits > 0 else 0


def support_level(cap: Capability, hw_atomic_offload: bool = False) -> int:
    """Classify ``cap`` into a UNR support level (paper Table I).

    The classifier uses the PUT-at-remote width (paper §IV-C: PUT is the
    primitive that matters for optimizing two-sided hotspots, and its
    remote width is never larger than the other widths in practice).
    """
    return level_for_bits(cap.effective_put_remote, hw_atomic_offload)


#: Paper Table II, verbatim.
TABLE_II: Dict[str, Capability] = {
    "glex": Capability(
        interface="Glex",
        interconnect="TH Express network",
        systems="Tianhe-2A(1), Tianhe-Xingyi",
        put_local=128, put_remote=128, get_local=128, get_remote=128,
    ),
    "verbs": Capability(
        interface="Verbs",
        interconnect="Slingshot, Infiniband, RoCE",
        systems="Frontier(1), Summit(1)",
        put_local=64, put_remote=32, get_local=64, get_remote=0,
    ),
    "utofu": Capability(
        interface="uTofu",
        interconnect="Tofu Interconnect",
        systems="Fugaku(1), K(1)",
        put_local=64, put_remote=8, get_local=64, get_remote=8,
    ),
    "ugni": Capability(
        interface="uGNI",
        interconnect="Aries Interconnect",
        systems="Piz Daint(3), Trinity(6)",
        put_local=32, put_remote=32, get_local=32, get_remote=32,
    ),
    "pami": Capability(
        interface="PAMI",
        interconnect="Blue Gene/Q Interconnection",
        systems="Sequoia(1), Mira(3)",
        put_local=64, put_remote=64, get_local=64, get_remote=0,
        shared_put_bits=True,
    ),
    "portals": Capability(
        interface="Portals",
        interconnect="SeaStar Interconnect",
        systems="Kraken(3), Jaguar(6)",
        put_local=0, put_remote=64, get_local=0, get_remote=0,
        hash_local=True,
    ),
}


def get_capability(name: str) -> Capability:
    try:
        return TABLE_II[name.lower()]
    except KeyError:
        raise KeyError(
            f"unknown interface {name!r}; known: {sorted(TABLE_II)}"
        ) from None
