"""Memory registration and the BLK transportable data handle (§IV-D).

Users register a (large) memory region once and carve it into BLKs —
small descriptors carrying everything a *remote* process needs to
address the block: owner rank, memory-region handle, byte offset, size
and (optionally) the id of the signal bound to the block.  Sending a
BLK to a peer replaces manual remote-address-offset arithmetic, the
second class of RMA bugs the paper's interfaces prevent.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import UnrUsageError

__all__ = ["MemoryRegion", "Blk"]


class MemoryRegion:
    """A registered region: a contiguous byte view over user memory.

    The paper recommends registering memory "as large as possible and
    then divide it into BLKs" because registered-region counts are
    limited on some systems; we mirror that by keeping registration and
    BLK creation separate.
    """

    __slots__ = ("owner_rank", "handle", "array", "bytes_view", "nbytes")

    def __init__(
        self,
        owner_rank: int,
        handle: int,
        array: Optional[np.ndarray],
        virtual_nbytes: Optional[int] = None,
    ) -> None:
        self.owner_rank = owner_rank
        self.handle = handle
        if array is None:
            # Virtual region: geometry only, no backing storage.  Used
            # for at-scale performance runs where the data plane would
            # not fit in host memory (timing is unaffected: transfer
            # sizes come from BLK geometry, not payload bytes).
            if virtual_nbytes is None or virtual_nbytes <= 0:
                raise UnrUsageError("virtual region needs a positive size")
            self.nbytes = int(virtual_nbytes)
            self.array = None
            self.bytes_view = None
            return
        if not isinstance(array, np.ndarray):
            raise UnrUsageError(f"mem_reg requires a numpy array, got {type(array)}")
        if not array.flags["C_CONTIGUOUS"]:
            raise UnrUsageError("mem_reg requires a C-contiguous array")
        if array.nbytes == 0:
            raise UnrUsageError("cannot register an empty buffer")
        self.array = array
        self.bytes_view = array.view(np.uint8).reshape(-1)
        #: size of the region in bytes (fixed at registration)
        self.nbytes = self.bytes_view.nbytes

    @property
    def is_virtual(self) -> bool:
        return self.bytes_view is None

    def overlaps(self, other: "MemoryRegion") -> bool:
        """True when the two registrations share any backing bytes.

        Virtual regions never overlap (they have no storage).  Used by
        the sanitizer's overlapping-registration check: two live
        registrations over the same bytes let concurrent RMA corrupt
        data with no error from either region's bounds checks.
        """
        if self.array is None or other.array is None:
            return False
        return bool(np.shares_memory(self.array, other.array))

    def slice(self, offset: int, size: int) -> Optional[np.ndarray]:
        """Byte view of ``[offset, offset+size)`` with bounds checking.

        Returns ``None`` for virtual regions (after the bounds check)."""
        if offset < 0 or size < 0 or offset + size > self.nbytes:
            raise UnrUsageError(
                f"block [{offset}, {offset + size}) outside region of "
                f"{self.nbytes} bytes"
            )
        view = self.bytes_view
        return None if view is None else view[offset : offset + size]

    def __repr__(self) -> str:
        kind = "virtual " if self.is_virtual else ""
        return f"<MemoryRegion {kind}rank={self.owner_rank} h={self.handle} {self.nbytes}B>"


@dataclass(frozen=True, slots=True)
class Blk:
    """Transportable handle to a block of a registered region.

    Frozen and free of live references, so it can be shipped to remote
    ranks verbatim (the paper transmits BLKs with plain MPI before the
    main loop; we provide ``endpoint.exchange_blk`` for the same job).
    ``signal_sid`` is the node-table id of the signal bound to the block
    (triggered when the block finishes sending/receiving), or ``None``.
    Slotted: a 1728-rank transpose holds over a million of them, all
    created before the first PUT.
    """

    rank: int
    mr_handle: int
    offset: int
    size: int
    signal_sid: Optional[int] = None

    def __post_init__(self) -> None:
        if self.offset < 0 or self.size <= 0:
            raise UnrUsageError(
                f"invalid BLK geometry offset={self.offset} size={self.size}"
            )

    def sub(self, offset: int, size: int) -> "Blk":
        """A sub-block at ``offset`` (relative to this block)."""
        if offset < 0 or size <= 0 or offset + size > self.size:
            raise UnrUsageError(
                f"sub-block [{offset}, {offset + size}) outside BLK of {self.size}B"
            )
        return Blk(
            rank=self.rank,
            mr_handle=self.mr_handle,
            offset=self.offset + offset,
            size=size,
            signal_sid=self.signal_sid,
        )

    def with_signal(self, sid: Optional[int]) -> "Blk":
        return Blk(self.rank, self.mr_handle, self.offset, self.size, sid)
