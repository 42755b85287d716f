"""Notifiable RMA Primitives: interface capabilities and channels.

One :class:`RmaChannel` class serves every Table II interface (GLEX,
Verbs, uTofu, uGNI, PAMI, Portals): an interface is its
:class:`Capability` record of custom-bit widths, and its support level
follows from those widths alone.  :class:`MpiFallbackChannel` is the
two-sided MPI fallback.
"""

from .capabilities import TABLE_II, Capability, get_capability, level_for_bits, support_level
from .channel import ChannelError, RmaChannel
from .fallback import MpiFallbackChannel, MpiFallbackConfig
from .width import fit_custom

__all__ = [
    "Capability",
    "ChannelError",
    "MpiFallbackChannel",
    "MpiFallbackConfig",
    "RmaChannel",
    "TABLE_II",
    "fit_custom",
    "get_capability",
    "level_for_bits",
    "support_level",
]
