"""Notifiable RMA Primitives: interface adapters and capabilities.

One adapter per Table II interface (GLEX, Verbs, uTofu, uGNI, PAMI,
Portals) plus the two-sided MPI fallback channel.  The adapters share a
generic RMA engine; only the custom-bit capability descriptors differ.
"""

from .adapters import (
    CHANNEL_TYPES,
    GlexChannel,
    PamiChannel,
    PortalsChannel,
    UgniChannel,
    UtofuChannel,
    VerbsChannel,
    make_channel,
)
from .capabilities import TABLE_II, Capability, get_capability, support_level
from .channel import ChannelError, RmaChannel
from .fallback import MpiFallbackChannel, MpiFallbackConfig
from .width import fit_custom

__all__ = [
    "CHANNEL_TYPES",
    "Capability",
    "ChannelError",
    "GlexChannel",
    "MpiFallbackChannel",
    "MpiFallbackConfig",
    "PamiChannel",
    "PortalsChannel",
    "RmaChannel",
    "TABLE_II",
    "UgniChannel",
    "UtofuChannel",
    "VerbsChannel",
    "fit_custom",
    "get_capability",
    "make_channel",
    "support_level",
]
