"""UNR Transport Channel base: Notifiable RMA Primitives over a Job.

A channel exposes notifiable PUT/GET between *ranks*: the custom-bit
payloads are validated against the interface's :class:`Capability`
widths (too-wide payloads raise :class:`ChannelError` — the UNR
transport layer must encode within platform limits; that is the whole
point of the support levels).

Channels sit below the unified transfer engine: every PUT/GET/ctrl
post reaches :meth:`RmaChannel.put` / :meth:`RmaChannel.get` through
:meth:`repro.core.engine.TransferEngine.post_op`, which owns stripe
planning, rail selection and retransmission above this layer.
"""

from __future__ import annotations

from typing import Any, Callable, Optional

from ..netsim import alloc_record
from ..runtime import Job
from ..sim import Event
from .capabilities import Capability, support_level
from .width import ChannelError, fit_custom

__all__ = ["ChannelError", "RmaChannel"]

_SIDE_LABELS = {
    "put_remote": "PUT remote",
    "put_local": "PUT local",
    "get_remote": "GET remote",
    "get_local": "GET local",
}


class RmaChannel:
    """Notifiable RMA over one interface for all ranks of a job.

    The interface is its :class:`Capability` (one Table II row): the
    six native interfaces differ in nothing but their custom-bit widths,
    so ``RmaChannel(job, get_capability("verbs"))`` is the Verbs channel.
    """

    #: True when notification is delivered by the channel software itself
    #: (MPI fallback) rather than via CQ entries + polling.
    software_notify: bool = False

    def __init__(self, job: Job, capability: Capability):
        self.job = job
        self.env = job.env
        self.capability = capability
        self.name = capability.interface.lower()
        # Per-post constants, resolved once: the capability and the
        # cluster spec are both fixed for the life of the channel.  Each
        # side's fit_custom arguments are unpacked per post, not star-called.
        self._width = {
            side: (getattr(capability, f"effective_{side}"), label, capability.interface)
            for side, label in _SIDE_LABELS.items()
        }
        #: True when the simulated NICs implement Level-4 atomic add
        self.hw_atomic_offload = bool(job.cluster.spec.nic.atomic_offload)

    def level(self) -> int:
        """UNR support level of this channel on this cluster."""
        return support_level(self.capability, self.hw_atomic_offload)

    def _prepare(
        self, remote_side, local_side, src_rank, dst_rank, nbytes, rail,
        remote_custom, local_custom, remote_action, local_action,
        remote_token, local_token,
    ):
        """The front half of :meth:`put` and :meth:`get`: width-check both
        custom payloads, resolve the two NICs, then allocate the remote and
        the local CQ record, whose kinds are ``remote_side``/``local_side``."""
        # Only a payload that exists is width-checked, and a Level-4
        # action the NIC applies itself carries no custom bits.
        offload = self.hw_atomic_offload
        if remote_custom is not None and (remote_action is None or not offload):
            bits, label, interface = self._width[remote_side]
            fit_custom(remote_custom, bits, label, interface)
        if local_custom is not None and (local_action is None or not offload):
            bits, label, interface = self._width[local_side]
            fit_custom(local_custom, bits, label, interface)
        nic_of = self.job.nic_of
        src_nic = nic_of(src_rank, rail)
        dst_nic = nic_of(dst_rank, rail)
        remote_record = local_record = None
        if remote_custom is not None or local_custom is not None:
            src_node, dst_node = src_nic.node.index, dst_nic.node.index
            now = self.env.now
            # alloc_record(kind, custom, nbytes, src_node, dst_node, tag,
            #              payload, post_time, complete_time, token)
            if remote_custom is not None:
                remote_record = alloc_record(
                    remote_side, remote_custom, nbytes, src_node, dst_node,
                    None, None, now, 0.0, remote_token,
                )
            if local_custom is not None:
                local_record = alloc_record(
                    local_side, local_custom, nbytes, src_node, dst_node,
                    None, None, now, 0.0, local_token,
                )
        return src_nic, dst_nic, remote_record, local_record

    # ------------------------------------------------------------------
    def put(
        self,
        src_rank: int,
        dst_rank: int,
        nbytes: int,
        *,
        payload: Any = None,
        on_deliver: Optional[Callable[[Any], None]] = None,
        remote_custom: Optional[int] = None,
        local_custom: Optional[int] = None,
        remote_action: Optional[Callable[[], None]] = None,
        local_action: Optional[Callable[[], None]] = None,
        rail: int = 0,
        ordered: bool = False,
        remote_token: Any = None,
        local_token: Any = None,
        done: bool = True,
    ) -> Optional[Event]:
        """Notifiable PUT; returns the local-completion event, or
        ``None`` with ``done=False`` (see :meth:`Nic.post_put
        <repro.netsim.nic.Nic.post_put>`).

        ``remote_custom``/``local_custom`` land in the corresponding
        CQ entries.  ``remote_action``/``local_action`` are Level-4
        hardware atomic adds executed by the NIC when supported.
        ``remote_token``/``local_token`` tag the CQ entries for
        duplicate suppression when the reliability layer retransmits.
        """
        src_nic, dst_nic, remote_record, local_record = self._prepare(
            "put_remote", "put_local", src_rank, dst_rank, nbytes, rail, remote_custom,
            local_custom, remote_action, local_action, remote_token, local_token,
        )
        return src_nic.post_put(
            dst_nic,
            nbytes,
            payload=payload,
            on_deliver=on_deliver,
            local_record=local_record,
            remote_record=remote_record,
            remote_action=remote_action,
            local_action=local_action,
            ordered=ordered,
            done=done,
        )

    # ------------------------------------------------------------------
    def get(
        self,
        src_rank: int,
        dst_rank: int,
        nbytes: int,
        *,
        fetch: Optional[Callable[[], Any]] = None,
        on_deliver: Optional[Callable[[Any], None]] = None,
        remote_custom: Optional[int] = None,
        local_custom: Optional[int] = None,
        remote_action: Optional[Callable[[], None]] = None,
        local_action: Optional[Callable[[], None]] = None,
        rail: int = 0,
        remote_token: Any = None,
        local_token: Any = None,
        done: bool = True,
    ) -> Optional[Event]:
        """Notifiable GET from ``dst_rank``'s memory into ``src_rank``'s;
        returns the local-completion event, or ``None`` with
        ``done=False``."""
        src_nic, dst_nic, remote_record, local_record = self._prepare(
            "get_remote", "get_local", src_rank, dst_rank, nbytes, rail, remote_custom,
            local_custom, remote_action, local_action, remote_token, local_token,
        )
        return src_nic.post_get(
            dst_nic,
            nbytes,
            fetch=fetch,
            on_deliver=on_deliver,
            local_record=local_record,
            remote_record=remote_record,
            remote_action=remote_action,
            local_action=local_action,
            done=done,
        )

    def __repr__(self) -> str:
        return f"<{type(self).__name__} {self.name} level={self.level()}>"
