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
    """Notifiable RMA over one interface for all ranks of a job."""

    #: overridden by subclasses
    capability: Capability = None  # type: ignore[assignment]
    name: str = "abstract"
    #: True when notification is delivered by the channel software itself
    #: (MPI fallback) rather than via CQ entries + polling.
    software_notify: bool = False

    def __init__(self, job: Job):
        if self.capability is None:
            raise TypeError("RmaChannel subclasses must define a capability")
        self.job = job
        self.env = job.env
        # Per-post constants, resolved once: the capability and the
        # cluster spec are both fixed for the life of the channel.
        cap = self.capability
        self._width_bits = {
            side: getattr(cap, f"effective_{side}") for side in _SIDE_LABELS
        }
        self._hw_atomic_offload = bool(job.cluster.spec.nic.atomic_offload)

    def check_payload_width(self, value: Optional[int], side: str) -> int:
        """Validate a custom-bit payload against one completion side.

        ``side`` is ``put_remote``/``put_local``/``get_remote``/
        ``get_local``; the effective Table II width of this interface is
        the budget.  All adapters route their payloads through here.
        """
        return fit_custom(
            value, self._width_bits[side], _SIDE_LABELS[side],
            self.capability.interface,
        )

    # ------------------------------------------------------------------
    @property
    def n_rails(self) -> int:
        return self.job.cluster.spec.node.nics

    def hw_atomic_offload(self) -> bool:
        """True when the simulated NICs implement Level-4 atomic add."""
        return self._hw_atomic_offload

    def level(self) -> int:
        """UNR support level of this channel on this cluster."""
        return support_level(self.capability, self.hw_atomic_offload())

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
        # fit_custom(None, ...) is 0 before any check: only a payload
        # that exists is width-checked.
        offload = self._hw_atomic_offload
        if remote_custom is not None and (remote_action is None or not offload):
            self.check_payload_width(remote_custom, "put_remote")
        if local_custom is not None and (local_action is None or not offload):
            self.check_payload_width(local_custom, "put_local")
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
                    "put_remote", remote_custom, nbytes, src_node, dst_node,
                    None, None, now, 0.0, remote_token,
                )
            if local_custom is not None:
                local_record = alloc_record(
                    "put_local", local_custom, nbytes, src_node, dst_node,
                    None, None, now, 0.0, local_token,
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
        # fit_custom(None, ...) is 0 before any check: only a payload
        # that exists is width-checked.
        offload = self._hw_atomic_offload
        if remote_custom is not None and (remote_action is None or not offload):
            self.check_payload_width(remote_custom, "get_remote")
        if local_custom is not None and (local_action is None or not offload):
            self.check_payload_width(local_custom, "get_local")
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
                    "get_remote", remote_custom, nbytes, src_node, dst_node,
                    None, None, now, 0.0, remote_token,
                )
            if local_custom is not None:
                local_record = alloc_record(
                    "get_local", local_custom, nbytes, src_node, dst_node,
                    None, None, now, 0.0, local_token,
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
        return f"<{type(self).__name__} level={self.level()}>"
