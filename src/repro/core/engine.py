"""The unified transfer engine: one datapath for every UNR operation.

The paper's UNR Transport Layer (§IV-B) is a *single* abstraction that
schedules every notifiable-RMA operation over UNR Transport Channels.
This module is that chokepoint for the reproduction:

* :class:`TransferOp` — a prepared, reusable descriptor of one logical
  operation (PUT, GET, or a Level-0 control message): stripe plan,
  encoded custom bits, software-add actions, reliability policy.
  Argument validation, signal-id resolution and stripe planning happen
  once, at :meth:`TransferEngine.prepare_put` /
  :meth:`TransferEngine.prepare_get` time — which is what makes
  :class:`~repro.core.plan.RmaPlan` replay cheap — and a request that
  repeats gets its first descriptor back from the engine's memo.
* :class:`TransferEngine` — the single :meth:`~TransferEngine.post_op`
  pipeline that PUT, GET, control messages and the MPI fallback channel
  all route through: payload capture, idempotence-token minting, the
  one wire call per attempt (:meth:`~TransferEngine._attempt`) and the
  trailing Level-0 notification attach here once instead of
  per-call-site.  Passive tools attach at its one seam,
  :attr:`TransferEngine.on_post`.
* :class:`PayloadPool` — where a large payload snapshot is taken: into
  a pooled buffer that nothing holds any more, when there is one.

The datapath trusts the fabric.  A reliable fragment is handed, after
its tokens and payload snapshot, to the watchdog ladder of
:mod:`repro.core.reliability` (``TransferEngine.reliable``), which posts
each attempt back through :meth:`~TransferEngine._attempt`.  The
per-node polling thread that drains the completion queues is
:class:`~repro.core.polling.ProgressEngine`.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from sys import getrefcount
from typing import TYPE_CHECKING, Any, Callable, Dict, List, Optional, Tuple

import numpy as np

from ..netsim import alloc_record
from .errors import UnrUsageError
from .levels import LevelPolicy, encode_custom
from .signal import submessage_addends
from .transport import plan_stripes

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .api import Unr
    from .memory import Blk
    from .reliability import ReliableDelivery

__all__ = [
    "CTRL_BYTES",
    "FALLBACK_RAIL",
    "POOL_FLOOR",
    "PayloadPool",
    "StripePlan",
    "TransferOp",
    "TransferEngine",
]

CTRL_BYTES = 24  # wire size of a (p, a) control message

#: sentinel "rail" meaning the degraded MPI fallback lane
FALLBACK_RAIL = -1

#: distinct PUT shapes remembered per engine before the memo starts over
#: (an application uses a handful; a size sweep must not grow it forever)
_SHAPE_MEMO_LIMIT = 4096

#: prepared PUT/GET descriptors remembered per engine before the memo
#: starts over.  A halo or ping-pong repeats a few BLK pairs; a transpose
#: that posts every pair once only misses, so a full memo must stay
#: small beside a large run's footprint (about 1 KiB an entry).
_OP_MEMO_LIMIT = 512

#: smallest payload snapshot, in bytes, that :class:`PayloadPool` serves
#: from a dead pooled buffer; a smaller one is a fresh ``.copy()``, which
#: costs less than the pool's scan there (docs/performance.md, "A payload
#: snapshot reuses a dead buffer", has the crossover)
POOL_FLOOR = 64 * 1024


def _dead_reading() -> int:
    """What ``getrefcount`` reads for a buffer only a list holds, read
    the way :meth:`PayloadPool.snapshot` reads it: loop variable, then
    the call."""
    reading = 0
    for buf in [np.empty(0, np.uint8)]:
        reading = getrefcount(buf)
    return reading


#: ``getrefcount`` of a pooled buffer nothing else holds: the list, the
#: loop variable and the call's argument, 3 on CPython 3.11.  Read at
#: import rather than written down: an interpreter that borrows the
#: argument's reference reads fewer, and a constant there would hand out
#: a buffer that one holder still uses.
_DEAD = _dead_reading()


#: (node index, signal id, addend) — a software MMAS add to apply.
AddSpec = Tuple[int, int, int]


@dataclass(slots=True, eq=False)
class StripePlan:
    """One pre-validated fragment of a :class:`TransferOp`.

    Everything static is resolved at prepare time: the destination byte
    view, the encoded custom bits, and which side's add (if any) must be
    applied in software.  Only the payload snapshot and the idempotence
    tokens are per-post.

    Immutable by convention: only :meth:`TransferEngine._carriage`
    constructs one, nothing writes a field afterwards, and a retransmit
    reads the very object its first attempt read (not ``frozen``: a
    frozen dataclass pays an ``object.__setattr__`` per field, and one
    is built per fragment per PUT).

    ``view`` is the destination byte view written on delivery by
    ``deliver`` (both ``None`` when either side of the transfer is a
    virtual region — geometry only).  ``remote_add`` /
    ``local_action_add`` are applied by the channel's remote / local
    action (software notify, or Level-4 hardware offload at that side);
    ``local_done_add`` when the post's send completes (no local custom
    bits: the sender knows its own posts).  ``remote_sig`` /
    ``local_sig`` are the raw ``(node, sid, addend)`` of the two
    notifications, independent of the custom-bit
    encoding chosen above — the degraded fallback path synthesizes the
    same notifications from these (with the same idempotence tokens),
    and the drain protocol discharges them for cancelled fragments.
    """

    index: int
    rail: int
    offset: int
    size: int
    view: Any = None
    remote_custom: Optional[int] = None
    local_custom: Optional[int] = None
    remote_add: Optional[AddSpec] = None
    local_action_add: Optional[AddSpec] = None
    local_done_add: Optional[AddSpec] = None
    remote_sig: Optional[AddSpec] = None
    local_sig: Optional[AddSpec] = None
    #: the callback that writes ``view`` on delivery, built once here
    #: rather than per post (``None`` with ``view``)
    deliver: Optional[Callable[[Any], None]] = None

    def __repr__(self) -> str:
        return (
            f"<StripePlan #{self.index} rail={self.rail} "
            f"[{self.offset}, {self.offset + self.size})>"
        )


@dataclass(slots=True, eq=False)
class TransferOp:
    """A prepared transfer descriptor, replayable via :meth:`TransferEngine.post_op`.

    ``kind`` is ``'put'``, ``'get'`` or ``'ctrl'``.  For RMA kinds the
    blocks are kept so a tool at the ``post_op`` boundary can read what
    each post touches.  Immutable by convention, like
    :class:`StripePlan`: a PUT/GET descriptor is shared by every post
    of the same request (the engine's memo, plan replay), so nothing
    writes a field after construction.  Built positionally on the
    post path; the field order is part of that contract.
    """

    kind: str
    src_rank: int
    dst_rank: int
    src_node: int
    dst_node: int
    nbytes: int
    local_blk: Optional["Blk"] = None
    remote_blk: Optional["Blk"] = None
    rsid: Optional[int] = None
    lsid: Optional[int] = None
    software: bool = False
    ctrl_remote: bool = False
    reliable: bool = False
    stripes: Tuple[StripePlan, ...] = ()
    #: PUT only: source byte view payload snapshots are taken from at
    #: each post (the data may change between plan replays); ``None``
    #: when either side is virtual.
    src_bytes: Any = None
    #: GET only: remote-side fetch closure (``None`` for virtual runs).
    fetch: Optional[Callable[[], Any]] = None
    #: GET only: a local done-add or a Level-0 tail waits for the read
    #: to complete (see :meth:`TransferEngine._hang_get_tails`).
    tails: bool = False
    #: ctrl only: out-of-band payload + delivery callback…
    payload: Any = None
    on_deliver: Optional[Callable[[Any], None]] = None
    #: …or the sid of a Level-0 signal notification (addend -1).
    ctrl_sid: Optional[int] = None


class PayloadPool:
    """Payload snapshots that reuse a buffer nothing holds any more.

    The put/get contract (paper §IV-D) lets a caller reuse its source as
    soon as ``put()`` returns, so every real-memory PUT fragment is
    copied at post and every GET at fetch.  A snapshot of at least
    :data:`POOL_FLOOR` bytes is written into a pooled buffer of its size
    whose only reference is the pool's own list; without one it is a
    fresh copy, which the pool keeps, after first releasing the dead
    buffers of other sizes (so a run that moves to another size does not
    hold the old ones).  A size therefore never holds more buffers than
    were alive at once.

    Reference counting is the whole bookkeeping: whatever still holds a
    snapshot — the NIC event carrying it, a fault injector's pending
    duplicate, a reliable fragment awaiting retransmit, the fallback
    lane's steps, a delivery callback that kept it — keeps that buffer
    out of reuse.  :meth:`clear` (``Unr.finalize()``) drops them all.
    """

    __slots__ = ("_bufs",)

    def __init__(self) -> None:
        #: every pooled buffer, held or dead, by size in bytes
        self._bufs: Dict[int, List[np.ndarray]] = {}

    def snapshot(self, view: np.ndarray) -> np.ndarray:
        """A private copy of the byte view ``view``."""
        size = len(view)
        if size < POOL_FLOOR:
            return view.copy()
        bufs = self._bufs.get(size)
        if bufs is None:
            bufs = self._bufs[size] = []
        else:
            for buf in bufs:
                if getrefcount(buf) == _DEAD:
                    buf[:] = view
                    return buf
        for other, held in self._bufs.items():
            if other != size:
                held[:] = [buf for buf in held if getrefcount(buf) > _DEAD]
        buf = view.copy()
        bufs.append(buf)
        return buf

    def clear(self) -> None:
        """Drop every pooled buffer (held ones stay with their holders)."""
        self._bufs.clear()


class TransferEngine:
    """The one posting pipeline behind ``put``/``get``/ctrl/fallback."""

    def __init__(self, unr: "Unr") -> None:
        self.unr = unr
        self.env = unr.env
        self.job = unr.job
        #: fragment geometry per distinct PUT shape, see _stripe_shape
        self._shapes: Dict[tuple, Tuple[Tuple[int, int, int, int, int], ...]] = {}
        #: prepared PUT/GET descriptor per distinct request, see _remember
        self._ops: Dict[tuple, TransferOp] = {}
        #: The engine's one seam: ``on_post(op, sp, rail, attempt, rtok,
        #: ltok, deliver)`` runs at every wire post — each fragment's
        #: first (``attempt`` 0; ``sp`` is ``None`` for a control
        #: message), and each watchdog retransmit — and returns the
        #: delivery callback a first post goes out with.  ``None``: off.
        self.on_post: Optional[Callable[..., Any]] = None
        #: payload snapshots of PUT fragments and GET fetches
        self.payloads = PayloadPool()
        #: the watchdog ladder every reliable fragment is handed to;
        #: ``None`` unless ``Unr(reliability=True)``
        self.reliable: Optional["ReliableDelivery"] = None
        if unr.reliability:
            from .reliability import ReliableDelivery

            self.reliable = ReliableDelivery(self)

    # -- prepare: descriptors --------------------------------------------
    def prepare_put(
        self,
        src_rank: int,
        src_blk: "Blk",
        dst_blk: "Blk",
        rsid: Optional[int],
        lsid: Optional[int],
    ) -> TransferOp:
        """Validate and plan one PUT; returns a replayable descriptor.

        A request seen before returns the descriptor that passed every
        check then (see :meth:`_remember`).  Otherwise, per PUT:
        argument checks, the two region lookups and placements, one
        bounds-checked slice of each block.  Per fragment: the
        destination sub-view, the custom-bit encoding and one
        :class:`StripePlan`.  The fragment geometry itself comes from
        :meth:`_stripe_shape`, computed once per distinct shape.
        """
        unr = self.unr
        # The striping knobs are read live, as _stripe_shape does.
        key = (id(src_blk), id(dst_blk), src_rank, rsid, lsid,
               unr.stripe_threshold, unr.max_stripe_rails, unr.n_bits)
        op = self._ops.get(key)
        if op is not None:
            return op
        size = src_blk.size
        if src_blk.rank != src_rank:
            raise UnrUsageError(f"put source BLK belongs to rank {src_blk.rank}")
        if size != dst_blk.size:
            raise UnrUsageError(
                f"size mismatch: src {size}B vs dst {dst_blk.size}B"
            )
        src_mr = unr._mr_of(src_blk)
        dst_mr = unr._mr_of(dst_blk)
        dst_rank = dst_blk.rank
        src_at = self.job.node_of(src_rank)
        dst_at = self.job.node_of(dst_rank)
        src_node = src_at.index
        dst_node = dst_at.index

        software = unr.channel.software_notify
        rpol = unr.put_remote_policy
        lpol = unr.put_local_policy
        ctrl_remote = self._ctrl_remote(rsid, rpol, software)
        # Striping requires hardware addend bits on every side that
        # carries a signal, and non-degraded signal ids.
        multi_ok = (
            not software
            and not ctrl_remote
            and (rsid is None or (rpol.multi_channel and rpol.a_bits > 0))
            and (lsid is None or (lpol.multi_channel and lpol.a_bits > 0))
        )
        shape = self._stripe_shape(
            size,
            min(len(src_at.nics), len(dst_at.nics)),
            multi_ok,
            rpol if rsid is not None else lpol,
        )
        # Stripes tile [0, size) (plan_stripes asserts it), so checking
        # the whole block admits exactly what per-fragment checks would.
        src_bytes = src_mr.slice(src_blk.offset, size)
        dst_bytes = dst_mr.slice(dst_blk.offset, size)
        if src_bytes is None or dst_bytes is None:
            src_bytes = dst_bytes = None  # virtual on either side: geometry only
        wire_rsid = None if ctrl_remote else rsid
        stripes = tuple([
            self._carriage(row, dst_bytes, software,
                           wire_rsid, dst_node, rpol, lsid, src_node, lpol)
            for row in shape
        ])
        return self._remember(key, TransferOp(
            "put", src_rank, dst_rank, src_node, dst_node, size,
            src_blk, dst_blk, rsid, lsid, software, ctrl_remote,
            # The ordered Level-0 lane and the MPI fallback are already
            # reliable (exactly-once, in order); only unordered RDMA
            # fragments need the watchdog.
            unr.reliability and not software and not ctrl_remote,
            stripes, src_bytes,
        ))

    def _stripe_shape(
        self, size: int, n_rails: int, multi_ok: bool, policy: LevelPolicy
    ) -> Tuple[Tuple[int, int, int, int, int], ...]:
        """Fragment geometry of a ``size``-byte PUT: a tuple of
        ``(index, rail, offset, size, addend)``, one per fragment.

        How a message is striped (paper §IV-B) and which MMAS addend
        each sub-message carries is a pure function of the size, the
        rail count, whether the level can aggregate, and the striping
        knobs — so it is planned once per distinct shape and looked up
        after that.  The key holds *every* input of ``plan_stripes``,
        ``submessage_addends`` and ``_max_stripe_k``, with the knobs
        read from the live ``Unr`` on each call: one changed after
        construction selects a different entry.  One addend per
        fragment serves both notifications (remote and local count the
        same sub-messages).
        """
        unr = self.unr
        key = (
            size, n_rails, multi_ok, policy.a_bits, unr.n_bits,
            unr.max_stripe_rails, unr.stripe_threshold,
        )
        shape = self._shapes.get(key)
        if shape is None:
            max_k = self._max_stripe_k(policy)
            if unr.max_stripe_rails:
                max_k = min(max_k, unr.max_stripe_rails)
            stripes = plan_stripes(
                size,
                n_rails,
                threshold=unr.stripe_threshold,
                multi_channel=multi_ok,
                max_fragments=max_k,
            )
            addends = submessage_addends(len(stripes), unr.n_bits)
            shape = tuple(
                (st.index, st.rail, st.offset, st.size, addend)
                for st, addend in zip(stripes, addends)
            )
            if len(self._shapes) >= _SHAPE_MEMO_LIMIT:
                self._shapes.clear()
            self._shapes[key] = shape
        return shape

    def prepare_get(
        self,
        src_rank: int,
        local_blk: "Blk",
        remote_blk: "Blk",
        rsid: Optional[int],
        lsid: Optional[int],
    ) -> TransferOp:
        """Validate and plan one GET; returns a replayable descriptor,
        the remembered one for a request seen before (:meth:`_remember`)."""
        # No striping knob: a GET is one fragment whatever they say.
        key = (id(local_blk), id(remote_blk), src_rank, rsid, lsid)
        op = self._ops.get(key)
        if op is not None:
            return op
        unr = self.unr
        if local_blk.rank != src_rank:
            raise UnrUsageError(f"get local BLK belongs to rank {local_blk.rank}")
        if local_blk.size != remote_blk.size:
            raise UnrUsageError(
                f"size mismatch: local {local_blk.size}B vs remote {remote_blk.size}B"
            )
        local_mr = unr._mr_of(local_blk)
        remote_mr = unr._mr_of(remote_blk)
        src_node = unr._node_index(src_rank)
        remote_node = unr._node_index(remote_blk.rank)

        software = unr.channel.software_notify
        rpol = unr.get_remote_policy
        ctrl_remote = self._ctrl_remote(rsid, rpol, software)
        size = local_blk.size
        remote_view = remote_mr.slice(remote_blk.offset, size)
        local_view = local_mr.slice(local_blk.offset, size)
        virtual = remote_view is None or local_view is None
        sp = self._carriage(
            (0, 0, 0, size, -1), None if virtual else local_view, software,
            None if ctrl_remote else rsid, remote_node, rpol,
            lsid, src_node, unr.get_local_policy,
        )
        return self._remember(key, TransferOp(
            "get", src_rank, remote_blk.rank, src_node, remote_node, size,
            local_blk, remote_blk, rsid, lsid, software, ctrl_remote,
            unr.reliability and not software,
            (sp,), None,  # no src_bytes: the data comes back in fetch
            None if virtual else partial(self.payloads.snapshot, remote_view),
            sp.local_done_add is not None or ctrl_remote,
        ))

    def _remember(self, key: tuple, op: TransferOp) -> TransferOp:
        """Store ``op``, which passed every check of its prepare, as the
        answer to every later request with the same ``key``.

        The key holds everything a prepare reads that can differ between
        calls: the identity of both BLKs (frozen, and kept alive by the
        stored op, so an id cannot be reused while its entry lives), the
        posting rank, both signal ids and — for a PUT — the live
        striping knobs.  The rest (channel, level policies, reliability,
        node placement, registered regions) is fixed for the life of the
        ``Unr``.  A PUT key is longer than a GET key, so the kinds never
        share an entry.  Posting a shared descriptor is what plan
        replay does, so a hit schedules exactly what a fresh prepare
        would.  Bounded like the shape memo: at the limit it starts
        over.
        """
        ops = self._ops
        if len(ops) >= _OP_MEMO_LIMIT:
            ops.clear()
        ops[key] = op
        return op

    # -- carriage: how each side's notification travels (Table I) ---------
    def _ctrl_remote(self, rsid: Optional[int], rpol: LevelPolicy, software: bool) -> bool:
        """Does the remote notification travel as a trailing Level-0
        ordered message?  At a Level-0 remote side, or for a signal id
        past what the pointer bits address — unless the channel
        notifies in software anyway."""
        return rsid is not None and not software and (
            rpol.level == 0 or rsid >= self.unr.sid_capacity
        )

    @staticmethod
    def _carriage(
        row: Tuple[int, int, int, int, int],
        dst_bytes: Any,
        software: bool,
        rsid: Optional[int],
        remote_node: int,
        rpol: LevelPolicy,
        lsid: Optional[int],
        local_node: int,
        lpol: LevelPolicy,
    ) -> StripePlan:
        """The :class:`StripePlan` of one fragment ``row`` = ``(index,
        rail, offset, size, addend)``, landing in its slice of
        ``dst_bytes`` (``None``: geometry only).

        Each side's ``(node, sid, addend)`` travels one way: as an add in
        the channel's action (software notify, or Level-4 offload at that
        side), as a Level-0 local side's add when the send completes (no
        custom bits to carry it), or as the side's encoded custom bits.
        ``rsid`` is ``None`` when the remote side carries nothing: no
        signal, or a :meth:`_ctrl_remote` tail.  Level 0 never offloads,
        so the local side's test order is immaterial."""
        index, rail, offset, size, addend = row
        remote_custom = local_custom = None
        remote_add = local_action_add = local_done_add = None
        remote_sig = local_sig = None
        if rsid is not None:
            remote_sig = (remote_node, rsid, addend)
            if software or rpol.hw_offload:
                remote_add = remote_sig
            else:
                remote_custom = encode_custom(rsid, addend, rpol)
        if lsid is not None:
            local_sig = (local_node, lsid, addend)
            if software or lpol.hw_offload:
                local_action_add = local_sig
            elif lpol.level == 0:
                local_done_add = local_sig
            else:
                local_custom = encode_custom(lsid, addend, lpol)
        view = None if dst_bytes is None else dst_bytes[offset : offset + size]
        return StripePlan(
            index, rail, offset, size, view,
            remote_custom, local_custom,
            remote_add, local_action_add, local_done_add,
            remote_sig, local_sig,
            None if view is None else TransferEngine._write_view(view),
        )

    def prepare_ctrl(
        self,
        src_rank: int,
        dst_rank: int,
        *,
        payload: Any = None,
        on_deliver: Optional[Callable[[Any], None]] = None,
        nbytes: int = CTRL_BYTES,
    ) -> TransferOp:
        """An out-of-band control message (``send_ctl``, BLK exchange)."""
        unr = self.unr
        return TransferOp(
            kind="ctrl",
            src_rank=src_rank, dst_rank=dst_rank,
            src_node=unr._node_index(src_rank),
            dst_node=unr._node_index(dst_rank),
            nbytes=nbytes,
            payload=payload, on_deliver=on_deliver,
        )

    @staticmethod
    def _ctrl_tail(op: TransferOp) -> TransferOp:
        """The Level-0 scheme for ``op``'s remote notification: an
        ordered message carrying ``(p, a) = (rsid, -1)``."""
        return TransferOp(
            kind="ctrl",
            src_rank=op.src_rank, dst_rank=op.dst_rank,
            src_node=op.src_node, dst_node=op.dst_node,
            nbytes=CTRL_BYTES,
            ctrl_sid=op.rsid,
        )

    # -- post: the one pipeline ------------------------------------------
    def post_op(self, op: TransferOp) -> None:
        """Post a prepared descriptor (non-blocking).

        Every datapath terminates here: PUTs and GETs (direct or plan
        replay), Level-0 control notifications, out-of-band control
        messages, and the MPI fallback (whose channel this pipeline
        posts into like any other).  Nothing is returned: RMA completion
        is observed through signals, a control message's through its
        delivery callback.
        """
        unr = self.unr
        if op.kind == "ctrl":
            self._post_ctrl(op)
        elif op.kind == "put":
            unr.stats["puts"] += 1
            unr.stats["fragments"] += len(op.stripes)
            for sp in op.stripes:
                self._post_fragment(op, sp)
            if op.ctrl_remote:
                self.post_op(self._ctrl_tail(op))
        elif op.kind == "get":
            unr.stats["gets"] += 1
            self._post_fragment(op, op.stripes[0])
        else:
            raise UnrUsageError(f"unknown transfer kind {op.kind!r}")

    def _post_fragment(self, op: TransferOp, sp: StripePlan) -> None:
        """Post one fragment of a PUT, or a GET: idempotence tokens and
        payload capture, then either :attr:`on_post` and the one attempt
        on the plan's rail, or — for a reliable op — the hand-off to
        :attr:`reliable`, which owns the fragment from there on."""
        unr = self.unr
        reliable = op.reliable
        # Idempotence tokens, remote then local, in plan order.
        rtok = unr._next_token() if reliable and sp.remote_sig is not None else None
        ltok = unr._next_token() if reliable and sp.local_sig is not None else None
        src = op.src_bytes  # PUT with real memory on both sides only
        # Snapshot at post: the caller may reuse the source as soon as
        # put() returns, and a retransmit must resend the bytes as they
        # were then.
        payload = (None if src is None
                   else self.payloads.snapshot(src[sp.offset : sp.offset + sp.size]))
        ladder = self.reliable
        if reliable:
            assert ladder is not None
            ladder.post(op, sp, payload, rtok, ltok)
            return
        if ladder is not None:
            # An unreliable post under the ladder is a single fragment
            # on the software or an ordered lane: it dies only with the peer.
            ladder._check_peer_alive(op)
        deliver = sp.deliver
        if self.on_post is not None:
            deliver = self.on_post(op, sp, sp.rail, 0, rtok, ltok, deliver)
        done = self._attempt(op, sp, payload, deliver, rtok, ltok, sp.rail)
        if op.tails:
            self._hang_get_tails(op, sp, ltok, done)

    def _hang_get_tails(
        self, op: TransferOp, sp: StripePlan, ltok: Optional[int], evt: Any
    ) -> None:
        """A GET's local add and Level-0 tail fire once, when ``evt``
        completes: its one attempt, or — reliable — its *actual*
        delivery, however many attempts that took."""
        if sp.local_done_add is not None:
            evt.callbacks.append(self._add_callback(sp.local_done_add, ltok))
        if op.ctrl_remote:
            # Notify the target after our read completed.
            evt.callbacks.append(self._ctrl_callback(op))

    def _attempt(
        self,
        op: TransferOp,
        sp: StripePlan,
        payload: Any,
        deliver: Optional[Callable[[Any], None]],
        rtok: Optional[int],
        ltok: Optional[int],
        rail: int,
    ) -> Any:
        """One wire attempt of one fragment on ``rail`` (or the fallback
        lane); returns the channel's local-completion event when
        something hangs on it, else ``None``.

        The first post and every watchdog retransmit come through here
        with the same plan, payload snapshot, delivery callback and
        idempotence tokens; only the rail moves.  The fallback lane
        takes rail 0 and applies both notifications in software from the
        raw specs, with the same tokens.  The completion event is asked
        for only where it is listened to: a PUT's send-completion add,
        or the tails of an unreliable GET (a reliable GET hangs them on
        its first delivery instead).
        """
        unr = self.unr
        if rail != FALLBACK_RAIL:
            channel = unr.channel
            remote_custom, local_custom = sp.remote_custom, sp.local_custom
            remote_add, local_add = sp.remote_add, sp.local_action_add
            done_add = sp.local_done_add
        else:
            unr.stats["fallback_posts"] += 1
            channel, rail = unr._fallback(), 0
            remote_custom = local_custom = done_add = None
            remote_add, local_add = sp.remote_sig, sp.local_sig
        remote_action = None if remote_add is None else self._add_action(remote_add, rtok)
        local_action = None if local_add is None else self._add_action(local_add, ltok)
        if op.kind == "get":
            return channel.get(
                op.src_rank, op.dst_rank, sp.size,
                fetch=op.fetch, on_deliver=deliver,
                remote_custom=remote_custom, local_custom=local_custom,
                remote_action=remote_action, local_action=local_action,
                rail=rail, remote_token=rtok, local_token=ltok,
                done=op.tails and not op.reliable,
            )
        done = channel.put(
            op.src_rank, op.dst_rank, sp.size,
            payload=payload, on_deliver=deliver,
            remote_custom=remote_custom, local_custom=local_custom,
            remote_action=remote_action, local_action=local_action,
            rail=rail,
            ordered=op.ctrl_remote,  # Level-0 data must stay ordered
            remote_token=rtok, local_token=ltok, done=done_add is not None,
        )
        if done_add is not None:
            # A PUT's send-completion add is armed once per attempt;
            # under retransmits the idempotence token keeps it single.
            assert done is not None
            done.callbacks.append(self._add_callback(done_add, ltok))
        return done

    def _post_ctrl(self, op: TransferOp) -> None:
        """Post one control message on the ordered lane: an out-of-band
        payload, or the Level-0 ``(p, a)`` of a signal notification."""
        unr = self.unr
        if self.reliable is not None:
            self.reliable._check_peer_alive(op)
        on_del = op.on_deliver
        if op.ctrl_sid is not None:
            unr.stats["ctrl_msgs"] += 1
            on_del = self._ctrl_delivery(op)
        if self.on_post is not None:
            on_del = self.on_post(op, None, 0, 0, None, None, on_del)
        unr.channel.put(
            op.src_rank,
            op.dst_rank,
            op.nbytes,
            payload=op.payload,
            on_deliver=on_del,
            ordered=True,
            done=False,
        )

    def _ctrl_delivery(self, op: TransferOp) -> Callable[[Any], None]:
        """Delivery of a Level-0 message: a ``ctrl`` record carrying
        ``(sid, -1)`` onto the target NIC's completion queue."""
        env = self.env
        dst_nic = self.job.nic_of(op.dst_rank)
        sid, src_node, dst_node = op.ctrl_sid, op.src_node, op.dst_node

        def deliver(_payload: Any) -> None:
            rec = alloc_record(
                "ctrl",
                payload=(sid, -1),
                src_node=src_node,
                dst_node=dst_node,
                complete_time=env.now,
            )
            # Synchronous enqueue (no kernel events); a full CQ falls
            # back to the blocking push for backpressure.
            if not dst_nic.cq.try_push(rec):
                env.process(dst_nic.cq.push(rec), name="ctrl-cqe")

        return deliver

    # -- delivery / add closures -----------------------------------------
    @staticmethod
    def _write_view(view: Any) -> Callable[[Any], None]:
        def deliver(data: Any, view: Any = view) -> None:
            view[:] = data

        return deliver

    def _add_action(self, spec: AddSpec, token: Optional[int]) -> Callable[[], None]:
        unr = self.unr
        node, sid, addend = spec
        return lambda: unr._apply_add(node, sid, addend, token=token)

    def _add_callback(
        self, spec: AddSpec, token: Optional[int]
    ) -> Callable[[Any], None]:
        unr = self.unr
        node, sid, addend = spec
        return lambda _e: unr._apply_add(node, sid, addend, token=token)

    def _ctrl_callback(self, op: TransferOp) -> Callable[[Any], None]:
        return lambda _e: self.post_op(self._ctrl_tail(op))

    def _max_stripe_k(self, policy: LevelPolicy) -> int:
        """Largest stripe count whose addends fit the policy's bits."""
        if policy.a_bits == 0:
            return 1
        budget = policy.a_bits - 2 - self.unr.n_bits
        if budget <= 0:
            return 1
        return min(1 << budget, 1 << 16)
