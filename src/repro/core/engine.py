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
  :class:`~repro.core.plan.RmaPlan` replay cheap.
* :class:`TransferEngine` — the single :meth:`~TransferEngine.post_op`
  pipeline that PUT, GET, control messages and the MPI fallback channel
  all route through: payload capture, idempotence-token minting, rail
  failover, the watchdog retransmit loop and the trailing Level-0
  notification attach here once instead of per-call-site.  Passive
  tools attach at its one seam, :attr:`TransferEngine.on_post`.
* :class:`ProgressEngine` — the per-node progress core (the paper's
  polling thread): drains all of a node's NIC completion queues in
  batched sweeps and dispatches each record to the handler registered
  for its kind (MMAS signal adds, ctrl-message applies, …).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import (
    TYPE_CHECKING,
    Any,
    Callable,
    Dict,
    List,
    Optional,
    Set,
    Tuple,
)

from ..netsim import CompletionRecord, Node, alloc_record, recycle_record
from ..sim import Environment, InFlight
from ..units import US
from .errors import (
    OpContext,
    UnrPeerDeadError,
    UnrTimeoutError,
    UnrUsageError,
)
from .health import scan_rails
from .levels import LevelPolicy, encode_custom
from .polling import SWEEP_BATCH, PollingConfig
from .signal import submessage_addends
from .transport import BACKOFF_FACTOR, MAX_BACKOFF_US, MAX_RETRIES, fragment_timeout, plan_stripes

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .api import Unr
    from .health import HealthMonitor
    from .memory import Blk

__all__ = [
    "CTRL_BYTES",
    "FALLBACK_RAIL",
    "StripePlan",
    "TransferOp",
    "TransferEngine",
    "ProgressEngine",
]

CTRL_BYTES = 24  # wire size of a (p, a) control message

#: sentinel "rail" meaning the degraded MPI fallback lane (health layer)
FALLBACK_RAIL = -1

#: distinct PUT shapes remembered per engine before the memo starts over
#: (an application uses a handful; a size sweep must not grow it forever)
_SHAPE_MEMO_LIMIT = 4096


def _target_label(rail: int) -> str:
    return "fallback" if rail == FALLBACK_RAIL else f"rail{rail}"


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

    ``view`` is the destination byte view written on delivery (``None``
    when either side of the transfer is a virtual region — geometry
    only).  ``remote_add`` / ``local_action_add`` are applied by the
    channel's remote / local action (software notify, or Level-4
    hardware offload at that side); ``local_done_add`` when the post's
    send completes (no local custom bits: the sender knows its own
    posts).  ``remote_sig`` / ``local_sig`` are the raw ``(node, sid,
    addend)`` of the two notifications, independent of the custom-bit
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

    def __repr__(self) -> str:
        return (
            f"<StripePlan #{self.index} rail={self.rail} "
            f"[{self.offset}, {self.offset + self.size})>"
        )


@dataclass
class TransferOp:
    """A prepared transfer descriptor, replayable via :meth:`TransferEngine.post_op`.

    ``kind`` is ``'put'``, ``'get'`` or ``'ctrl'``.  For RMA kinds the
    blocks are kept so a tool at the ``post_op`` boundary can read what
    each post touches.
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


@dataclass(slots=True)
class _Fragment:
    """One reliable fragment, from its post until delivery or cancel.

    Held by its current attempt's :class:`_FragmentTimer` and, while in
    flight, by ``TransferEngine._inflight``.  ``payload`` and
    ``deliver`` are what every attempt posts again, released at the
    first delivery (or a cancel) so the stale timer pins no snapshot and
    the callback, which holds the fragment, leaves no cycle behind.
    ``done`` is the event a reliable GET's tails hang on (``None`` when
    it has none, and for a PUT).  ``target``, ``timeout`` and ``cap``
    are the ladder's state: the current attempt's rail (or
    :data:`FALLBACK_RAIL`), its timeout and the backoff ceiling;
    ``attempts`` holds ``(target, post time)`` per attempt.
    """

    fid: int
    op: TransferOp
    sp: StripePlan
    done: Any
    payload: Any
    deliver: Optional[Callable[[Any], None]]
    rtok: Optional[int]
    ltok: Optional[int]
    target: int
    attempts: List[Tuple[int, float]]
    timeout: float = 0.0
    cap: float = 0.0
    delivered: bool = False
    cancelled: bool = False


class TransferEngine:
    """The one posting pipeline behind ``put``/``get``/ctrl/fallback."""

    def __init__(self, unr: "Unr") -> None:
        self.unr = unr
        self.env = unr.env
        self.job = unr.job
        #: reliable fragments still in flight, by fid in post order,
        #: each with its notification specs and tokens.  Retired on
        #: delivery, cancelled by :meth:`drain` against dead peers.
        #: Fids count up from 1 and are never reused; ``_n_fids`` is
        #: the last one handed out.
        self._inflight: Dict[int, _Fragment] = {}
        self._n_fids = 0
        #: fragment geometry per distinct PUT shape, see _stripe_shape
        self._shapes: Dict[tuple, Tuple[Tuple[int, int, int, int, int], ...]] = {}
        #: The engine's one seam: ``on_post(op, sp, rail, attempt, rtok,
        #: ltok, deliver)`` runs at every wire post — each fragment's
        #: first (``attempt`` 0; ``sp`` is ``None`` for a control
        #: message), and each watchdog retransmit — and returns the
        #: delivery callback a first post goes out with.  ``None``: off.
        self.on_post: Optional[Callable[..., Any]] = None
        #: rail failovers :meth:`_next_rail` took with health disarmed
        self.n_failovers = 0
        #: (node, sid) a drained fragment owed a tokenless Level-0
        #: notification: a shortfall there is accounted for, not leaked.
        self.undischarged: Set[Tuple[int, int]] = set()

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

        Per PUT: argument checks, the two region lookups
        and placements, one bounds-checked slice of each block.  Per
        fragment: the destination sub-view, the custom-bit encoding and
        one :class:`StripePlan`.  The fragment geometry itself comes
        from :meth:`_stripe_shape`, computed once per distinct shape.
        """
        unr = self.unr
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
        return TransferOp(
            kind="put",
            src_rank=src_rank, dst_rank=dst_rank,
            src_node=src_node, dst_node=dst_node,
            nbytes=size,
            local_blk=src_blk, remote_blk=dst_blk,
            rsid=rsid, lsid=lsid,
            software=software, ctrl_remote=ctrl_remote,
            # The ordered Level-0 lane and the MPI fallback are already
            # reliable (exactly-once, in order); only unordered RDMA
            # fragments need the watchdog.
            reliable=unr.reliability and not software and not ctrl_remote,
            stripes=stripes,
            src_bytes=src_bytes,
        )

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
        """Validate and plan one GET; returns a replayable descriptor."""
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
        return TransferOp(
            kind="get",
            src_rank=src_rank, dst_rank=remote_blk.rank,
            src_node=src_node, dst_node=remote_node,
            nbytes=size,
            local_blk=local_blk, remote_blk=remote_blk,
            rsid=rsid, lsid=lsid,
            software=software, ctrl_remote=ctrl_remote,
            reliable=unr.reliability and not software,
            stripes=(sp,),
            fetch=None if virtual else (lambda: remote_view.copy()),
            tails=sp.local_done_add is not None or ctrl_remote,
        )

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
        return StripePlan(
            index, rail, offset, size,
            None if dst_bytes is None else dst_bytes[offset : offset + size],
            remote_custom, local_custom,
            remote_add, local_action_add, local_done_add,
            remote_sig, local_sig,
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
        """Post one fragment of a PUT, or a GET: idempotence tokens,
        payload capture, rail choice, :attr:`on_post`, first attempt
        and — for a reliable op — the fragment's watchdog.

        The optional tiers are entered only when armed: the peer-alive
        check with ``unr.health``, the watchdog with a reliable op.
        """
        unr = self.unr
        reliable = op.reliable
        # Idempotence tokens, remote then local, in plan order.
        rtok = unr._next_token() if reliable and sp.remote_sig is not None else None
        ltok = unr._next_token() if reliable and sp.local_sig is not None else None
        src = op.src_bytes  # PUT with real memory on both sides only
        # Snapshot at post: the caller may reuse the source as soon as
        # put() returns, and a retransmit must resend the bytes as they
        # were then.
        payload = None if src is None else src[sp.offset : sp.offset + sp.size].copy()
        if not reliable:
            # Health needs reliability, so an unreliable post under it is
            # a single fragment on the software or an ordered lane:
            # it dies only with the peer.
            if unr.health is not None:
                self._check_peer_alive(op)
            view = sp.view
            deliver = None if view is None else self._write_view(view)
            if self.on_post is not None:
                deliver = self.on_post(op, sp, sp.rail, 0, rtok, ltok, deliver)
            done = self._attempt(op, sp, payload, deliver, rtok, ltok, sp.rail)
            if op.tails:
                self._hang_get_tails(op, sp, ltok, done)
            return
        first = self._next_rail(op, sp.rail)
        if first is None:
            raise self._peer_dead(
                op, sp.size,
                "peer is dead (no live RMA rail and the fallback lane is down)",
            )
        # A GET's tails hang on its first delivery, however many
        # attempts that takes; nothing else listens for it.
        self._n_fids += 1
        frag = _Fragment(
            self._n_fids, op, sp, self.env.event() if op.tails else None, payload,
            None, rtok, ltok, first, [(first, self.env.now)],
        )
        deliver = self._delivery(frag)
        if self.on_post is not None:
            deliver = self.on_post(op, sp, first, 0, rtok, ltok, deliver)
        frag.deliver = deliver
        if op.tails:
            self._hang_get_tails(op, sp, ltok, frag.done)
        self._inflight[frag.fid] = frag
        self._attempt(op, sp, payload, deliver, rtok, ltok, first)
        base = self._fragment_timeout(op, sp.size)
        timeout, frag.cap = base, max(MAX_BACKOFF_US * US, base)
        if first == FALLBACK_RAIL:
            fb_base = self._fragment_timeout(op, sp.size, fallback=True)
            timeout, frag.cap = max(timeout, fb_base), max(frag.cap, fb_base)
        self._arm(frag, timeout)

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
        self._check_peer_alive(op)
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
    def _delivery(self, frag: _Fragment) -> Callable[[Any], None]:
        """The delivery callback every attempt of ``frag`` posts with.

        The first delivery wins: it writes the destination, releases a
        GET's tails and retires the fragment — off ``_inflight``, its
        path proved to the health layer, a recovery counted when it took
        a retransmit.  Replicas and retransmit races must neither
        rewrite the (possibly reused) buffer nor re-arm anything.  A
        fragment drained meanwhile was retired by its cancel.
        """
        env = self.env
        health = self.unr.health
        stats = self.unr.stats
        inflight = self._inflight

        def deliver(data: Any, frag: _Fragment = frag) -> None:
            if frag.delivered:
                return
            frag.delivered = True
            view = frag.sp.view
            if view is not None and data is not None:
                view[:] = data
            frag.payload = frag.deliver = None
            if frag.done is not None:
                frag.done.succeed(env.now)
            if frag.cancelled:
                return
            target = frag.target
            if health is not None and target != FALLBACK_RAIL:
                op = frag.op
                health.on_success(op.src_rank, op.dst_rank, target)
            del inflight[frag.fid]
            if len(frag.attempts) > 1:
                stats["recovered_ops"] += 1

        return deliver

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

    # -- health / degradation routing -------------------------------------
    def _check_peer_alive(self, op: TransferOp) -> None:
        """The ordered and software lanes are the last rung of the
        degradation ladder: they only die with the peer (fail-stop node
        crash)."""
        health = self.unr.health
        if health is not None and health.fallback_dead(op.src_rank, op.dst_rank):
            raise self._peer_dead(op, op.nbytes, "peer is dead (ordered/fallback lane down)")

    def _peer_dead(self, op: TransferOp, nbytes: int, why: str) -> UnrPeerDeadError:
        """The error of a post rejected before any transmission."""
        what = op.kind.upper()
        return UnrPeerDeadError(
            f"{what} of {nbytes}B from rank {op.src_rank} to rank "
            f"{op.dst_rank}: {why}",
            context=OpContext(
                kind=what, src_rank=op.src_rank, dst_rank=op.dst_rank,
                nbytes=nbytes, sim_time_us=self.env.now / US,
            ),
        )

    def _next_rail(
        self, op: TransferOp, preferred: int, *, degrade: bool = True
    ) -> Optional[int]:
        """The one rail chooser of a *reliable* fragment, for its first
        post and every re-post: the first rail at or after ``preferred``
        whose NICs are alive on both ends and, with health armed, whose
        breaker admits traffic (:func:`~repro.core.health.scan_rails`).

        When no rail qualifies: health disarmed, ``preferred`` itself
        (the watchdog will then raise); armed, the fragment degrades to
        :data:`FALLBACK_RAIL` (counted by ``on_degraded`` when
        ``degrade``), and ``None`` means the fallback lane is dead too.
        """
        health = self.unr.health
        src_rank, dst_rank = op.src_rank, op.dst_rank
        rail, hops = scan_rails(self.job, src_rank, dst_rank, preferred, health)
        if health is None:
            if rail is None:
                return preferred % hops  # all ``hops`` rails scanned were dead
            if hops:
                self.n_failovers += 1
            return rail
        if rail is not None:
            return rail
        if health.fallback_dead(src_rank, dst_rank):
            return None
        if degrade:
            health.on_degraded(src_rank, dst_rank, op.kind.upper())
        return FALLBACK_RAIL

    # -- drain / quiesce protocol -----------------------------------------
    def drain(self, peer_rank: Optional[int] = None) -> int:
        """Quiesce in-flight reliable fragments (``Unr.drain``).

        Fragments to live peers are left to their watchdogs.  Fragments
        to a *dead* peer (fail-stop crash: even the fallback lane is
        down) are cancelled: their pending notifications are discharged
        in software through the normal idempotent-add path, so no
        signal token leaks and ``UnrSanitizer`` stays clean.  Purely
        passive — no simulator events are scheduled.  Returns the
        number of fragments cancelled.
        """
        health = self.unr.health
        cancelled = 0
        for frag in list(self._inflight.values()):
            op = frag.op
            if peer_rank is not None and op.dst_rank != peer_rank:
                continue
            if health is None or not health.fallback_dead(op.src_rank, op.dst_rank):
                continue
            self._cancel_fragment(frag)
            cancelled += 1
        return cancelled

    def _cancel_fragment(self, frag: _Fragment) -> None:
        """Discharge one cancelled fragment's notifications.

        The adds go through ``_apply_add`` with the fragment's original
        idempotence tokens: if a raced wire delivery already applied (or
        later applies) the same notification, the token dedup keeps the
        count single.  Tokenless Level-0 ctrl tails can't be discharged
        that way: their ``(node, sid)`` joins :attr:`undischarged`."""
        unr = self.unr
        frag.cancelled = True
        frag.payload = frag.deliver = None  # no attempt follows
        op, sp = frag.op, frag.sp
        if sp.local_sig is not None:
            node, sid, addend = sp.local_sig
            unr._apply_add(node, sid, addend, token=frag.ltok)
        if sp.remote_sig is not None:
            node, sid, addend = sp.remote_sig
            unr._apply_add(node, sid, addend, token=frag.rtok)
        if op.ctrl_remote and op.rsid is not None:
            self.undischarged.add((op.dst_node, op.rsid))
        self._inflight.pop(frag.fid, None)
        unr.stats["drained_fragments"] += 1

    # -- reliability layer ------------------------------------------------
    def _fragment_timeout(self, op: TransferOp, nbytes: int, fallback: bool = False) -> float:
        """The watchdog timeout of one attempt of an ``nbytes`` fragment
        of ``op``: the reliability policy's scaling of its no-contention
        delivery time, so a large stripe is not declared lost while
        still serializing onto the wire.  Over the MPI fallback lane
        (``fallback``) the software lane adds per-message overhead and,
        for large payloads, a rendezvous round trip: a degraded attempt
        must not be declared lost on an RMA-sized timeout."""
        # Every NIC of a cluster shares one spec; the source's stands in.
        nic = self.job.nic_of(op.src_rank)
        est = nic.msg_overhead + nic.latency + nbytes / nic.bandwidth + nic.rx_overhead
        if op.kind == "get":  # a round trip: the request goes out first
            est += nic.msg_overhead + nic.latency
        if fallback:
            cfg = self.unr._fallback().config
            est += 2.0 * cfg.sw_overhead_us * US
            if nbytes > cfg.eager_threshold:
                est += cfg.rendezvous_rtts * 2.0 * (nic.latency + nic.msg_overhead)
                est += (nbytes / nic.bandwidth) * max(
                    cfg.rendezvous_bw_penalty - 1.0, 0.0
                )
        return fragment_timeout(est)

    def _arm(self, frag: _Fragment, timeout: float) -> None:
        """Start the watchdog of ``frag``'s current attempt."""
        frag.timeout = timeout
        timer = _FragmentTimer(self.env, timeout)
        timer.engine = self
        timer.frag = frag

    def _on_timeout(self, frag: _Fragment) -> None:
        """The watchdog of one posted reliable fragment: its current
        attempt timed out.  Retransmit it (with exponential backoff,
        moving to the next live target each attempt), else raise
        :class:`UnrTimeoutError`.

        With the health layer armed every timeout/delivery feeds the
        per-path circuit breakers, and when the breakers leave no live
        RMA rail the retransmit ladder steps down to the fallback lane
        (:data:`FALLBACK_RAIL`) instead of hammering dead rails —
        raising :class:`UnrPeerDeadError` only when the fallback lane is
        dead too.  The full attempt history rides along in the raised
        error's :class:`~repro.core.errors.OpContext`.
        """
        if frag.delivered or frag.cancelled:
            return  # delivered, or drained against a dead peer
        unr = self.unr
        health = unr.health
        op, sp, target = frag.op, frag.sp, frag.target
        if health is not None and target != FALLBACK_RAIL:
            health.on_timeout(op.src_rank, op.dst_rank, target)
        retries = len(frag.attempts) - 1
        nxt = None
        if retries < MAX_RETRIES:
            nxt = self._next_rail(
                op, 0 if target == FALLBACK_RAIL else target + 1,
                degrade=target != FALLBACK_RAIL,
            )
        if nxt is None:
            self._give_up(frag)  # ladder exhausted (fail-stop)
            return
        timeout = frag.timeout
        if nxt == FALLBACK_RAIL:
            fb_base = self._fragment_timeout(op, sp.size, fallback=True)
            timeout, frag.cap = max(timeout, fb_base), max(frag.cap, fb_base)
        frag.target = nxt
        unr.stats["retransmits"] += 1
        if self.on_post is not None:
            self.on_post(op, sp, nxt, retries + 1, frag.rtok, frag.ltok, frag.deliver)
        frag.attempts.append((nxt, self.env.now))
        self._attempt(op, sp, frag.payload, frag.deliver, frag.rtok, frag.ltok, nxt)
        self._arm(frag, min(timeout * BACKOFF_FACTOR, frag.cap))

    def _give_up(self, frag: _Fragment) -> None:
        """Raise the error of a fragment whose ladder is exhausted."""
        unr = self.unr
        health = unr.health
        op = frag.op
        src_rank, dst_rank = op.src_rank, op.dst_rank
        what, nbytes = op.kind.upper(), frag.sp.size
        unr.stats["reliability_failures"] += 1
        # NB: the fragment stays in ``_inflight`` — a later drain()
        # discharges its notification tokens against the dead peer.
        context = OpContext(
            kind=what, src_rank=src_rank, dst_rank=dst_rank, nbytes=nbytes,
            sim_time_us=self.env.now / US,
            attempts=tuple((_target_label(rail), at / US) for rail, at in frag.attempts),
            degraded=any(rail == FALLBACK_RAIL for rail, _ in frag.attempts),
        )
        message = (
            f"{what} of {nbytes}B from rank {src_rank} to rank {dst_rank}: "
            f"no delivery after {MAX_RETRIES} retransmits "
            f"(last timeout {frag.timeout / US:.1f} us)"
        )
        if health is not None and health.fallback_dead(src_rank, dst_rank):
            err: UnrTimeoutError = UnrPeerDeadError(message, context=context)
        else:
            err = UnrTimeoutError(message, context=context)
        # Prefer surfacing in the application frame blocked in sig_wait
        # on this op's signal — the context rides along and the app may
        # handle the dead peer; without a waiter the error propagates
        # through the kernel.
        if self._fail_op_waiter(frag, err):
            return
        raise err

    def _fail_op_waiter(self, frag: _Fragment, err: BaseException) -> bool:
        """Throw ``err`` into a frame blocked in ``sig_wait`` on one of
        the fragment's signals.  The remote notification is the one the
        lost fragment actually owes (local completion usually fired when
        the data left the source NIC), so its waiter is tried first."""
        sp = frag.sp
        for spec in (sp.remote_sig, sp.local_sig):
            if spec is None:
                continue
            node, sid, _ = spec
            sig = self.unr._signal_at(node, sid)
            if sig is not None and sig.fail_waiters(err):
                return True
        return False

    def _max_stripe_k(self, policy: LevelPolicy) -> int:
        """Largest stripe count whose addends fit the policy's bits."""
        if policy.a_bits == 0:
            return 1
        budget = policy.a_bits - 2 - self.unr.n_bits
        if budget <= 0:
            return 1
        return min(1 << budget, 1 << 16)


def _fragment_timer(ev: "_FragmentTimer") -> None:
    ev.engine._on_timeout(ev.frag)


class _FragmentTimer(InFlight):
    """One attempt's watchdog: ``frag`` was posted a timeout ago.  It
    fires whether or not the attempt was delivered; a delivered or
    drained fragment makes it a no-op."""

    __slots__ = ("engine", "frag")
    handlers = (_fragment_timer,)


def _sweep_fire(ev: "_SweepFire") -> None:
    ev.sweeper._fire(ev.record)


class _SweepFire(InFlight):
    """One sweep's fire: ``record`` reached ``sweeper`` a dispatch delay ago."""

    __slots__ = ("sweeper", "record")
    handlers = (_sweep_fire,)


class _Sweeper:
    """One rail's share of the polling thread, as callbacks.

    Parked on the rail's CQ between sweeps; the push that finds it there
    calls :meth:`on_record`, which only schedules.  ``_fire`` — always
    its own kernel event, ``dispatch_delay`` after the record arrived —
    runs the handlers and parks again.
    """

    __slots__ = ("engine", "nic", "cq", "delay", "_on_record")

    def __init__(self, engine: "ProgressEngine", nic: Any) -> None:
        self.engine = engine
        self.nic = nic
        self.cq = nic.cq
        self.delay = engine.config.dispatch_delay
        #: the parked consumer, bound once rather than per park
        self._on_record = self.on_record
        self._park()

    def _park(self) -> None:
        # A record already queued (a backlog beyond the batch limit) is
        # taken now but starts its sweep from a zero-delay event, the
        # way a get() on a non-empty queue is served.
        record = self.cq.park(self._on_record)
        if record is not None:
            self.engine.env.defer(0.0, self._on_record, record)

    def on_record(self, record: CompletionRecord) -> None:
        """A sweep begins.  Runs inside the producer's kernel event."""
        engine = self.engine
        engine.n_sweeps += 1
        # A stalled CQ (fault injection) holds its records back: the
        # progress engine is wedged until the stall window passes.
        if self.cq.is_stalled:
            self._stall_over(record)
        else:
            fire = _SweepFire(engine.env, self.delay)
            fire.sweeper = self
            fire.record = record

    def _stall_over(self, record: CompletionRecord) -> None:
        cq = self.cq
        env = self.engine.env
        if cq.is_stalled:  # still, or again: the window can be extended
            env.defer(cq.stalled_until - env.now, self._stall_over, record)
        elif self.delay > 0:
            env.defer(self.delay, self._fire, record)
        else:
            self._fire(record)  # already in a kernel event of our own

    def _fire(self, record: CompletionRecord) -> None:
        engine = self.engine
        nic = self.nic
        cq = self.cq
        engine._dispatch(nic, record)
        backlog = cq.park(self._on_record)
        if backlog is None:
            return  # the usual case: nothing else arrived, parked again
        if cq.is_stalled:  # holds its records back: the next sweep waits it out
            engine.env.defer(0.0, self._on_record, backlog)
            return
        # Drain whatever else arrived during the delay in one batched
        # sweep — no extra simulator events per record, no allocations
        # (records land in the preallocated buffer; ``backlog`` is the
        # first of them, already off the queue).  Anything beyond the
        # batch limit starts the next sweep from _park.
        batch = engine._batch
        n = cq.poll_batch_into(batch, len(batch) - 1)
        engine._dispatch(nic, backlog)
        for i in range(n):
            extra = batch[i]
            batch[i] = None
            engine._dispatch(nic, extra)
        self._park()


class ProgressEngine:
    """One node's progress core: batched CQ sweeps, handler dispatch.

    The paper's per-node polling thread (§IV-C), modelled without a
    simulated process: one :class:`_Sweeper` per NIC is *parked* on that
    rail's completion queue, and the NIC delivery that pushes a record
    hands it over directly.  The record is applied after the configured
    dispatch delay, in a kernel event of its own even when the delay is
    zero (a handler never runs inside the NIC's delivery callback); the
    same event then drains whatever else accumulated in one batched
    sweep (a real polling thread processes the CQ in batches) and parks
    the sweeper again.  Records dispatch to the handler registered for
    their ``kind`` — the library registers MMAS custom-bit decoding for
    RMA completions and the (p, a) apply for Level-0 ctrl messages —
    with ``default_handler`` as the catch-all.
    """

    def __init__(
        self,
        env: Environment,
        node: Node,
        config: PollingConfig,
        default_handler: Optional[Callable[[int, CompletionRecord], None]] = None,
        *,
        health: Optional["HealthMonitor"] = None,
    ) -> None:
        self.env = env
        self.node = node
        self.config = config
        self.default_handler = default_handler
        self.handlers: Dict[str, Callable[[int, CompletionRecord], None]] = {}
        #: health monitor fed with every swept record: a completion that
        #: crossed the wire proves its (src, dst, rail) path, which is
        #: what closes half-open breakers without extra probe traffic.
        self.health = health
        self.n_sweeps = 0
        self.n_dispatched = 0
        self.total_delay = 0.0
        #: preallocated sweep buffer — one per engine, reused by every
        #: rail's sweeper (sweepers never interleave mid-drain).
        self._batch: List[Optional[CompletionRecord]] = [None] * SWEEP_BATCH
        if config.mode == "none":
            return
        if config.mode == "reserved":
            node.cpu.reserve(config.reserved_cores)
        elif config.cpu_duty > 0:
            node.cpu.add_polling_load(config.cpu_duty)
        for nic in node.nics:
            _Sweeper(self, nic)  # kept alive by the queue it parks on

    def register(
        self, kind: str, handler: Callable[[int, CompletionRecord], None]
    ) -> None:
        """Dispatch records of ``kind`` to ``handler(node_index, record)``."""
        self.handlers[kind] = handler

    def _dispatch(self, nic: Any, record: CompletionRecord) -> None:
        self.n_dispatched += 1
        delay = self.env.now - record.complete_time
        self.total_delay += delay
        kind = record.kind
        handler = self.handlers.get(kind, self.default_handler)
        if handler is not None:
            # Read through env each dispatch (not cached at construction)
            # so profilers attached after engine creation are still seen.
            prof = self.env.profile
            if prof is not None:
                t0 = prof.dispatch_begin()
                handler(self.node.index, record)
                prof.dispatch_end(kind, t0)
            else:
                handler(self.node.index, record)
        if self.health is not None:
            self.health.on_cq_record(nic.index, record)
        # Pooled records go back to the free list the moment
        # they are dispatched (no-op for un-pooled records): handlers
        # consume record fields synchronously and must not retain the
        # record object itself.
        recycle_record(record)

