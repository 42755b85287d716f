"""MMAS: Multi-channel Multi-message Aggregated Signal (paper §IV-B).

A signal is a signed 64-bit counter (``counter``) plus the number of
events that must complete before the signal triggers (``num_event``).
The counter — held here as a Python int masked to 64 bits, i.e. exact
two's-complement semantics — is laid out as::

      63           N+1   N   N-1        0
     +----------------+-----+--------------+
     | sub-message    | OVF | remaining    |
     | count          | bit | events       |
     +----------------+-----+--------------+

* the low ``N`` bits are initialised to ``num_event`` by ``reset`` and
  count *down* as events complete;
* bit ``N`` is the event-overflow detect bit: receiving more than
  ``num_event`` events borrows into it (two's complement), which
  ``sig_wait`` checks (paper §IV-D);
* the high ``63 − N`` bits count outstanding sub-messages when one
  message is striped over multiple channels.

Striping a message into ``K`` sub-messages uses the addends

* ``a = -1 + ((K-1) << (N+1))`` on exactly one sub-message, and
* ``a = (-1) << (N+1)``         on each of the other ``K-1``,

so the addends of one message sum to ``-1`` (one event) and the counter
reaches zero **iff** every event of every message has fully arrived,
regardless of arrival order — the property that makes multi-NIC
aggregation safe under adaptive routing.
"""

from __future__ import annotations

from collections import deque
from typing import List, Optional

from ..sim import Environment, Event

__all__ = ["Signal", "SignalWait", "submessage_addends", "MASK64", "DEFAULT_N_BITS"]

MASK64 = (1 << 64) - 1
DEFAULT_N_BITS = 32


def _to_signed(value: int) -> int:
    value &= MASK64
    return value - (1 << 64) if value >> 63 else value


def submessage_addends(k: int, n_bits: int) -> List[int]:
    """Addends for one message striped into ``k`` sub-messages.

    Returns a list of ``k`` signed addends following the paper's rule;
    for ``k == 1`` this is simply ``[-1]``.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    if k == 1:
        return [-1]
    max_sub = (1 << (63 - n_bits)) - 1
    if k - 1 > max_sub:
        raise ValueError(
            f"{k} sub-messages exceed the {63 - n_bits}-bit sub-message "
            f"field of an N={n_bits} signal"
        )
    first = -1 + ((k - 1) << (n_bits + 1))
    rest = -(1 << (n_bits + 1))
    return [first] + [rest] * (k - 1)


class SignalWait(Event):
    """What ``sig_wait`` blocks on: the signal's wait event, which names
    the signal in its repr, so a run that stops with a rank still
    waiting says on what (:func:`repro.runtime.raise_unfinished`)."""

    __slots__ = ("signal",)

    def __init__(self, env: Environment, signal: "Signal") -> None:
        super().__init__(env)
        self.signal = signal

    def __repr__(self) -> str:
        sig = self.signal
        return (
            f"<sig_wait sid={sig.sid} num_event={sig.num_event} "
            f"counter={sig.counter}>"
        )


class Signal:
    """One MMAS signal registered on a node.

    Do not construct directly — use ``endpoint.sig_init(num_event)``,
    which allocates the signal id (the on-the-wire pointer ``p``) in the
    node's signal table.
    """

    __slots__ = (
        "env",
        "sid",
        "num_event",
        "n_bits",
        "_counter",
        "_wait_event",
        "owner_rank",
        "n_triggers",
        "n_adds",
        "n_duplicates",
        "armed",
        "_seen_tokens",
        "_seen_order",
    )

    #: how many delivery tokens each signal remembers for duplicate
    #: suppression; a faulted fabric only re-delivers within a bounded
    #: window, so a bounded history suffices and soak tests stay O(1).
    TOKEN_WINDOW = 8192

    def __init__(
        self,
        env: Environment,
        sid: int,
        num_event: int,
        n_bits: int = DEFAULT_N_BITS,
        owner_rank: int = -1,
    ) -> None:
        if not 1 <= n_bits <= 62:
            raise ValueError(f"n_bits must be in 1..62, got {n_bits}")
        if not 1 <= num_event < (1 << n_bits):
            raise ValueError(
                f"num_event must be in 1..{(1 << n_bits) - 1} for N={n_bits}"
            )
        self.env = env
        self.sid = sid
        self.num_event = num_event
        self.n_bits = n_bits
        self.owner_rank = owner_rank
        self._counter = num_event  # unsigned 64-bit representation
        self._wait_event: Optional[Event] = None
        self.n_triggers = 0
        self.n_adds = 0
        self.n_duplicates = 0
        self.armed = True
        # The dedup window is made on the first token: a fault-free run
        # never mints one, and a big job has tens of thousands of signals.
        self._seen_tokens: Optional[set] = None
        self._seen_order: Optional[deque] = None

    # -- counter views ------------------------------------------------------
    @property
    def counter(self) -> int:
        """The signed 64-bit counter value."""
        return _to_signed(self._counter)

    @property
    def counter_unsigned(self) -> int:
        return self._counter

    @property
    def remaining_events(self) -> int:
        return self._counter & ((1 << self.n_bits) - 1)

    @property
    def overflow_bit(self) -> int:
        """The event-overflow detect bit (bit N)."""
        return (self._counter >> self.n_bits) & 1

    @property
    def is_zero(self) -> bool:
        return self._counter == 0

    @property
    def mid_count(self) -> bool:
        """True when the counter is neither triggered nor fully re-armed.

        A mid-count counter at finalize means notifications were lost
        in flight (or the application never waited for them) — the
        leaked-notification condition the sanitizer reports.
        """
        return self._counter != 0 and self._counter != self.num_event

    # -- MMAS operations -----------------------------------------------------
    def accept(self, token: Optional[int]) -> bool:
        """Record a delivery token; return False if it was seen before.

        A faulted fabric (or a reliability-layer retransmit racing its
        original) can deliver the same completion twice.  Each reliable
        delivery carries a globally unique token; replaying one must not
        move the counter, or a striped message would trigger early and
        corrupt the MMAS accounting.  ``token=None`` (the fault-free
        fast path) is always accepted.
        """
        if token is None:
            return True
        seen, order = self._seen_tokens, self._seen_order
        if seen is None or order is None:
            seen, order = set(), deque()
            self._seen_tokens, self._seen_order = seen, order
        elif token in seen:
            self.n_duplicates += 1
            return False
        seen.add(token)
        order.append(token)
        if len(order) > self.TOKEN_WINDOW:
            seen.discard(order.popleft())
        return True

    def add(self, addend: int, token: Optional[int] = None) -> bool:
        """Apply ``*p += a`` (what the polling thread or Level-4 NIC does).

        Returns True when this add brought the counter to zero
        (signal triggered).  A duplicate ``token`` makes the add a no-op
        (idempotent re-delivery, see :meth:`accept`).
        """
        if token is not None and not self.accept(token):
            return False
        counter = self._counter = (self._counter + addend) & MASK64
        self.n_adds += 1
        waiter = self._wait_event
        if counter == 0:
            self.n_triggers += 1
            if waiter is not None and not waiter.triggered:
                waiter.succeed(self)
            return True
        if (counter >> self.n_bits) & 1 and waiter is not None and not waiter.triggered:
            # Too many events: wake waiters so sig_wait can report the
            # overflow instead of spinning forever (paper §IV-D).
            waiter.succeed(self)
        return False

    def _reset_counter(self) -> None:
        """Set the counter to ``num_event`` (used by ``sig_reset``).

        The token history is deliberately *not* cleared: tokens are
        globally unique per posted fragment, and a late duplicate from
        before the reset must still be suppressed afterwards.
        """
        self._counter = self.num_event
        self._wait_event = None

    def wait_event(self) -> Event:
        """Event that fires when the counter reaches zero.

        If the counter is already zero the event is pre-triggered.
        """
        if self._wait_event is None or self._wait_event.triggered:
            evt = SignalWait(self.env, self)
            if self._counter == 0 or self.overflow_bit:
                evt.succeed(self)
                return evt
            self._wait_event = evt
        return self._wait_event

    def fail_waiters(self, exc: BaseException) -> bool:
        """Throw ``exc`` into whoever is blocked in ``sig_wait`` on this
        signal (the watchdog uses this so a timeout surfaces in the
        application frame that owns the op, structured context intact).
        Returns True when a pending waiter received the error."""
        if self._wait_event is not None and not self._wait_event.triggered:
            self._wait_event.fail(exc)
            self._wait_event = None
            return True
        return False

    def __repr__(self) -> str:
        return (
            f"<Signal sid={self.sid} num_event={self.num_event} "
            f"counter={self.counter:#x} N={self.n_bits}>"
        )
