"""Shared-resource primitives for the simulation kernel.

Provides the queueing abstractions used by the network and runtime
layers:

* :class:`Store` — a FIFO buffer of items with optional capacity; ``get``
  and ``put`` return events (back-pressure falls out naturally).
* :class:`FilterStore` — ``get`` takes a predicate (used for MPI tag
  matching).
"""

from __future__ import annotations

from collections import deque
from typing import Any, Callable, Deque

from .core import Environment, Event, SimulationError

__all__ = ["Store", "FilterStore"]


class StorePut(Event):
    """Event returned by :meth:`Store.put`; succeeds when the item is stored."""

    __slots__ = ("item",)

    def __init__(self, env: Environment, item: Any) -> None:
        super().__init__(env)
        self.item = item


class StoreGet(Event):
    """Event returned by :meth:`Store.get`; succeeds with the item."""

    __slots__ = ()


class Store:
    """FIFO item buffer with optional capacity.

    ``put`` blocks (stays untriggered) while the store is full; ``get``
    blocks while it is empty.  Waiters are served in FIFO order.
    """

    __slots__ = ("env", "capacity", "items", "_getters", "_putters")

    def __init__(self, env: Environment, capacity: float = float("inf")) -> None:
        if capacity <= 0:
            raise SimulationError("capacity must be positive")
        self.env = env
        self.capacity = capacity
        self.items: Deque[Any] = deque()
        self._getters: Deque[StoreGet] = deque()
        self._putters: Deque[StorePut] = deque()

    def __len__(self) -> int:
        return len(self.items)

    @property
    def is_full(self) -> bool:
        return len(self.items) >= self.capacity

    def put(self, item: Any) -> StorePut:
        evt = StorePut(self.env, item)
        self._putters.append(evt)
        self._dispatch()
        return evt

    def get(self) -> StoreGet:
        evt = StoreGet(self.env)
        self._getters.append(evt)
        self._dispatch()
        return evt

    def try_get(self) -> Any:
        """Non-blocking pop: return an item or ``None`` if empty."""
        if self.items:
            item = self._pop_item()
            self._dispatch()
            return item
        return None

    def put_nowait(self, item: Any) -> bool:
        """Synchronous put: store ``item`` and serve waiting getters
        without creating a put event.  Returns ``False`` when the store
        is full — the caller must then fall back to the blocking
        :meth:`put` to keep backpressure semantics.  When it succeeds,
        no putter can be waiting (putters only queue while full), so
        FIFO fairness is preserved.
        """
        if self.is_full:
            return False
        self._store_item(item)
        self._dispatch()
        return True

    # -- internals ----------------------------------------------------------
    def _store_item(self, item: Any) -> None:
        self.items.append(item)

    def _pop_item(self) -> Any:
        return self.items.popleft()

    def _dispatch(self) -> None:
        progress = True
        while progress:
            progress = False
            # Move waiting putters into the buffer while there is room.
            while self._putters and len(self.items) < self.capacity:
                put = self._putters.popleft()
                self._store_item(put.item)
                put.succeed()
                progress = True
            # Serve waiting getters from the buffer.
            while self._getters and self.items:
                get = self._getters.popleft()
                get.succeed(self._pop_item())
                progress = True


class FilterStoreGet(StoreGet):
    """Get event carrying the match predicate."""

    __slots__ = ("_filter",)

    def __init__(self, env: Environment, filter: Callable[[Any], bool]) -> None:  # noqa: A002
        super().__init__(env)
        self._filter = filter


class FilterStore(Store):
    """Store whose ``get`` accepts a predicate; first matching item wins.

    Used for MPI receive matching on ``(source, tag)``.
    """

    __slots__ = ()

    def get(self, filter: Callable[[Any], bool] = lambda item: True) -> StoreGet:  # noqa: A002
        evt = FilterStoreGet(self.env, filter)
        self._getters.append(evt)
        self._dispatch()
        return evt

    def _dispatch(self) -> None:
        progress = True
        while progress:
            progress = False
            while self._putters and len(self.items) < self.capacity:
                put = self._putters.popleft()
                self.items.append(put.item)
                put.succeed()
                progress = True
            # Try every waiting getter against every item (FIFO per getter).
            remaining: Deque[StoreGet] = deque()
            while self._getters:
                get = self._getters.popleft()
                flt = getattr(get, "_filter", lambda item: True)
                for idx, item in enumerate(self.items):
                    if flt(item):
                        del self.items[idx]
                        get.succeed(item)
                        progress = True
                        break
                else:
                    remaining.append(get)
            self._getters = remaining
