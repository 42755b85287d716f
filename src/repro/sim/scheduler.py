"""Pluggable event schedulers for the simulation kernel.

The kernel (:mod:`repro.sim.core`) keys every pending event with a
``(time, phase, seq)`` tuple: ``phase`` 0 for priority interrupts and 1
for normal events, ``seq`` a monotonically increasing sequence number.
Because ``seq`` is unique the key is a *total* order — there are no
ties — so any scheduler that pops entries in exact ascending key order
reproduces the historical ``heapq`` pop sequence bit-for-bit.  That
identity is what keeps the golden wire fingerprints stable across
scheduler implementations, and it is what the Hypothesis differential
test in ``tests/sim/test_scheduler.py`` pins.

Two implementations are provided:

:class:`HeapScheduler`
    The reference: a single binary heap, ``O(log n)`` per operation.
    This is the pre-refactor kernel behaviour, kept as the oracle for
    differential testing.

:class:`CalendarScheduler`
    A calendar queue tuned for the cluster-scale runs (1728 nodes,
    multi-thousand ranks).  Entries are binned into fixed-width *days*
    (dict keyed by ``int(time // width)``); only non-empty days carry
    any cost, and a small index heap tracks which days exist.  The
    nearest day is *promoted* on demand: its bucket is sorted once with
    Timsort (tuple comparison — identical ordering to ``heapq``) and
    drained by index.  Same-day entries that arrive while the day is
    being drained are placed with ``bisect.insort`` restricted to the
    undrained tail, which stays sorted by construction.

    Why this is safe: the kernel only schedules at ``now + delay`` with
    ``delay >= 0``, so every new entry's time is ``>= now``.  Any entry
    landing on a day *earlier* than the promoted day (possible only for
    pushes issued between runs, after the queue drained past ``now``'s
    own day) still sorts before everything in later days, so it is
    merged into the current bucket's tail; entries for later days go to
    their own buckets.  Either way ascending key order is preserved.

Events at the *same* timestamp always share a bucket regardless of
width, exactly as they share heap locality in ``heapq`` — delay-0
cascades cost the same in both.  The width only controls how many
*distinct* timestamps share a sort.

``heapq`` use outside ``sim/core.py`` is normally an unrlint violation
(UNR004); this module is a sanctioned kernel module and is listed in
``LintConfig.heapq_allowed_suffixes``.
"""

from __future__ import annotations

import heapq
from bisect import insort
from typing import Any, Dict, List, Tuple

__all__ = [
    "Scheduler",
    "HeapScheduler",
    "CalendarScheduler",
    "DEFAULT_BUCKET_WIDTH",
]

#: Entry layout shared with the kernel: ``(time, phase, seq, event)``.
Entry = Tuple[float, int, int, Any]

#: Default calendar day width, in simulated seconds.  The netsim models
#: microsecond-scale NIC/link latencies (``env.now`` is in seconds), so
#: one microsecond groups a handful of causally-adjacent events per day
#: without ever letting a single bucket grow with the cluster size.
DEFAULT_BUCKET_WIDTH = 1e-6

_INF = float("inf")


class Scheduler:
    """Interface the kernel drives; see module docstring for the contract.

    Implementations must pop entries in exact ascending ``(time, phase,
    seq)`` order and support ``len()`` (the observability layer records
    queue depth per step).
    """

    __slots__ = ()

    def push(self, entry: Entry) -> None:
        raise NotImplementedError

    def pop(self) -> Entry:
        """Remove and return the smallest entry (raises IndexError if empty)."""
        raise NotImplementedError

    def peek_time(self) -> float:
        """Time of the smallest entry, or ``inf`` when empty."""
        raise NotImplementedError

    def __len__(self) -> int:
        raise NotImplementedError


class HeapScheduler(Scheduler):
    """Reference scheduler: one global binary heap (the historical kernel)."""

    __slots__ = ("_heap",)

    def __init__(self) -> None:
        self._heap: List[Entry] = []

    def push(self, entry: Entry) -> None:
        heapq.heappush(self._heap, entry)

    def pop(self) -> Entry:
        return heapq.heappop(self._heap)

    def peek_time(self) -> float:
        return self._heap[0][0] if self._heap else _INF

    def __len__(self) -> int:
        return len(self._heap)


class CalendarScheduler(Scheduler):
    """Calendar queue: fixed-width day buckets + an index heap of days.

    ``_cur_list``/``_cur_pos`` hold the promoted (nearest) day: a
    Timsort-sorted bucket drained by advancing ``_cur_pos``.  ``_days``
    maps day index -> unsorted bucket for every other non-empty day, and
    ``_day_heap`` holds each such day index exactly once (pushed only
    when its bucket is created, so empty days never cost anything).
    """

    __slots__ = (
        "_width",
        "_days",
        "_day_heap",
        "_cur_day",
        "_cur_list",
        "_cur_pos",
        "_count",
    )

    def __init__(self, width: float = DEFAULT_BUCKET_WIDTH) -> None:
        if width <= 0:
            raise ValueError(f"bucket width must be positive, got {width}")
        self._width = float(width)
        self._days: Dict[int, List[Entry]] = {}
        self._day_heap: List[int] = []
        self._cur_day = -1  # no promoted day yet; real days are >= 0
        self._cur_list: List[Entry] = []
        self._cur_pos = 0
        self._count = 0

    def push(self, entry: Entry) -> None:
        day = int(entry[0] // self._width)
        if day <= self._cur_day:
            # Same day as the one being drained (the common delay-0 /
            # sub-width case), or — only between runs — an earlier day
            # that still sorts before every later bucket.  The tail
            # ``_cur_list[_cur_pos:]`` is sorted, so a bounded insort
            # keeps it that way.
            insort(self._cur_list, entry, lo=self._cur_pos)
        else:
            bucket = self._days.get(day)
            if bucket is None:
                self._days[day] = [entry]
                heapq.heappush(self._day_heap, day)
            else:
                bucket.append(entry)
        self._count += 1

    def _promote(self) -> None:
        """Replace the exhausted current day with the nearest pending one."""
        day = heapq.heappop(self._day_heap)
        bucket = self._days.pop(day)
        bucket.sort()
        self._cur_day = day
        self._cur_list = bucket
        self._cur_pos = 0

    def pop(self) -> Entry:
        if self._cur_pos >= len(self._cur_list):
            self._promote()  # IndexError on empty scheduler, as documented
        entry = self._cur_list[self._cur_pos]
        self._cur_list[self._cur_pos] = None  # type: ignore[call-overload]
        self._cur_pos += 1
        self._count -= 1
        return entry

    def peek_time(self) -> float:
        if self._cur_pos >= len(self._cur_list):
            if not self._day_heap:
                return _INF
            self._promote()
        return self._cur_list[self._cur_pos][0]

    def __len__(self) -> int:
        return self._count
