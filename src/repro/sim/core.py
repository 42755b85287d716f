"""Discrete-event simulation kernel.

This module implements a small, deterministic discrete-event simulator in
the style of SimPy: simulated *processes* are Python generators that yield
:class:`Event` objects and are resumed when those events fire.  The kernel
is the foundation for the cluster/network model (:mod:`repro.netsim`), the
simulated MPI substrate (:mod:`repro.mpi`) and the UNR library itself
(:mod:`repro.core`).

Determinism: every pending event is keyed by ``(time, phase, seq)`` —
``seq`` is unique, so the key is a total order and two runs of the same
program produce identical schedules.  The queue itself is pluggable
(:mod:`repro.sim.scheduler`): the default :class:`CalendarScheduler`
bins events into fixed-width days for cluster-scale runs, and the
reference :class:`HeapScheduler` is the historical single-heap kernel.
Both pop in exact ascending key order, so the choice never changes the
simulation.  All randomness used by higher layers comes from seeded
``numpy.random.Generator`` instances.

Example
-------
>>> env = Environment()
>>> def hello(env, out):
...     yield env.timeout(2.5)
...     out.append(env.now)
>>> out = []
>>> _ = env.process(hello(env, out))
>>> env.run()
>>> out
[2.5]
"""

from __future__ import annotations

import gc
from math import inf
from typing import Any, Callable, Generator, Iterable, List, Optional, Tuple

from .scheduler import CalendarScheduler, Scheduler

__all__ = [
    "Environment",
    "Event",
    "Timeout",
    "Deferred",
    "InFlight",
    "Process",
    "Condition",
    "AllOf",
    "Interrupt",
    "SimulationError",
    "StopProcess",
]

# Sentinel for an event that has not yet been given a value.
_PENDING = object()


class SimulationError(RuntimeError):
    """Raised for misuse of the simulation kernel."""


class Interrupt(Exception):
    """Thrown *into* a process when :meth:`Process.interrupt` is called.

    The ``cause`` attribute carries the value passed to ``interrupt``.
    """

    def __init__(self, cause: Any = None) -> None:
        super().__init__(cause)
        self.cause = cause


class StopProcess(Exception):
    """Raised inside a process generator to terminate it early with a value."""

    def __init__(self, value: Any = None) -> None:
        super().__init__(value)
        self.value = value


class Event:
    """An event that may eventually be *triggered* with a value or an error.

    Processes wait on events by yielding them.  Multiple processes (and
    conditions) can wait on the same event; callbacks run in registration
    order when the event is processed by the environment.
    """

    __slots__ = ("env", "callbacks", "_value", "_ok", "_scheduled", "_defused")

    def __init__(self, env: "Environment") -> None:
        self.env = env
        self.callbacks: Optional[List[Callable[["Event"], None]]] = []
        self._value: Any = _PENDING
        self._ok: Optional[bool] = None
        self._scheduled = False
        self._defused = False

    # -- state ------------------------------------------------------------
    @property
    def triggered(self) -> bool:
        """True once the event has a value (it may not be processed yet)."""
        return self._value is not _PENDING

    @property
    def processed(self) -> bool:
        """True once callbacks have run."""
        return self.callbacks is None

    @property
    def ok(self) -> bool:
        if self._ok is None:
            raise SimulationError("event has not been triggered")
        return self._ok

    @property
    def value(self) -> Any:
        if self._value is _PENDING:
            raise SimulationError("event value not yet available")
        return self._value

    # -- triggering -------------------------------------------------------
    def succeed(self, value: Any = None) -> "Event":
        """Trigger the event successfully with ``value``."""
        if self._value is not _PENDING:
            raise SimulationError(f"{self!r} already triggered")
        self._ok = True
        self._value = value
        self.env._schedule(self)
        return self

    def resolve(self, value: Any = None) -> "Event":
        """Trigger successfully, skipping the heap when nothing listens.

        Semantically :meth:`succeed`, with one fast path: when no
        callback has been registered yet the event is marked *processed*
        in place instead of scheduling a kernel event whose only job
        would be flipping that flag.  Late waiters stay safe — every
        kernel wait path (:meth:`Process._wait_on`, :class:`Condition`)
        already handles processed events.  The completion events a
        poster asks for (the NIC's and the MPI fallback's ``done``) use
        this, so a completion nobody listened to by then costs no heap
        traffic; a poster that never listens asks for no event at all.
        """
        if self._value is not _PENDING:
            raise SimulationError(f"{self!r} already triggered")
        if self.callbacks:
            return self.succeed(value)
        self._ok = True
        self._value = value
        self._scheduled = True
        self.callbacks = None
        return self

    def fail(self, exception: BaseException) -> "Event":
        """Trigger the event with an exception.

        The exception is re-raised inside every process waiting on the
        event.  If nothing ever waits on a failed event the environment
        re-raises at the end of the run (unless :meth:`defused`).
        """
        if not isinstance(exception, BaseException):
            raise TypeError("fail() requires an exception instance")
        if self._value is not _PENDING:
            raise SimulationError(f"{self!r} already triggered")
        self._ok = False
        self._value = exception
        self.env._schedule(self)
        return self

    def trigger(self, event: "Event") -> None:
        """Trigger with the state of another (triggered) event."""
        if event._ok:
            self.succeed(event._value)
        else:
            self.fail(event._value)

    def defuse(self) -> None:
        """Mark a failed event as handled so the kernel will not re-raise."""
        self._defused = True

    def __repr__(self) -> str:
        state = "pending"
        if self.triggered:
            state = "ok" if self._ok else "failed"
        return f"<{type(self).__name__} {state} at {id(self):#x}>"


class Timeout(Event):
    """An event that fires ``delay`` time units after creation."""

    __slots__ = ("delay",)

    def __init__(self, env: "Environment", delay: float, value: Any = None) -> None:
        if not 0 <= delay < inf:
            raise SimulationError(f"delay must be finite and >= 0, got {delay}")
        # Born triggered and scheduled: fill the slots and push the
        # entry here rather than via Event.__init__ -> _schedule -> push.
        self.env = env
        self.callbacks = []
        self._value = value
        self._ok = True
        self._scheduled = True
        self._defused = False
        self.delay = delay
        env._seq = seq = env._seq + 1
        env._sched.push((env._now + delay, 1, seq, self))

    def __repr__(self) -> str:
        return f"<Timeout delay={self.delay}>"


class InFlight(Event):
    """A pre-triggered event that carries its own arguments.

    The one way to schedule a delayed action for a single queue entry
    and a single object: subclass with ``__slots__`` naming the
    arguments and ``handlers`` a tuple of module-level functions taking
    the event, construct with ``(env, delay)``, then fill the slots.
    No closure, no bound method and no per-event callback list — every
    instance's ``callbacks`` *is* the class's one tuple, so nothing can
    wait on such an event (there is no list to append to); hand out a
    plain :class:`Event` for that.
    """

    __slots__ = ()

    #: run in order, each as ``fn(event)``, when the event fires
    handlers: Tuple[Callable[[Any], None], ...] = ()

    def __init__(self, env: "Environment", delay: float) -> None:
        if not 0 <= delay < inf:
            raise SimulationError(f"delay must be finite and >= 0, got {delay}")
        # Same direct construction as Timeout.
        self.env = env
        self.callbacks = self.handlers  # type: ignore[assignment]
        self._value = None
        self._ok = True
        self._scheduled = True
        self._defused = False
        env._seq = seq = env._seq + 1
        env._sched.push((env._now + delay, 1, seq, self))


def _run_deferred(deferred: "Deferred") -> None:
    deferred._fn(deferred._value)


class Deferred(InFlight):
    """Runs ``fn(value)`` after ``delay``: the general-purpose
    :class:`InFlight`, for callers off the per-message path (a process
    costs an Initialize event, one event per yield and a completion
    event; a deferred costs exactly one queue entry).
    """

    __slots__ = ("_fn",)
    handlers = (_run_deferred,)

    def __init__(
        self,
        env: "Environment",
        delay: float,
        fn: Callable[[Any], None],
        value: Any = None,
    ) -> None:
        InFlight.__init__(self, env, delay)
        self._fn = fn
        self._value = value

    def __repr__(self) -> str:
        return f"<Deferred fn={getattr(self._fn, '__name__', self._fn)!r}>"


class Initialize(Event):
    """Internal: kicks a new :class:`Process` on the next step."""

    __slots__ = ()

    def __init__(self, env: "Environment", process: "Process") -> None:
        super().__init__(env)
        self._ok = True
        self._value = None
        self.callbacks.append(process._resume)
        env._schedule(self)


class Process(Event):
    """A running simulated process wrapping a generator.

    The process is itself an event that triggers when the generator
    returns (value = return value / ``StopProcess`` value) or raises.
    """

    __slots__ = ("_generator", "_target", "name")

    def __init__(self, env: "Environment", generator: Generator, name: str = "") -> None:
        if not hasattr(generator, "send"):
            raise SimulationError(
                f"process requires a generator, got {generator!r} "
                "(did you forget to call the function?)"
            )
        super().__init__(env)
        self._generator = generator
        self._target: Optional[Event] = None  # event currently awaited
        self.name = name or getattr(generator, "__name__", "process")
        Initialize(env, self)

    @property
    def is_alive(self) -> bool:
        return self._value is _PENDING

    def interrupt(self, cause: Any = None) -> None:
        """Throw :class:`Interrupt` into the process at the current yield."""
        if not self.is_alive:
            raise SimulationError("cannot interrupt a dead process")
        if self._target is None and not self.triggered:
            # Not yet started: delay interrupt until after initialization.
            raise SimulationError("cannot interrupt a process before it starts")
        env = self.env
        target = self._target

        def do_interrupt(_evt: Event) -> None:
            if not self.is_alive:
                return
            # Detach from the event we were waiting for.
            if target is not None and target.callbacks is not None:
                try:
                    target.callbacks.remove(self._resume)
                except ValueError:
                    pass
            self._target = None
            self._step_throw(Interrupt(cause))

        urgent = Event(env)
        urgent.callbacks.append(do_interrupt)
        urgent._ok = True
        urgent._value = None
        env._schedule(urgent, priority=True)

    # -- plumbing ----------------------------------------------------------
    def _resume(self, event: Event) -> None:
        self._target = None
        if event._ok:
            self._step_send(event._value)
        else:
            event._defused = True
            self._step_throw(event._value)

    def _step_send(self, value: Any) -> None:
        env = self.env
        prev, env._active = env._active, self
        try:
            target = self._generator.send(value)
        except StopIteration as exc:
            self.succeed(exc.value)
            return
        except StopProcess as exc:
            self.succeed(exc.value)
            return
        except BaseException as exc:  # noqa: BLE001  # unrlint: disable=UNR005 - rethrown via event.fail
            self.fail(exc)
            return
        finally:
            env._active = prev
        self._wait_on(target)

    def _step_throw(self, exc: BaseException) -> None:
        env = self.env
        prev, env._active = env._active, self
        try:
            target = self._generator.throw(exc)
        except StopIteration as stop:
            self.succeed(stop.value)
            return
        except StopProcess as stop:
            self.succeed(stop.value)
            return
        except BaseException as err:  # noqa: BLE001  # unrlint: disable=UNR005 - rethrown via event.fail
            self.fail(err)
            return
        finally:
            env._active = prev
        self._wait_on(target)

    def _wait_on(self, target: Any) -> None:
        if not isinstance(target, Event):
            self.fail(
                SimulationError(
                    f"process {self.name!r} yielded non-event {target!r}"
                )
            )
            return
        if target.callbacks is None:
            # Already processed: resume immediately on the next step.
            proxy = Event(self.env)
            proxy._ok = target._ok
            proxy._value = target._value
            if not target._ok:
                target._defused = True
            proxy.callbacks.append(self._resume)
            self.env._schedule(proxy)
            self._target = proxy
        else:
            target.callbacks.append(self._resume)
            self._target = target

    def __repr__(self) -> str:
        return f"<Process {self.name} {'alive' if self.is_alive else 'dead'}>"


class Condition(Event):
    """Waits for a set of events according to ``evaluate``.

    The value of a condition is a dict mapping each *triggered* event to
    its value (like SimPy's ConditionValue, simplified).
    """

    __slots__ = ("_events", "_evaluate", "_count")

    def __init__(
        self,
        env: "Environment",
        evaluate: Callable[[int, int], bool],
        events: Iterable[Event],
    ) -> None:
        super().__init__(env)
        self._events = list(events)
        self._evaluate = evaluate
        self._count = 0
        for evt in self._events:
            if evt.env is not env:
                raise SimulationError("events from different environments")
        if not self._events:
            self.succeed({})
            return
        for evt in self._events:
            if evt.callbacks is None:  # already processed
                self._check(evt)
            else:
                evt.callbacks.append(self._check)

    def _check(self, event: Event) -> None:
        if self.triggered:
            if not event._ok:
                event._defused = True
            return
        self._count += 1
        if not event._ok:
            event._defused = True
            self.fail(event._value)
        elif self._evaluate(len(self._events), self._count):
            self.succeed(self._collect())

    def _collect(self) -> dict:
        # Only events whose callbacks have run count as "arrived": a
        # Timeout carries its value from construction, so `triggered`
        # alone would claim future timeouts.
        return {
            evt: evt._value
            for evt in self._events
            if evt.processed and evt._ok
        }


class AllOf(Condition):
    """Condition satisfied when *all* events have triggered."""

    __slots__ = ()

    def __init__(self, env: "Environment", events: Iterable[Event]) -> None:
        super().__init__(env, lambda total, done: done == total, events)


class Environment:
    """The simulation environment: clock plus pending-event scheduler."""

    __slots__ = ("_now", "_sched", "_seq", "_active", "obs", "profile")

    def __init__(
        self,
        initial_time: float = 0.0,
        scheduler: Optional[Scheduler] = None,
    ) -> None:
        self._now = float(initial_time)
        #: Pending-event queue.  Any :class:`repro.sim.scheduler.Scheduler`
        #: yields the identical simulation (total key order); the calendar
        #: queue is the default because it scales to 1728-node clusters.
        self._sched: Scheduler = (
            scheduler if scheduler is not None else CalendarScheduler()
        )
        self._seq = 0
        self._active: Optional[Process] = None
        #: Optional :class:`repro.obs.Recorder` hook, set by
        #: ``Recorder.attach``.  Purely passive: it only counts
        #: dispatched events and tracks heap depth, never schedules.
        self.obs: Optional[Any] = None
        #: Optional :class:`repro.obs.HostProfiler` hook, set by
        #: ``HostProfiler.attach``.  The one sanctioned wall-clock
        #: consumer: it reads the host clock per dispatched event but
        #: never schedules, so profiled runs stay wire-identical.
        self.profile: Optional[Any] = None

    # -- clock ------------------------------------------------------------
    @property
    def now(self) -> float:
        return self._now

    @property
    def active_process(self) -> Optional[Process]:
        return self._active

    # -- factories ---------------------------------------------------------
    def event(self) -> Event:
        return Event(self)

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        return Timeout(self, delay, value)

    def process(self, generator: Generator, name: str = "") -> Process:
        return Process(self, generator, name=name)

    def defer(
        self, delay: float, fn: Callable[[Any], None], value: Any = None
    ) -> Deferred:
        """Run ``fn(value)`` after ``delay`` for one heap entry."""
        return Deferred(self, delay, fn, value)

    def all_of(self, events: Iterable[Event]) -> AllOf:
        return AllOf(self, events)

    # -- scheduling ---------------------------------------------------------
    def _schedule(self, event: Event, delay: float = 0.0, priority: bool = False) -> None:
        # Timeout and InFlight inline this (phase 1) in their constructors;
        # a change to the key or to how seq is minted must be made there too.
        if event._scheduled:
            return
        if not 0 <= delay < inf:
            raise SimulationError(f"delay must be finite and >= 0, got {delay}")
        event._scheduled = True
        self._seq += 1
        # Priority events (interrupts) sort before normal events at the
        # same timestamp via the phase key; seq breaks all remaining ties.
        phase = 0 if priority else 1
        self._sched.push((self._now + delay, phase, self._seq, event))

    def peek(self) -> float:
        """Time of the next scheduled event, or ``inf`` if none."""
        return self._sched.peek_time()

    def step(self) -> None:
        """Process one event: advance the clock and run its callbacks."""
        if not self._sched:
            raise SimulationError("no scheduled events")
        self._dispatch(inf, single=True)

    def run(self, until: Optional[float] = None) -> None:
        """Run until the queue drains or the clock passes ``until``.

        The cyclic collector is held off while events are dispatched and
        the caller's setting restored on the way out: the simulator's
        garbage is acyclic (reference counting frees it at once), so a
        collector pass only re-walks a heap that grows with the cluster
        and finds nothing.  ``tests/sim/test_run_loop.py`` pins that as
        an invariant; ``docs/performance.md`` has the measurement.
        """
        limit = inf if until is None else float(until)
        if not limit >= self._now:  # in the past, or NaN
            raise SimulationError(f"until={limit} is not at or after now={self._now}")
        gc_was_enabled = gc.isenabled()
        gc.disable()
        try:
            self._dispatch(limit)
        finally:
            if gc_was_enabled:
                gc.enable()
        if until is not None and self._now < limit:
            self._now = limit

    def _dispatch(self, limit: float, single: bool = False) -> None:
        """The one event loop: pop, advance the clock, run the callbacks.

        Stops when the queue is empty, when the next event lies beyond
        ``limit``, or after one event when ``single``.
        """
        pop, peek_time = self._sched.pop, self._sched.peek_time
        bounded = limit < inf
        while True:
            if bounded and peek_time() > limit:
                return
            try:  # around the pop alone: a callback's IndexError must escape
                when, _phase, _seq, event = pop()
            except IndexError:
                return
            self._now = when
            # Hooks are read per event so one attached mid-run is honoured.
            obs = self.obs
            if obs is not None:
                obs.on_sim_step(len(self._sched))
            prof = self.profile
            if prof is not None:
                prof.on_event(event)
            callbacks = event.callbacks
            event.callbacks = None
            assert callbacks is not None
            for callback in callbacks:
                callback(event)
            if not event._ok and not event._defused:
                raise event._value
            if single:
                return

    def run_process(self, generator: Generator, until: Optional[float] = None) -> Any:
        """Convenience: spawn ``generator``, run, and return its value."""
        proc = self.process(generator)
        self.run(until=until)
        if not proc.triggered:
            raise SimulationError(
                f"process {proc.name!r} did not finish by t={self._now}"
            )
        if not proc._ok:
            raise proc._value
        return proc._value
