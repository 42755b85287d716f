"""unrprof: the host-time self-profiler (``repro profile``).

Everything else in :mod:`repro.obs` is deliberately blind to the wall
clock: the :class:`~repro.obs.recorder.Recorder` stamps with ``env.now``
only, so an armed run stays wire-fingerprint-identical to a disarmed
one.  That guarantee leaves a hole — we can count *simulated events per
op*, but we have zero visibility into where **host CPU time** goes
inside the simulator itself, which is exactly the signal the
calendar-queue / 1728-node scaling work needs.

This module is the one sanctioned wall-clock user in the repository
(statically enforced: unrlint rule UNR012 flags ``time.*`` anywhere
outside ``obs/profile.py``).  The profiler is architecturally separate
from the Recorder:

* **It never feeds the schedule.**  ``HostProfiler`` reads
  ``time.perf_counter_ns`` and ``env.now``; it never schedules events,
  never draws RNG, never mutates simulation state.  A profiled run is
  therefore bit-identical on the wire to an unprofiled one (tested
  against the 16-entry golden fingerprint corpus).
* **Chained timestamps, zero gap.**  The kernel's dispatch loop
  (``Environment.run``; ``step`` is one turn of it) calls
  :meth:`HostProfiler.on_event` once per dispatched event.  The hook
  takes a single clock reading and attributes the interval since the
  *previous* reading to the previous event — so every nanosecond of the
  measured window lands on some event kind, including the profiler's
  own bookkeeping (the accounting identity ``sum(total_ns) ≈ wall_ns``
  holds by construction; coverage is typically >97%).
* **Self vs total.**  :class:`~repro.core.engine.ProgressEngine` wraps
  handler dispatch in :meth:`dispatch_begin`/:meth:`dispatch_end`;
  nested dispatch time is subtracted from the enclosing event's
  ``self_ns`` and attributed per completion-record kind.
* **Capture live, account later.**  The per-event hot path is one
  clock read plus one buffer append; classification, interval
  accounting, sampling and the counter timeline replay from the buffer
  at drain time (window exit / snapshot / periodic cap), outside the
  measured workload.  Per-layer aggregates (sim kernel / netsim NIC /
  engine dispatch / obs / mpi / workload) are a pure function of the
  per-kind stats and are rebuilt lazily at snapshot / report time.
  Optional sampling mode folds self-time into collapsed-stack lines
  (``layer;kind[;dispatch:rkind] <ns>``) ready for flamegraph tooling.

Arm with :meth:`HostProfiler.attach` **before** constructing ``Unr``
(so progress engines see it), wrap the measured region in
:meth:`window`, then export via :meth:`snapshot`, :meth:`report`,
:meth:`collapsed` or the Perfetto counter tracks
(:func:`repro.obs.export.perfetto_json` with ``profiler=``).
"""

from __future__ import annotations

import os
import subprocess
import sys
import time  # sanctioned: the ONLY wall-clock import in the repo (UNR012)
from contextlib import contextmanager
from types import CodeType
from typing import Any, Dict, Iterator, List, Optional, Tuple

from ..sim.core import Deferred as _Deferred, InFlight as _InFlight

__all__ = [
    "HostProfiler",
    "host_clock_ns",
    "peak_rss_kb",
    "run_meta",
]

_clock_ns = time.perf_counter_ns


def host_clock_ns() -> int:
    """Monotonic host clock in nanoseconds.

    The chokepoint bench code uses to time wall-clock spans (overhead
    baselines, trend timestamps) without importing ``time`` itself —
    unrlint UNR012 reserves ``time.*`` for this module.
    """
    return _clock_ns()


def peak_rss_kb() -> Optional[int]:
    """Peak resident set size of this process, in kilobytes.

    Read from ``resource.getrusage`` (``ru_maxrss`` is KB on Linux, and
    converted from bytes on macOS); ``None`` on platforms without the
    ``resource`` module.  Like the host clock this is host-side
    telemetry only — it rides in bench records (``peak_rss_kb``) and
    never feeds the simulation.
    """
    try:
        import resource
    except ImportError:  # pragma: no cover - non-POSIX
        return None
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if sys.platform == "darwin":  # pragma: no cover - ru_maxrss in bytes
        rss //= 1024
    return int(rss)


def run_meta() -> Dict[str, Any]:
    """Host/run identity block embedded in ``BENCH_profile.json``.

    Everything here is best-effort (a detached tarball build reports
    ``git_sha="unknown"``).
    """
    sha = "unknown"
    try:
        out = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            capture_output=True, text=True, timeout=5,
            cwd=os.path.dirname(os.path.abspath(__file__)),
        )
        if out.returncode == 0:
            sha = out.stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        pass
    return {
        "git_sha": sha,
        "python": "%d.%d.%d" % sys.version_info[:3],
        "unix_time": int(time.time()),
    }


#: package component -> attribution layer.  ``core`` is the transfer/
#: progress engine, ``obs`` the observability layer itself; workload
#: components (apps, benches, examples) fold into one bucket.
_LAYER_BY_COMPONENT = {
    "sim": "sim",
    "netsim": "netsim",
    "core": "engine",
    "obs": "obs",
    "mpi": "mpi",
    "interconnect": "engine",
    "powerllel": "workload",
    "collectives": "workload",
    "bench": "workload",
    "examples": "workload",
    "tests": "workload",
}


def _layer_of_module(module: str) -> str:
    for part in module.split("."):
        layer = _LAYER_BY_COMPONENT.get(part)
        if layer is not None:
            return layer
    return "other"


def _layer_of_path(filename: str) -> str:
    for part in filename.replace(os.sep, "/").split("/"):
        base = part[:-3] if part.endswith(".py") else part
        layer = _LAYER_BY_COMPONENT.get(base)
        if layer is not None:
            return layer
    return "other"


class _Stat:
    """One accumulator: event/dispatch kind or layer aggregate.

    Self time is derived (``total_ns - child_ns``) rather than stored:
    nested engine-dispatch frames are rare next to sim events, so
    :meth:`HostProfiler.dispatch_end` charges ``child_ns`` directly to
    the enclosing stat and the per-event hot path carries no self-time
    arithmetic at all.
    """

    __slots__ = ("kind", "layer", "count", "total_ns", "child_ns", "max_ns",
                 "stack_key")

    def __init__(self, kind: str, layer: str) -> None:
        self.kind = kind
        self.layer = layer
        self.count = 0
        self.total_ns = 0
        self.child_ns = 0
        self.max_ns = 0
        #: precomputed collapsed-stack frame ("layer;kind").
        self.stack_key = f"{layer};{kind}"

    @property
    def self_ns(self) -> int:
        return self.total_ns - self.child_ns

    def as_dict(self) -> Dict[str, Any]:
        return {
            "layer": self.layer,
            "count": self.count,
            "total_ns": self.total_ns,
            "self_ns": self.total_ns - self.child_ns,
            "max_ns": self.max_ns,
        }


#: control entries in the deferred-work buffer (see HostProfiler._buf):
#: open a synthetic host:setup frame / close the pending interval at the
#: entry's host timestamp.
_SETUP = object()
_FLUSH = object()


class HostProfiler:
    """Opt-in host-clock profiler for the simulation process.

    Parameters
    ----------
    sample_every:
        ``0`` (default) disables sampling; ``N`` folds every Nth
        occurrence of each event kind into the collapsed-stack table,
        weighted by ``self_ns * N`` (an unbiased estimate of the kind's
        self time at 1/N the bookkeeping cost).  ``1`` samples every
        event exactly.
    counter_every:
        Append a Perfetto counter-track sample (cumulative per-layer
        host ms keyed by the *simulated* timestamp) every N dispatched
        events.  ``0`` disables the timeline.
    """

    # Slotted, and the per-event work is a clock read plus one list
    # append: every timestamp is captured live, but classification and
    # accounting replay from the buffer at drain time (window exit /
    # snapshot / periodic cap), OUTSIDE the measured workload.  The 10%
    # overhead gate (``measure_overhead``) is what forces this
    # shape — attribute walks and dict updates per event cost more than
    # the attribution is worth while the workload is running.
    __slots__ = (
        "env", "events", "dispatch", "wall_ns",
        "_sample_every", "_counter_every", "_counter_left", "_samples",
        "counter_timeline", "_buf", "_append", "_pending", "_pending_t0",
        "_child_ns", "_window_t0", "_fn_memo", "_code_memo",
        "per_event_overhead_ns",
    )

    #: drain the buffer when it reaches this many entries (checked at
    #: engine-dispatch cadence, see :meth:`dispatch_end`) so memory
    #: stays bounded on long windows.  A window with no engine activity
    #: buffers ~80 B/event until the next flush point instead.
    _DRAIN_CAP = 32768

    def __init__(self, *, sample_every: int = 0, counter_every: int = 256) -> None:
        self.env: Optional[Any] = None
        self.events: Dict[str, _Stat] = {}
        self.dispatch: Dict[str, _Stat] = {}
        self.wall_ns = 0
        self._sample_every = int(sample_every)
        self._counter_every = int(counter_every)
        #: countdown to the next counter-track sample (-1 = disabled);
        #: decremented per event at replay time, never on the hot path.
        self._counter_left = self._counter_every or -1
        self._samples: Dict[str, int] = {}
        #: (simulated seconds, {layer: cumulative total_ns}) timeline.
        self.counter_timeline: List[Tuple[float, Dict[str, int]]] = []
        #: deferred-work buffer: (host_ns, event_class, key, sim_now)
        #: per sim event — key is a Deferred callback's ``__code__`` or
        #: the captured callbacks sequence — (host_ns, kind_str, t0_ns, 0.0)
        #: per engine dispatch frame, plus _SETUP/_FLUSH control
        #: entries.  Replayed by :meth:`_drain`; never retains event
        #: objects (see :meth:`on_event`).
        self._buf: List[Tuple[Any, Any, Any, float]] = []
        #: the buffer's bound ``append`` — one slot load on the hot
        #: path instead of an attribute walk; rekept by :meth:`_drain`.
        self._append = self._buf.append
        # chained-timestamp replay state (carried across drains)
        self._pending: Optional[_Stat] = None
        self._pending_t0 = 0
        self._child_ns = 0
        self._window_t0: Optional[int] = None
        # classification memos (callable / generator code object keyed)
        self._fn_memo: Dict[Any, _Stat] = {}
        self._code_memo: Dict[Any, _Stat] = {}
        self.per_event_overhead_ns = self._calibrate()

    # -- attach ------------------------------------------------------------
    @classmethod
    def attach(cls, cluster: Any,
               profiler: Optional["HostProfiler"] = None) -> "HostProfiler":
        """Arm host profiling on ``cluster`` (idempotent per cluster).

        Must run **before** ``Unr(...)`` so progress engines pick the
        profiler up at construction.  One profiler may be attached to
        several clusters over its life (e.g. ``measure_overhead`` runs
        two jobs per pass); accumulators keep growing across them.
        """
        existing = getattr(cluster, "prof", None)
        if existing is not None:
            if profiler is not None and profiler is not existing:
                raise ValueError(
                    "cluster already has a profiler attached; cannot attach another"
                )
            return existing
        prof = profiler if profiler is not None else cls()
        cluster.prof = prof
        prof.bind(cluster.env)
        return prof

    def bind(self, env: Any) -> None:
        """Point the profiler at ``env`` (installs the step hook)."""
        self._mark_flush()
        self.env = env
        env.profile = self
        # Inside a measured window, setup between the bind and the first
        # event (job construction, engine wiring) is real host time —
        # open a synthetic frame so the chain stays gap-free.  Markers
        # only; no drain here, so mid-window binds cost two appends.
        if self._window_t0 is not None:
            self._buf.append((_clock_ns(), _SETUP, None, 0.0))

    def disarm(self) -> None:
        """Detach from the current environment (accumulators survive)."""
        self._flush_pending()
        if self.env is not None and getattr(self.env, "profile", None) is self:
            self.env.profile = None

    # -- measured window ---------------------------------------------------
    @contextmanager
    def window(self) -> Iterator["HostProfiler"]:
        """Bracket the measured region; adds its span to :attr:`wall_ns`.

        Coverage (attributed / wall) is reported against the union of
        these windows, so run the workload — and nothing else — inside.
        """
        t0 = _clock_ns()
        self._window_t0 = t0
        # Everything from here to the first sim event (platform tables,
        # job construction, Unr wiring) lands on the synthetic
        # ``host:setup`` kind, so Σ self_ns tracks wall_ns gap-free.
        self._buf.append((t0, _SETUP, None, 0.0))
        try:
            yield self
        finally:
            # Close the window BEFORE replaying the buffer: the drain is
            # profiler bookkeeping outside the measured span, so it must
            # inflate neither wall_ns nor any event's interval.
            t1 = _clock_ns()
            self._buf.append((t1, _FLUSH, None, 0.0))
            self.wall_ns += t1 - t0
            self._window_t0 = None
            self._drain()

    def _mark_flush(self) -> None:
        """Queue a close of the pending interval at the current time."""
        if self._pending is not None or self._buf:
            self._buf.append((_clock_ns(), _FLUSH, None, 0.0))

    def _flush_pending(self) -> None:
        self._mark_flush()
        self._drain()

    # -- the hot path ------------------------------------------------------
    def on_event(self, event: Any, _clock: Any = _clock_ns,
                 _deferred: Any = _Deferred) -> None:
        """Called by the ``Environment.run`` loop once per dispatched event.

        One clock read and one buffer append: the timestamp closes the
        previous event's interval and opens this one *at replay time*
        (chained attribution — bookkeeping for event *i* lands inside
        event *i+1*'s interval).  The overhead gate holds the profiled
        ``measure_overhead`` runs to <=10%, which is why nothing else
        happens per event — no counters, no dict updates (``_clock``
        and ``_deferred`` are bound as default arguments to skip the
        module-global lookups; the counter-timeline countdown replays
        from the buffered sim timestamps at drain time).

        The entry must NOT retain the event object: events are the
        allocator's hottest recycled blocks, and parking thousands of
        them in the buffer forces every new event onto cold memory — a
        measured ~1 us/event of cache misses, triple the cost of the
        append itself.  So the entry carries only the event's *class*
        plus a classification key that is already long-lived: the
        ``__code__`` of a Deferred's callback (the callable itself can
        be fresh per event), or the callbacks sequence for everything
        else (an in-flight message's class-shared handlers tuple, or a
        list of bound methods of long-lived Processes; it must be
        captured here anyway because ``step`` nulls ``event.callbacks``
        right after this hook).
        """
        cls = event.__class__
        if cls is _deferred:
            try:
                key: Any = event._fn.__code__
            except AttributeError:  # C-level / __call__ object
                key = event._fn
        else:
            key = event.callbacks
        self._append((_clock(), cls, key, event.env._now))

    # -- engine dispatch hook ----------------------------------------------
    def dispatch_begin(self) -> int:
        """Start a nested engine-dispatch frame; returns its t0 token."""
        return _clock_ns()

    def dispatch_end(self, kind: str, t0: int) -> None:
        """Close the frame opened by :meth:`dispatch_begin`.

        At replay the elapsed time is charged to ``dispatch[kind]`` and
        subtracted from the enclosing sim event's self time.  The
        buffer cap is enforced here rather than per event — dispatch
        frames recur throughout every Unr-driven workload, and a length
        check at dispatch cadence is invisible next to the per-event
        budget.
        """
        self._append((_clock_ns(), kind, t0, 0.0))
        if len(self._buf) >= self._DRAIN_CAP:
            # Bound memory on long windows.  The replay lands inside
            # the then-pending interval — same place the old inline
            # bookkeeping was measured, so coverage is unaffected.
            self._drain()

    # -- buffer replay ------------------------------------------------------
    def _drain(self) -> None:
        """Replay buffered entries into the accumulators.

        Runs at window exit, snapshot/report/disarm, and when the
        buffer hits :attr:`_DRAIN_CAP` — everything the old inline hot
        path did (interval accounting, classification, sampling, the
        counter timeline) happens here instead, against the timestamps
        captured live, so the attribution is identical but the workload
        only ever paid for the capture.
        """
        buf = self._buf
        if not buf:
            return
        self._buf = []
        self._append = self._buf.append
        pending = self._pending
        t_prev = self._pending_t0
        child = self._child_ns
        sample = self._sample_every
        cleft = self._counter_left
        for t, tag, extra, sim in buf:
            if tag.__class__ is str:  # engine dispatch frame (kind, t0)
                dt = t - extra
                child += dt
                if pending is not None:
                    pending.child_ns += dt
                st = self.dispatch.get(tag)
                if st is None:
                    st = self.dispatch[tag] = _Stat(f"dispatch:{tag}", "engine")
                st.count += 1
                st.total_ns += dt
                if dt > st.max_ns:
                    st.max_ns = dt
                if sample and st.count % sample == 0:
                    key = (f"{pending.stack_key};{st.kind}"
                           if pending is not None else f"engine;{st.kind}")
                    self._samples[key] = self._samples.get(key, 0) + dt * sample
                continue
            if pending is not None:  # close the previous interval at t
                dt = t - t_prev
                pending.count += 1
                pending.total_ns += dt
                if dt > pending.max_ns:
                    pending.max_ns = dt
                if sample and pending.count % sample == 0:
                    key = pending.stack_key
                    self._samples[key] = (self._samples.get(key, 0)
                                          + (dt - child) * sample)
            t_prev = t
            child = 0
            if tag is _SETUP:
                pending = self._stat_for("host:setup", "host")
            elif tag is _FLUSH:
                pending = None
            else:  # a sim event (class, key): open its interval
                pending = self._classify(tag, extra)
                # Counter-timeline countdown, replayed at the same
                # every-N-events cadence the hot path used to pay for;
                # ``sim`` is the event's simulated timestamp captured
                # at dispatch.
                cleft -= 1
                if not cleft:
                    cleft = self._counter_every
                    self.counter_timeline.append(
                        (sim, {k: s.total_ns
                               for k, s in self._layer_totals().items()})
                    )
        self._pending = pending
        self._pending_t0 = t_prev
        self._child_ns = child
        self._counter_left = cleft

    # -- classification (memoized off the hot path) ------------------------
    def _stat_for(self, kind: str, layer: str) -> _Stat:
        st = self.events.get(kind)
        if st is None:
            st = self.events[kind] = _Stat(kind, layer)
        return st

    def _layer_totals(self) -> Dict[str, _Stat]:
        """Per-layer aggregates folded from :attr:`events` on demand.

        The hot path only touches the per-kind stat; layer sums are a
        pure function of those, so they are rebuilt here (snapshot /
        report / counter-timeline sample) instead of being double-
        written on every event.  Dispatch stats stay out by design —
        their time is nested inside the sim events' ``total_ns``.
        """
        out: Dict[str, _Stat] = {}
        for st in self.events.values():
            agg = out.get(st.layer)
            if agg is None:
                agg = out[st.layer] = _Stat(st.layer, st.layer)
            agg.count += st.count
            agg.total_ns += st.total_ns
            agg.child_ns += st.child_ns
            if st.max_ns > agg.max_ns:
                agg.max_ns = st.max_ns
        return out

    def _stat_for_code(self, prefix: str, fkey: Any) -> _Stat:
        """Resolve a callable to its stat, keyed by ``__code__``.

        A Deferred's callback can be a *fresh closure* or bound method
        per event (``_Sweeper._stall_over`` binds one per stall window),
        so memoizing on the function object would miss — and leak —
        once per event.  The shared code object identifies the source
        location exactly and lives for the life of the module.
        """
        code = fkey if type(fkey) is CodeType else getattr(fkey, "__code__", None)
        key = code if code is not None else fkey
        st = self._fn_memo.get(key)
        if st is None:
            if code is not None:
                qual = getattr(code, "co_qualname", code.co_name)
                layer = _layer_of_path(code.co_filename)
            else:
                qual = getattr(fkey, "__qualname__", repr(fkey))
                layer = _layer_of_module(getattr(fkey, "__module__", "") or "")
            st = self._stat_for(f"{prefix}:{qual}", layer)
            self._fn_memo[key] = st
        return st

    def _classify(self, cls: type, key: Any) -> _Stat:
        """Resolve a buffered ``(event class, key)`` entry to its stat.

        ``key`` is what :meth:`on_event` captured: a Deferred
        callback's ``__code__`` (or the raw callable), or the event's
        callbacks list — captured at dispatch time because
        the dispatch loop nulls ``event.callbacks`` right after the
        hook fires.
        """
        if cls is _Deferred:
            return self._stat_for_code("defer", key)
        if issubclass(cls, _InFlight):
            # An in-flight wire message or sweep fire: ``key`` is the
            # class-shared handlers tuple, its first entry a
            # module-level function that names the kind and the layer.
            return self._stat_for_code("defer", key[0])
        # Timeout / Initialize / Process / Condition / plain Event: the
        # host time goes to whatever the first callback resumes — usually
        # a Process generator, whose *code object* names both the kind
        # and the layer the interval is spent in.
        cb = key[0] if key else None
        owner = getattr(cb, "__self__", None)
        gen = getattr(owner, "_generator", None)
        if gen is not None:
            code = getattr(gen, "gi_code", None)
            gkey = code if code is not None else getattr(owner, "name", "?")
            st = self._code_memo.get(gkey)
            if st is None:
                if code is not None:
                    qual = getattr(code, "co_qualname", code.co_name)
                    layer = _layer_of_path(code.co_filename)
                else:
                    qual, layer = str(gkey), "other"
                st = self._stat_for(f"proc:{qual}", layer)
                self._code_memo[gkey] = st
            return st
        if cb is not None:
            return self._stat_for_code("cb", getattr(cb, "__func__", cb))
        return self._stat_for(f"event:{cls.__name__}", "sim")

    # -- calibration --------------------------------------------------------
    @staticmethod
    def _calibrate(iters: int = 256) -> int:
        """Estimate the hot path's per-event cost (ns, clock + append)."""
        probe: List[Tuple[int, Any, Any, float]] = []
        append = probe.append
        t0 = _clock_ns()
        for _ in range(iters):
            append((_clock_ns(), None, None, 0.0))
        return max((_clock_ns() - t0) // iters, 1)

    # -- output -------------------------------------------------------------
    @property
    def n_events(self) -> int:
        """Dispatched sim events seen (derived, no hot-path counter).

        Every dispatched event opens exactly one interval, and every
        interval close increments its kind's count — so the dispatched
        total is the sum of the per-kind counts minus the synthetic
        ``host:setup`` frames, which are the only intervals not opened
        by a dispatched event.  The still-open pending interval is not
        yet counted; :meth:`snapshot` and :meth:`report` flush first.
        """
        total = sum(s.count for s in self.events.values())
        setup = self.events.get("host:setup")
        return total - setup.count if setup is not None else total

    def attributed_self_ns(self) -> int:
        """Σ self-time over event kinds + dispatch kinds (no double count)."""
        return (sum(s.self_ns for s in self.events.values())
                + sum(s.self_ns for s in self.dispatch.values()))

    def coverage(self) -> Optional[float]:
        """Attributed self time / measured window wall time (None = no window)."""
        if self.wall_ns <= 0:
            return None
        return self.attributed_self_ns() / self.wall_ns

    def snapshot(self) -> Dict[str, Any]:
        """Everything accumulated so far, keys sorted (JSON-ready)."""
        self._flush_pending()
        layers = self._layer_totals()
        return {
            "wall_ns": self.wall_ns,
            "n_events": self.n_events,
            "coverage": self.coverage(),
            "events": {k: self.events[k].as_dict() for k in sorted(self.events)},
            "layers": {k: layers[k].as_dict() for k in sorted(layers)},
            "dispatch": {k: self.dispatch[k].as_dict() for k in sorted(self.dispatch)},
            "overhead_est_ns": self.per_event_overhead_ns * self.n_events,
            "n_samples": len(self._samples),
        }

    def collapsed(self) -> List[str]:
        """Collapsed-stack lines (``frame;frame value``), flamegraph-ready.

        With sampling off this falls back to the exact per-kind self
        times, which is still a valid (single-level) flamegraph input.
        """
        if self._samples:
            table = self._samples
        else:
            table = {s.stack_key: s.self_ns for s in self.events.values()}
            for s in self.dispatch.values():
                table[f"engine;{s.kind}"] = s.self_ns
        return [f"{key} {value}" for key, value in sorted(table.items()) if value > 0]

    def write_collapsed(self, path: str) -> str:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("\n".join(self.collapsed()) + "\n")
        return path

    def trace_events(self, tids: Dict[str, int]) -> List[Dict[str, Any]]:
        """Perfetto ``"C"`` counter events over the sampled timeline.

        ``tids`` maps counter track names (see :meth:`counter_tracks`)
        to thread ids — assigned by the exporter so profile counters
        merge cleanly into the recorder's trace.
        """
        out: List[Dict[str, Any]] = []
        for sim_t, by_layer in self.counter_timeline:
            ts = round(sim_t * 1e6, 3)
            for layer, cum_ns in sorted(by_layer.items()):
                track = f"prof.host_ms.{layer}"
                tid = tids.get(track)
                if tid is None:
                    continue
                out.append(
                    {
                        "ph": "C", "name": "host_ms", "pid": 1, "tid": tid,
                        "ts": ts, "args": {"value": round(cum_ns / 1e6, 4)},
                    }
                )
        return out

    def counter_tracks(self) -> List[str]:
        """Track names the counter timeline will emit (sorted)."""
        names = set()
        for _t, by_layer in self.counter_timeline:
            for layer in by_layer:
                names.add(f"prof.host_ms.{layer}")
        return sorted(names)

    def report(self, top: int = 14) -> str:
        """Human-readable attribution table (layers, then top kinds)."""
        self._flush_pending()
        lines: List[str] = []
        wall = self.wall_ns or max(self.attributed_self_ns(), 1)
        lines.append(
            f"host profile: {self.n_events} sim events, "
            f"wall {self.wall_ns / 1e6:.2f} ms, "
            f"coverage {100.0 * (self.coverage() or 0.0):.1f}%, "
            f"est. overhead {self.per_event_overhead_ns * self.n_events / 1e6:.2f} ms"
        )
        lines.append("  layer      share   self ms    events")
        layers = self._layer_totals()
        for name in sorted(layers, key=lambda k: -layers[k].self_ns):
            ls = layers[name]
            lines.append(
                f"  {name:<10s} {100.0 * ls.self_ns / wall:5.1f}%  "
                f"{ls.self_ns / 1e6:8.2f}  {ls.count:8d}"
            )
        ranked = sorted(
            list(self.events.values()) + list(self.dispatch.values()),
            key=lambda s: -s.self_ns,
        )[:top]
        if ranked:
            lines.append("  top kinds (self ms / count / max us):")
            for s in ranked:
                lines.append(
                    f"    {s.kind:<44s} {s.self_ns / 1e6:8.2f}  "
                    f"{s.count:7d}  {s.max_ns / 1e3:8.1f}"
                )
        return "\n".join(lines)

    def __repr__(self) -> str:
        return (
            f"<HostProfiler events={self.n_events} kinds={len(self.events)} "
            f"wall_ms={self.wall_ns / 1e6:.2f}>"
        )
