"""Measurement harness shared by the perfbench workloads.

One :class:`Run` lives for one repeat of one workload (one child
process).  It owns everything the benchmark measures *from outside* the
program: the host clock, the in-memory span recorder, the optional
cProfile fold, the correctness checks and the determinism digest.  The
program under ``src/repro`` is only ever called through its public
functions and receives only inputs generated from the seed.
"""

from __future__ import annotations

import cProfile
import hashlib
import os
import pstats
import time
from contextlib import contextmanager
from typing import Any, Dict, Iterator, List, Optional

import numpy as np

__all__ = ["LAYERS", "Run", "fold_profile", "layer_of_file", "span_self_times"]

#: Layers in ladder order; each is a package (or the top-level modules)
#: under ``src/repro``.
LAYERS = ("sim", "netsim", "interconnect", "core", "mpi", "powerllel", "obs", "runtime")

#: ``src/repro/<dir>`` -> layer.  Packages with no metric family of their
#: own are charged to the layer that drives them on the measured paths:
#: the sanitizer (``analysis``) is an engine tier armed by ``Unr``, the
#: figure drivers (``bench``) are the PowerLLEL product path, and
#: ``platforms`` builds jobs for ``runtime``.
_DIR_LAYER = {
    "sim": "sim",
    "netsim": "netsim",
    "interconnect": "interconnect",
    "core": "core",
    "analysis": "core",
    "collectives": "core",
    "mpi": "mpi",
    "powerllel": "powerllel",
    "bench": "powerllel",
    "obs": "obs",
    "platforms": "runtime",
}

_REPRO_MARK = os.sep + os.path.join("src", "repro") + os.sep


#: Simulated seconds between two probe stamps (see :meth:`Run.probe`).  NIC
#: latencies are ~1 us, the workloads span 30-300 simulated ms: this cuts a
#: repeat into a few thousand segments, the busiest a few host ms long, for
#: well under 1 % of added events.
PROBE_QUANTUM_S = 50e-6


def layer_of_file(filename: str) -> Optional[str]:
    """Layer owning ``filename``, or ``None`` for code outside the program."""
    _head, mark, tail = filename.rpartition(_REPRO_MARK)
    if not mark:
        return None
    first, sep, _rest = tail.partition(os.sep)
    return _DIR_LAYER.get(first, "runtime") if sep else "runtime"


class Run:
    """Clock, spans, checks, counters and digest of one workload repeat."""

    def __init__(self, workload: str, seed: int, scale: float = 1.0, *,
                 traced: bool = False, corrupt: bool = False) -> None:
        self.workload = workload
        self.seed = seed
        self.scale = scale
        self.traced = traced
        #: tests only: flip one byte of every payload before comparing it,
        #: to prove that the checks feed ``fail_share``.
        self.corrupt = corrupt
        #: all workload inputs come from this generator, before the
        #: measured section starts.
        self.rng = np.random.default_rng(seed)
        self.trace_id = f"{workload}-{seed}-{os.getpid()}"
        self.spans: List[Dict[str, Any]] = []
        self._open: List[int] = []
        self.ops = 0
        self.counters: Dict[str, float] = {}
        self.attempted = 0
        self.failures: List[str] = []
        self._digest = hashlib.sha256()
        self.measure_start_ns: Optional[int] = None
        self.wall_ns = 0
        #: host-clock stamps taken by :meth:`probe` inside the measured section
        self._stamps: List[int] = []
        self.segments_ns: List[int] = []
        #: kernel events the probes themselves added (subtracted from counts)
        self.probe_events = 0
        self.profile: Optional[cProfile.Profile] = cProfile.Profile() if traced else None

    # -- sizing ------------------------------------------------------------
    def scaled(self, n: int, floor: int = 1) -> int:
        """``n`` at the published scale 1; proportionally fewer in tests."""
        return max(floor, int(round(n * self.scale)))

    # -- spans -------------------------------------------------------------
    @contextmanager
    def span(self, name: str, layer: str) -> Iterator[None]:
        """Record one call-boundary span (kept in memory until exit)."""
        record = {
            "id": len(self.spans),
            "parent": self._open[-1] if self._open else None,
            "trace": self.trace_id,
            "name": name,
            "layer": layer,
            "start_ns": time.perf_counter_ns(),
            "end_ns": None,
        }
        self.spans.append(record)
        self._open.append(record["id"])
        try:
            yield
        finally:
            record["end_ns"] = time.perf_counter_ns()
            self._open.pop()

    def add_span(self, name: str, layer: str, start_ns: int, end_ns: int) -> None:
        """Record a span whose bounds were taken elsewhere (``import``)."""
        self.spans.append({
            "id": len(self.spans), "parent": None, "trace": self.trace_id,
            "name": name, "layer": layer, "start_ns": start_ns, "end_ns": end_ns,
        })

    def span_seconds(self, name: str) -> float:
        """Total duration of every closed span called ``name``."""
        return sum(
            s["end_ns"] - s["start_ns"] for s in self.spans
            if s["name"] == name and s["end_ns"] is not None
        ) / 1e9

    @contextmanager
    def measured(self) -> Iterator[None]:
        """The measured section: ``wall_s`` is exactly this interval.

        Entering it ends set-up.  The profiler of a traced run is on for
        this interval only, so the fold never sees imports or checks.
        """
        if self.measure_start_ns is not None:
            raise RuntimeError("a workload has one measured section")
        with self.span("measured", "host"):
            self.measure_start_ns = time.monotonic_ns()
            t0 = time.perf_counter_ns()
            if self.profile is not None:
                self.profile.enable()
            try:
                yield
            finally:
                if self.profile is not None:
                    self.profile.disable()
                t1 = time.perf_counter_ns()
                self.wall_ns = t1 - t0
                bounds = [t0, *self._stamps, t1]
                self.segments_ns = [b - a for a, b in zip(bounds, bounds[1:])]

    def probe(self, env: Any) -> None:
        """Cut the measured section into segments of equal *simulated* time.

        Starts a simulated process on ``env`` that stamps the host clock
        every ``PROBE_QUANTUM_S`` simulated seconds and ends itself once nothing
        else is scheduled.  It draws no randomness and touches no state,
        so the simulation is unchanged (the digest proves it), and since
        the program is deterministic, segment *k* is the same work in
        every repeat of a seed.  The parent takes, segment by segment, the
        fastest repeat: on a shared host whose speed drifts and bursts,
        that sum is far steadier than any statistic of whole-run times.
        """
        stamps = self._stamps

        def ticker() -> Iterator[Any]:
            while True:
                yield env.timeout(PROBE_QUANTUM_S)
                stamps.append(time.perf_counter_ns())
                self.probe_events += 1
                if env.peek() == float("inf"):
                    return

        self.probe_events += 2  # the process's start and end events
        env.process(ticker())

    # -- correctness -------------------------------------------------------
    def check(self, name: str, ok: bool) -> None:
        self.attempted += 1
        if not ok:
            self.failures.append(name)

    def check_payload(self, name: str, got: np.ndarray, want: np.ndarray) -> None:
        """Byte-exact comparison of a delivered payload."""
        if self.corrupt and got.size:
            got = got.copy()
            got.reshape(-1).view(np.uint8)[self.seed % got.nbytes] ^= 0xFF
        self.check(name, bool(np.array_equal(got, want)))

    # -- counters & digest -------------------------------------------------
    def count(self, name: str, value: float) -> None:
        """Add ``value`` to counter ``name`` (legs of one workload sum)."""
        self.counters[name] = self.counters.get(name, 0) + value

    def peak(self, name: str, value: float) -> None:
        """Keep the largest ``value`` seen for the high-water mark ``name``."""
        self.counters[name] = max(self.counters.get(name, 0), value)

    def digest(self, label: str, value: Any) -> None:
        """Fold one simulated output into the determinism digest.

        Floats go in by ``repr`` (all their digits), mappings by sorted
        key, so equal digests mean bit-equal simulated results.
        """
        if isinstance(value, dict):
            value = sorted((str(k), repr(v)) for k, v in value.items())
        self._digest.update(f"{label}={value!r};".encode())

    def hexdigest(self) -> str:
        return self._digest.hexdigest()


def span_self_times(spans: List[Dict[str, Any]]) -> Dict[int, int]:
    """Self time (ns) per span id: its duration minus its children's."""
    own = {s["id"]: s["end_ns"] - s["start_ns"] for s in spans}
    for s in spans:
        if s["parent"] is not None:
            own[s["parent"]] -= s["end_ns"] - s["start_ns"]
    return own


def fold_profile(profile: cProfile.Profile) -> Dict[str, Dict[str, float]]:
    """Fold a cProfile run by source directory into per-layer totals.

    ``calls`` counts invocations of the layer's own functions (exact and
    repeatable).  ``self_s`` is their self time plus the self time of
    every function outside the program (C builtins, NumPy, stdlib) that
    they called directly, read from the callers table.  Time whose
    direct caller is outside the program — the benchmark's own rank
    programs, stdlib calling stdlib — is returned under ``"other"``.
    """
    out = {layer: {"calls": 0, "self_s": 0.0} for layer in LAYERS + ("other",)}
    for func, (_cc, ncalls, tottime, _ct, callers) in pstats.Stats(profile).stats.items():
        layer = layer_of_file(func[0])
        if layer is not None:
            out[layer]["calls"] += ncalls
            out[layer]["self_s"] += tottime
            continue
        charged = 0.0
        for caller, (_ccc, _cnc, caller_tt, _cct) in callers.items():
            caller_layer = layer_of_file(caller[0])
            if caller_layer is not None:
                out[caller_layer]["self_s"] += caller_tt
                charged += caller_tt
        out["other"]["self_s"] += tottime - charged
    return out
