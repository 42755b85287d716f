"""repro.obs — unified tracing, metrics & profiling for the simulation.

One :class:`Recorder` per cluster collects counters, gauges, histograms,
instant events, spans and NIC transfer records, all timestamped with
simulated time (``env.now``).  Recording is passive: arming a recorder
never changes what the simulation does, only what gets written down —
the ``transfer_fingerprint`` of a run is identical with observation on
or off.

Arm via ``Unr(..., observe=True)``, ``Recorder.attach(cluster)``, or
the ``repro trace`` CLI.
Export with :func:`write_perfetto` (Chrome/Perfetto ``trace_event``
JSON), :func:`text_timeline`, or :func:`bench_record` /
:func:`write_bench` (``BENCH_obs.json``).  See ``docs/observability.md``.

Host-time profiling lives in :mod:`repro.obs.profile` (``unrprof``):
:class:`HostProfiler` is the repo's one sanctioned wall-clock consumer
(unrlint UNR002) and attributes host CPU time per event kind and layer
without perturbing the schedule.  See ``docs/profiling.md``.
"""

from .export import (
    bench_record,
    perfetto_json,
    text_timeline,
    to_trace_events,
    validate_bench,
    validate_bench_file,
    validate_trace,
    validate_trace_file,
    write_bench,
    write_perfetto,
)
from .profile import HostProfiler, host_clock_ns, peak_rss_kb
from .recorder import Histogram, InstantEvent, OpRecord, ProtoEvent, Recorder
from .spans import Span, SpanHandle, SpanLog

__all__ = [
    "Recorder",
    "HostProfiler",
    "host_clock_ns",
    "peak_rss_kb",
    "Histogram",
    "InstantEvent",
    "OpRecord",
    "ProtoEvent",
    "Span",
    "SpanHandle",
    "SpanLog",
    "to_trace_events",
    "perfetto_json",
    "write_perfetto",
    "text_timeline",
    "bench_record",
    "write_bench",
    "validate_trace",
    "validate_trace_file",
    "validate_bench",
    "validate_bench_file",
]
