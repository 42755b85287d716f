"""repro.obs — unified tracing, metrics & profiling for the simulation.

One :class:`Recorder` per cluster collects counters, gauges, histograms,
instant events, spans and NIC transfer records, all timestamped with
simulated time (``env.now``).  Recording is passive: arming a recorder
never changes what the simulation does, only what gets written down —
the ``transfer_fingerprint`` of a run is identical with observation on
or off.

Arm via ``Unr(..., observe=True)`` (which also interposes on that
library's boundary, :func:`repro.obs.instrument.observe_unr`),
``Recorder.attach(cluster)``, or the ``repro trace`` CLI.
Export with :func:`write_perfetto` (Chrome/Perfetto ``trace_event``
JSON: ``repro trace``'s one artifact) or :func:`text_timeline`.  See
``docs/observability.md``.

Host-time profiling lives in :mod:`repro.obs.profile` (``unrprof``):
:class:`HostProfiler` is the repo's one sanctioned wall-clock consumer
(unrlint UNR002) and attributes host CPU time per event kind and layer
without perturbing the schedule.  See ``docs/profiling.md``.
"""

from .export import (
    perfetto_json,
    text_timeline,
    to_trace_events,
    validate_trace,
    validate_trace_file,
    write_perfetto,
)
from .profile import HostProfiler, host_clock_ns
from .recorder import Histogram, InstantEvent, OpRecord, ProtoEvent, Recorder
from .spans import Span, SpanHandle, SpanLog

__all__ = [
    "Recorder",
    "HostProfiler",
    "host_clock_ns",
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
    "validate_trace",
    "validate_trace_file",
]
