"""Benchmark harness: drivers for every paper table and figure.

:mod:`repro.bench.paper` is the claims ledger over them (``repro
paper``); it is imported on demand, not from here.
"""

from .fingerprints import (
    GOLDEN_SCHEMA,
    collect_fingerprints,
    compare_corpus,
    write_corpus,
)
from .latency import (
    latency_table,
    mpi_rma_pingpong,
    unr_get_pull,
    unr_pingpong,
)
from .multinic import pingpong_with_calc
from .powerllel_bench import FIG7_SERIES, powerllel_point
from .report import format_size, format_table
from .resilience import (
    DEFAULT_CHAOS_FAULTS,
    RESILIENCE_SCHEMA,
    resilience_bench,
    write_resilience_bench,
)
from .stream import DEFAULT_FAULTS, fault_demo, run_stream

__all__ = [
    "DEFAULT_CHAOS_FAULTS",
    "DEFAULT_FAULTS",
    "GOLDEN_SCHEMA",
    "RESILIENCE_SCHEMA",
    "FIG7_SERIES",
    "collect_fingerprints",
    "compare_corpus",
    "fault_demo",
    "format_size",
    "format_table",
    "latency_table",
    "mpi_rma_pingpong",
    "pingpong_with_calc",
    "powerllel_point",
    "resilience_bench",
    "run_stream",
    "unr_get_pull",
    "unr_pingpong",
    "write_corpus",
    "write_resilience_bench",
]
