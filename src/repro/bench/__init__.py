"""Benchmark harness: drivers for every paper table and figure."""

from .faultdemo import DEFAULT_FAULTS, fault_demo
from .fingerprints import (
    GOLDEN_SCHEMA,
    collect_fingerprints,
    compare_corpus,
    write_corpus,
)
from .latency import (
    DEFAULT_SIZES,
    latency_table,
    mpi_rma_pingpong,
    unr_get_pull,
    unr_pingpong,
)
from .multinic import aggregation_sweep, imbalance_sweep, pingpong_with_calc
from .powerllel_bench import (
    FIG6_GRIDS,
    FIG7_SERIES,
    fig6_platform,
    fig6_polling_study,
    fig7_scaling,
    powerllel_point,
)
from .report import format_series, format_size, format_table
from .resilience import (
    DEFAULT_CHAOS_FAULTS,
    RESILIENCE_SCHEMA,
    resilience_bench,
    resilience_failures,
    write_resilience_bench,
)
from .tracedemo import TRACE_DEMOS, trace_demo

__all__ = [
    "DEFAULT_CHAOS_FAULTS",
    "DEFAULT_FAULTS",
    "DEFAULT_SIZES",
    "GOLDEN_SCHEMA",
    "RESILIENCE_SCHEMA",
    "FIG6_GRIDS",
    "FIG7_SERIES",
    "TRACE_DEMOS",
    "aggregation_sweep",
    "collect_fingerprints",
    "compare_corpus",
    "fault_demo",
    "fig6_platform",
    "fig6_polling_study",
    "fig7_scaling",
    "format_series",
    "format_size",
    "format_table",
    "imbalance_sweep",
    "latency_table",
    "mpi_rma_pingpong",
    "pingpong_with_calc",
    "powerllel_point",
    "resilience_bench",
    "resilience_failures",
    "trace_demo",
    "unr_get_pull",
    "unr_pingpong",
    "write_corpus",
    "write_resilience_bench",
]
