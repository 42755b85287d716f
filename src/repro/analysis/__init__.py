"""Static and dynamic analysis for the UNR reproduction.

Two halves, mirroring the split between compile-time and run-time
reproducibility discipline:

* :mod:`repro.analysis.unrlint` — an AST linter (stdlib ``ast``, no
  dependencies) with UNR-specific determinism rules UNR001–UNR011.
  Run via ``repro lint`` or :func:`lint_paths`.
* :mod:`repro.analysis.sanitizer` — the opt-in UnrSanitizer runtime
  checks (``Unr(sanitize=True)``), surfacing
  out-of-bounds RMA, overlapping registrations, over-width custom-bit
  payloads, use-after-free and leaked notifications through a
  structured :class:`SanitizerReport`.  Run via ``repro check``.
* :mod:`repro.analysis.verify` + :mod:`repro.analysis.hbgraph` —
  unrverify, the two-layer ordering verifier: a trace-based
  happens-before checker (vector clocks over the armed Recorder's
  op/protocol streams; rules VER001–VER004) and the static
  protocol-conformance pass behind UNR010/UNR011.  Run via
  ``repro verify``; :mod:`repro.analysis.mutants` is the seeded bug
  corpus proving it detects real violations, and
  :mod:`repro.analysis.sarif` serializes any finding stream as
  JSON/SARIF for CI annotation.

:mod:`repro.analysis.selfcheck` (imported lazily — it pulls in the
whole library) drives the sanitized stream demo and the deliberate
violation battery behind ``repro check``.
"""

from .hbgraph import HBEvent, HBGraph, VectorClock
from .sanitizer import SanitizerFinding, SanitizerReport, UnrSanitizer
from .sarif import findings_to_json, findings_to_sarif, serialize_findings
from .unrlint import (
    RULES,
    Finding,
    LintConfig,
    Rule,
    format_findings,
    lint_file,
    lint_paths,
    lint_source,
)
from .verify import (
    VERIFY_RULES,
    VerifyReport,
    build_hb_graph,
    verify_corpus,
    verify_recorder,
    verify_schedule,
)

__all__ = [
    "Finding",
    "HBEvent",
    "HBGraph",
    "LintConfig",
    "RULES",
    "Rule",
    "SanitizerFinding",
    "SanitizerReport",
    "UnrSanitizer",
    "VERIFY_RULES",
    "VectorClock",
    "VerifyReport",
    "build_hb_graph",
    "findings_to_json",
    "findings_to_sarif",
    "format_findings",
    "lint_file",
    "lint_paths",
    "lint_source",
    "serialize_findings",
    "verify_corpus",
    "verify_recorder",
    "verify_schedule",
]
