"""Static and dynamic analysis for the UNR reproduction.

The library raises on misuse visible in one call; every other bug class
has one reporter here:

* :mod:`repro.analysis.unrlint` — an AST linter (stdlib ``ast``, no
  dependencies) with the determinism rules UNR001–UNR005.  Run via
  ``repro lint`` or :func:`lint_paths`.
* :mod:`repro.analysis.sanitizer` — the opt-in UnrSanitizer runtime
  checks (``Unr(sanitize=True)``), surfacing freed and degraded signal
  ids, overlapping registrations and leaked notifications through a
  structured :class:`SanitizerReport`, returned by ``Unr.finalize()``.
* :mod:`repro.analysis.verify` + :mod:`repro.analysis.hbgraph` —
  unrverify, a trace-based happens-before checker (reachability over
  the armed Recorder's op/protocol streams; rules VER001–VER004).  Run
  via ``repro verify``; :mod:`repro.analysis.mutants` is the seeded bug
  corpus proving it detects real violations.
"""

from .hbgraph import HBEvent, HBGraph
from .sanitizer import SanitizerFinding, SanitizerReport, UnrSanitizer
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
    "VerifyReport",
    "build_hb_graph",
    "format_findings",
    "lint_file",
    "lint_paths",
    "lint_source",
    "verify_corpus",
    "verify_recorder",
    "verify_schedule",
]
