"""Plain-text table formatting for benchmark reports, and the repo root
the committed records are found under."""

from __future__ import annotations

from pathlib import Path
from typing import Sequence

__all__ = ["REPO_ROOT", "format_cell", "format_table", "format_size"]

#: the source checkout this package runs from (``src/repro/bench/`` up
#: three), so committed records resolve from any working directory
REPO_ROOT = Path(__file__).resolve().parents[3]


def format_size(nbytes: int) -> str:
    if nbytes >= 1 << 20:
        return f"{nbytes >> 20}M"
    if nbytes >= 1 << 10:
        return f"{nbytes >> 10}K"
    return f"{nbytes}B"


def format_cell(cell) -> str:
    """One table cell: floats to three decimals."""
    return f"{cell:.3f}" if isinstance(cell, float) else str(cell)


def format_table(headers: Sequence[str], rows: Sequence[Sequence]) -> str:
    """Fixed-width text table."""
    cells = [[str(h) for h in headers]] + [[format_cell(c) for c in row] for row in rows]
    widths = [max(len(r[i]) for r in cells) for i in range(len(headers))]
    lines = []
    for idx, row in enumerate(cells):
        lines.append("  ".join(c.rjust(w) for c, w in zip(row, widths)))
        if idx == 0:
            lines.append("  ".join("-" * w for w in widths))
    return "\n".join(lines)

