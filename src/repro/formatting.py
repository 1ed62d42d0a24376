"""Plain-text table rendering for reports, harnesses and sweep results."""

from __future__ import annotations

from typing import Sequence

__all__ = ["render_table"]


def render_table(
    headers: Sequence[str],
    rows: Sequence[Sequence[object]],
    title: str = "",
) -> str:
    """Render rows as an aligned ASCII table (numbers right-aligned)."""
    text_rows = [[_fmt(cell) for cell in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in text_rows:
        for column, cell in enumerate(row):
            widths[column] = max(widths[column], len(cell))

    def line(cells: Sequence[str]) -> str:
        parts = []
        for column, cell in enumerate(cells):
            parts.append(cell.rjust(widths[column]))
        return "  ".join(parts)

    out = []
    if title:
        out.append(title)
    out.append(line(headers))
    out.append("  ".join("-" * w for w in widths))
    out.extend(line(row) for row in text_rows)
    return "\n".join(out)


def _fmt(cell: object) -> str:
    if isinstance(cell, float):
        return f"{cell:.1f}"
    return str(cell)
