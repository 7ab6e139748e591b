"""Terminal rendering of histograms, series, and tables.

The paper's evaluation is two figures of histograms and density curves.
Benchmarks in this reproduction print the same panels as aligned ASCII
so that ``pytest benchmarks/`` output is the reproduction artefact —
no plotting dependency required.
"""

from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np

_BAR = "█"
_HALF = "▌"


def ascii_histogram(
    counts: Sequence[float],
    edges: Sequence[float] | None = None,
    width: int = 50,
    title: str = "",
) -> str:
    """Render bin counts as a horizontal bar chart.

    ``edges`` (len = len(counts)+1) labels each row with its bin
    interval; rows are scaled so the tallest bin spans ``width`` cells.
    """
    counts = np.asarray(counts, dtype=float)
    if counts.ndim != 1:
        raise ValueError("counts must be one-dimensional")
    lines: list[str] = []
    if title:
        lines.append(title)
    peak = counts.max() if counts.size and counts.max() > 0 else 1.0
    for i, c in enumerate(counts):
        if edges is not None:
            label = f"[{edges[i]:9.2f},{edges[i + 1]:9.2f})"
        else:
            label = f"bin {i:3d}"
        cells = c / peak * width
        bar = _BAR * int(cells)
        if cells - int(cells) >= 0.5:
            bar += _HALF
        lines.append(f"{label} {bar} {c:g}")
    return "\n".join(lines)


def format_table(
    headers: Sequence[str],
    rows: Iterable[Sequence[object]],
    float_format: str = "{:.4g}",
) -> str:
    """Format rows into an aligned, pipe-separated text table."""

    def render(cell: object) -> str:
        if isinstance(cell, float):
            return float_format.format(cell)
        return str(cell)

    rendered = [[render(c) for c in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in rendered:
        if len(row) != len(headers):
            raise ValueError(
                f"row has {len(row)} cells but table has {len(headers)} columns"
            )
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    sep = "-+-".join("-" * w for w in widths)
    out = [" | ".join(h.ljust(w) for h, w in zip(headers, widths)), sep]
    out.extend(
        " | ".join(c.ljust(w) for c, w in zip(row, widths)) for row in rendered
    )
    return "\n".join(out)
