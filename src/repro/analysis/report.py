"""Plain-text table formatting for experiment harnesses.

Every experiment prints its results as rows; this module renders them in an
aligned, grep-friendly format so the benchmark output can be compared with the
paper's tables and figures by eye.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence


def format_table(
    rows: Sequence[Dict[str, object]],
    columns: Optional[Sequence[str]] = None,
    title: str = "",
    float_format: str = "{:.2f}",
) -> str:
    """Render a list of dict rows as an aligned text table."""
    rows = list(rows)
    if not rows:
        return f"{title}\n(no rows)" if title else "(no rows)"
    if columns is None:
        columns = list(rows[0].keys())

    def render(value: object) -> str:
        if isinstance(value, float):
            return float_format.format(value)
        return str(value)

    rendered = [[render(row.get(col, "")) for col in columns] for row in rows]
    widths = [
        max(len(str(col)), max(len(r[i]) for r in rendered))
        for i, col in enumerate(columns)
    ]
    lines: List[str] = []
    if title:
        lines.append(title)
    header = " | ".join(str(col).ljust(widths[i]) for i, col in enumerate(columns))
    lines.append(header)
    lines.append("-+-".join("-" * w for w in widths))
    for r in rendered:
        lines.append(" | ".join(r[i].ljust(widths[i]) for i in range(len(columns))))
    return "\n".join(lines)
