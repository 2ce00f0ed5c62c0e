"""Plain-text rendering of result tables and series charts.

The benchmark harness prints the same rows/series shape the paper's
tables and figures report; these helpers keep that output uniform and
diff-friendly (fixed column order, aligned, no trailing spaces).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence


def _format_cell(value: Any) -> str:
    if value is None:
        return "-"
    if isinstance(value, bool):
        return "yes" if value else "no"
    if isinstance(value, float):
        if value != value:  # NaN
            return "nan"
        if abs(value) >= 1000 or (abs(value) < 0.001 and value != 0):
            return f"{value:.3e}"
        return f"{value:.4f}".rstrip("0").rstrip(".") or "0"
    return str(value)


def render_table(
    rows: Sequence[Dict[str, Any]],
    *,
    title: Optional[str] = None,
) -> str:
    """Render dict-rows as an aligned text table.

    Column order: first-seen key order over the union of all rows — a
    key that only appears in a later row (e.g. a failure-row field)
    still gets a column. Missing cells render as ``-``.
    """
    if not rows:
        return f"{title}\n(empty)" if title else "(empty)"
    cols: List[str] = []
    for row in rows:
        for key in row:
            if key not in cols:
                cols.append(key)
    rendered = [[_format_cell(row.get(col)) for col in cols] for row in rows]
    widths = [
        max(len(col), *(len(r[i]) for r in rendered)) for i, col in enumerate(cols)
    ]
    lines: List[str] = []
    if title:
        lines.append(title)
    header = "  ".join(col.ljust(widths[i]) for i, col in enumerate(cols))
    lines.append(header.rstrip())
    lines.append("  ".join("-" * w for w in widths))
    for row in rendered:
        lines.append("  ".join(cell.ljust(widths[i]) for i, cell in enumerate(row)).rstrip())
    return "\n".join(lines)


@dataclass
class Series:
    """A named (x, y) series, the unit of a reproduced figure.

    Attributes
    ----------
    name:
        Legend label, e.g. ``"iPDA (l=2)"`` -> here ``"icpda m>=3"``.
    xs / ys:
        The data points, same length.
    """

    name: str
    xs: List[float] = field(default_factory=list)
    ys: List[float] = field(default_factory=list)

    def add(self, x: float, y: float) -> None:
        """Append one point."""
        self.xs.append(float(x))
        self.ys.append(float(y))

    def __len__(self) -> int:
        return len(self.xs)


def render_chart(
    series: Series,
    *,
    width: int = 40,
    title: Optional[str] = None,
    log_scale: bool = False,
) -> str:
    """Render one series as a horizontal ASCII bar chart.

    Each row is ``x  bar  y``; bar lengths are proportional to ``y``
    (or to ``log10(y)`` spans when ``log_scale`` — handy for the privacy
    curves that fall over decades). Non-positive values render as empty
    bars under ``log_scale``.
    """
    import math

    if width < 5:
        raise ValueError(f"width must be >= 5, got {width}")
    if not series.xs:
        return f"{title}\n(empty)" if title else "(empty)"

    def transform(y: float) -> float:
        if not log_scale:
            return y
        return math.log10(y) if y > 0 else float("-inf")

    values = [transform(y) for y in series.ys]
    finite = [v for v in values if v != float("-inf")]
    if not finite:
        low = high = 0.0
    else:
        low, high = min(finite + [0.0] if not log_scale else finite), max(finite)
    span = (high - low) or 1.0
    lines: List[str] = []
    if title:
        lines.append(title)
    x_width = max(len(_format_cell(x)) for x in series.xs)
    for x, y, value in zip(series.xs, series.ys, values):
        if value == float("-inf"):
            bar = ""
        else:
            bar = "#" * max(1, int(round((value - low) / span * width)))
        lines.append(
            f"{_format_cell(x).rjust(x_width)}  {bar.ljust(width)}  "
            f"{_format_cell(y)}".rstrip()
        )
    return "\n".join(lines)
