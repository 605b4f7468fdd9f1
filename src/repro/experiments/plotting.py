"""Dependency-free ASCII plotting for the figure experiments.

The evaluation figures of the paper are line charts; this module renders the
same series as terminal-friendly ASCII plots so the experiment drivers and the
CLI can display them without matplotlib (which is unavailable offline).
"""

from __future__ import annotations

from typing import List, Sequence

from repro.experiments.report import Series

#: Characters used to distinguish series in one chart.
SERIES_MARKERS = "*o+x#@%&"


def _format_value(value: float) -> str:
    if value == 0:
        return "0"
    if abs(value) >= 1000 or abs(value) < 0.01:
        return f"{value:.2e}"
    return f"{value:.3g}"


def ascii_plot(
    series: Sequence[Series],
    width: int = 72,
    height: int = 20,
    title: str = "",
    x_label: str = "",
    y_label: str = "",
) -> str:
    """Render one or more (x, y) series as an ASCII scatter/line chart.

    Args:
        series: the series to draw; each gets its own marker character.
        width / height: plot area size in characters (excluding the axes).
        title / x_label / y_label: optional labels.

    Returns:
        The chart as a multi-line string.
    """
    if not series:
        raise ValueError("at least one series is required")
    if width < 10 or height < 5:
        raise ValueError("width must be >= 10 and height >= 5")
    points = [(s, x, y) for s in series for x, y in zip(s.x, s.y)]
    if not points:
        raise ValueError("the series contain no points")

    xs = [x for _, x, _ in points]
    ys = [y for _, _, y in points]
    x_min, x_max = min(xs), max(xs)
    y_min, y_max = min(ys), max(ys)
    x_span = (x_max - x_min) or 1.0
    y_span = (y_max - y_min) or 1.0

    grid: List[List[str]] = [[" "] * width for _ in range(height)]
    for index, one_series in enumerate(series):
        marker = SERIES_MARKERS[index % len(SERIES_MARKERS)]
        for x, y in zip(one_series.x, one_series.y):
            column = int(round((x - x_min) / x_span * (width - 1)))
            row = int(round((y - y_min) / y_span * (height - 1)))
            grid[height - 1 - row][column] = marker

    lines: List[str] = []
    if title:
        lines.append(title)
    if y_label:
        lines.append(f"[y: {y_label}]")
    top_label = _format_value(y_max)
    bottom_label = _format_value(y_min)
    label_width = max(len(top_label), len(bottom_label))
    for row_index, row in enumerate(grid):
        if row_index == 0:
            prefix = top_label.rjust(label_width)
        elif row_index == height - 1:
            prefix = bottom_label.rjust(label_width)
        else:
            prefix = " " * label_width
        lines.append(f"{prefix} |{''.join(row)}")
    lines.append(" " * label_width + " +" + "-" * width)
    x_axis = f"{_format_value(x_min)}{' ' * max(width - len(_format_value(x_min)) - len(_format_value(x_max)), 1)}{_format_value(x_max)}"
    lines.append(" " * (label_width + 2) + x_axis)
    if x_label:
        lines.append(" " * (label_width + 2) + f"[x: {x_label}]")
    legend = "  ".join(
        f"{SERIES_MARKERS[index % len(SERIES_MARKERS)]} {one_series.name}"
        for index, one_series in enumerate(series)
    )
    lines.append(legend)
    return "\n".join(lines)


def sparkline(values: Sequence[float], width: int = 60) -> str:
    """A one-line sparkline (used for loss curves in the CLI)."""
    if not values:
        raise ValueError("values must be non-empty")
    blocks = " .:-=+*#%@"
    lowest, highest = min(values), max(values)
    span = (highest - lowest) or 1.0
    if len(values) > width:
        stride = len(values) / width
        sampled = [values[int(i * stride)] for i in range(width)]
    else:
        sampled = list(values)
    return "".join(blocks[int((value - lowest) / span * (len(blocks) - 1))] for value in sampled)
