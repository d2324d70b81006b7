"""ASCII line charts — the Figure 9 plot without matplotlib.

Renders execution-time-vs-cores series the way the paper's Figure 9
does (one marker row per code), on a plain-text canvas, for bench
reports and terminals.
"""

from __future__ import annotations

from typing import Mapping, Sequence

__all__ = ["render_series_chart"]

_MARKERS = "ox+*#@%&"
#: the axes of the one plot drawn: execution time against cores per node
Y_LABEL = "time (s)"
X_LABEL = "cores/node"


def render_series_chart(
    series: Mapping[str, Mapping[int, float]],
    x_values: Sequence[int],
    width: int = 72,
    height: int = 20,
    title: str = "",
) -> str:
    """Plot ``series[code][x] -> y`` as ASCII, one marker per code: y in
    :data:`Y_LABEL` against x in :data:`X_LABEL`."""
    points = [
        (code, x, series[code][x])
        for code in series
        for x in x_values
        if x in series[code]
    ]
    if not points:
        return f"{title}\n(no data)"
    y_max = max(y for _, _, y in points)
    y_min = 0.0
    x_min, x_max = min(x_values), max(x_values)
    x_span = max(x_max - x_min, 1)

    canvas = [[" "] * width for _ in range(height)]
    markers = {code: _MARKERS[i % len(_MARKERS)] for i, code in enumerate(series)}
    for code, x, y in points:
        col = round((x - x_min) / x_span * (width - 1))
        row = height - 1 - round((y - y_min) / (y_max - y_min or 1.0) * (height - 1))
        row = min(max(row, 0), height - 1)
        current = canvas[row][col]
        canvas[row][col] = markers[code] if current == " " else "?"

    lines = []
    if title:
        lines.append(title)
    for index, row in enumerate(canvas):
        if index == 0:
            label = f"{y_max:8.1f} |"
        elif index == height - 1:
            label = f"{y_min:8.1f} |"
        else:
            label = "         |"
        lines.append(label + "".join(row))
    lines.append("         +" + "-" * width)
    ticks = "          "
    for x in x_values:
        col = round((x - x_min) / x_span * (width - 1))
        missing = col - (len(ticks) - 10)
        if missing >= 0:
            ticks += " " * missing + str(x)
    lines.append(ticks + f"   {X_LABEL}")
    legend = "  ".join(f"{marker}={code}" for code, marker in markers.items())
    lines.append(f"legend: {legend}  (?=overlap)  y: {Y_LABEL}")
    return "\n".join(lines)
