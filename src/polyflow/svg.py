"""Deterministic SVG output for the standard flow figure.

One renderer, :func:`render`, draws the flow samples over their initial
polygon and, for the Yau flow, over the target.  Pure string assembly: same
polygons in, same bytes out.  The viewBox is fitted once to the union of
everything drawn (5% margin), so successive flow samples visibly shrink
instead of being rescaled per frame.  The y axis is flipped to the usual
mathematical orientation.  :func:`write` only writes the document.

Vertex coordinates are the ``x,y`` rows of :func:`polygon.format_vertices`,
the one coordinate formatter; the samples may come with rows already made,
as the CLI's flow samples carry those of the trajectory CSV.  The y flip is
made on that text, by toggling the sign after each comma.  This is exact:
for every finite double y, ``repr(-y)`` is ``repr(y)`` with a leading ``-``
added or removed, ±0.0 included.
"""
from __future__ import annotations

import numpy as np

from .polygon import format_float, format_vertices

SAMPLE_STROKE = "#6f6f6f"
INITIAL_STROKE = "#000000"
TARGET_STROKE = "#c02020"


def _flip_y(points: str) -> str:
    """Space-separated ``x,y`` text as the ``x,-y`` text of the same doubles."""
    return points.replace(",", ",-").replace(",--", ",")


def _element(rows, stroke: str, width: float, dash: str = "") -> str:
    """One ``<polygon>`` from its ``format_vertices`` rows."""
    points = _flip_y(" ".join(rows))
    return f'<polygon points="{points}" stroke="{stroke}" stroke-width="{format_float(width)}"{dash}/>'


def render(
    samples, initial, target=None, stroke_width=None, dash_target=True, sample_rows=None
) -> str:
    """The standard figure as an SVG document: the target lowest, dashed when
    ``dash_target``, then the initial polygon in a 1.8x stroke, then the flow
    samples.  The default width scales with the drawing.  ``sample_rows``
    holds the ``format_vertices`` text of each sample, if it has been made
    already.  Every polygon must be planar."""
    drawn = ([] if target is None else [target]) + [initial, *samples]
    for q in drawn:
        if q.p != 2:
            raise ValueError(f"SVG rendering needs planar polygons, got p = {q.p}")
    v = np.concatenate([q.vertices for q in drawn])
    xs, ys = v[:, 0], v[:, 1]
    x0, x1, y0, y1 = float(xs.min()), float(xs.max()), float(ys.min()), float(ys.max())
    extent = max(x1 - x0, y1 - y0)
    width = stroke_width
    if width is None:
        width = extent / 150.0 if extent > 0.0 else 0.01
    pad = 0.05 * extent if extent > 0.0 else 1.0
    # y axis flipped: view spans [-y_max, -y_min]
    view = (x0 - pad, -y1 - pad, (x1 - x0) + 2 * pad, (y1 - y0) + 2 * pad)

    lines = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        '<svg xmlns="http://www.w3.org/2000/svg" viewBox="{} {} {} {}">'.format(
            *(format_float(c) for c in view)
        ),
        '<g fill="none" stroke-linejoin="round" stroke-linecap="round">',
    ]
    if target is not None:
        dash = ""
        if dash_target:
            dash = ' stroke-dasharray="{} {}"'.format(
                format_float(4.0 * width), format_float(3.0 * width)
            )
        lines.append(_element(format_vertices(target), TARGET_STROKE, width, dash))
    lines.append(_element(format_vertices(initial), INITIAL_STROKE, 1.8 * width))
    if sample_rows is None:
        sample_rows = map(format_vertices, samples)
    lines.extend(_element(rows, SAMPLE_STROKE, width) for rows in sample_rows)
    lines.append("</g>")
    lines.append("</svg>")
    return "\n".join(lines) + "\n"


def write(document: str, path) -> None:
    with open(path, "w", newline="\n") as fh:
        fh.write(document)
