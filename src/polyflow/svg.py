"""Deterministic SVG output for the standard flow figure.

One renderer, :func:`render`, draws the flow samples over their initial
polygon and, for the Yau flow, over the target.  Pure string assembly: same
polygons in, same bytes out.  The viewBox is fitted once to the union of
everything drawn (5% margin), so successive flow samples visibly shrink
instead of being rescaled per frame.  The y axis is flipped to the usual
mathematical orientation.  :func:`write` only writes the document.

Every number in the document is a :func:`polygon.format_floats` cell, the
``repr`` of its float64, made once: the viewBox and the four stroke numbers
(the width, the initial polygon's 1.8x width and the target's dash lengths)
in one call, and the vertex coordinates as the ``x,y`` rows that
:func:`polygon.format_samples` makes a block of polygons at a time.  The
samples may come with rows already made, as the CLI's flow samples carry
those of the trajectory CSV.  The y flip is made on that text, by toggling
the sign after each comma.  This is exact: for every finite double y,
``repr(-y)`` is ``repr(y)`` with a leading ``-`` added or removed, ±0.0
included.
"""
from __future__ import annotations

import numpy as np

from .polygon import format_floats, format_samples

SAMPLE_STROKE = "#6f6f6f"
INITIAL_STROKE = "#000000"
TARGET_STROKE = "#c02020"


def _flip_y(points: str) -> str:
    """Space-separated ``x,y`` text as the ``x,-y`` text of the same doubles."""
    return points.replace(",", ",-").replace(",--", ",")


def _element(rows, stroke: str, width: str, dash: str = "") -> str:
    """One ``<polygon>`` from its ``format_samples`` rows and its stroke width's text."""
    points = _flip_y(" ".join(rows))
    return f'<polygon points="{points}" stroke="{stroke}" stroke-width="{width}"{dash}/>'


def render(
    samples, initial, target=None, stroke_width=None, dash_target=True, sample_rows=None
) -> str:
    """The standard figure as an SVG document: the target lowest, dashed when
    ``dash_target``, then the initial polygon in a 1.8x stroke, then the flow
    samples.  The default width scales with the drawing.  ``sample_rows``
    holds the ``format_samples`` rows of each sample, if they have been made
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
    # y axis flipped: view spans [-y_max, -y_min]; then the four stroke numbers
    *view, thin, thick, dash_on, dash_off = format_floats(
        [x0 - pad, -y1 - pad, x1 - x0 + 2 * pad, y1 - y0 + 2 * pad, width, 1.8 * width, 4.0 * width, 3.0 * width]
    )

    lines = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" viewBox="{" ".join(view)}">',
        '<g fill="none" stroke-linejoin="round" stroke-linecap="round">',
    ]
    fixed = format_samples(drawn[: len(drawn) - len(samples)])  # the target and initial rows
    if target is not None:
        dash = f' stroke-dasharray="{dash_on} {dash_off}"' if dash_target else ""
        lines.append(_element(next(fixed), TARGET_STROKE, thin, dash))
    lines.append(_element(next(fixed), INITIAL_STROKE, thick))
    if sample_rows is None:
        sample_rows = format_samples(samples)
    lines.extend(_element(rows, SAMPLE_STROKE, thin) for rows in sample_rows)
    lines.append("</g>")
    lines.append("</svg>")
    return "\n".join(lines) + "\n"


def write(document: str, path) -> None:
    with open(path, "w", newline="\n") as fh:
        fh.write(document)
