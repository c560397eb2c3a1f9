"""Deterministic SVG output for superimposed polygon snapshots.

Pure string assembly: same layers in, same bytes out.  The viewBox is fitted
once to the union of everything drawn (5% margin), so successive flow samples
visibly shrink instead of being rescaled per frame.  The y axis is flipped to
the usual mathematical orientation.

Vertex coordinates are the ``x,y`` rows of :func:`polygon.format_vertices`,
the one coordinate formatter; a layer may carry rows already made, as the
CLI's flow samples carry those of the trajectory CSV.  The y flip is made on
that text, by toggling the sign after each comma.  This is exact: for every
finite double y, ``repr(-y)`` is ``repr(y)`` with a leading ``-`` added or
removed, ±0.0 included.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .polygon import Polygon, format_float, format_vertices

SAMPLE_STROKE = "#6f6f6f"
INITIAL_STROKE = "#000000"
TARGET_STROKE = "#c02020"


@dataclass(frozen=True)
class Layer:
    """One polygon to draw; ``rows`` is its ``format_vertices`` text when
    that has been made already."""

    polygon: Polygon
    stroke: str
    width: float
    dashed: bool = False
    rows: list[str] | None = None


def _bounds(polygons: list[Polygon]) -> tuple[float, float, float, float]:
    """x min, x max, y min and y max over the vertices of every polygon."""
    v = np.concatenate([q.vertices for q in polygons])
    xs, ys = v[:, 0], v[:, 1]
    return float(xs.min()), float(xs.max()), float(ys.min()), float(ys.max())


def _flip_y(points: str) -> str:
    """Space-separated ``x,y`` text as the ``x,-y`` text of the same doubles."""
    return points.replace(",", ",-").replace(",--", ",")


def figure_layers(
    samples, initial, target=None, stroke_width=None, dash_target=True, sample_rows=None
) -> list[Layer]:
    """Standard figure: target lowest, then the initial polygon in a 1.8x
    stroke, then the flow samples; the default width scales with the drawing.
    ``sample_rows`` holds the ``format_vertices`` text of each sample, if
    it has been made already."""
    width = stroke_width
    if width is None:
        x0, x1, y0, y1 = _bounds([*samples, initial] + ([target] if target is not None else []))
        extent = max(x1 - x0, y1 - y0)
        width = extent / 150.0 if extent > 0.0 else 0.01
    layers = []
    if target is not None:
        layers.append(Layer(target, TARGET_STROKE, width, dashed=dash_target))
    layers.append(Layer(initial, INITIAL_STROKE, 1.8 * width))
    if sample_rows is None:
        sample_rows = [None] * len(samples)
    layers.extend(Layer(p, SAMPLE_STROKE, width, rows=r) for p, r in zip(samples, sample_rows))
    return layers


def render(layers: list[Layer]) -> str:
    """Serialize layers (first drawn lowest) into an SVG document string."""
    if not layers:
        raise ValueError("nothing to render")
    for layer in layers:
        if layer.polygon.p != 2:
            raise ValueError(f"SVG rendering needs planar polygons, got p = {layer.polygon.p}")
    x0, x1, y0, y1 = _bounds([layer.polygon for layer in layers])
    extent = max(x1 - x0, y1 - y0)
    pad = 0.05 * extent if extent > 0.0 else 1.0
    # y axis flipped: view spans [-y_max, -y_min]
    view = (x0 - pad, -y1 - pad, (x1 - x0) + 2 * pad, (y1 - y0) + 2 * pad)

    lines = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        '<svg xmlns="http://www.w3.org/2000/svg" viewBox="{} {} {} {}">'.format(
            *(format_float(v) for v in view)
        ),
        '<g fill="none" stroke-linejoin="round" stroke-linecap="round">',
    ]
    for layer in layers:
        rows = layer.rows if layer.rows is not None else format_vertices(layer.polygon)
        points = _flip_y(" ".join(rows))
        dash = ""
        if layer.dashed:
            dash = ' stroke-dasharray="{} {}"'.format(
                format_float(4.0 * layer.width), format_float(3.0 * layer.width)
            )
        lines.append(
            f'<polygon points="{points}" stroke="{layer.stroke}" '
            f'stroke-width="{format_float(layer.width)}"{dash}/>'
        )
    lines.append("</g>")
    lines.append("</svg>")
    return "\n".join(lines) + "\n"


def write(layers: list[Layer], path) -> None:
    with open(path, "w", newline="\n") as fh:
        fh.write(render(layers))
