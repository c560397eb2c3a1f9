"""Deterministic SVG output for superimposed polygon snapshots.

Pure string assembly: same layers in, same bytes out.  The viewBox is fitted
once to the union of everything drawn (5% margin), so successive flow samples
visibly shrink instead of being rescaled per frame.  The y axis is flipped to
the usual mathematical orientation.
"""
from __future__ import annotations

from dataclasses import dataclass

from .polygon import Polygon, format_float

SAMPLE_STROKE = "#6f6f6f"
INITIAL_STROKE = "#000000"
TARGET_STROKE = "#c02020"


@dataclass(frozen=True)
class Layer:
    polygon: Polygon
    stroke: str
    width: float
    dashed: bool = False


def _bounds(layers: list[Layer]) -> tuple[float, float, float, float]:
    xs_min = min(float(l.polygon.vertices[:, 0].min()) for l in layers)
    xs_max = max(float(l.polygon.vertices[:, 0].max()) for l in layers)
    ys_min = min(float(l.polygon.vertices[:, 1].min()) for l in layers)
    ys_max = max(float(l.polygon.vertices[:, 1].max()) for l in layers)
    return xs_min, xs_max, ys_min, ys_max


def default_stroke_width(extent: float) -> float:
    return extent / 150.0 if extent > 0.0 else 0.01


def drawing_extent(polygons: list[Polygon]) -> float:
    """Largest side of the bounding box of everything to be drawn."""
    layers = [Layer(p, "#000000", 1.0) for p in polygons]
    x0, x1, y0, y1 = _bounds(layers)
    return max(x1 - x0, y1 - y0)


def figure_layers(samples, initial, target=None, stroke_width=None, dash_target=True) -> list[Layer]:
    """Standard figure: target lowest, then the initial polygon in a 1.8x
    stroke, then the flow samples; the default width scales with the drawing."""
    width = stroke_width
    if width is None:
        drawn = list(samples) + [initial] + ([target] if target is not None else [])
        width = default_stroke_width(drawing_extent(drawn))
    layers = []
    if target is not None:
        layers.append(Layer(target, TARGET_STROKE, width, dashed=dash_target))
    layers.append(Layer(initial, INITIAL_STROKE, 1.8 * width))
    layers.extend(Layer(p, SAMPLE_STROKE, width) for p in samples)
    return layers


def render(layers: list[Layer]) -> str:
    """Serialize layers (first drawn lowest) into an SVG document string."""
    if not layers:
        raise ValueError("nothing to render")
    for layer in layers:
        if layer.polygon.p != 2:
            raise ValueError(f"SVG rendering needs planar polygons, got p = {layer.polygon.p}")
    x0, x1, y0, y1 = _bounds(layers)
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
        v = layer.polygon.vertices
        # repr of the float64 columns is format_float; negation keeps -0.0 exact
        xs = map(repr, v[:, 0].tolist())
        ys = map(repr, (-v[:, 1]).tolist())
        points = " ".join(map(",".join, zip(xs, ys)))
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
