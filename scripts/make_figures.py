#!/usr/bin/env python3
"""Generate the standard gallery of flow figures as SVG files.

Covers the homogeneous flow (pentagon and hexagon, orders 1..3, one shared
time schedule so the speed difference is visible) and the difference flow
toward assorted targets, including targets and starts with mismatched vertex
counts.  Usage:

    python scripts/make_figures.py [outdir]
"""
import os
import sys

import numpy as np

from polyflow import cli, svg
from polyflow.polygon import Polygon, eigen_polygon
from polyflow.spectral_flow import flow_solution
from polyflow.yau_flow import yau_flow_between

SEED = int(os.environ.get("POLYFLOW_SEED", "20260810"))


def save(path, samples, initial, target=None):
    svg.write(svg.figure_layers(samples, initial, target), path)
    print(f"wrote {path}")


def irregular(rng, n, spread=1.0):
    base = eigen_polygon(n, 1).vertices
    return Polygon(base + rng.uniform(-0.35, 0.35, size=base.shape) * spread)


def main():
    outdir = sys.argv[1] if len(sys.argv) > 1 else "figures"
    os.makedirs(outdir, exist_ok=True)
    rng = np.random.default_rng(SEED)

    pentagon = irregular(rng, 5)
    hexagon = irregular(rng, 6)
    times = cli.geometric_schedule()

    # homogeneous flow: same schedule across orders
    for name, poly in (("pentagon", pentagon), ("hexagon", hexagon)):
        for m in (1, 2, 3):
            operator = flow_solution(poly, m)
            samples = operator.polygon_at(times)
            save(f"{outdir}/{name}_m{m}.svg", samples, poly)

    # difference flow: pentagon cases
    regular = eigen_polygon(5, 1)
    segment = eigen_polygon(6, 3)
    yau_cases = [
        ("yau_pentagon_to_regular_m2", pentagon, regular, 2, "midpoint"),
        ("yau_regular_to_irregular_m1", regular, irregular(rng, 5), 1, "midpoint"),
        ("yau_pentagon_to_segment_m2", irregular(rng, 5), segment, 2, "midpoint"),
    ]

    # mismatched vertex counts
    quad = Polygon(irregular(rng, 4).vertices * 0.8)
    triangle = Polygon(np.array([[-1.0, -0.8], [1.1, -0.6], [0.0, 1.2]]))
    yau_cases += [
        ("yau_quad_to_pentagon_duplicate_m1", quad, regular, 1, "duplicate"),
        ("yau_pentagon_to_triangle_duplicate_m3", pentagon, triangle, 3, "duplicate"),
        ("yau_pentagon_to_triangle_midpoint_m3", pentagon, triangle, 3, "midpoint"),
    ]

    for name, start, target, m, strategy in yau_cases:
        problem, evaluator = yau_flow_between(start, target, m, strategy)
        samples = evaluator.polygon_at(times)
        save(f"{outdir}/{name}.svg", samples, problem.initial, problem.target)


if __name__ == "__main__":
    main()
