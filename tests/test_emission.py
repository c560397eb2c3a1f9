"""Byte identity of the column-wise CSV and SVG writers with the per-cell
and per-vertex formatters in ``helpers``."""
import io
import re

import numpy as np
from hypothesis import example, given
from hypothesis import strategies as st

from polyflow import svg
from polyflow.cli import _write_trajectory_rows, main
from polyflow.integrate import IntegratorConfig, PolyharmonicKind, integrate
from polyflow.polygon import Polygon, load_polygon

import helpers

# zeros of both signs, the smallest subnormal, exponent switch points of repr
SPECIAL = np.array([-0.0, 0.0, 5e-324, -5e-324, 1e16, -1e16, 1e-5, -1e-5, 123456789.0, -2.5])


def awkward_vertices(seed, n, p):
    """Normal draws over 40 decades of scale and both signs, with about a
    quarter of the cells replaced by the special values."""
    rng = np.random.default_rng(seed)
    v = rng.normal(size=(n, p)) * 10.0 ** rng.integers(-20, 20, size=(n, p))
    planted = rng.random((n, p)) < 0.25
    v[planted] = rng.choice(SPECIAL, size=int(planted.sum()))
    return v


def cell_table(times, polygons):
    """The oracle's table as lines with their endings, which pytest compares
    and reports a line at a time."""
    fh = io.StringIO()
    helpers.cell_csv_rows(fh, times, polygons)
    return fh.getvalue().splitlines(keepends=True)


@given(
    st.integers(0, 2**32 - 1),
    st.integers(3, 300),
    st.sampled_from([2, 3, 5]),
    st.lists(st.floats(-1e6, 1e6, allow_nan=False), min_size=1, max_size=4),
    st.booleans(),
)
@example(0, 3, 2, [0.0, -0.0, 5e-324], False)
@example(1, 300, 5, [1e16, 1e-5, 123456789.0, -2.5], True)
def test_trajectory_rows_match_the_per_cell_writer(seed, n, p, times, as_numpy):
    polygons = [Polygon(awkward_vertices(seed + i, n, p)) for i in range(len(times))]
    if as_numpy:
        times = list(np.array(times, dtype=np.float64))
    fh = io.StringIO()
    _write_trajectory_rows(fh, times, polygons)
    assert fh.getvalue().splitlines(keepends=True) == cell_table(times, polygons)


def test_integrate_csv_with_a_partial_last_step_matches_the_per_cell_writer(tmp_path, capsys):
    path = tmp_path / "x0.json"
    helpers.save_polygon_json(Polygon(awkward_vertices(3, 7, 3) * 1e-12), path)
    csv_path = tmp_path / "rk4.csv"
    argv = ["integrate", "--input", str(path), "--m", "2", "--dt", "0.03", "--T", "0.1",
            "--csv", str(csv_path)]
    assert main(argv) == 0
    config = IntegratorConfig(dt=0.03, t_final=0.1, kind=PolyharmonicKind(m=2))
    trajectory = integrate(load_polygon(path), config)
    assert trajectory.partial_final_step
    assert csv_path.read_text().splitlines(keepends=True) == cell_table(
        trajectory.times, trajectory.polygons
    )


@given(
    st.integers(0, 2**32 - 1),
    st.integers(3, 300),
    st.integers(1, 4),
    st.booleans(),
)
@example(0, 3, 1, True)
def test_svg_points_match_the_per_vertex_formatter(seed, n, count, dashed):
    polygons = [Polygon(awkward_vertices(seed + i, n, 2)) for i in range(count)]
    layers = [svg.Layer(q, svg.SAMPLE_STROKE, 0.5, dashed) for q in polygons]
    points = re.findall(r'points="([^"]*)"', svg.render(layers))
    assert points == [helpers.vertex_svg_points(q) for q in polygons]
