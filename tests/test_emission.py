"""Byte identity of the column-wise CSV and SVG writers with the per-cell
and per-vertex formatters in ``helpers``."""
import contextlib
import io
import os
import re
import sys
import tempfile

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from polyflow import cli, polygon, spectral_flow, svg, yau_flow
from polyflow.cli import _write_trajectory_rows, main
from polyflow.integrate import IntegratorConfig, PolyharmonicKind, integrate
from polyflow.polygon import Polygon, load_polygon

import helpers

# zeros of both signs, the smallest subnormal, exponent switch points of repr
SPECIAL = np.array([-0.0, 0.0, 5e-324, -5e-324, 1e16, -1e16, 1e-5, -1e-5, 123456789.0, -2.5])
FAR = np.array([sys.float_info.max, -sys.float_info.max])


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
    document = svg.render(polygons, polygons[0], polygons[-1], 0.5, dashed)
    points = re.findall(r'points="([^"]*)"', document)
    assert points == [helpers.vertex_svg_points(q) for q in [polygons[-1], polygons[0], *polygons]]


@given(
    st.integers(0, 2**32 - 1),
    st.integers(3, 60),
    st.integers(1, 8),
    st.booleans(),
    st.one_of(st.none(), st.floats(1e-300, 1e300)),
    st.booleans(),
    st.booleans(),
    st.booleans(),
)
@example(0, 3, 1, True, None, True, True, True)
@example(1, 60, 8, True, 0.25, False, False, True)
def test_svg_document_matches_the_element_wise_writer(
    seed, n, count, with_target, stroke_width, dash_target, with_rows, constant
):
    """The whole document, viewBox, strokes, dashes and element order, with
    or without a target and the samples' rows; a constant figure has extent 0."""
    if constant:
        point = awkward_vertices(seed, 1, 2)[0]
        initial, *samples = [helpers.constant_polygon(point, n) for _ in range(count + 1)]
        target = helpers.constant_polygon(point, n + 1) if with_target else None
    else:
        initial, *samples = [Polygon(awkward_vertices(seed + i, n, 2)) for i in range(count + 1)]
        target = Polygon(awkward_vertices(seed + count + 1, n + 1, 2)) if with_target else None
    rows = [polygon.format_vertices(q) for q in samples] if with_rows else None
    document = svg.render(samples, initial, target, stroke_width, dash_target, rows)
    assert document == helpers.figure_svg(samples, initial, target, stroke_width, dash_target)


@pytest.mark.parametrize("slot", ["sample", "initial", "target"])
def test_svg_render_refuses_a_non_planar_polygon(slot):
    planar, spatial = Polygon(awkward_vertices(0, 4, 2)), Polygon(awkward_vertices(1, 4, 3))
    figure = {"sample": ([planar, spatial], planar, planar),
              "initial": ([planar], spatial, None),
              "target": ([planar], planar, spatial)}[slot]
    with pytest.raises(ValueError, match="^SVG rendering needs planar polygons, got p = 3$"):
        svg.render(*figure)


def test_the_text_flip_is_the_negation():
    """For every finite double y, ``repr(-y)`` is ``repr(y)`` with its
    leading sign toggled, so flipping the text of a row flips its y."""
    rng = np.random.default_rng(18)
    drawn = rng.normal(size=20000) * 10.0 ** rng.integers(-300, 300, size=20000)
    ys = np.concatenate([SPECIAL, FAR, drawn, drawn * 1e-24]).tolist()  # 600 decades and subnormals
    xs = rng.permutation(ys)
    for x, y in zip(xs, ys):
        assert svg._flip_y(f"{x!r},{y!r}") == f"{x!r},{-y!r}"
    points = " ".join(f"{x!r},{y!r}" for x, y in zip(xs, ys))
    assert svg._flip_y(points) == " ".join(f"{x!r},{-y!r}" for x, y in zip(xs, ys))


@given(st.floats(allow_nan=False, allow_infinity=False))
def test_the_text_flip_of_any_double(y):
    assert svg._flip_y(f"0.0,{y!r}") == f"0.0,{-y!r}"


def _count_formatting(patch):
    """Count every polygon the CLI and the SVG writer format, by its bytes."""
    formatted = []

    def counted(x, *args):
        formatted.append(x.vertices.tobytes())
        return polygon.format_vertices(x, *args)

    patch.setattr(cli, "format_vertices", counted)
    patch.setattr(svg, "format_vertices", counted)
    return formatted


@given(
    st.integers(0, 2**32 - 1),
    st.integers(3, 40),
    st.integers(3, 40),
    st.integers(1, 3),
    st.sampled_from([None, "duplicate", "midpoint"]),
    st.integers(1, 10),
    st.sampled_from([None, *SPECIAL.tolist(), *FAR.tolist()]),
    st.integers(0, 1),
)
@example(0, 5, 9, 2, None, 8, FAR[0], 1)
@example(1, 7, 4, 1, "midpoint", 8, FAR[1], 1)
@example(2, 3, 6, 3, "duplicate", 3, -0.0, 0)
@settings(max_examples=40)
def test_flow_and_yau_files_match_the_per_cell_and_per_vertex_writers(
    seed, n, n_target, m, strategy, count, constant, axis
):
    """``flow`` (strategy None) and ``yau`` with ``--csv --svg`` write the
    per-cell table and the per-vertex points of every layer, the same CSV
    as without ``--svg``, and format each sample once.  A constant column
    (here ±float max among others) flows without overflow."""
    def drawn(draw_seed, vertex_count):
        v = awkward_vertices(draw_seed, vertex_count, 2)
        if constant is not None:
            v[:, axis] = constant
        return Polygon(v)

    x0, y = drawn(seed, n), drawn(seed + 1, n_target)
    times = cli.geometric_schedule(count=count)
    if strategy is None:
        initial, target = x0, None
        samples = spectral_flow.flow_solution(x0, m).polygon_at(times)
    else:
        problem, solution = yau_flow.yau_flow_between(x0, y, m, strategy)
        initial, target = problem.initial, problem.target
        samples = solution.polygon_at(times)
    with tempfile.TemporaryDirectory() as tmp, pytest.MonkeyPatch.context() as patch:
        x_path, y_path = os.path.join(tmp, "x0.json"), os.path.join(tmp, "y.json")
        helpers.save_polygon_json(x0, x_path)
        helpers.save_polygon_json(y, y_path)
        argv = ["flow", "--input", x_path]
        if strategy is not None:
            argv = ["yau", "--input", x_path, "--target", y_path, "--strategy", strategy]
        argv += ["--m", str(m), "--count", str(count)]
        formatted = _count_formatting(patch)
        paths = {name: os.path.join(tmp, name) for name in ("both.csv", "both.svg", "alone.csv")}
        with open(os.devnull, "w") as quiet, contextlib.redirect_stdout(quiet):
            assert main(argv + ["--csv", paths["both.csv"], "--svg", paths["both.svg"]]) == 0
            figure_and_table = sorted(formatted)
            formatted.clear()
            assert main(argv + ["--csv", paths["alone.csv"]]) == 0
        with open(paths["both.csv"]) as fh:
            table = fh.read()
        with open(paths["alone.csv"]) as fh:
            assert fh.read() == table
        with open(paths["both.svg"]) as fh:
            points = re.findall(r'points="([^"]*)"', fh.read())
    assert table.splitlines(keepends=True) == cell_table(times, samples)
    layers = ([target] if target is not None else []) + [initial, *samples]
    assert points == [helpers.vertex_svg_points(q) for q in layers]
    sample_bytes = [q.vertices.tobytes() for q in samples]
    assert sorted(formatted) == sorted(sample_bytes)
    assert figure_and_table == sorted(sample_bytes + [q.vertices.tobytes() for q in layers[:-count]])
