"""Byte identity of the column-wise CSV and SVG writers with the per-cell
and per-vertex formatters in ``helpers``."""
import contextlib
import io
import os
import re
import sys
import tempfile
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import array_shapes, arrays

from polyflow import cli, polygon, spectral_flow, svg, yau_flow
from polyflow.cli import _write_trajectory_rows, main
from polyflow.integrate import (
    IntegratorConfig,
    PolyharmonicKind,
    Trajectory,
    YauKind,
    integrate,
    stability_limit,
)
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
    rows = list(polygon.format_samples(samples)) if with_rows else None
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


@pytest.mark.parametrize("with_target", [False, True])
def test_svg_render_formats_its_figure_numbers_in_one_call(monkeypatch, with_target):
    """The viewBox and the four stroke numbers are the cells of one
    ``format_floats`` call; the points come from ``format_samples``."""
    calls = []
    format_floats = svg.format_floats
    monkeypatch.setattr(svg, "format_floats", lambda values: calls.append(len(values)) or format_floats(values))
    initial, sample = (Polygon(awkward_vertices(seed, 5, 2)) for seed in (0, 1))
    svg.render([sample], initial, initial if with_target else None)
    assert calls == [8]


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


def _repr_cells(a):
    return list(map(repr, np.asarray(a).ravel().tolist()))


@given(
    st.one_of(
        arrays(np.float64, array_shapes(min_dims=0, max_dims=3, min_side=0, max_side=12)),
        arrays(np.float64, array_shapes(max_dims=1, max_side=64), elements=st.floats(-1e20, 1e20)),
        arrays(np.uint64, array_shapes(min_dims=1, max_dims=3, max_side=12)).map(
            lambda bits: bits.view(np.float64)
        ),
    ),
    st.booleans(),
)
@example(np.array([1e-4, 1e16, -0.0, np.nan, -np.inf]), False)
def test_format_floats_is_repr_of_every_cell(a, transposed):
    """Drawn values, raw 64-bit patterns and (k, n, p) stacks, in C order,
    also of a transposed view."""
    if transposed:
        a = a.T
    assert polygon.format_floats(a) == _repr_cells(a)


def test_format_floats_at_the_edges_of_the_fixed_notation():
    """±0.0, the smallest subnormal, the largest double, ±inf, nan, and every
    power of ten from 1e-6 to 1e18 (1e-4 and 1e16 bound ``repr``'s fixed
    notation) with its neighbours on both sides, of both signs."""
    edges = [0.0, -0.0, 5e-324, -5e-324, sys.float_info.max, -sys.float_info.max,
             np.inf, -np.inf, np.nan]
    for decade in range(-6, 19):
        power = float(f"1e{decade}")
        for x in (power, -power):
            edges += [np.nextafter(x, 0.0), x, np.nextafter(x, 2.0 * x)]
    a = np.array(edges)
    assert polygon.format_floats(a) == _repr_cells(a)
    assert polygon.format_floats(a[:0]) == []


def test_format_samples_formats_whole_polygons_in_bounded_blocks(monkeypatch):
    """Each polygon's rows are its per-vertex text, and each block dumped to
    text covers whole polygons: as many as fit in FORMAT_BLOCK coordinates by
    the largest of them, or one where the largest is past that size.  A block
    is dumped beside a nan column; the rows made again from ``format_floats``
    are dumped too, but hold no nan."""
    import orjson

    sizes, dumps = [], orjson.dumps

    def recorded(value, *args, **kwargs):
        if np.isnan(value).any():
            sizes.append(np.count_nonzero(~np.isnan(value)))
        return dumps(value, *args, **kwargs)

    def block_sizes(polygons):
        sizes.clear()
        rows = list(polygon.format_samples(polygons))
        assert rows == [[",".join(map(repr, v)) for v in q.vertices.tolist()] for q in polygons]
        return sizes

    monkeypatch.setattr(orjson, "dumps", recorded)
    small = [Polygon(awkward_vertices(i, 100 + 37 * (i % 3), 3)) for i in range(90)]
    per_block = polygon.FORMAT_BLOCK // small[2].vertices.size  # by the largest, 522 coordinates
    blocks = [small[i : i + per_block] for i in range(0, 90, per_block)]
    assert block_sizes(small) == [sum(q.vertices.size for q in block) for block in blocks]
    mixed = [*small[:5], Polygon(awkward_vertices(90, 3000, 3)), *small[5:9]]
    assert block_sizes(mixed) == [q.vertices.size for q in mixed]


@pytest.mark.parametrize("odd", [1e-05, 1e16, 5e-324, -0.0])
@pytest.mark.parametrize(
    "place", ["table start", "first block end", "second block start", "sample start", "sample end",
              "table end"]
)
def test_blob_rows_with_one_odd_cell_match_the_per_cell_writer(odd, place):
    """Samples of a blob, whose rows all come straight from the dumped text,
    but for one planted cell: one ``repr`` lays out differently (so its row is
    made again), or -0.0.  It stands in the first or last row of a block or
    of a sample inside one; the table is the same with the rows made first."""
    n, p, count = 50, 3, 60
    per_block = polygon.FORMAT_BLOCK // (n * p)  # 27 samples a block, 3 blocks
    rng = np.random.default_rng(12)
    base = rng.normal(size=(n, p)) + 3.0
    v = np.stack([base * np.exp(-0.01 * i) + 0.5 for i in range(count)])
    sample, row = {
        "table start": (0, 0),
        "first block end": (per_block - 1, n - 1),
        "second block start": (per_block, 0),
        "sample start": (per_block + 5, 0),
        "sample end": (per_block + 5, n - 1),
        "table end": (count - 1, n - 1),
    }[place]
    v[sample, row, 1] = odd
    polygons = [Polygon(x) for x in v]
    times = [0.01 * i for i in range(count)]
    expected = cell_table(times, polygons)
    for rows in (None, list(polygon.format_samples(polygons))):
        fh = io.StringIO()
        _write_trajectory_rows(fh, times, polygons, rows)
        assert fh.getvalue().splitlines(keepends=True) == expected


def _writer_peak(times, polygons):
    tracemalloc.start()
    try:
        cli.write_trajectory_csv(os.devnull, times, polygons)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_the_trajectory_writer_keeps_at_most_a_block_of_text():
    """The writer's peak allocation over 1024 samples of n = 256, p = 2 (128
    blocks) is within 128 KiB of its peak over 64 of them (8 blocks), where a
    table made whole would hold about 70 MB of text."""
    base = awkward_vertices(5, 1024 * 256, 2).reshape(1024, 256, 2)
    polygons = [Polygon(v) for v in base]
    times = [0.001 * i for i in range(1024)]
    short, long = _writer_peak(times[:64], polygons[:64]), _writer_peak(times, polygons)
    assert long <= short + 2**17


def test_a_kept_integrate_csv_of_several_blocks_matches_the_per_cell_writer(tmp_path, capsys):
    """201 states of 50 vertices in R^3: eight blocks of at most 27 states."""
    path = tmp_path / "x0.json"
    helpers.save_polygon_json(Polygon(awkward_vertices(7, 50, 3)), path)
    csv_path = tmp_path / "rk4.csv"
    argv = ["integrate", "--input", str(path), "--m", "1", "--dt", "0.01", "--T", "2.0",
            "--csv", str(csv_path)]
    assert main(argv) == 0
    config = IntegratorConfig(dt=0.01, t_final=2.0, kind=PolyharmonicKind(m=1))
    trajectory = integrate(load_polygon(path), config)
    assert len(trajectory.polygons) == 201
    assert csv_path.read_text().splitlines(keepends=True) == cell_table(
        trajectory.times, trajectory.polygons
    )


def test_an_integrate_csv_builds_no_polygon_per_state(tmp_path, monkeypatch, capsys):
    """``integrate --csv`` keeps its states as blocks and writes the table
    from them: runs of 100 and of 800 steps construct as many polygons, by
    ``Polygon(...)`` and by ``Polygon._checked`` alike, and neither builds
    ``Trajectory.polygons``."""
    path = tmp_path / "x0.json"
    helpers.save_polygon_json(Polygon(np.random.default_rng(9).normal(size=(20, 2))), path)
    built, checked, init = {"_checked": 0, "__init__": 0}, Polygon._checked.__func__, Polygon.__init__

    def counted_checked(cls, v):
        built["_checked"] += 1
        return checked(cls, v)

    def counted_init(self, *args, **kwargs):
        built["__init__"] += 1
        init(self, *args, **kwargs)

    def refused(self):
        raise AssertionError("Trajectory.polygons was built")

    monkeypatch.setattr(Polygon, "_checked", classmethod(counted_checked))
    monkeypatch.setattr(Polygon, "__init__", counted_init)
    monkeypatch.setattr(Trajectory, "polygons", property(refused))
    counts = []
    for steps in (100, 800):
        csv_path = tmp_path / f"rk4_{steps}.csv"
        argv = ["integrate", "--input", str(path), "--m", "1", "--dt", "0.01", "--T", repr(steps / 100),
                "--csv", str(csv_path)]
        assert main(argv) == 0
        assert len(csv_path.read_text().splitlines()) == 1 + 20 * (steps + 1)
        counts.append(dict(built))
        built.update(dict.fromkeys(built, 0))
    assert counts[0] == counts[1]


@given(
    st.integers(0, 2**32 - 1),
    st.integers(3, 40),
    st.integers(2, 4),
    st.integers(1, 3),
    st.booleans(),
    st.integers(1, 192),
    st.booleans(),
    st.booleans(),
)
@example(0, 9, 2, 1, False, 100, True, False)  # two blocks, a partial step; the last whole state is S^N's
@example(1, 40, 3, 1, True, 4, False, True)  # Yau, one block of 4 steps of 8 offsets < 39: stepped
@example(2, 33, 4, 3, True, 192, True, True)  # Yau, three whole blocks and a partial step
@settings(max_examples=30, deadline=None)
def test_a_kept_integrate_csv_matches_the_per_cell_table_of_its_states(
    seed, n, p, m, yau, steps, partial, shifted
):
    """The table ``integrate --csv`` writes from its state blocks is the
    per-cell table of the trajectory's polygons: plain and Yau kinds, one
    to three check blocks, with or without a partial final step, with or
    without a column past 2^400 (a shifted run), whether the last whole
    state is stepped or comes from S^N."""
    rng = np.random.default_rng(seed)
    x0, y = rng.normal(size=(n, p)), rng.normal(size=(n, p))
    if shifted:
        x0[:, p - 1] *= 2.0**450
    dt = 0.1 / stability_limit(n, m)
    t_final = (steps + 0.375 * partial) * dt
    with tempfile.TemporaryDirectory() as tmp:
        x_path, y_path, csv_path = (os.path.join(tmp, name) for name in ("x0.json", "y.json", "rk4.csv"))
        helpers.save_polygon_json(Polygon(x0), x_path)
        helpers.save_polygon_json(Polygon(y), y_path)
        argv = ["integrate", "--input", x_path, "--m", str(m), "--dt", repr(dt), "--T", repr(t_final),
                "--csv", csv_path]
        with open(os.devnull, "w") as quiet, contextlib.redirect_stdout(quiet):
            assert main(argv + (["--target", y_path] if yau else [])) == 0
        with open(csv_path) as fh:
            table = fh.read()
    kind = YauKind(m, Polygon(y)) if yau else PolyharmonicKind(m)
    trajectory = integrate(Polygon(x0), IntegratorConfig(dt=dt, t_final=t_final, kind=kind))
    assert trajectory.partial_final_step == partial and trajectory.steps == steps + partial
    assert table.splitlines(keepends=True) == cell_table(trajectory.times, trajectory.polygons)


@pytest.mark.parametrize("p, with_svg", [(3, False), (2, True)])
def test_a_flow_csv_of_several_blocks_matches_the_per_cell_writer(tmp_path, capsys, p, with_svg):
    """``flow --count 200`` of a 100-gon: 200 samples in blocks of 13 (p = 3)
    or 20 (p = 2, the rows made first and shared with the figure)."""
    x0 = Polygon(awkward_vertices(8, 100, p))
    path, csv_path, svg_path = tmp_path / "x0.json", tmp_path / "flow.csv", tmp_path / "flow.svg"
    helpers.save_polygon_json(x0, path)
    argv = ["flow", "--input", str(path), "--m", "1", "--count", "200", "--ratio", "1.01",
            "--csv", str(csv_path)]
    assert main(argv + (["--svg", str(svg_path)] if with_svg else [])) == 0
    times = cli.geometric_schedule(ratio=1.01, count=200)
    samples = spectral_flow.flow_solution(x0, 1).polygon_at(times)
    assert csv_path.read_text().splitlines(keepends=True) == cell_table(times, samples)
    if with_svg:
        points = re.findall(r'points="([^"]*)"', svg_path.read_text())
        assert points == [helpers.vertex_svg_points(q) for q in [x0, *samples]]


def _count_formatting(patch):
    """Count every polygon the CLI and the SVG writer format, by its bytes,
    as the block formatter yields its rows."""
    formatted = []

    def counted(polygons):
        for x, rows in zip(polygons, polygon.format_samples(polygons)):
            formatted.append(x.vertices.tobytes())
            yield rows

    patch.setattr(cli, "format_samples", counted)
    patch.setattr(svg, "format_samples", counted)
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
