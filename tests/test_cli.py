import contextlib
import dataclasses
import io
import json
import math
import os
import pathlib
import re
import shutil
import subprocess
import sys
import tempfile
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from polyflow import _report, circulant, cli, integrate, polygon, spectral_flow, svg, yau_flow
from polyflow.cli import main
from polyflow.polygon import (
    Polygon,
    centroid,
    eigen_polygon,
    real_basis,
)

import helpers


@pytest.fixture
def pentagon_file(tmp_path, rng):
    path = tmp_path / "pentagon.json"
    helpers.save_polygon_json(helpers.random_polygon(rng, 5), path)
    return str(path)


@pytest.fixture
def target_file(tmp_path):
    path = tmp_path / "target.json"
    helpers.save_polygon_json(eigen_polygon(5, 1), path)
    return str(path)


def test_matrix_prints_rows_and_eigenvalues(capsys):
    assert main(["matrix", "--n", "6", "--m", "2"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "6 -4 1 0 1 -4"
    assert lines[1] == "-6 4 -1 0 -1 4"
    assert lines[2].split() == ["0.0", "-1.0", "-9.0", "-16.0", "-9.0", "-1.0"]


def test_matrix_other_orders(capsys):
    assert main(["matrix", "--n", "6", "--m", "1"]) == 0
    assert capsys.readouterr().out.splitlines()[0] == "-2 1 0 0 0 1"
    assert main(["matrix", "--n", "6", "--m", "3"]) == 0
    assert capsys.readouterr().out.splitlines()[0] == "-20 15 -6 2 -6 15"


def test_matrix_rejects_bad_sizes(capsys):
    assert main(["matrix", "--n", "2", "--m", "1"]) == 2
    assert main(["matrix", "--n", "6", "--m", "99"]) == 2


def test_argparse_errors_exit_two():
    with pytest.raises(SystemExit) as info:
        main(["matrix", "--n", "6"])
    assert info.value.code == 2
    with pytest.raises(SystemExit) as info:
        main(["flow", "--input", "x.json", "--m", "0"])
    assert info.value.code == 2


def test_flow_writes_csv_and_svg(tmp_path, pentagon_file, capsys):
    csv_path = tmp_path / "traj.csv"
    svg_path = tmp_path / "fig.svg"
    code = main(
        ["flow", "--input", pentagon_file, "--m", "2",
         "--times", "0.1,0.3,0.9", "--csv", str(csv_path), "--svg", str(svg_path)]
    )
    assert code == 0
    rows = csv_path.read_text().splitlines()
    assert rows[0] == "t,vertex_index,x1,x2"
    assert len(rows) == 1 + 3 * 5
    assert rows[1].startswith("0.1,0,")
    text = svg_path.read_text()
    assert text.count("<polygon") == 4  # three samples over the initial polygon
    assert "viewBox" in text


def test_flow_stdout_when_no_outputs(pentagon_file, capsys):
    assert main(["flow", "--input", pentagon_file, "--m", "1", "--count", "2"]) == 0
    out = capsys.readouterr().out
    assert out.splitlines()[0] == "t,vertex_index,x1,x2"


def test_a_negative_first_time_needs_the_equals_form(tmp_path, pentagon_file, capsys):
    assert main(["flow", "--input", pentagon_file, "--m", "1", "--times=-0.2,0.1"]) == 0
    rows = capsys.readouterr().out.splitlines()[1:]
    assert sorted({float(r.split(",")[0]) for r in rows}) == [-0.2, 0.1]
    csv_path = tmp_path / "t.csv"
    with pytest.raises(SystemExit) as info:  # argparse reads -0.2,0.1 as a flag
        main(["flow", "--input", pentagon_file, "--m", "1", "--times", "-0.2,0.1", "--csv", str(csv_path)])
    assert info.value.code == 2
    assert capsys.readouterr().out == "" and not csv_path.exists()


def test_svg_output_is_deterministic(tmp_path, pentagon_file, capsys):
    a = tmp_path / "a.svg"
    b = tmp_path / "b.svg"
    for path in (a, b):
        assert main(["flow", "--input", pentagon_file, "--m", "1", "--svg", str(path)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_flow_geometric_schedule_default(tmp_path, pentagon_file, capsys):
    csv_path = tmp_path / "t.csv"
    assert main(["flow", "--input", pentagon_file, "--m", "1", "--csv", str(csv_path)]) == 0
    rows = csv_path.read_text().splitlines()
    times = sorted({float(r.split(",")[0]) for r in rows[1:]})
    assert len(times) == 8
    assert times[0] == 0.05
    assert abs(times[1] / times[0] - 1.6) < 1e-12


def test_yau_command_renders_dashed_target(tmp_path, rng, pentagon_file, target_file, capsys):
    svg_path = tmp_path / "yau.svg"
    code = main(
        ["yau", "--input", pentagon_file, "--target", target_file, "--m", "1",
         "--svg", str(svg_path)]
    )
    assert code == 0
    text = svg_path.read_text()
    assert "stroke-dasharray" in text
    assert text.count("<polygon") == 10  # 8 samples + initial + target


def test_yau_solid_target_is_undashed(tmp_path, pentagon_file, target_file, capsys):
    svg_path = tmp_path / "yau.svg"
    argv = ["yau", "--input", pentagon_file, "--target", target_file, "--m", "1",
            "--solid-target", "--svg", str(svg_path)]
    assert main(argv) == 0
    text = svg_path.read_text()
    assert f'stroke="{svg.TARGET_STROKE}"' in text
    assert "stroke-dasharray" not in text


def test_stroke_width_sets_every_stroke(tmp_path, pentagon_file, capsys):
    svg_path = tmp_path / "fig.svg"
    argv = ["flow", "--input", pentagon_file, "--m", "1", "--stroke-width", "0.3",
            "--svg", str(svg_path)]
    assert main(argv) == 0
    strokes = re.findall(r'stroke="([^"]*)" stroke-width="([^"]*)"', svg_path.read_text())
    assert strokes == [(svg.INITIAL_STROKE, "0.54")] + [(svg.SAMPLE_STROKE, "0.3")] * 8


def test_t0_starts_the_geometric_schedule(pentagon_file, capsys):
    assert main(["flow", "--input", pentagon_file, "--m", "1", "--t0", "0.2", "--count", "2"]) == 0
    rows = capsys.readouterr().out.splitlines()[1:]
    assert [row.split(",")[0] for row in rows] == ["0.2"] * 5 + ["0.32000000000000006"] * 5


def test_yau_reconciles_counts(tmp_path, rng, target_file, capsys):
    quad = tmp_path / "quad.json"
    helpers.save_polygon_json(helpers.random_polygon(rng, 4), quad)
    csv_path = tmp_path / "yau.csv"
    code = main(
        ["yau", "--input", str(quad), "--target", target_file, "--m", "1",
         "--strategy", "duplicate", "--csv", str(csv_path)]
    )
    assert code == 0
    rows = csv_path.read_text().splitlines()
    assert len(rows) == 1 + 8 * 5  # reconciled to five vertices


def test_yau_stdout_when_no_outputs(tmp_path, rng, target_file, capsys):
    quad = tmp_path / "quad.json"
    helpers.save_polygon_json(helpers.random_polygon(rng, 4), quad)
    argv = ["yau", "--input", str(quad), "--target", target_file, "--m", "2", "--count", "2"]
    assert main(argv) == 0
    rows = capsys.readouterr().out.splitlines()
    assert rows[0] == "t,vertex_index,x1,x2"
    assert len(rows) == 1 + 2 * 5


def test_analyze_reports_structure(tmp_path, capsys):
    path = tmp_path / "p2.json"
    helpers.save_polygon_json(eigen_polygon(5, 2).scaled(2.0), path)
    assert main(["analyze", "--input", str(path), "--m", "3"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["n"] == 5 and report["p"] == 2 and report["m"] == 3
    assert report["self_similar"] == {
        "mode": 2,
        "rate": report["modes"][2]["rate"],
        "trivial": False,
    }
    assert report["dominant_mode"] == 2
    assert report["forward_limit"]["dim"] == 2
    assert report["energy"] > 0.0


def test_analyze_translated_pentagon_is_self_similar(tmp_path, capsys):
    path = tmp_path / "shifted.json"
    helpers.save_polygon_json(eigen_polygon(5, 1).translated([1.0, 0.0]), path)
    assert main(["analyze", "--input", str(path), "--m", "2"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["centroid"][0] > 0.99
    assert report["self_similar"] == {
        "mode": 1,
        "rate": report["modes"][1]["rate"],
        "trivial": False,
    }


def test_analyze_json_writes_the_stdout_report(tmp_path, pentagon_file, capsys):
    assert main(["analyze", "--input", pentagon_file, "--m", "2"]) == 0
    report = capsys.readouterr().out
    out = tmp_path / "report.json"
    assert main(["analyze", "--input", pentagon_file, "--m", "2", "--json", str(out)]) == 0
    assert capsys.readouterr().out == f"wrote {out}\n"
    assert out.read_text() == report


def test_analyze_constant_polygon(tmp_path, capsys):
    path = tmp_path / "const.json"
    helpers.save_polygon_json(helpers.constant_polygon([1.0, -2.0], 5), path)
    assert main(["analyze", "--input", str(path), "--m", "1"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["self_similar"]["trivial"] is True
    assert report["dominant_mode"] is None
    assert report["forward_limit"] is None


def test_integrate_command_reports_deviation(tmp_path, pentagon_file, target_file, capsys):
    csv_path = tmp_path / "rk4.csv"
    code = main(
        ["integrate", "--input", pentagon_file, "--m", "2", "--dt", "0.001",
         "--T", "1.0", "--csv", str(csv_path)]
    )
    assert code == 0
    out = capsys.readouterr().out
    deviation = float(out.strip().splitlines()[-1].split(": ")[1])
    assert deviation < 1e-6
    assert csv_path.read_text().splitlines()[0] == "t,vertex_index,x1,x2"

    code = main(
        ["integrate", "--input", pentagon_file, "--m", "1", "--target", target_file,
         "--dt", "0.001", "--T", "0.5"]
    )
    assert code == 0
    deviation = float(capsys.readouterr().out.strip().splitlines()[-1].split(": ")[1])
    assert deviation < 1e-6


def test_missing_input_exits_three(tmp_path, pentagon_file, capsys):
    assert main(["flow", "--input", "does-not-exist.json", "--m", "1"]) == 3
    through_file = str(tmp_path / "pentagon.json" / "x")  # a path under a regular file
    for argv in (
        ["flow", "--input", through_file + ".json", "--m", "1"],
        ["flow", "--input", pentagon_file, "--m", "1", "--csv", through_file + ".csv"],
        ["analyze", "--input", pentagon_file, "--m", "1", "--json", through_file + ".json"],
    ):
        capsys.readouterr()
        assert main(argv) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("input error:") and through_file in captured.err


DECLARED_OUTPUTS = [
    (name, option.flag) for name, command in cli._COMMANDS.items()
    for option in command.options if option.path == "output"
]


@pytest.mark.parametrize(("command", "flag"), DECLARED_OUTPUTS, ids=" ".join)
def test_every_declared_output_is_checked_before_any_work(tmp_path, pentagon_file, target_file, command, flag, capsys):
    """Every option the table declares as an output, so one added later too:
    pointed into a missing folder it exits 3 and makes no file, and naming
    the ``--input`` file it exits 2 and leaves that file as it was."""
    values = {"--input": pentagon_file, "--target": target_file, "--m": "1", "--n": "6"}
    argv = [command]
    for option in cli._COMMANDS[command].options:
        if option.required:
            argv += [option.flag, values[option.flag]]
    before = _tree(tmp_path)
    assert main(argv + [flag, str(tmp_path / "missing" / "out.txt")]) == 3
    assert capsys.readouterr().err.startswith("input error: cannot write")
    assert main(argv + [flag, pentagon_file]) == 2
    assert capsys.readouterr().err == f"error: {flag} {pentagon_file} names the same file as --input {pentagon_file}\n"
    assert _tree(tmp_path) == before


def test_malformed_input_exits_three(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{")
    assert main(["flow", "--input", str(bad), "--m", "1"]) == 3
    binary = tmp_path / "binary.csv"
    binary.write_bytes(b"x1,x2\n\xff\xfe\n")
    capsys.readouterr()
    assert main(["flow", "--input", str(binary), "--m", "1"]) == 3
    assert capsys.readouterr().err == "input error: not UTF-8 text\n"


def test_deeply_nested_json_exits_three(tmp_path, capsys):
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 100_000 + "]" * 100_000)
    assert main(["flow", "--input", str(deep), "--m", "1"]) == 3
    assert capsys.readouterr().err == "input error: invalid JSON: nested too deeply\n"


def test_byte_order_mark_input_runs_as_without_it(tmp_path, capsys):
    pentagon = [[1, 0], [0.31, 0.95], [-0.81, 0.59], [-0.81, -0.59], [0.31, -0.95]]
    text = "x1,x2\n" + "".join(f"{a},{b}\n" for a, b in pentagon)
    plain, marked, wide = tmp_path / "plain.csv", tmp_path / "marked.csv", tmp_path / "wide.csv"
    plain.write_text(text)
    marked.write_bytes(b"\xef\xbb\xbf" + text.encode())
    wide.write_bytes(text.encode("utf-16"))
    capsys.readouterr()
    assert main(["flow", "--input", str(plain), "--m", "1"]) == 0
    expected = capsys.readouterr()
    assert main(["flow", "--input", str(marked), "--m", "1"]) == 0
    assert capsys.readouterr() == expected
    assert main(["flow", "--input", str(wide), "--m", "1"]) == 3
    assert capsys.readouterr().err == "input error: not UTF-8 text\n"


def test_non_number_coordinates_exit_three(tmp_path, capsys):
    for name, rows in (
        ("mixed.json", '[[true, false], ["1.5", "2"], [0, "1e3"]]'),
        ("huge.json", "[[0, 0], [1, 0], [0, 1" + "0" * 400 + "]]"),
    ):
        bad = tmp_path / name
        bad.write_text('{"dim": 2, "vertices": ' + rows + "}")
        assert main(["analyze", "--input", str(bad), "--m", "1"]) == 3
        assert "non-numeric" in capsys.readouterr().err


def test_header_only_csv_exits_three(tmp_path, capsys):
    header = tmp_path / "header.csv"
    header.write_text("x1,x2\n")
    assert main(["flow", "--input", str(header), "--m", "1"]) == 3
    assert capsys.readouterr().err == "input error: no vertices found\n"


def test_too_small_polygon_exits_three(tmp_path, capsys):
    tiny = tmp_path / "tiny.json"
    helpers.save_polygon_json(Polygon(np.zeros((2, 2))), tiny)
    assert main(["flow", "--input", str(tiny), "--m", "1"]) == 3


def test_dimension_mismatch_exits_three(tmp_path, rng, pentagon_file, capsys):
    threed = tmp_path / "threed.json"
    helpers.save_polygon_json(helpers.random_polygon(rng, 5, p=3), threed)
    assert main(["yau", "--input", pentagon_file, "--target", str(threed), "--m", "1"]) == 3


def test_bad_schedule_exits_two(pentagon_file, capsys):
    assert main(["flow", "--input", pentagon_file, "--m", "1", "--times", "0.5,0.2"]) == 2
    assert main(["flow", "--input", pentagon_file, "--m", "1", "--times", "zoom"]) == 2
    for times in ("", "nan", "0.1,inf", "-inf,0.1", "0.1,nan"):
        assert main(["flow", "--input", pentagon_file, "--m", "1", f"--times={times}"]) == 2
    capsys.readouterr()
    assert main(["flow", "--input", pentagon_file, "--m", "1", "--ratio", "1e300"]) == 2
    assert capsys.readouterr() == ("", "error: time schedule must be finite\n")
    for flag in ("--dt", "--T"):
        with pytest.raises(SystemExit) as info:
            main(["integrate", "--input", pentagon_file, "--m", "1", flag, "inf"])
        assert info.value.code == 2


@pytest.mark.parametrize(
    ("rows", "options"),
    [
        ([[1, 0], [0.31, 0.95], [-0.81, 0.59], [-0.81, -0.59], [0.31, -0.95]], ["--stroke-width", "1e308"]),
        ([[-9e307, 0.0], [9e307, 0.0], [0.0, 1.0], [-8e307, 1.0]], ["--count", "2"]),
    ],
    ids=["initial_stroke_width", "view_extent"],
)
def test_a_figure_number_beyond_float_range_exits_four_and_writes_no_file(tmp_path, capsys, rows, options):
    """1.8 times a stroke width of 1e308, and the extent of vertices from
    -9e307 to 9e307, are beyond float range: the figure is refused before
    the table is written, where it used to hold inf."""
    path = _polygon_file(tmp_path, "in.json", rows)
    csv_path, svg_path = tmp_path / "traj.csv", tmp_path / "fig.svg"
    argv = ["flow", "--input", path, "--m", "1", *options, "--csv", str(csv_path), "--svg", str(svg_path)]
    assert main(argv) == 4
    message = "an SVG figure number (a viewBox bound or a stroke length) is beyond float range"
    assert capsys.readouterr() == ("", f"numeric range error: {message}\n")
    assert not csv_path.exists() and not svg_path.exists()


def test_svg_of_non_planar_input_exits_two_before_writing(tmp_path, rng, capsys):
    threed = tmp_path / "threed.json"
    helpers.save_polygon_json(helpers.random_polygon(rng, 5, p=3), threed)
    csv_path = tmp_path / "traj.csv"
    svg_path = tmp_path / "fig.svg"
    outputs = ["--csv", str(csv_path), "--svg", str(svg_path)]
    assert main(["flow", "--input", str(threed), "--m", "1"] + outputs) == 2
    assert main(["yau", "--input", str(threed), "--target", str(threed), "--m", "1"] + outputs) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("error: --svg needs planar polygons") == 2
    assert not csv_path.exists() and not svg_path.exists()


def test_integrate_refuses_orders_beyond_the_budget_like_matrix(pentagon_file, capsys):
    assert main(["matrix", "--n", "5", "--m", "21"]) == 2
    refusal = capsys.readouterr().err
    assert "m=21 exceeds the exact-entry budget" in refusal
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(["integrate", "--input", pentagon_file, "--m", "21"]) == 2
    assert caught == []
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == refusal


def test_matrix_does_not_build_the_fourier_matrix(monkeypatch, capsys):
    def refuse(n):
        raise AssertionError(f"fourier_matrix({n}) built for eigenvalues alone")

    monkeypatch.setattr(circulant, "fourier_matrix", refuse)
    assert main(["matrix", "--n", "64", "--m", "2"]) == 0
    assert len(capsys.readouterr().out.splitlines()[2].split()) == 64
    assert main(["matrix", "--n", "4096", "--m", "3"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert [len(line.split()) for line in lines] == [4096, 4096, 4096]
    assert sum(int(b) for b in lines[0].split()) == 0


def test_non_planar_runs_do_not_build_the_fourier_matrix(tmp_path, rng, monkeypatch, capsys):
    def refuse(n):
        raise AssertionError(f"fourier_matrix({n}) built for a non-planar polygon")

    start, target = tmp_path / "start.json", tmp_path / "target.json"
    helpers.save_polygon_json(helpers.random_polygon(rng, 6, p=3), start)
    helpers.save_polygon_json(helpers.random_polygon(rng, 9, p=3), target)
    monkeypatch.setattr(circulant, "fourier_matrix", refuse)
    runs = (
        ["flow", "--input", str(start), "--m", "2"],
        ["yau", "--input", str(start), "--target", str(target), "--m", "1"],
        ["analyze", "--input", str(start), "--m", "3"],
        ["integrate", "--input", str(start), "--m", "1", "--dt", "0.01", "--T", "0.1"],
        ["integrate", "--input", str(start), "--target", str(target), "--m", "1", "--T", "0.1"],
    )
    for argv in runs:
        assert main(argv) == 0, argv
    assert capsys.readouterr().err == ""


def test_analyze_decomposes_once(tmp_path, rng, monkeypatch, capsys):
    calls = []
    decompose, shifted_pair_masses = spectral_flow.decompose, spectral_flow._shifted_pair_masses

    def counted(x):
        calls.append(x.n)
        return decompose(x)

    def counted_masses(*args):
        calls.append("masses")
        return shifted_pair_masses(*args)

    path = tmp_path / "heptagon.json"
    helpers.save_polygon_json(helpers.random_polygon(rng, 7), path)
    monkeypatch.setattr(spectral_flow, "decompose", counted)
    monkeypatch.setattr(spectral_flow, "_shifted_pair_masses", counted_masses)
    assert main(["analyze", "--input", str(path), "--m", "2"]) == 0
    assert calls == [7, "masses"]
    assert json.loads(capsys.readouterr().out)["dominant_mode"] == 1


@pytest.mark.parametrize("constant", [False, True])
def test_analyze_formats_its_report_in_one_call(rng, monkeypatch, constant):
    """Every number of the report (alpha, beta, the masses, the rates, the
    energy and, when there are limits, their vertices) is a cell of one
    ``format_floats`` call."""
    calls = []
    format_floats = polygon.format_floats

    def counted(values):
        calls.append(np.size(values))
        return format_floats(values)

    n, p = 7, 2
    x = helpers.constant_polygon([1.0, -2.0], n) if constant else helpers.random_polygon(rng, n, p)
    monkeypatch.setattr(polygon, "format_floats", counted)
    report = json.loads(_report._analyze_json(x, 2, "counted.json"))
    assert (report["forward_limit"] is None) == constant
    assert calls == [(n // 2 + 1) * (2 * p + 2) + 1 + (0 if constant else 2 * n * p)]


def test_ancient_overflow_exits_four(tmp_path, capsys):
    path = tmp_path / "hex.json"
    helpers.save_polygon_json(eigen_polygon(6, 1), path)
    assert main(["flow", "--input", str(path), "--m", "1", "--times=-1000000.0"]) == 4


def test_analyze_beyond_float_range_exits_four_and_writes_nothing(tmp_path, capsys):
    unit, big = tmp_path / "unit.json", tmp_path / "big.json"
    helpers.save_polygon_json(eigen_polygon(5, 2), unit)
    assert main(["analyze", "--input", str(unit), "--m", "1"]) == 0
    unit_masses = [mode["mass"] for mode in json.loads(capsys.readouterr().out)["modes"]]
    # masses square the coefficients, energy squares the edges: only the energy overflows here
    helpers.save_polygon_json(eigen_polygon(5, 2).scaled(1e150), big)
    assert main(["analyze", "--input", str(big), "--m", "1"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["self_similar"]["mode"] == 2
    masses = [mode["mass"] for mode in report["modes"]]
    assert masses[2] == pytest.approx(1e150 * unit_masses[2], rel=1e-15)
    for scale in (1e160, 1e300):
        helpers.save_polygon_json(eigen_polygon(5, 2).scaled(scale), big)
        out = tmp_path / "report.json"
        for argv in ([], ["--json", str(out)]):
            assert main(["analyze", "--input", str(big), "--m", "1"] + argv) == 4
            captured = capsys.readouterr()
            assert captured.out == "" and not out.exists()
            assert captured.err.startswith("numeric range error: ")
            assert captured.err.count("\n") == 1


def test_unwritable_svg_is_refused_before_the_csv_is_written(tmp_path, pentagon_file, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "afile.json").write_text("{}")
    argv = ["flow", "--input", pentagon_file, "--m", "1", "--csv", "ok.csv", "--svg", "afile.json/x.svg"]
    assert main(argv) == 3
    captured = capsys.readouterr()
    assert "wrote" not in captured.out
    assert captured.err.startswith("input error:") and "afile.json/x.svg" in captured.err
    assert not (tmp_path / "ok.csv").exists()


def test_closed_stdout_exits_three_quietly(pentagon_file):
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = {key: value for key, value in os.environ.items() if key != "PYTHONUNBUFFERED"}  # block-buffered
    for count, read_header in (
        ("8", False),  # ~2 KB of rows, held in the stdout buffer until main flushes it; no reader ever
        ("4000", True),  # ~1 MB of rows: far more than a pipe holds, so writing outlives the reader
    ):
        argv = [sys.executable, "-m", "polyflow.cli", "flow", "--input", pentagon_file, "--m", "1",
                "--count", count, "--ratio", "1.001"]
        reader, writer = os.pipe()
        out = os.fdopen(reader, "rb")
        if not read_header:
            out.close()
        try:
            proc = subprocess.Popen(argv, stdout=writer, stderr=subprocess.PIPE, env=dict(env, PYTHONPATH=src))
        finally:
            os.close(writer)
        with proc:
            if read_header:
                assert out.readline() == b"t,vertex_index,x1,x2\n"
                out.close()
            err = proc.stderr.read()
            assert proc.wait(timeout=60) == 3, count
        assert err == b"", count


def test_out_of_memory_exits_four(pentagon_file, monkeypatch, capsys):
    def exhausted(x0, config, keep_steps=True):
        raise MemoryError

    monkeypatch.setattr(integrate, "integrate", exhausted)
    assert main(["integrate", "--input", pentagon_file, "--m", "1"]) == 4
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "resource error: out of memory\n"


def test_integrate_keeps_every_state_only_for_the_csv(tmp_path, pentagon_file, monkeypatch, capsys):
    runs, run_rk4 = [], integrate.integrate

    def captured_run(x0, config, keep_steps=True):
        runs.append(run_rk4(x0, config, keep_steps=keep_steps))
        return runs[-1]

    monkeypatch.setattr(integrate, "integrate", captured_run)
    base = ["integrate", "--input", pentagon_file, "--m", "1", "--dt", "0.01", "--T", "0.505"]
    assert main(base) == 0
    assert main(base + ["--csv", str(tmp_path / "rk4.csv")]) == 0
    lean, full = runs
    assert lean.steps == full.steps == 51
    assert len(lean.polygons) == len(lean.times) == 2
    assert len(full.polygons) == len(full.times) == full.steps + 1
    deviations = [line for line in capsys.readouterr().out.splitlines() if line.startswith("max")]
    assert deviations[0] == deviations[1]


def test_integrate_csv_stamps_the_last_state_with_the_final_time(tmp_path, pentagon_file, capsys):
    """Three steps of 0.1 end at --T 0.3, not at 3 * 0.1 = 0.30000000000000004."""
    out = tmp_path / "r.csv"
    argv = ["integrate", "--input", pentagon_file, "--m", "1", "--dt", "0.1", "--T", "0.3", "--csv", str(out)]
    assert main(argv) == 0
    stamps = [line.split(",")[0] for line in out.read_text().splitlines()[1:]]
    assert stamps == [s for s in ("0.0", "0.1", "0.2", "0.3") for _ in range(5)]
    assert capsys.readouterr().out.splitlines()[-1].startswith("max |rk4 - exact| at T=0.3: ")


def test_analyze_report_is_byte_identical_to_the_elementwise_report(tmp_path, rng, capsys):
    x0 = helpers.random_polygon(rng, 257, p=3)
    path = tmp_path / "blob.json"
    helpers.save_polygon_json(x0, path)
    assert main(["analyze", "--input", str(path), "--m", "2"]) == 0
    expected = helpers.report_json(helpers.elementwise_analyze_report(x0, 2)) + "\n"
    assert capsys.readouterr().out.splitlines(keepends=True) == expected.splitlines(keepends=True)


COORDINATES = st.floats(-1e6, 1e6)  # -0.0 and subnormal values among them


@given(st.data())
def test_report_writer_is_byte_identical_to_json(data):
    n, p, m = data.draw(st.integers(3, 12)), data.draw(st.integers(2, 3)), data.draw(st.integers(1, 4))
    kind = data.draw(st.sampled_from(("any", "signed_zeros", "constant", "pure")))
    if kind == "any":
        x = Polygon(data.draw(arrays(np.float64, (n, p), elements=COORDINATES)))
    elif kind == "signed_zeros":
        x = Polygon(data.draw(arrays(np.float64, (n, p), elements=st.sampled_from([0.0, -0.0, 1.5]))))
    elif kind == "constant":
        x = helpers.constant_polygon(data.draw(arrays(np.float64, p, elements=COORDINATES)), n)
    else:
        c, s = real_basis(n, data.draw(st.integers(1, n // 2)))
        x = Polygon(np.column_stack([c, s, 2.0 * c - s][:p]))
    report = helpers.elementwise_analyze_report(x, m)
    if kind == "constant":
        assert report["forward_limit"] is None and report["self_similar"]["trivial"]
    if kind == "pure":
        assert report["self_similar"] is not None and report["ancient_limit"] is not None
    assert _report._analyze_json(x, m, "drawn.json") == helpers.report_json(report)


def _planted(values, index, bad):
    out = np.array(values)
    out[index] = bad
    return out


def _plant_at_source(monkeypatch, slot, bad):
    """Make the library hand the writer ``bad`` for one slot of the report,
    at the place that slot's number is computed."""
    if slot == ("energy",):
        monkeypatch.setattr(polygon, "energy", lambda x, m: bad)
    elif slot == ("centroid", 1):
        monkeypatch.setattr(spectral_flow, "centroid", lambda x: _planted(centroid(x), 1, bad))
    elif slot == ("modes", 1, "mass"):
        decompose = spectral_flow.decompose

        def planted_decompose(x):
            dec = decompose(x)
            return dataclasses.replace(dec, masses=_planted(dec.masses, 1, bad))

        monkeypatch.setattr(spectral_flow, "decompose", planted_decompose)
    elif slot[2] in ("alpha", "beta"):
        # alpha is the real part of the centered spectrum, beta minus its imaginary part
        rfft = np.fft.rfft

        def planted_rfft(values, **kwargs):
            spectrum = rfft(values, **kwargs)
            (spectrum.real if slot[2] == "alpha" else spectrum.imag)[slot[1], slot[3]] = bad
            return spectrum

        monkeypatch.setattr(np.fft, "rfft", planted_rfft)
    else:
        direction = slot[0].split("_")[0]
        limit_of = spectral_flow.rescaled_limit

        def planted_limit(dec, m, towards):
            k, limit = limit_of(dec, m, towards)
            if towards == direction:
                limit = Polygon(_planted(limit.vertices, slot[2:], bad))
            return k, limit

        monkeypatch.setattr(spectral_flow, "rescaled_limit", planted_limit)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize(
    "slot",
    # ids count the report's number slots in schema order; the two rate slots,
    # ("modes", 0, "rate") and ("self_similar", "rate"), have no nan or inf
    # to plant: flow_eigenvalue is a power of a sine and raises OverflowError
    # beyond float range (test_order_beyond_float_range_names_the_eigenvalue)
    [
        pytest.param(("energy",), id="slot0"),
        pytest.param(("centroid", 1), id="slot1"),
        pytest.param(("modes", 1, "mass"), id="slot2"),
        pytest.param(("modes", 2, "alpha", 0), id="slot4"),
        pytest.param(("modes", 2, "beta", 1), id="slot5"),
        pytest.param(("forward_limit", "vertices", 3, 1), id="slot7"),
        pytest.param(("ancient_limit", "vertices", 0, 0), id="slot8"),
    ],
)
def test_report_writer_refuses_what_json_refuses(monkeypatch, slot, bad):
    x = eigen_polygon(5, 2).scaled(2.0)  # every block present
    report = helpers.elementwise_analyze_report(x, 3)
    *path, last = slot
    holder = report
    for key in path:
        holder = holder[key]
    holder[last] = bad
    with pytest.raises(ValueError):
        helpers.report_json(report)
    _plant_at_source(monkeypatch, slot, bad)
    with pytest.raises((ValueError, OverflowError)):  # FlowRangeError is an OverflowError
        _report._analyze_json(x, 3, "planted.json")


# entries up to 1.7e308: the centroid sum and the spectrum overflow
NEAR_FLOAT_MAX = [[1.7e308, 1.7e308], [1.6e308, -1.7e308], [-1.7e308, 1.5e308], [1.0e308, 0.5e308], [-1.7e308, -1.7e308]]


@pytest.mark.parametrize("p", [2, 3])  # p = 3 has no planar coefficients to overflow
@pytest.mark.parametrize("argv", [["analyze", "--m", "1"], ["flow", "--m", "1", "--count", "1"]])
def test_near_float_max_input_exits_four_in_one_line(tmp_path, argv, p, capsys):
    path = tmp_path / "huge.json"
    path.write_text(json.dumps({"dim": p, "vertices": [row + [0.0] * (p - 2) for row in NEAR_FLOAT_MAX]}))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(argv + ["--input", str(path)]) == 4
    assert caught == []
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("numeric range error: ") and captured.err.count("\n") == 1


def _refusal(argv, capsys):
    """Exit code and stderr of a run that must print no warning and nothing on stdout."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = main(argv)
    assert caught == []
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.count("\n") == 1
    return code, captured.err


def _polygon_file(tmp_path, name, rows):
    path = tmp_path / name
    path.write_text(json.dumps({"dim": len(rows[0]), "vertices": rows}))
    return str(path)


def test_coordinate_sum_past_float_max_flows_and_integrates(tmp_path, capsys):
    """The triangle's x column sums past float max, but its mean is finite:
    ``flow`` and ``integrate`` run, and only ``analyze`` is refused, because
    its energy and its k = 0 mass leave float range."""
    path = _polygon_file(tmp_path, "triangle.json", [[1.5e308, 0.0], [1e308, 0.0], [1e308, 1.0]])
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(["flow", "--input", path, "--m", "1"]) == 0
        assert len(capsys.readouterr().out.splitlines()) == 1 + 8 * 3
        assert main(["integrate", "--input", path, "--m", "1", "--T", "0.1", "--dt", "0.01"]) == 0
    assert caught == []
    summary = capsys.readouterr().out
    assert summary.startswith("max |rk4 - exact| at T=0.1: ")
    assert float(summary.split(": ")[1]) <= 1e-8 * 1.5e308
    code, err = _refusal(["analyze", "--input", path, "--m", "1"], capsys)
    assert code == 4
    assert err == f"numeric range error: the analyze report of {path} holds a number beyond float range\n"


@pytest.mark.parametrize("p", [2, 3])
def test_mode_mass_beyond_float_range_exits_four_and_writes_nothing(tmp_path, p, capsys):
    """A constant pentagon at 1e308 flows and has zero energy, but its k = 0
    mass, sqrt(5) * |centroid|, is beyond float range."""
    path = _polygon_file(tmp_path, "far.json", [[1e308] + [0.0] * (p - 1)] * 5)
    out = tmp_path / "report.json"
    for argv in ([], ["--json", str(out)]):
        code, err = _refusal(["analyze", "--input", path, "--m", "1"] + argv, capsys)
        assert code == 4 and not out.exists()
        assert err == f"numeric range error: the analyze report of {path} holds a number beyond float range\n"


@pytest.mark.parametrize("p", [2, 3])
def test_constant_polygon_near_float_max_flows_and_stays_fixed(tmp_path, p, capsys):
    path = _polygon_file(tmp_path, "far.json", [[1e308] + [0.0] * (p - 1)] * 5)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(["flow", "--input", path, "--m", "3", "--count", "2"]) == 0
    assert caught == []
    captured = capsys.readouterr()
    assert captured.err == ""
    vertex = ",".join(["1e+308"] + ["0.0"] * (p - 1))
    rows = captured.out.splitlines()[1:]
    assert len(rows) == 10 and {row.split(",", 2)[2] for row in rows} == {vertex}


@pytest.mark.parametrize("p", [2, 3])
def test_constant_polygon_near_float_max_integrates_and_stays_fixed(tmp_path, p, capsys):
    """The RK4 run is scaled near one, so the stencil's -2 * 1e308 does not overflow."""
    path = _polygon_file(tmp_path, "far.json", [[1e308] + [0.0] * (p - 1)] * 5)
    csv = tmp_path / "rk4.csv"
    for extra in ([], ["--csv", str(csv)]):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main(["integrate", "--input", path, "--m", "1", "--T", "0.01", "--dt", "0.005"] + extra) == 0
        assert caught == []
        captured = capsys.readouterr()
        assert captured.err == ""
        assert captured.out.splitlines()[-1] == "max |rk4 - exact| at T=0.01: 0.0"
    vertex = ",".join(["1e+308"] + ["0.0"] * (p - 1))
    rows = csv.read_text().splitlines()[1:]
    assert len(rows) == 15 and {row.split(",", 2)[2] for row in rows} == {vertex}


def test_overflowing_yau_set_up_exits_four_in_one_line(tmp_path, capsys):
    """A midpoint whose coordinate sum overflows is finite, and an X0 - Y that
    overflows is a range error, not an input error (exit 3)."""
    triangle = _polygon_file(tmp_path, "triangle.json", [[-1e308, 0], [1e308, 0], [0, 1e308]])
    helpers.save_polygon_json(eigen_polygon(64, 1), tmp_path / "gon.json")
    near = [[1e308, 1e308], [1.1e308, 1e308], [1e308, 1.1e308]]
    x0 = _polygon_file(tmp_path, "near.json", near)
    y = _polygon_file(tmp_path, "negated.json", [[-c for c in row] for row in near])
    runs = [
        ["yau", "--input", triangle, "--target", str(tmp_path / "gon.json"), "--m", "1"],
        ["yau", "--input", x0, "--target", y, "--m", "1"],
        ["integrate", "--input", x0, "--target", y, "--m", "1"],
    ]
    for argv in runs:
        code, err = _refusal(argv, capsys)
        assert code == 4 and err.startswith("numeric range error: "), (argv, err)
    assert err == "numeric range error: the initial polygon minus the target leaves floating range\n"


@pytest.mark.parametrize("p", [2, 3])
@pytest.mark.parametrize("argv", [["flow", "--count", "1"], ["integrate", "--T", "0.05", "--dt", "0.01"]])
def test_overflowing_evaluation_exits_four_in_one_line(tmp_path, argv, p, capsys):
    """The decomposition is finite, and the x column is evaluated near one,
    where an unscaled inverse transform would overflow.  At t = 0.05
    ``flow`` writes the sample (largest 1.45e308) and ``integrate`` reports
    a finite deviation.  At t = -1 no scale helps: one line, exit 4."""
    path = _polygon_file(tmp_path, "spike.json", [[0.0] * p] * 3 + [[1.6e308] + [0.0] * (p - 1)])
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(argv + ["--input", path, "--m", "1"]) == 0
    assert caught == []
    out = capsys.readouterr().out.splitlines()
    if argv[0] == "flow":
        cells = [float(c) for row in out[1:] for c in row.split(",")[2:]]
        assert len(out) == 5 and 1e308 < max(cells) <= sys.float_info.max
    else:
        assert out[0].startswith("max |rk4 - exact| at T=0.05: ")
        assert float(out[0].split(": ")[1]) <= 1e-8 * 1.6e308
    code, err = _refusal(["flow", "--times=-1", "--input", path, "--m", "1"], capsys)
    assert (code, err) == (4, "numeric range error: evolution left floating range at t=-1.0\n")


def test_a_column_near_float_max_flows_from_t_zero_and_integrates(tmp_path, capsys):
    """q = [[1.7e308, 0], [1.7e308, 1], [1, 1], [0, 0]] decomposes, and
    (n/2) alpha would overflow an unscaled inverse transform even at t = 0,
    so every sample is evaluated with its x column near one.  X(0) is q:
    the y column bit for bit, the x column within a few eps of 1.7e308."""
    path = _polygon_file(tmp_path, "q.json", [[1.7e308, 0.0], [1.7e308, 1.0], [1.0, 1.0], [0.0, 0.0]])
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(["flow", "--input", path, "--m", "1", "--times", "0.0"]) == 0
        rows = capsys.readouterr().out.splitlines()
        assert main(["integrate", "--input", path, "--m", "1", "--T", "0.01", "--dt", "0.005"]) == 0
    assert caught == []
    assert rows[0] == "t,vertex_index,x1,x2" and len(rows) == 5
    cells = np.array([[float(c) for c in row.split(",")[2:]] for row in rows[1:]])
    assert cells[:, 1].tolist() == [0.0, 1.0, 1.0, 0.0]
    assert np.abs(cells[:, 0] - [1.7e308, 1.7e308, 1.0, 0.0]).max() <= 4 * np.finfo(float).eps * 1.7e308
    summary = capsys.readouterr().out
    assert summary.startswith("max |rk4 - exact| at T=0.01: ")
    assert float(summary.split(": ")[1]) <= 1e-8 * 1.7e308


@pytest.mark.parametrize("command", ["flow", "yau", "analyze"])
def test_order_beyond_float_range_names_the_eigenvalue(pentagon_file, target_file, command, capsys):
    argv = [command, "--input", pentagon_file, "--m", "1000"]
    code, err = _refusal(argv + (["--target", target_file] if command == "yau" else []), capsys)
    assert code == 4
    assert err == "numeric range error: the order-1000 flow eigenvalue of mode 2 for n=5 is beyond float range\n"


def test_step_count_beyond_float_range_exits_two_before_reading_input(tmp_path, capsys):
    argv = ["integrate", "--input", str(tmp_path / "missing.json"), "--m", "1", "--T", "1e300", "--dt", "1e-300"]
    assert _refusal(argv, capsys) == (2, "error: the step count --T / --dt must be finite\n")


def test_stiff_integrate_warns_in_one_line_before_the_range_error(tmp_path, capsys):
    """The stiffness warning is one plain line on every run, with no source
    location, and the process's warning display is left as it was."""
    pentagon = [[1, 0], [0.31, 0.95], [-0.81, 0.59], [-0.81, -0.59], [0.31, -0.95]]
    argv = ["integrate", "--input", _polygon_file(tmp_path, "pentagon.json", pentagon),
            "--m", "3", "--dt", "1", "--T", "100"]
    shown = warnings.showwarning
    for _ in range(2):
        assert main(argv) == 4
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 2
        assert lines[0].startswith("warning: dt=1.0 exceeds the RK4 stability bound")
        assert lines[1].startswith("numeric range error: non-finite state at step 59 ")
        assert ".py:" not in captured.err
    assert warnings.showwarning is shown


def test_divergence_is_a_numeric_range_error(tmp_path, capsys):
    """A state leaving float range is an OverflowError, so ``main`` exits 4
    on it without naming the RK4 module; the stiff pentagon run's two
    stderr lines are the same with every state kept for ``--csv``, which
    writes nothing."""
    assert issubclass(integrate.DivergenceError, OverflowError)
    pentagon = [[1, 0], [0.31, 0.95], [-0.81, 0.59], [-0.81, -0.59], [0.31, -0.95]]
    argv = ["integrate", "--input", _polygon_file(tmp_path, "pentagon.json", pentagon),
            "--m", "3", "--dt", "1", "--T", "100"]
    table = tmp_path / "stiff.csv"
    errors = []
    for extra in ([], ["--csv", str(table)]):
        assert main(argv + extra) == 4
        captured = capsys.readouterr()
        assert captured.out == ""
        errors.append(captured.err)
    warning, error = errors[0].splitlines(keepends=True)
    assert warning == ("warning: dt=1.0 exceeds the RK4 stability bound for the fastest mode "
                       "(|rate|=47.3607); use dt <= 0.00211\n")
    assert re.fullmatch(r"numeric range error: non-finite state at step 59 \(sup norm \S+\)\n", error)
    assert errors[1] == errors[0]
    assert not table.exists()


def _refuse(*args, **kwargs):
    raise AssertionError("work done for a request that must be refused first")


def _refuse_work(monkeypatch, *, load=True):
    """Make decomposing, reconciling, stepping and, with ``load``, reading an input raise."""
    if load:
        monkeypatch.setattr(cli, "load_polygon", _refuse)
    monkeypatch.setattr(integrate, "integrate", _refuse)
    monkeypatch.setattr(spectral_flow, "decompose", _refuse)
    monkeypatch.setattr(yau_flow, "reconcile_vertex_counts", _refuse)


def test_unwritable_destinations_are_refused_before_any_work(tmp_path, pentagon_file, monkeypatch, capsys):
    _refuse_work(monkeypatch)
    for ext in ("csv", "svg", "json"):
        (tmp_path / f"folder.{ext}").mkdir()
        os.symlink(f"missing/out.{ext}", tmp_path / f"dangling.{ext}")
        os.symlink(f"loop.{ext}", tmp_path / f"loop.{ext}")
    requests = [
        (["flow", "--input", pentagon_file, "--m", "1", "--csv"], "csv"),
        (["flow", "--input", pentagon_file, "--m", "1", "--svg"], "svg"),
        (["flow", "--input", pentagon_file, "--m", "1", "--csv", str(tmp_path / "ok.csv"), "--svg"], "svg"),
        (["flow", "--input", pentagon_file, "--m", "1", "--csv", pentagon_file, "--svg"], "svg"),  # not exit 2
        (["yau", "--input", pentagon_file, "--target", pentagon_file, "--m", "1", "--csv"], "csv"),
        (["yau", "--input", pentagon_file, "--target", pentagon_file, "--m", "1", "--svg"], "svg"),
        (["analyze", "--input", pentagon_file, "--m", "1", "--json"], "json"),
        (["integrate", "--input", pentagon_file, "--m", "1", "--csv"], "csv"),
    ]
    # a path under a regular file, a path in a missing folder, a folder, the empty path,
    # a link into a missing folder and a link to itself
    for dest in (pentagon_file + "/x", str(tmp_path / "missing" / "x"), str(tmp_path / "folder"), "",
                 str(tmp_path / "dangling"), str(tmp_path / "loop")):
        for argv, ext in requests:
            path = f"{dest}.{ext}" if dest else ""
            before = sorted(os.listdir(tmp_path))
            code, err = _refusal(argv + [path], capsys)
            assert code == 3 and err.startswith("input error:") and path in err, (argv, err)
            assert sorted(os.listdir(tmp_path)) == before


@pytest.mark.parametrize("command", ["flow", "yau"])
def test_non_planar_figure_is_refused_before_any_work(command, tmp_path, monkeypatch, capsys):
    path = _polygon_file(tmp_path, "spatial.json", [[0.0, 0.0, 0.0], [2.0, 0.0, 1.0], [1.0, 1.6, 0.0]])
    _refuse_work(monkeypatch, load=False)
    argv = [command, "--input", path, "--m", "1", "--svg", str(tmp_path / "x.svg")]
    if command == "yau":
        argv += ["--target", path]
    code, err = _refusal(argv, capsys)
    assert (code, err) == (2, "error: --svg needs planar polygons (p = 2), got p = 3\n")
    assert not (tmp_path / "x.svg").exists()


def test_destination_is_refused_before_the_schedule(pentagon_file, monkeypatch, capsys):
    """A request bad in two ways reports its destination first."""
    _refuse_work(monkeypatch)
    dest = pentagon_file + "/x.csv"
    code, err = _refusal(["flow", "--input", pentagon_file, "--m", "1", "--csv", dest, "--times", "0.2,0.1"], capsys)
    assert code == 3 and err == f"input error: cannot write {dest}: {pentagon_file} is not a directory\n"


@pytest.mark.parametrize("argv, clash", [
    (["flow", "--input", "p.json", "--m", "1", "--csv", "out.csv", "--svg", "out.csv"],
     "--svg out.csv names the same file as --csv out.csv"),
    (["flow", "--input", "q.json", "--m", "1", "--csv", "q.json"],
     "--csv q.json names the same file as --input q.json"),
    (["yau", "--input", "p.json", "--target", "tri.json", "--m", "1", "--csv", "tri.json"],
     "--csv tri.json names the same file as --target tri.json"),
    (["integrate", "--input", "p.json", "--m", "1", "--csv", "p.json"],
     "--csv p.json names the same file as --input p.json"),
    (["analyze", "--input", "p.json", "--m", "1", "--json", "p.json"],
     "--json p.json names the same file as --input p.json"),
    (["flow", "--input", "p.json", "--m", "1", "--svg", "./p.json"],
     "--svg ./p.json names the same file as --input p.json"),
    (["flow", "--input", "p.json", "--m", "1", "--csv", "link.json"],
     "--csv link.json names the same file as --input p.json"),
    (["flow", "--input", "p.json", "--m", "1", "--csv", "dangling.csv", "--svg", "sub/../out.svg"],
     "--svg sub/../out.svg names the same file as --csv dangling.csv"),
], ids=["csv-svg", "flow-input", "yau-target", "integrate-input", "analyze-input", "svg-input-spelled-apart",
        "link-to-input", "dangling-link-to-svg"])
def test_destination_naming_an_input_or_another_destination_exits_two(
    argv, clash, tmp_path, rng, monkeypatch, capsys
):
    """Refused before any input is read: every input keeps its bytes and no
    output is made, also through a link to an input or a dangling link."""
    monkeypatch.chdir(tmp_path)
    helpers.save_polygon_json(helpers.random_polygon(rng, 5), "p.json")
    helpers.save_polygon_json(helpers.random_polygon(rng, 4), "q.json")
    _polygon_file(tmp_path, "tri.json", [[0.0, 0.0], [2.0, 0.0], [1.0, 1.6]])
    os.mkdir("sub")
    os.symlink("p.json", "link.json")
    os.symlink("out.svg", "dangling.csv")

    def files():
        return {path: path.read_bytes() for path in tmp_path.rglob("*") if path.is_file()}

    before = files()
    _refuse_work(monkeypatch)
    assert _refusal(argv, capsys) == (2, f"error: {clash}\n")
    assert files() == before and not os.path.lexists("out.csv") and not os.path.lexists("out.svg")


def _outcome(argv, capsys):
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_reused_parser_answers_like_a_fresh_one(tmp_path, pentagon_file, target_file, monkeypatch, capsys):
    (tmp_path / "bad.json").write_text("{not json")
    commands = [
        ["matrix", "--n", "6", "--m", "2"],
        ["flow", "--input", pentagon_file, "--m", "1", "--count", "2"],
        ["matrix", "--n", "6"],
        ["analyze", "--input", pentagon_file, "--m", "3"],
        ["flow", "--input", str(tmp_path / "bad.json"), "--m", "1"],
        ["yau", "--input", pentagon_file, "--target", target_file, "--m", "2", "--times", "0.1"],
        ["integrate", "--input", pentagon_file, "--m", "1", "--dt", "0.01", "--T", "0.05"],
        ["flow", "--input", pentagon_file, "--m", "2"],
        ["flow", f"--input={pentagon_file}", "--m", "2", "--count", "2"],
    ]
    fresh = []
    for argv in commands:
        cli._parser.cache_clear()
        fresh.append(_outcome(argv, capsys))
    assert [code for code, _, _ in fresh] == [0, 0, 2, 0, 3, 0, 0, 0, 0]

    builds, build_parser = [], cli.build_parser

    def counted_build():
        builds.append(None)
        return build_parser()

    cli._parser.cache_clear()
    monkeypatch.setattr(cli, "build_parser", counted_build)
    outcomes, built = [], []
    for argv in commands:
        outcomes.append(_outcome(argv, capsys))
        built.append(len(builds))
    assert outcomes == fresh
    # built once, by the first argv the plain parse declines (a missing --m), and reused by the = form
    assert built == [0, 0, 1, 1, 1, 1, 1, 1, 1]
    cli._parser.cache_clear()


@pytest.mark.parametrize("cell", ["1_0", "\u0661"])
def test_analyze_refuses_a_csv_cell_that_only_python_reads_as_a_number(tmp_path, capsys, cell):
    """``float`` reads ``1_0`` as 10 and the Arabic-Indic one as 1; the CSV reader does not."""
    path = tmp_path / "spelled.csv"
    path.write_text(f"x1,x2\n0,0\n{cell},0\n1,1.6\n", encoding="utf-8")
    assert main(["analyze", "--input", str(path), "--m", "1"]) == 3
    assert capsys.readouterr() == ("", "input error: line 3: non-numeric entry\n")


# --- fuzz of main ---------------------------------------------------------------------

EXTREME_NUMBERS = ["1e-320", "5e-324", "1e308", "1.7976931348623157e308", "0", "-1", "inf", "nan", "x"]
EXTENSIONS = {"--csv": "csv", "--svg": "svg", "--json": "json"}
WRITABLE = {  # what an output flag names, by kind; {ext} is the flag's extension
    "new file": "new.{ext}",
    "existing file": "old.{ext}",
    "link to a new file": "link.{ext}",
}
REFUSED = {
    "folder": "folder",
    "missing folder": "missing/x.{ext}",
    "path through a file": "old.{ext}/x",
    "dangling link": "dangling.{ext}",
    "link loop": "loop.{ext}",
    "an input's own path": "{input}",
}
MUTATION_BYTES = list(b'{}[],:"0123456789.-eE \n') + [0x00, 0x80, 0xEF, 0xBB, 0xBF, ord("a")]


def _usually(draw, usual, extreme):
    """One of ``usual`` five times in six, else one of ``extreme``."""
    return draw(st.sampled_from(usual if draw(st.integers(0, 5)) else extreme))


LOADER_EDGE_DOCUMENTS = [
    ("in." + name.rpartition(".")[2], data)
    for name, data in helpers.loader_edge_documents() + helpers.csv_loader_edge_documents()
]


@st.composite
def polygon_documents(draw):
    """A JSON or CSV polygon file's name and bytes; one in four holds coordinates near
    float max or zero, and one in four has up to three bytes deleted, inserted or replaced.
    One in eight is a document on which a loader's fast path could part from ``json`` or
    the csv module (see ``helpers.loader_edge_documents`` and
    ``helpers.csv_loader_edge_documents``), so that every loader path runs."""
    if not draw(st.integers(0, 7)):
        return draw(st.sampled_from(LOADER_EDGE_DOCUMENTS))
    p, n = _usually(draw, [2], [3, 4]), _usually(draw, [3, 4, 5, 7], [1, 2])
    coordinate = st.floats(-10.0, 10.0)
    if not draw(st.integers(0, 3)):
        coordinate |= st.sampled_from([0.0, -0.0, 5e-324, 1e-300, 1e308, -1e308])
    rows = draw(st.lists(st.lists(coordinate, min_size=p, max_size=p), min_size=n, max_size=n))
    if draw(st.booleans()):
        name = "in.json"
        data = json.dumps({"dim": p, "vertices": rows}).encode()
    else:
        name = "in.csv"
        header = ",".join(f"x{i + 1}" for i in range(p))
        data = "\n".join([header] + [",".join(map(repr, row)) for row in rows]).encode() + b"\n"
    edits = draw(st.lists(
        st.tuples(st.floats(0.0, 1.0), st.sampled_from("dir"), st.sampled_from(MUTATION_BYTES)), max_size=3
    )) if not draw(st.integers(0, 3)) else []
    for where, edit, byte in edits:
        i = min(int(where * len(data)), len(data) - 1)
        data = data[:i] + (b"" if edit == "d" else bytes([byte])) + data[i + (edit != "i"):]
    return name, data


ARGV_EDITS = ("equals", "abbreviate", "repeat", "missing value", "dash value", "unknown flag", "help",
              "flag value", "drop")


def _edited_argv(draw, argv):
    """``argv`` with one edit of a shape that only argparse parses, or that the plain-argv
    table must parse as argparse does: a flag in the ``--flag=value`` form or abbreviated,
    a flag repeated, a value left out or starting with ``-``, an unknown flag, ``-h``, a
    value after ``--solid-target``, or a flag dropped."""
    flags = [i for i, arg in enumerate(argv) if arg.startswith("--")]
    edit = draw(st.sampled_from(ARGV_EDITS))
    i = draw(st.sampled_from(flags)) if flags else None
    valued = i is not None and i + 1 < len(argv) and not argv[i + 1].startswith("--")
    if edit == "equals" and valued:
        return argv[:i] + [f"{argv[i]}={argv[i + 1]}"] + argv[i + 2:]
    if edit == "abbreviate" and i is not None:
        return argv[:i] + [argv[i][:draw(st.integers(3, len(argv[i])))]] + argv[i + 1:]
    if edit == "repeat" and valued:  # a path flag only with its path: a bare name would land in the working folder
        values = [argv[i + 1]] if argv[i + 1].startswith("@") else [argv[i + 1], "1", "2", "0.5", "x"]
        return argv + [argv[i], draw(st.sampled_from(values))]
    if edit == "missing value" and valued:
        return draw(st.sampled_from([argv[:i + 1] + argv[i + 2:], argv + [argv[i]]]))
    if edit == "dash value" and valued:  # argparse takes "-", "-1" and "-0.5" as paths: not for a path flag
        values = ["-x", "--", "--m"] + ([] if argv[i + 1].startswith("@") else ["-1", "-0.5", "-"])
        return argv[:i + 1] + [draw(st.sampled_from(values))] + argv[i + 2:]
    if edit == "unknown flag":
        return argv + draw(st.sampled_from([["--bogus", "1"], ["--n", "3"], ["-x"], ["--"], ["extra"]]))
    if edit == "help":
        return argv + [draw(st.sampled_from(["-h", "--help"]))]
    if edit == "flag value":
        return argv + ["--solid-target", draw(st.sampled_from(["x", "1", "--solid-target"]))]
    if edit == "drop" and i is not None:
        return argv[:i] + argv[i + 1 + valued:]
    return argv


@st.composite
def cli_requests(draw):
    """An argv of any subcommand.  A path is written ``@`` and its name in the run's folder,
    where {input} and {target} stand for the input files; each output flag names one kind
    of destination.  One in three has one or two edits of ``_edited_argv``, and one in
    forty is an argv with no subcommand."""
    if not draw(st.integers(0, 39)):
        return draw(st.sampled_from([[], ["-h"], ["--help"], ["bogus"], ["--m", "1"], ["Flow"]]))
    argv = draw(_plain_requests())
    if not draw(st.integers(0, 2)):
        for _ in range(draw(st.integers(1, 2))):
            argv = _edited_argv(draw, argv)
    return argv


@st.composite
def _plain_requests(draw):
    command = draw(st.sampled_from(["matrix", "flow", "yau", "analyze", "integrate"]))
    order = _usually(draw, ["1", "2", "3"], ["20", "21", "0", "x"])
    if command == "matrix":
        return ["matrix", "--n", _usually(draw, ["3", "6", "64"], ["1", "0", "x"]), "--m", order]
    argv = [command, "--input", "@{input}", "--m", order]
    outputs = {"flow": ["--csv", "--svg"], "yau": ["--csv", "--svg"], "analyze": ["--json"],
               "integrate": ["--csv"]}[command]
    if command == "yau" or command == "integrate" and draw(st.booleans()):
        argv += ["--target", _usually(draw, ["@{target}"], ["@{input}"]),
                 "--strategy", draw(st.sampled_from(["midpoint", "duplicate"]))]
    if command in ("flow", "yau"):
        if draw(st.booleans()):
            argv += ["--times", ",".join(_usually(draw, ["0.1", "0.3", "1"], EXTREME_NUMBERS)
                                         for _ in range(draw(st.integers(1, 4))))]
        for flag, usual in (("--t0", ["0.01", "0.1"]), ("--ratio", ["1.6", "3"]), ("--count", ["1", "3"]),
                            ("--stroke-width", ["0.5", "2"])):
            if draw(st.booleans()):
                argv += [flag, _usually(draw, usual, ["0", "-1"] if flag == "--count" else EXTREME_NUMBERS)]
        if command == "yau" and draw(st.booleans()):
            argv.append("--solid-target")
    if command == "integrate":
        dt = _usually(draw, ["0.1", "0.01"], ["1", "1e308", "1e-300", "0", "inf", "x"])
        t_final = _usually(draw, ["0.1", "1"], ["1e-300", "1e308", "inf"])
        try:
            steps = float(t_final) / float(dt)
        except (ValueError, ZeroDivisionError):
            steps = 0.0
        argv += ["--dt", dt, "--T", dt if 1000.0 < steps < math.inf else t_final]  # at most 1000 steps
    for flag in outputs:
        if draw(st.booleans()):
            path = _usually(draw, list(WRITABLE.values()), list(REFUSED.values()))
            argv += [flag, "@" + path.replace("{ext}", EXTENSIONS[flag])]
    return argv


def _lay_out_request(folder, document, argv):
    """Write the polygon ``document``, the target triangle and every kind of destination
    into ``folder``; ``argv`` with each ``@`` path, alone or after ``=``, named in it."""
    name, data = document
    with open(os.path.join(folder, name), "wb") as fh:
        fh.write(data)
    _polygon_file(pathlib.Path(folder), "tri.json", [[0.0, 0.0], [2.0, 0.0], [1.0, 1.6]])
    os.mkdir(os.path.join(folder, "folder"))
    for ext in EXTENSIONS.values():
        with open(os.path.join(folder, f"old.{ext}"), "w") as fh:
            fh.write("old\n")
        os.symlink(f"missing/out.{ext}", os.path.join(folder, f"dangling.{ext}"))
        os.symlink(f"made.{ext}", os.path.join(folder, f"link.{ext}"))
        os.symlink(f"loop.{ext}", os.path.join(folder, f"loop.{ext}"))
    resolved = []
    for arg in argv:
        head, at, path = arg.partition("@")
        if at:
            arg = head + os.path.join(folder, path.replace("{input}", name).replace("{target}", "tri.json"))
        resolved.append(arg)
    return resolved


def _tree(folder):
    """Every entry under ``folder``: a link's target, a file's bytes, None for a folder."""
    found = {}
    for root, dirs, files in os.walk(folder):
        for name in dirs + files:
            path = os.path.join(root, name)
            if os.path.islink(path):
                found[path] = os.readlink(path)
            else:
                found[path] = None if os.path.isdir(path) else pathlib.Path(path).read_bytes()
    return found


@settings(max_examples=300)
@given(cli_requests(), polygon_documents())
@example(  # a figure through a link into a missing folder: refused before the table is written
    ["flow", "--input", "@{input}", "--m", "1", "--csv", "@new.csv", "--svg", "@dangling.svg"],
    ("in.json", b'{"dim": 2, "vertices": [[0, 0], [2, 0], [1, 1.6]]}'),
)
def test_main_answers_any_request_with_a_documented_exit_code(argv, document):
    """Exit 0, 2, 3 or 4 with no traceback, and a refused request changes no file."""
    with tempfile.TemporaryDirectory() as folder:
        argv = _lay_out_request(folder, document, argv)
        before = _tree(folder)
        code, _, err = _answer(argv)
        assert code in (0, 2, 3, 4), (argv, err)
        assert "Traceback" not in err
        if code:
            assert _tree(folder) == before, argv


def _answer(argv):
    """``main``'s exit code, stdout and stderr; argparse's refusals and help exit by SystemExit."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


PLAIN_ARGVS = [
    ["matrix", "--n", "6", "--m", "2"],
    ["flow", "--input", "p.json", "--m", "1", "--times", "0.1,0.3", "--csv", "", "--stroke-width", "2"],
    ["flow", "--m", "1", "--input", "a.json", "--input", "p.json", "--count", "3", "--count", "4"],
    ["yau", "--input", "p.json", "--target", "t.csv", "--m", "2", "--strategy", "duplicate", "--solid-target",
     "--solid-target", "--svg", "out.svg", "--t0", "1e-3", "--ratio", "2"],
    ["analyze", "--input", "p.json", "--m", "3", "--json", "r.json"],
    ["integrate", "--input", "p.json", "--m", "1", "--target", "t.json", "--dt", "0.1", "--T", "1"],
]
ARGPARSE_ONLY_ARGVS = [
    [], ["-h"], ["flow"], ["Flow", "--input", "p.json", "--m", "1"], ["flow", "-h", "--input", "p.json", "--m", "1"],
    ["flow", "--input=p.json", "--m", "1"], ["flow", "--inp", "p.json", "--m", "1"], ["flow", "--input", "p.json"],
    ["flow", "--input", "p.json", "--m"], ["flow", "--input", "p.json", "--m", "0"],
    ["flow", "--input", "p.json", "--m", "x"], ["flow", "--input", "-p.json", "--m", "1"],
    ["flow", "--input", "p.json", "--m", "1", "--times", "-0.2,0.1"],
    ["flow", "--input", "p.json", "--m", "1", "--times", "-1"], ["flow", "--input", "p.json", "--m", "1", "--csv", "-"],
    ["flow", "--input", "p.json", "--m", "1", "--csv", "--"], ["flow", "--input", "p.json", "--m", "1", "--", "x"],
    ["flow", "--input", "p.json", "--m", "1", "--n", "3"], ["flow", "--input", "p.json", "--m", "1", "extra"],
    ["yau", "--input", "p.json", "--target", "t.json", "--m", "1", "--strategy", "middle"],
    ["yau", "--input", "p.json", "--target", "t.json", "--m", "1", "--solid-target", "x"],
    ["yau", "--input", "p.json", "--target", "t.json", "--m", "1", "--solid-target=1"],
    ["integrate", "--input", "p.json", "--m", "1", "--dt", "-0.1"], ["matrix", "--n", "6", "--m", "2", "--m"],
]


@pytest.mark.parametrize("argv", PLAIN_ARGVS + ARGPARSE_ONLY_ARGVS, ids=" ".join)
def test_the_argv_table_takes_only_plain_argvs(argv):
    """The plain parse of the option table (``cli._COMMANDS``) parses each
    plain argv to argparse's namespace, and declines every other shape,
    whether argparse accepts it or refuses it."""
    args = cli._plain_args(argv)
    if argv in PLAIN_ARGVS:
        assert vars(args) == vars(cli._parser().parse_args(argv))
    else:
        assert args is None


@settings(max_examples=200)
@given(cli_requests(), polygon_documents())
@example(["yau", "--input", "@{input}", "--target", "@{target}", "--m", "1", "--m", "2", "--solid-target",
          "--strategy", "duplicate", "--times", "0.1,0.3", "--csv", "@new.csv"],
         ("in.json", b'{"dim": 2, "vertices": [[0, 0], [2, 0], [1, 1.6]]}'))
@example(["flow", "--input", "@{input}", "--m", "1", "--count", "-1"], ("in.csv", b"x1,x2\n0,0\n2,0\n1,1.6\n"))
def test_the_argv_table_answers_as_argparse_does(tmp_path_factory, argv, document):
    """``main`` gives the same exit code, stdout, stderr and files whether or not the
    plain parse of the option table may parse its argv, and where it parses one its
    namespace is argparse's."""
    folder = tmp_path_factory.getbasetemp() / "argv_request"
    outcomes = []
    for table_declines in (False, True):
        shutil.rmtree(folder, ignore_errors=True)
        folder.mkdir()
        resolved = _lay_out_request(str(folder), document, argv)
        declined = mock.patch.object(cli, "_plain_args", lambda argv: None)
        with declined if table_declines else contextlib.nullcontext():
            outcomes.append((_answer(resolved), _tree(folder)))
    assert outcomes[0] == outcomes[1], resolved
    args = cli._plain_args(resolved)
    if args is not None:
        assert vars(args) == vars(cli._parser().parse_args(resolved))
