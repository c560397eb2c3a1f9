import json
import warnings

import numpy as np
import pytest

from polyflow import circulant, spectral_flow
from polyflow.cli import main
from polyflow.polygon import (
    Polygon,
    eigen_polygon,
    load_polygon_csv,
    save_polygon_json,
)

import helpers


@pytest.fixture
def pentagon_file(tmp_path, rng):
    path = tmp_path / "pentagon.json"
    save_polygon_json(helpers.random_polygon(rng, 5), path)
    return str(path)


@pytest.fixture
def target_file(tmp_path):
    path = tmp_path / "target.json"
    save_polygon_json(eigen_polygon(5, 1), path)
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


def test_yau_reconciles_counts(tmp_path, rng, target_file, capsys):
    quad = tmp_path / "quad.json"
    save_polygon_json(helpers.random_polygon(rng, 4), quad)
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
    save_polygon_json(helpers.random_polygon(rng, 4), quad)
    argv = ["yau", "--input", str(quad), "--target", target_file, "--m", "2", "--count", "2"]
    assert main(argv) == 0
    rows = capsys.readouterr().out.splitlines()
    assert rows[0] == "t,vertex_index,x1,x2"
    assert len(rows) == 1 + 2 * 5


def test_analyze_reports_structure(tmp_path, capsys):
    path = tmp_path / "p2.json"
    save_polygon_json(eigen_polygon(5, 2).scaled(2.0), path)
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
    save_polygon_json(eigen_polygon(5, 1).translated([1.0, 0.0]), path)
    assert main(["analyze", "--input", str(path), "--m", "2"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["centroid"][0] > 0.99
    assert report["self_similar"] == {
        "mode": 1,
        "rate": report["modes"][1]["rate"],
        "trivial": False,
    }


def test_analyze_constant_polygon(tmp_path, capsys):
    path = tmp_path / "const.json"
    save_polygon_json(helpers.constant_polygon([1.0, -2.0], 5), path)
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


def test_malformed_input_exits_three(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{")
    assert main(["flow", "--input", str(bad), "--m", "1"]) == 3
    binary = tmp_path / "binary.csv"
    binary.write_bytes(b"x1,x2\n\xff\xfe\n")
    capsys.readouterr()
    assert main(["flow", "--input", str(binary), "--m", "1"]) == 3
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


def test_too_small_polygon_exits_three(tmp_path, capsys):
    tiny = tmp_path / "tiny.json"
    save_polygon_json(Polygon(np.zeros((2, 2))), tiny)
    assert main(["flow", "--input", str(tiny), "--m", "1"]) == 3


def test_dimension_mismatch_exits_three(tmp_path, rng, pentagon_file, capsys):
    threed = tmp_path / "threed.json"
    save_polygon_json(helpers.random_polygon(rng, 5, p=3), threed)
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


def test_svg_of_non_planar_input_exits_two_before_writing(tmp_path, rng, capsys):
    threed = tmp_path / "threed.json"
    save_polygon_json(helpers.random_polygon(rng, 5, p=3), threed)
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
    save_polygon_json(helpers.random_polygon(rng, 6, p=3), start)
    save_polygon_json(helpers.random_polygon(rng, 9, p=3), target)
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
    decompose = spectral_flow.decompose

    def counted(x):
        calls.append(x.n)
        return decompose(x)

    path = tmp_path / "heptagon.json"
    save_polygon_json(helpers.random_polygon(rng, 7), path)
    monkeypatch.setattr(spectral_flow, "decompose", counted)
    assert main(["analyze", "--input", str(path), "--m", "2"]) == 0
    assert calls == [7]
    assert json.loads(capsys.readouterr().out)["dominant_mode"] == 1


def test_ancient_overflow_exits_four(tmp_path, capsys):
    path = tmp_path / "hex.json"
    save_polygon_json(eigen_polygon(6, 1), path)
    assert main(["flow", "--input", str(path), "--m", "1", "--times=-1000000.0"]) == 4
