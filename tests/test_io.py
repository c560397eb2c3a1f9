import json

import numpy as np
import pytest

from polyflow.polygon import (
    Polygon,
    PolygonFormatError,
    load_polygon,
    load_polygon_csv,
    load_polygon_json,
    save_polygon_csv,
    save_polygon_json,
)

import helpers


def test_json_round_trip_exact(rng, tmp_path):
    x = helpers.random_polygon(rng, 6, p=3)
    path = tmp_path / "poly.json"
    save_polygon_json(x, path)
    assert load_polygon_json(path) == x


def test_csv_round_trip_is_byte_identical(rng, tmp_path):
    x = helpers.random_polygon(rng, 5, p=4)
    first = tmp_path / "a.csv"
    second = tmp_path / "b.csv"
    save_polygon_csv(x, first)
    reread = load_polygon_csv(first)
    assert reread == x
    save_polygon_csv(reread, second)
    assert first.read_bytes() == second.read_bytes()


def test_load_dispatches_on_extension(rng, tmp_path):
    x = helpers.random_polygon(rng, 4)
    save_polygon_json(x, tmp_path / "p.json")
    save_polygon_csv(x, tmp_path / "p.csv")
    assert load_polygon(tmp_path / "p.json") == x
    assert load_polygon(tmp_path / "p.csv") == x
    with pytest.raises(PolygonFormatError):
        load_polygon(tmp_path / "p.txt")


def test_json_rejects_bad_documents(tmp_path):
    cases = {
        "not_json.json": "{",
        "no_dim.json": json.dumps({"vertices": [[0, 0]]}),
        "bad_dim.json": json.dumps({"dim": 1, "vertices": [[0.0]]}),
        "ragged.json": json.dumps({"dim": 2, "vertices": [[0.0, 0.0], [1.0]]}),
        "nonfinite.json": json.dumps({"dim": 2, "vertices": [[0.0, None]]}),
        "infinite.json": '{"dim": 2, "vertices": [[0.0, Infinity]]}',
        "empty.json": json.dumps({"dim": 2, "vertices": []}),
        "booleans.json": json.dumps({"dim": 2, "vertices": [[True, False], [1.0, 0.0]]}),
        "strings.json": json.dumps({"dim": 2, "vertices": [["1.5", "2"], [0, "1e3"]]}),
        "mixed.json": json.dumps({"dim": 2, "vertices": [[True, False], ["1.5", "2"], [0, "1e3"]]}),
        "huge_int.json": json.dumps({"dim": 2, "vertices": [[0, 10**400], [1, 0]]}),
    }
    for name, text in cases.items():
        path = tmp_path / name
        path.write_text(text)
        with pytest.raises(PolygonFormatError):
            load_polygon_json(path)


def test_csv_rejects_bad_rows(tmp_path):
    bad_header = tmp_path / "h.csv"
    bad_header.write_text("a,b\n0,0\n")
    with pytest.raises(PolygonFormatError, match="line 1"):
        load_polygon_csv(bad_header)

    ragged = tmp_path / "r.csv"
    ragged.write_text("x1,x2\n0.0,0.0\n1.0\n")
    with pytest.raises(PolygonFormatError, match="line 3"):
        load_polygon_csv(ragged)

    nonfinite = tmp_path / "n.csv"
    nonfinite.write_text("x1,x2\n0.0,nan\n")
    with pytest.raises(PolygonFormatError, match="line 2"):
        load_polygon_csv(nonfinite)

    textual = tmp_path / "t.csv"
    textual.write_text("x1,x2\n0.0,west\n")
    with pytest.raises(PolygonFormatError, match="line 2"):
        load_polygon_csv(textual)

    empty = tmp_path / "e.csv"
    empty.write_text("")
    with pytest.raises(PolygonFormatError):
        load_polygon_csv(empty)


def test_non_utf8_input_is_a_format_error(tmp_path):
    for name, data in (
        ("binary.json", b'{"dim": 2, "vertices": [[0, "\xff\xfe"]]}'),
        ("binary.csv", b"x1,x2\n0.0,\xff\xfe\n"),
    ):
        path = tmp_path / name
        path.write_bytes(data)
        with pytest.raises(PolygonFormatError, match="not UTF-8 text"):
            load_polygon(path)


def test_error_carries_line_number(tmp_path):
    path = tmp_path / "r.csv"
    path.write_text("x1,x2\n0.0,0.0\nbroken\n")
    with pytest.raises(PolygonFormatError) as info:
        load_polygon_csv(path)
    assert info.value.line == 3
