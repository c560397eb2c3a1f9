import json
import math

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from polyflow.polygon import (
    Polygon,
    PolygonFormatError,
    load_polygon,
    load_polygon_csv,
    load_polygon_json,
)

import helpers


def test_json_round_trip_exact(rng, tmp_path):
    x = helpers.random_polygon(rng, 6, p=3)
    path = tmp_path / "poly.json"
    helpers.save_polygon_json(x, path)
    assert load_polygon_json(path) == x


def test_load_dispatches_on_extension(rng, tmp_path):
    x = helpers.random_polygon(rng, 4)
    helpers.save_polygon_json(x, tmp_path / "p.json")
    rows = "".join(f"{a!r},{b!r}\n" for a, b in x.vertices.tolist())
    (tmp_path / "p.csv").write_text("x1,x2\n" + rows)  # shortest round-trip floats
    assert load_polygon(tmp_path / "p.json") == x
    assert load_polygon(tmp_path / "p.csv") == x
    with pytest.raises(PolygonFormatError):
        load_polygon(tmp_path / "p.txt")


def test_json_rejects_bad_documents(tmp_path):
    """Each message names the first bad vertex, whichever check of the
    whole-list pass the document fails."""
    cases = {
        "not_json.json": ("{", "line 1: invalid JSON: Expecting property name enclosed in double quotes"),
        "no_dim.json": ({"vertices": [[0, 0]]}, 'expected an object with "dim" and "vertices"'),
        "bad_dim.json": ({"dim": 1, "vertices": [[0.0]]}, '"dim" must be an integer >= 2, got 1'),
        "ragged.json": ({"dim": 2, "vertices": [[0.0, 0.0], [1.0]]}, "vertex 1 is not a list of 2 numbers"),
        "nonfinite.json": ({"dim": 2, "vertices": [[0.0, None]]}, "vertex 0 has a non-numeric entry"),
        "infinite.json": ('{"dim": 2, "vertices": [[0.0, Infinity]]}', "vertex 0 has a non-finite entry"),
        "nan.json": ('{"dim": 2, "vertices": [[0.0, 1.0], [NaN, 0.0]]}', "vertex 1 has a non-finite entry"),
        "literal.json": ('{"dim": 3, "vertices": [[0, 1, 2], [1e400, 0, 0]]}', "vertex 1 has a non-finite entry"),
        "empty.json": ({"dim": 2, "vertices": []}, '"vertices" must be a non-empty list'),
        "booleans.json": ({"dim": 2, "vertices": [[True, False], [1.0, 0.0]]}, "vertex 0 has a non-numeric entry"),
        "late_booleans.json": ({"dim": 2, "vertices": [[1.0, 0.0], [True, False]]}, "vertex 1 has a non-numeric entry"),
        "strings.json": ({"dim": 2, "vertices": [["1.5", "2"], [0, "1e3"]]}, "vertex 0 has a non-numeric entry"),
        "mixed.json": ({"dim": 2, "vertices": [[True, False], ["1.5", "2"], [0, "1e3"]]}, "vertex 0 has a non-numeric entry"),
        "huge_int.json": ({"dim": 2, "vertices": [[0, 10**400], [1, 0]]}, "vertex 0 has a non-numeric entry"),
        "past_max.json": ({"dim": 2, "vertices": [[1, 2], [3, 4], [2**1024 - 2**970, 0]]}, "vertex 2 has a non-numeric entry"),
        "nested.json": ({"dim": 2, "vertices": [[1, 2], [[3], 4]]}, "vertex 1 has a non-numeric entry"),
        "not_rows.json": ({"dim": 2, "vertices": [[1, 2], 3]}, "vertex 1 is not a list of 2 numbers"),
        "late.json": ({"dim": 2, "vertices": [[1, 2], [3, 4], [5, 6, 7], [True, 0]]}, "vertex 2 is not a list of 2 numbers"),
        "string_first.json": ('{"dim": 2, "vertices": [[1, 2], [5, "6"], [1e999, 0]]}', "vertex 1 has a non-numeric entry"),
        # past the parser's recursion limit and Python's int-to-str digit limit
        "deep.json": ("[" * 100_000 + "]" * 100_000, "invalid JSON: nested too deeply"),
        "digits.json": ('{"dim": 2, "vertices": [[' + "1" * 5000 + ", 0]]}", "invalid JSON: an integer with too many digits"),
    }
    for name, (doc, message) in cases.items():
        path = tmp_path / name
        path.write_text(doc if isinstance(doc, str) else json.dumps(doc))
        with pytest.raises(PolygonFormatError) as info:
            load_polygon_json(path)
        assert str(info.value) == message, name


JSON_NUMBERS = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),  # -0.0, subnormal values and float max among them
    st.integers(-(2**64), 2**64),
    st.integers(2**53 - 4, 2**53 + 4).flatmap(lambda i: st.sampled_from([i, -i])),
    # up to the largest integer that still rounds to a finite float
    st.integers(-(2**1024 - 2**970 - 1), 2**1024 - 2**970 - 1),
)


@given(
    st.integers(2, 4).flatmap(
        lambda p: st.tuples(
            st.just(p), st.lists(st.lists(JSON_NUMBERS, min_size=p, max_size=p), min_size=1, max_size=12)
        )
    )
)
def test_json_loader_is_bitwise_the_rowwise_conversion(tmp_path_factory, doc):
    dim, rows = doc
    path = tmp_path_factory.getbasetemp() / "rows.json"
    path.write_text(json.dumps({"dim": dim, "vertices": rows}))
    loaded = load_polygon_json(path)
    assert loaded.vertices.tobytes() == helpers.rowwise_polygon(rows).vertices.tobytes()


def test_loaders_check_and_convert_a_valid_file_once(rng, tmp_path, monkeypatch):
    """A valid JSON or CSV file becomes a read-only polygon, bitwise
    ``Polygon`` of its rows, without a run of ``Polygon.__post_init__``."""
    polygons = [helpers.random_polygon(rng, 7), helpers.random_polygon(rng, 5, p=3, scale=1e300)]
    calls = []
    post_init = Polygon.__post_init__

    def counted(x):
        calls.append(x)
        post_init(x)

    monkeypatch.setattr(Polygon, "__post_init__", counted)
    for i, x in enumerate(polygons):
        helpers.save_polygon_json(x, tmp_path / f"{i}.json")
        rows = [[f"x{j + 1}" for j in range(x.p)]] + [list(map(repr, row)) for row in x.vertices.tolist()]
        (tmp_path / f"{i}.csv").write_text("".join(",".join(row) + "\n" for row in rows))
        for loaded in (load_polygon_json(tmp_path / f"{i}.json"), load_polygon_csv(tmp_path / f"{i}.csv")):
            assert calls == []
            assert loaded.vertices.dtype == x.vertices.dtype and loaded.vertices.shape == x.vertices.shape
            assert loaded.vertices.tobytes() == x.vertices.tobytes()
            assert not loaded.vertices.flags.writeable
    Polygon(polygons[0].vertices)
    assert len(calls) == 1  # the count sees a construction


# entries no JSON vertex list may hold, and rows that are not a list of dim numbers
BAD_ENTRIES = st.sampled_from([
    True, False, "1.5", "", None, [1.0], [], {},
    2**1024 - 2**970, -(2**1024), 10**400, math.nan, math.inf, -math.inf,
])
BAD_ROWS = st.one_of(st.sampled_from([3, 1.5, "0,0", None, {}]), st.lists(st.floats(-1e3, 1e3), max_size=5))


@st.composite
def mutated_vertex_lists(draw):
    """A valid vertex list with up to three entries or rows replaced."""
    dim = draw(st.integers(2, 4))
    rows = draw(st.lists(st.lists(JSON_NUMBERS, min_size=dim, max_size=dim), min_size=1, max_size=8))
    for _ in range(draw(st.integers(0, 3))):
        i = draw(st.integers(0, len(rows) - 1))
        if draw(st.booleans()):
            rows[i] = draw(BAD_ROWS)
        elif isinstance(rows[i], list) and rows[i]:
            rows[i][draw(st.integers(0, len(rows[i]) - 1))] = draw(BAD_ENTRIES)
    return dim, rows


@given(mutated_vertex_lists())
@example((2, [[0.0, 1.0], [math.inf, 2**1024]]))  # converting the row fails before its finiteness check
@example((3, [[1, 2, 3], [4, [5], 6], [7, 8]]))
def test_json_loader_matches_the_two_pass_loader(tmp_path_factory, doc):
    """The loader returns the polygon of the loader that checked a valid list
    twice, or raises its message word for word."""
    dim, rows = doc
    path = tmp_path_factory.getbasetemp() / "mutated.json"
    path.write_text(json.dumps({"dim": dim, "vertices": rows}))
    try:
        expected = helpers.two_pass_load_polygon_json(path)
    except PolygonFormatError as exc:
        with pytest.raises(PolygonFormatError) as info:
            load_polygon_json(path)
        assert str(info.value) == str(exc)
    else:
        loaded = load_polygon_json(path)
        assert loaded.vertices.shape == expected.vertices.shape
        assert loaded.vertices.tobytes() == expected.vertices.tobytes()
        assert not loaded.vertices.flags.writeable


EDGE_DOCUMENTS = helpers.loader_edge_documents()
# number texts on which orjson and json could part: shortest and long digit
# strings, integers past 2^64 and past float range, signed zeros, literals
NUMBER_TEXTS = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
    st.integers(-(2**70), 2**70).map(str),
    st.integers(-(2**1030), 2**1030).map(str),
    st.builds("{}{}.{}e{}".format, st.sampled_from(["", "-"]), st.integers(0, 10**25),
              st.integers(0, 10**25), st.integers(-340, 330)),
    st.sampled_from(["-0", "-0.0", "-0e0", "1E2", "NaN", "Infinity", "-Infinity", "1e400", "-1e-400",
                     "2.4703282292062328e-324", "true", "null", '"1"', "[]", "1" * 4301]),
)


@st.composite
def json_polygon_files(draw):
    """The bytes of a JSON polygon file: its members shuffled, perhaps an
    extra or repeated key, a bad ``dim``, a byte-order mark or CRLF line
    ends, and one in four with up to three bytes deleted, inserted or
    replaced."""
    dim = draw(st.integers(2, 3))
    rows = draw(st.lists(st.lists(NUMBER_TEXTS, min_size=dim, max_size=dim), min_size=1, max_size=5))
    vertices = "[" + ", ".join("[" + ", ".join(row) + "]" for row in rows) + "]"
    dim_text = draw(st.sampled_from([str(dim)] * 4 + ["1", "true", f"{dim}.0", f'"{dim}"', "18446744073709551618"]))
    members = [("dim", dim_text), ("vertices", vertices)]
    members += draw(st.lists(st.sampled_from([("name", '"pentagon"'), ("dim", "3"), ("vertices", "[[0, 0]]"),
                                              ("x", "[[[1e400]]]")]), max_size=2))
    members = draw(st.permutations(members))
    text = "{" + ", ".join(f'"{key}": {value}' for key, value in members) + "}"
    if draw(st.booleans()):
        text = text.replace(", ", ",\r\n")
    data = (b"\xef\xbb\xbf" if draw(st.booleans()) else b"") + text.encode()
    if not draw(st.integers(0, 3)):
        for _ in range(draw(st.integers(1, 3))):
            i = draw(st.integers(0, len(data) - 1))
            edit, byte = draw(st.sampled_from("dir")), draw(st.sampled_from(b'0-.e,[]{}" \xff'))
            data = data[:i] + (b"" if edit == "d" else bytes([byte])) + data[i + (edit != "i"):]
    return data


def _loaded(path, json_only):
    """The polygon's shape and bits, or the refusal's message."""
    try:
        v = load_polygon(path, json_only=json_only).vertices
    except PolygonFormatError as exc:
        return str(exc)
    return v.shape, v.tobytes()


@settings(max_examples=300)
@given(st.one_of(json_polygon_files(), st.sampled_from([data for _, data in EDGE_DOCUMENTS])))
def test_json_loader_paths_give_the_same_bits_or_the_same_message(tmp_path_factory, data):
    """orjson first, and json for what it does not take, loads what json
    alone loads, bit for bit, and refuses what json refuses, word for word."""
    path = tmp_path_factory.getbasetemp() / "doc.json"
    path.write_bytes(data)
    assert _loaded(path, json_only=False) == _loaded(path, json_only=True)


TAKEN_FROM_ORJSON = {"duplicate_keys.json", "past_2_64.json", "byte_order_mark.json"}


@pytest.mark.parametrize(("name", "data"), EDGE_DOCUMENTS, ids=[name for name, _ in EDGE_DOCUMENTS])
def test_json_loader_edge_documents_load_as_json_loads_them(tmp_path, name, data, monkeypatch):
    """Only a document of exactly "dim" and "vertices" that passes every
    check is taken from orjson, with the last of repeated keys as json
    keeps it; json parses every other one."""
    path = tmp_path / name
    path.write_bytes(data)
    expected = _loaded(path, json_only=True)
    parsed = []
    monkeypatch.setattr(json, "loads", lambda text, loads=json.loads: parsed.append(text) or loads(text))
    assert _loaded(path, json_only=False) == expected
    assert bool(parsed) == (name not in TAKEN_FROM_ORJSON)


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

    long_field = tmp_path / "f.csv"  # past the csv module's field size limit
    long_field.write_text("x1,x2\n0,0\n1," + "1" * 140_000 + "\n0,1\n")
    with pytest.raises(PolygonFormatError) as info:
        load_polygon_csv(long_field)
    assert str(info.value) == "line 3: field larger than field limit (131072)"

    # a quoted field may hold a newline: the error names the bad row's line, not its record number
    for bad_row, message in (
        ("1,west", "non-numeric entry"),
        ("1,inf", "non-finite entry"),
        ("1", "expected 2 columns, got 1"),
    ):
        multi_line = tmp_path / "m.csv"
        multi_line.write_text('x1,x2\n"0\n",0\n' + bad_row + "\n")
        with pytest.raises(PolygonFormatError) as info:
            load_polygon_csv(multi_line)
        assert str(info.value) == f"line 4: {message}"


def test_blank_lines_between_csv_rows_are_skipped(rng, tmp_path):
    x = helpers.random_polygon(rng, 4)
    rows = [f"{a!r},{b!r}\n" for a, b in x.vertices.tolist()]
    path = tmp_path / "blank.csv"
    path.write_text("x1,x2\n\n" + "\n".join(rows) + "\n")
    assert load_polygon_csv(path) == x


def test_non_utf8_input_is_a_format_error(tmp_path):
    for name, data in (
        ("binary.json", b'{"dim": 2, "vertices": [[0, "\xff\xfe"]]}'),
        ("binary.csv", b"x1,x2\n0.0,\xff\xfe\n"),
    ):
        path = tmp_path / name
        path.write_bytes(data)
        with pytest.raises(PolygonFormatError, match="not UTF-8 text"):
            load_polygon(path)


def test_utf8_byte_order_mark_is_skipped(rng, tmp_path):
    """Both formats read a UTF-8 file that starts with a byte-order mark as the
    same file without it; a UTF-16 file, mark and all, is still not UTF-8."""
    x = helpers.random_polygon(rng, 5)
    rows = "".join(f"{a!r},{b!r}\n" for a, b in x.vertices.tolist())
    texts = {
        "json": json.dumps({"dim": 2, "vertices": x.vertices.tolist()}),
        "csv": "x1,x2\n" + rows,
    }
    for ext, text in texts.items():
        marked = tmp_path / f"marked.{ext}"
        marked.write_bytes(b"\xef\xbb\xbf" + text.encode())
        assert load_polygon(marked) == x
        wide = tmp_path / f"wide.{ext}"
        wide.write_bytes(text.encode("utf-16"))
        with pytest.raises(PolygonFormatError, match="not UTF-8 text"):
            load_polygon(wide)


def test_error_carries_line_number(tmp_path):
    path = tmp_path / "r.csv"
    path.write_text("x1,x2\n0.0,0.0\nbroken\n")
    with pytest.raises(PolygonFormatError) as info:
        load_polygon_csv(path)
    assert info.value.line == 3
