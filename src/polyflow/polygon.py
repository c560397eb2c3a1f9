"""Closed polygons in R^p: data model, difference operators, and file formats.

A polygon is an ordered n x p array of vertices with indices mod n.  It may
be non-embedded (edges may cross, vertices may repeat); n = 1 and n = 2 are
accepted here and rejected only by the flow solvers, which need the size-n
difference matrix.

Every number polyflow writes follows the one formatter rule, stated at
:func:`format_floats` and :func:`format_samples`.

``Polygon(...)`` copies and checks its data; an array that a check has just
passed (a loaded file, a flow sample, a kept RK4 state asked for as a
polygon) is made a polygon by ``Polygon._checked``, which does neither.
An RK4 run keeps its states as checked blocks of floats and makes no
polygon per state.

A JSON file is parsed by orjson, and again by ``json`` wherever orjson's
result is not taken (:func:`load_polygon_json`); ``json_only=True`` parses
with ``json`` alone, for a run that writes no float array in a process
that has not loaded orjson, and so need not import it.  ``csv`` is
imported by the CSV loader, and the reconciliation engine
:mod:`polyflow._reconcile` by the first ``midpoint`` reconciliation that
grows a polygon, at their first call, so that a run that reads JSON and
grows no polygon by midpoints neither loads ``csv`` nor compiles the
engine.
"""
from __future__ import annotations

import io
import json
import math
from dataclasses import dataclass
from itertools import accumulate, chain, repeat

import numpy as np

from . import circulant


class PolygonFormatError(ValueError):
    """Raised for malformed polygon files; carries a line number when known."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


@dataclass(frozen=True, eq=False)
class Polygon:
    """Immutable closed polygon; a value type compared by exact coordinates."""

    vertices: np.ndarray

    def __post_init__(self):
        v = np.array(self.vertices, dtype=float)
        if v.ndim != 2:
            raise ValueError(f"vertices must be an n x p array, got shape {v.shape}")
        n, p = v.shape
        if n < 1:
            raise ValueError("polygon needs at least one vertex")
        if p < 2:
            raise ValueError(f"ambient dimension must be >= 2, got {p}")
        if not np.isfinite(v).all():
            raise ValueError("polygon coordinates must be finite")
        v.flags.writeable = False
        object.__setattr__(self, "vertices", v)

    @classmethod
    def _checked(cls, v: np.ndarray) -> "Polygon":
        """A polygon on ``v`` itself: an n x p float64 array, n >= 1 and
        p >= 2, whose finiteness the caller has checked.  ``v`` is made
        read-only; nothing is copied or scanned again, and ``__init__`` is
        not run."""
        v.flags.writeable = False
        x = object.__new__(cls)
        object.__setattr__(x, "vertices", v)
        return x

    @property
    def n(self) -> int:
        return self.vertices.shape[0]

    @property
    def p(self) -> int:
        return self.vertices.shape[1]

    def __eq__(self, other) -> bool:
        if not isinstance(other, Polygon):
            return NotImplemented
        return self.vertices.shape == other.vertices.shape and bool(
            np.array_equal(self.vertices, other.vertices)
        )

    def as_complex(self) -> np.ndarray:
        """Planar polygons viewed as vectors in C^n (x + iy per vertex)."""
        if self.p != 2:
            raise ValueError(f"complex view needs p = 2, got p = {self.p}")
        return self.vertices[:, 0] + 1j * self.vertices[:, 1]

    @classmethod
    def from_complex(cls, z: np.ndarray) -> "Polygon":
        z = np.asarray(z, dtype=complex)
        return cls(np.column_stack([z.real, z.imag]))

    def translated(self, shift) -> "Polygon":
        shift = np.asarray(shift, dtype=float)
        if shift.shape != (self.p,):
            raise ValueError(f"shift must have shape ({self.p},), got {shift.shape}")
        return Polygon(self.vertices + shift[None, :])

    def scaled(self, factor: float) -> "Polygon":
        return Polygon(self.vertices * float(factor))

    def __add__(self, other: "Polygon") -> "Polygon":
        if not isinstance(other, Polygon):
            return NotImplemented
        if self.vertices.shape != other.vertices.shape:
            raise ValueError("polygon shapes differ")
        return Polygon(self.vertices + other.vertices)

    def __sub__(self, other: "Polygon") -> "Polygon":
        if not isinstance(other, Polygon):
            return NotImplemented
        if self.vertices.shape != other.vertices.shape:
            raise ValueError("polygon shapes differ")
        return Polygon(self.vertices - other.vertices)


def real_basis(n: int, k: int) -> tuple[np.ndarray, np.ndarray]:
    """The mode-k cosine/sine pair ``(c, s)``: the real and imaginary parts of
    the k-th eigenpolygon, entrywise cos(2 pi j k / n) and sin(2 pi j k / n).
    s is identically zero for k = 0 and k = n/2."""
    if not 0 <= k <= n - 1:
        raise ValueError(f"mode index k={k} outside [0, {n - 1}]")
    roots = circulant.roots_of_unity(n)[np.arange(n) * k % n]
    c, s = roots.real.copy(), roots.imag.copy()
    c.flags.writeable = s.flags.writeable = False
    return c, s


def eigen_polygon(n: int, k: int) -> Polygon:
    """The planar regular (k = 1), star (1 < k < n/2 coprime cases), point
    (k = 0) or segment (k = n/2, n even) polygon with vertex j at angle
    2 pi j k / n on the unit circle."""
    return Polygon(np.column_stack(real_basis(n, k)))


def difference_stack(x: Polygon, m: int) -> np.ndarray:
    """All m-th forward differences at once, by iterating the order-1 operator:
    row j is ``sum_k (-1)^(m+k) C(m, k) X_(j+k)``, indices mod n."""
    if m < 1:
        raise ValueError(f"difference order must be >= 1, got {m}")
    stack = x.vertices
    for _ in range(m):
        stack = np.concatenate((stack[1:] - stack[:-1], stack[:1] - stack[-1:]))
    return stack


def energy(x: Polygon, m: int) -> float:
    """Difference energy: half the summed squared norms of all m-th differences."""
    stack = difference_stack(x, m)
    return 0.5 * float(np.sum(stack * stack))


def centroid(x: Polygon) -> np.ndarray:
    """Vertex average, every column summed by one reduce.  Columns with
    all-equal entries return that value exactly, in place of a sum that may
    overflow, so constant polygons stay bitwise fixed under the flows.  A
    column whose sum passes float max is summed again times the exact power
    of two of :func:`_shift_near_one` for its largest |entry|, and scaled
    back after dividing by n, so a finite mean is not lost to an overflowing
    sum; every other column keeps the bits of its plain mean.  No numpy
    warning escapes."""
    v = np.ascontiguousarray(x.vertices.T)  # a row per coordinate sums as a column's mean does
    first = v[:, 0]
    varies = (v != first[:, None]).any(axis=1)
    with np.errstate(over="ignore", invalid="ignore"):
        out = np.where(varies, np.add.reduce(v, axis=1) / x.n, first)
        overflowed = ~np.isfinite(out)
        if overflowed.any():
            shifts = np.array([[_shift_near_one(c)] for c in np.abs(v[overflowed]).max(axis=1).tolist()])
            sums = np.add.reduce(np.ldexp(v[overflowed], shifts), axis=1)
            out[overflowed] = np.ldexp(sums / x.n, -shifts[:, 0])
    return out


def reconcile_vertex_counts(
    a: Polygon, b: Polygon, strategy: str = "midpoint"
) -> tuple[Polygon, Polygon]:
    """Bring two polygons to the same vertex count without changing either image.

    ``duplicate`` repeats the final vertex of the smaller polygon; ``midpoint``
    repeatedly bisects its currently longest edge (ties to the lowest edge
    index), so inserted vertices lie on existing segments.  Growing n vertices
    by k midpoints costs O((n + k) log(n + k)): a heap pops one sub-edge per
    insertion below ``_reconcile.SPLIT_ORDER_MIN`` insertions, and from there
    numpy selects the k splits a level of the bisection forest at a time, the
    same bits in 13 ms against the heap's 240 ms from 1000 to 65 536 vertices
    (2-vCPU Xeon VM, Python 3.11, numpy 2.4).
    """
    if a.p != b.p:
        raise ValueError(f"ambient dimensions differ: {a.p} != {b.p}")
    if strategy not in ("duplicate", "midpoint"):
        raise ValueError(f"unknown strategy {strategy!r}")
    if a.n == b.n:
        return a, b
    target = max(a.n, b.n)
    if strategy == "duplicate":
        return _padded(a, target), _padded(b, target)
    from ._reconcile import _grow

    return _grow(a, target), _grow(b, target)


def _padded(x: Polygon, target: int) -> Polygon:
    """``x`` with its final vertex repeated up to ``target`` vertices."""
    if x.n == target:
        return x
    v = x.vertices
    return Polygon(np.vstack([v, np.repeat(v[-1:], target - x.n, axis=0)]))


def _shift_near_one(largest: float) -> int:
    """The exponent e that brings ``largest * 2**e`` into [1/2, 1) when the
    binary exponent of ``largest`` (``math.frexp``) lies beyond +-400,
    roughly outside [2^-400, 2^400]; else 0.  Scaling by ``2**e`` is exact,
    so squares and sums taken after it neither overflow nor underflow."""
    exponent = math.frexp(largest)[1]
    return -exponent if abs(exponent) > 400 else 0


# ---------------------------------------------------------------------------
# File formats.  JSON: {"dim": p, "vertices": [[x1, ..., xp], ...]}.
# CSV: header x1,...,xp then one vertex per row.  Both reject non-finite
# values and ragged rows; floats are written in shortest round-trip form.


def format_floats(values) -> list[str]:
    """``repr`` of every float64 of ``values``, in C order, byte for byte:
    the shortest string that reads back to the same double.

    This is the one formatter.  Every number written in a table, a figure or
    a report (the trajectory CSV's times and coordinates, the SVG's viewBox,
    stroke widths and points, the whole ``analyze`` JSON and the ``matrix``
    eigenvalues) is one of its cells, or of the :func:`format_samples` rows
    made from them, and is made once.  Only the one-line ``integrate``
    summary uses ``repr`` itself, so that a run without ``--csv`` never
    imports orjson.

    One orjson call writes the shortest round-trip digits of them all.  Its
    text differs from ``repr``'s only where ``repr`` leaves fixed notation,
    outside 1e-4 <= |x| < 1e16, and for nan and ±inf (``null``): those cells,
    zeros excepted, are made again by ``repr``.

    orjson is imported here, at the first call: its import loads ``uuid``
    and ``zoneinfo``, about 5 ms, which a run that writes no float array
    (``integrate`` without ``--csv``) need not pay."""
    import orjson

    a = np.ascontiguousarray(values, dtype=np.float64).ravel()
    if not a.size:
        return []
    cells = orjson.dumps(a, option=orjson.OPT_SERIALIZE_NUMPY)[1:-1].decode().split(",")
    size = np.abs(a)
    (odd,) = np.nonzero((a != 0.0) & ~((size >= 1e-4) & (size < 1e16)))
    for i, value in zip(odd.tolist(), a[odd].tolist()):
        cells[i] = repr(value)
    return cells


FORMAT_BLOCK = 2**12  # the most coordinates format_samples formats at once


def format_samples(samples):
    """Yield the rows of each sample in turn: one string per vertex, the
    ``format_floats`` cells of its coordinates joined by commas.  The
    samples are polygons of one dimension, or the states of an RK4
    trajectory's blocks, given as the blocks: (b, n, p) arrays of b states
    each.  Whole samples are formatted together, as many as fit in
    FORMAT_BLOCK coordinates by the largest of them and at least one, so
    the text made ahead of the reader is at most one block's.  Polygons are
    concatenated a block at a time; a block of states is read in slices of
    its rows, with no polygon, attribute read or concatenation per state.

    A block's rows come from one orjson call, not from cells joined again:
    its vertices fill a (rows, p + 1) table whose last column is nan, which
    orjson writes as ``null``, and the flat text splits at ``,null,`` into
    one string per vertex.  A flat array is dumped because orjson takes
    about 0.1 us more per row to write a 2-D one.  Only the rows holding a
    nonzero cell outside 1e-4 <= |x| < 1e16, where ``repr`` leaves fixed
    notation, are made again from ``format_floats``."""
    import orjson

    if samples and isinstance(samples[0], np.ndarray):
        parts = _state_slices(samples)
    else:
        parts = _polygon_blocks(samples)
    for vertices, ends in parts:
        p = vertices[0].shape[1]
        table = np.empty((ends[-1], p + 1))
        np.concatenate(vertices, out=table[:, :p])
        table[:, p] = np.nan
        text = orjson.dumps(table.ravel(), option=orjson.OPT_SERIALIZE_NUMPY)
        rows = text[1 : -len(",null]")].decode().split(",null,")
        size = np.abs(table)
        rim = (size < 1e-4) | (size >= 1e16)  # false in the nan column
        if rim.any():
            (odd,) = np.nonzero((rim & (table != 0.0)).any(axis=1))
            cells = iter(format_floats(table[odd, :p]))
            for i, row in zip(odd.tolist(), map(",".join, zip(*[cells] * p))):
                rows[i] = row
        for first, end in zip([0, *ends], ends):
            yield rows[first:end]


def _polygon_blocks(polygons):
    """Each block of whole polygons as its vertex arrays and the row counts
    that end its polygons."""
    per_block = max(1, FORMAT_BLOCK // max((x.vertices.size for x in polygons), default=1))
    for start in range(0, len(polygons), per_block):
        block = polygons[start : start + per_block]
        yield [x.vertices for x in block], list(accumulate(x.n for x in block))


def _state_slices(blocks):
    """Each slice of whole states of (b, n, p) state blocks as one (rows, p)
    view and the row counts that end its states."""
    for states in blocks:
        b, n, p = states.shape
        per_block = max(1, FORMAT_BLOCK // (n * p))
        for start in range(0, b, per_block):
            count = min(per_block, b - start)
            yield [states[start : start + count].reshape(count * n, p)], range(n, (count + 1) * n, n)


def load_polygon_json(path, *, json_only: bool = False) -> Polygon:
    """Read a ``{"dim": p, "vertices": [[x1, ..., xp], ...]}`` document.

    Unless ``json_only``, orjson parses the file's bytes first, about five
    times as fast as ``json`` at n = 1024, and its result is taken only for
    a document with exactly the keys ``"dim"`` and ``"vertices"`` that
    passes every check of :func:`_vertex_array`.  Every other document is
    parsed again by ``json``, so that ``json`` words each refusal, as it
    does every document when ``json_only``.  The two paths give the same
    bits: an integer past 2^64, a float to orjson and an int to ``json``,
    is rounded to the same nearest double by both.  So ``json_only`` only
    keeps orjson unimported: the CLI passes it for a run that writes no
    float array while orjson is not yet loaded, and once it is loaded,
    every run parses with it.

    One pass over the vertex list checks its shape, one over the flattened
    list that every coordinate is a JSON number, and numpy converts that.
    Only a document that fails a check is walked row by row, to name its
    first bad vertex.
    """
    if not json_only:
        v = _orjson_vertices(path)
        if v is not None:
            return Polygon._checked(v)
    with open(path, encoding="utf-8-sig") as fh:
        text = fh.read()
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise PolygonFormatError(f"invalid JSON: {exc.msg}", line=exc.lineno) from exc
    except ValueError:  # an integer past Python's int-to-str digit limit
        raise PolygonFormatError("invalid JSON: an integer with too many digits") from None
    except RecursionError:
        raise PolygonFormatError("invalid JSON: nested too deeply") from None
    if not isinstance(doc, dict) or "dim" not in doc or "vertices" not in doc:
        raise PolygonFormatError('expected an object with "dim" and "vertices"')
    dim = doc["dim"]
    rows = doc["vertices"]
    v = _vertex_array(dim, rows)
    if v is not None:
        return Polygon._checked(v)
    if not isinstance(dim, int) or dim < 2:
        raise PolygonFormatError(f'"dim" must be an integer >= 2, got {dim!r}')
    if not isinstance(rows, list) or not rows:
        raise PolygonFormatError('"vertices" must be a non-empty list')
    raise _first_bad_vertex(rows, dim)


def _orjson_vertices(path) -> np.ndarray | None:
    """The vertex array of a document that orjson parses, after one UTF-8
    byte-order mark, with exactly the keys ``"dim"`` and ``"vertices"`` and
    passing :func:`_vertex_array`; None for any other.  An extra key could
    hold what ``json`` refuses, such as nesting past the recursion limit."""
    import orjson

    with open(path, "rb") as fh:
        data = fh.read()
    try:
        doc = orjson.loads(data[3:] if data.startswith(b"\xef\xbb\xbf") else data)
    except orjson.JSONDecodeError:
        return None
    if type(doc) is not dict or doc.keys() != {"dim", "vertices"}:
        return None
    return _vertex_array(doc["dim"], doc["vertices"])


def _vertex_array(dim, rows) -> np.ndarray | None:
    """The n x dim float array of a parsed vertex list, or None unless
    ``dim`` is an integer >= 2 and ``rows`` a non-empty list of lists of
    ``dim`` JSON numbers, not bools, each finite as a double."""
    if not isinstance(dim, int) or dim < 2 or not isinstance(rows, list) or not rows:
        return None
    flat = set(map(type, rows)) == {list} and set(map(len, rows)) == {dim} and list(chain.from_iterable(rows))
    if not flat or not set(map(type, flat)) <= {int, float}:  # bools are not numbers
        return None
    try:
        v = np.array(flat, dtype=float).reshape(len(rows), dim)
    except OverflowError:  # an integer beyond float range
        return None
    return v if np.isfinite(v).all() else None


def _first_bad_vertex(rows: list, dim: int) -> PolygonFormatError:
    """The error naming the first bad vertex.  A list with none passes the
    one-pass check too: ``float`` and numpy convert JSON numbers alike."""
    for idx, row in enumerate(rows):
        if not isinstance(row, list) or len(row) != dim:
            return PolygonFormatError(f"vertex {idx} is not a list of {dim} numbers")
        if any(type(c) not in (int, float) for c in row):  # JSON numbers; bools are not
            return PolygonFormatError(f"vertex {idx} has a non-numeric entry")
        try:
            coords = [float(c) for c in row]
        except OverflowError:  # an integer beyond float range
            return PolygonFormatError(f"vertex {idx} has a non-numeric entry")
        if not all(math.isfinite(c) for c in coords):
            return PolygonFormatError(f"vertex {idx} has a non-finite entry")


def _csv_records(reader):
    """The reader's records; a malformed one, such as a field past the csv
    module's size limit, is a PolygonFormatError at the reader's line."""
    import csv

    try:
        yield from reader
    except csv.Error as exc:
        raise PolygonFormatError(str(exc), line=reader.line_num) from None


def load_polygon_csv(path) -> Polygon:
    """Read the header ``x1,...,xp`` (p >= 2), then a vertex of p numbers
    per line; blank lines are skipped.

    A number is what ``float`` reads from ASCII text: a decimal or exponent
    literal with an optional sign and whitespace around it (``+1``, ``.5``,
    ``1e5``), or ``inf`` and ``nan``, which are refused as non-finite.  A
    cell holding ``_`` or a non-ASCII character (``1_0``, Arabic-Indic
    digits), which ``float`` would also read, is a non-numeric entry.

    The file is read once.  A plain text (ASCII with no ``"``, ``\\r``,
    ``_`` or NUL, the exact header, p - 1 commas on every non-empty line and
    no line past the csv module's field size limit) is cut at newlines and
    commas and converted by one ``map(float, ...)``, 1.6-1.8 times as fast
    as the csv module at n = 27-62 (2-vCPU Xeon VM, Python 3.11); it is
    taken if every cell converts to a finite number.  The csv module walks every other text, and a plain one
    that fails, record by record, and words each refusal with its line.
    Both give ``float``'s bits.
    """
    import csv

    with open(path, "rb") as fh:
        text = fh.read().decode("utf-8-sig")  # no newline translation, as the csv module needs
    v = _plain_csv_vertices(text, csv.field_size_limit())
    if v is not None:
        return Polygon._checked(v)
    reader = csv.reader(io.StringIO(text, newline=""))
    records = _csv_records(reader)
    try:
        header = next(records)
    except StopIteration:
        raise PolygonFormatError("empty file", line=1) from None
    p = len(header)
    if p < 2 or header != [f"x{i + 1}" for i in range(p)]:
        raise PolygonFormatError(
            f"expected header x1,...,xp with p >= 2, got {','.join(header)}", line=1
        )
    out = []
    for row in records:  # a record's line is its last: a quoted field may hold newlines
        if not row:
            continue
        if len(row) != p:
            raise PolygonFormatError(
                f"expected {p} columns, got {len(row)}", line=reader.line_num
            )
        if not all(c.isascii() and "_" not in c for c in row):  # float's Python-only spellings
            raise PolygonFormatError("non-numeric entry", line=reader.line_num)
        try:
            coords = [float(c) for c in row]
        except ValueError:
            raise PolygonFormatError("non-numeric entry", line=reader.line_num) from None
        if not all(math.isfinite(c) for c in coords):
            raise PolygonFormatError("non-finite entry", line=reader.line_num)
        out.append(coords)
    if not out:
        raise PolygonFormatError("no vertices found")
    return Polygon._checked(np.array(out))


def _plain_csv_vertices(text: str, field_limit: int) -> np.ndarray | None:
    """The n x p vertex array of a plain CSV text (see :func:`load_polygon_csv`),
    or None for any other text.  Without quotes and carriage returns the csv
    module's records are its lines and its fields the text between commas, so
    ``float`` reads the same cells."""
    if not text.isascii() or any(c in text for c in '"\r_\0'):
        return None
    header, _, body = text.partition("\n")
    p = header.count(",") + 1
    rows = [line for line in body.split("\n") if line]
    if p < 2 or header != ",".join([f"x{i + 1}" for i in range(p)]) or not rows:
        return None
    if set(map(str.count, rows, repeat(","))) != {p - 1} or max(map(len, rows)) > field_limit:
        return None
    cells = ",".join(rows).split(",")
    try:
        v = np.fromiter(map(float, cells), float, len(cells))
    except ValueError:
        return None
    return v.reshape(-1, p) if np.isfinite(v).all() else None


def load_polygon(path, *, json_only: bool = False) -> Polygon:
    """Dispatch on extension: .json or .csv.  Either is UTF-8 text, with or
    without a leading byte-order mark; any other bytes are a
    PolygonFormatError.  ``json_only`` is :func:`load_polygon_json`'s."""
    name = str(path)
    try:
        if name.endswith(".json"):
            return load_polygon_json(path, json_only=json_only)
        if name.endswith(".csv"):
            return load_polygon_csv(path)
    except UnicodeDecodeError:
        raise PolygonFormatError("not UTF-8 text") from None
    raise PolygonFormatError(f"unsupported polygon file extension: {name}")
