"""Closed polygons in R^p: data model, difference operators, and file formats.

A polygon is an ordered n x p array of vertices with indices mod n.  It may
be non-embedded (edges may cross, vertices may repeat); n = 1 and n = 2 are
accepted here and rejected only by the flow solvers, which need the size-n
difference matrix.
"""
from __future__ import annotations

import csv
import heapq
import json
import math
from dataclasses import dataclass
from itertools import chain
from operator import itemgetter

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
        stack = np.roll(stack, -1, axis=0) - stack
    return stack


def energy(x: Polygon, m: int) -> float:
    """Difference energy: half the summed squared norms of all m-th differences."""
    stack = difference_stack(x, m)
    return 0.5 * float(np.sum(stack * stack))


def centroid(x: Polygon) -> np.ndarray:
    """Vertex average.  Columns with all-equal entries return that value
    exactly, so constant polygons stay bitwise fixed under the flows."""
    v = x.vertices
    out = np.empty(x.p)
    for i in range(x.p):
        col = v[:, i]
        out[i] = col[0] if np.all(col == col[0]) else col.mean()
    return out


def reconcile_vertex_counts(
    a: Polygon, b: Polygon, strategy: str = "midpoint"
) -> tuple[Polygon, Polygon]:
    """Bring two polygons to the same vertex count without changing either image.

    ``duplicate`` repeats the final vertex of the smaller polygon; ``midpoint``
    repeatedly bisects its currently longest edge (ties to the lowest edge
    index), so inserted vertices lie on existing segments.  Growing n vertices
    by k midpoints costs O((n + k) log(n + k)).
    """
    if a.p != b.p:
        raise ValueError(f"ambient dimensions differ: {a.p} != {b.p}")
    if strategy not in ("duplicate", "midpoint"):
        raise ValueError(f"unknown strategy {strategy!r}")
    target = max(a.n, b.n)
    return _grow(a, target, strategy), _grow(b, target, strategy)


def _grow(x: Polygon, target: int, strategy: str) -> Polygon:
    if x.n == target:
        return x
    if strategy == "duplicate":
        pad = np.repeat(x.vertices[-1:], target - x.n, axis=0)
        return Polygon(np.vstack([x.vertices, pad]))
    return Polygon(np.array(_bisected(x.vertices.tolist(), target)))


def _squared_length(a: list, b: list, scale: float) -> float:
    """The squared length of the edge from a to b times ``scale**2``, summed
    in index order from 0.0.  A difference is scaled as ``t*scale - s*scale``
    when scale < 1, since ``t - s`` can overflow, and as ``(t - s)*scale``
    otherwise, which at scale 1 is ``t - s`` itself."""
    total = 0.0
    if scale < 1.0:
        for s, t in zip(a, b):
            d = t * scale - s * scale
            total += d * d
    else:
        for s, t in zip(a, b):
            d = (t - s) * scale
            total += d * d
    return total


def _bisected(rows: list, target: int) -> list:
    """The vertex rows after bisecting the longest edge, ties to the lowest
    current index, until there are ``target`` of them.

    A heap holds every sub-edge keyed on (-squared length, original edge,
    offset along that edge).  A split keeps both halves on their original
    edge, so (edge, offset) is the current index order.  Offsets are exact
    integers in units of ``2**-bits`` of an edge; when a sub-edge one unit wide
    must split, every offset and width is refined by ``2**bits``, which keeps
    their order, and ``bits`` doubles.  Midpoints are ``0.5 * (a + b)`` per
    coordinate, or ``0.5 * a + 0.5 * b`` where ``a + b`` overflows.  Lengths
    are taken of the differences times an exact power of two up to 2^1023,
    1 unless the widest original edge lies beyond 2^±400, so that squares
    neither overflow nor underflow; the result is bitwise that of rescanning
    every edge length per insertion, and scaling by a power of two commutes.
    """
    edges = list(zip(rows, rows[1:] + rows[:1]))
    widest = max(abs(0.5 * t - 0.5 * s) for a, b in edges for s, t in zip(a, b))
    shift = -math.frexp(widest)[1]
    scale = math.ldexp(1.0, min(shift, 1023)) if abs(shift) > 400 else 1.0
    bits = 64
    heap = [
        (-_squared_length(a, b, scale), edge, 0, 1 << bits, a, b) for edge, (a, b) in enumerate(edges)
    ]
    heapq.heapify(heap)
    for _ in range(target - len(rows)):
        if heap[0][3] == 1:
            heap = [(key, e, o << bits, w << bits, a, b) for key, e, o, w, a, b in heap]
            bits *= 2
        _, edge, offset, width, a, b = heap[0]
        mid = [0.5 * (s + t) for s, t in zip(a, b)]
        if math.inf in mid or -math.inf in mid:  # s + t overflowed: halve each first
            mid = [0.5 * (s + t) if math.isfinite(s + t) else 0.5 * s + 0.5 * t for s, t in zip(a, b)]
        width >>= 1
        heapq.heapreplace(heap, (-_squared_length(a, mid, scale), edge, offset, width, a, mid))
        heapq.heappush(heap, (-_squared_length(mid, b, scale), edge, offset + width, width, mid, b))
    heap.sort(key=itemgetter(1, 2))
    return [leaf[4] for leaf in heap]


# ---------------------------------------------------------------------------
# File formats.  JSON: {"dim": p, "vertices": [[x1, ..., xp], ...]}.
# CSV: header x1,...,xp then one vertex per row.  Both reject non-finite
# values and ragged rows; floats are written in shortest round-trip form.


def format_float(value: float) -> str:
    return repr(float(value))


def save_polygon_json(x: Polygon, path) -> None:
    with open(path, "w") as fh:
        json.dump({"dim": x.p, "vertices": x.vertices.tolist()}, fh)
        fh.write("\n")


def load_polygon_json(path) -> Polygon:
    """Read a ``{"dim": p, "vertices": [[x1, ..., xp], ...]}`` document.

    One pass over the whole vertex list checks its shape and that every
    coordinate is a JSON number, and numpy converts it.  Only a document that
    fails a check is walked row by row, to name its first bad vertex.
    """
    with open(path, encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise PolygonFormatError(f"invalid JSON: {exc.msg}", line=exc.lineno) from exc
    if not isinstance(doc, dict) or "dim" not in doc or "vertices" not in doc:
        raise PolygonFormatError('expected an object with "dim" and "vertices"')
    dim = doc["dim"]
    rows = doc["vertices"]
    if not isinstance(dim, int) or dim < 2:
        raise PolygonFormatError(f'"dim" must be an integer >= 2, got {dim!r}')
    if not isinstance(rows, list) or not rows:
        raise PolygonFormatError('"vertices" must be a non-empty list')
    if (
        set(map(type, rows)) == {list}
        and set(map(len, rows)) == {dim}
        and set(map(type, chain.from_iterable(rows))) <= {int, float}  # bools are not numbers
    ):
        try:
            v = np.array(rows, dtype=float)
        except OverflowError:  # an integer beyond float range
            pass
        else:
            if np.isfinite(v).all():
                return Polygon(v)
    return Polygon(np.array(_checked_rows(rows, dim)))


def _checked_rows(rows: list, dim: int) -> list:
    """The rows as lists of floats, or the error naming the first bad vertex."""
    out = []
    for idx, row in enumerate(rows):
        if not isinstance(row, list) or len(row) != dim:
            raise PolygonFormatError(f"vertex {idx} is not a list of {dim} numbers")
        if any(type(c) not in (int, float) for c in row):  # JSON numbers; bools are not
            raise PolygonFormatError(f"vertex {idx} has a non-numeric entry")
        try:
            coords = [float(c) for c in row]
        except OverflowError as exc:  # an integer beyond float range
            raise PolygonFormatError(f"vertex {idx} has a non-numeric entry") from exc
        if not all(math.isfinite(c) for c in coords):
            raise PolygonFormatError(f"vertex {idx} has a non-finite entry")
        out.append(coords)
    return out


def load_polygon_csv(path) -> Polygon:
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise PolygonFormatError("empty file", line=1) from None
        p = len(header)
        if p < 2 or header != [f"x{i + 1}" for i in range(p)]:
            raise PolygonFormatError(
                f"expected header x1,...,xp with p >= 2, got {','.join(header)}", line=1
            )
        out = []
        for line_no, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != p:
                raise PolygonFormatError(
                    f"expected {p} columns, got {len(row)}", line=line_no
                )
            try:
                coords = [float(c) for c in row]
            except ValueError:
                raise PolygonFormatError("non-numeric entry", line=line_no) from None
            if not all(math.isfinite(c) for c in coords):
                raise PolygonFormatError("non-finite entry", line=line_no)
            out.append(coords)
    if not out:
        raise PolygonFormatError("no vertices found")
    return Polygon(np.array(out))


def load_polygon(path) -> Polygon:
    """Dispatch on extension: .json or .csv."""
    name = str(path)
    try:
        if name.endswith(".json"):
            return load_polygon_json(path)
        if name.endswith(".csv"):
            return load_polygon_csv(path)
    except UnicodeDecodeError:
        raise PolygonFormatError("not UTF-8 text") from None
    raise PolygonFormatError(f"unsupported polygon file extension: {name}")
