"""Closed polygons in R^p: data model, difference operators, and file formats.

A polygon is an ordered n x p array of vertices with indices mod n.  It may
be non-embedded (edges may cross, vertices may repeat); n = 1 and n = 2 are
accepted here and rejected only by the flow solvers, which need the size-n
difference matrix.
"""
from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass

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


@dataclass(frozen=True)
class RealBasisVectors:
    """Cosine/sine basis pair for mode k: the real and imaginary parts of the
    k-th eigenpolygon, entrywise cos(2 pi j k / n) and sin(2 pi j k / n)."""

    n: int
    k: int
    c: np.ndarray
    s: np.ndarray


def real_basis(n: int, k: int) -> RealBasisVectors:
    """Mode-k cosine/sine vectors; s is identically zero for k = 0 and k = n/2."""
    if not 0 <= k <= n - 1:
        raise ValueError(f"mode index k={k} outside [0, {n - 1}]")
    roots = circulant.roots_of_unity(n)[np.arange(n) * k % n]
    c, s = roots.real.copy(), roots.imag.copy()
    c.flags.writeable = s.flags.writeable = False
    return RealBasisVectors(n=n, k=k, c=c, s=s)


def eigen_polygon(n: int, k: int) -> Polygon:
    """The planar regular (k = 1), star (1 < k < n/2 coprime cases), point
    (k = 0) or segment (k = n/2, n even) polygon with vertex j at angle
    2 pi j k / n on the unit circle."""
    basis = real_basis(n, k)
    return Polygon(np.column_stack([basis.c, basis.s]))


def difference(x: Polygon, m: int, j: int) -> np.ndarray:
    """m-th forward difference at vertex j via the signed binomial form:
    ``sum_k (-1)^(m+k) C(m, k) X_(j+k)``, indices mod n."""
    if m < 1:
        raise ValueError(f"difference order must be >= 1, got {m}")
    v = x.vertices
    acc = np.zeros(x.p)
    for k in range(m + 1):
        acc += ((-1) ** (m + k) * math.comb(m, k)) * v[(j + k) % x.n]
    return acc


def difference_stack(x: Polygon, m: int) -> np.ndarray:
    """All m-th differences at once, by iterating the order-1 operator."""
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


def normals(x: Polygon) -> Polygon:
    """Vertex normals N_j = (X_(j+1) - X_j) + (X_(j-1) - X_j), i.e. M applied to X."""
    if x.n < 3:
        raise ValueError(f"normals need n >= 3, got n = {x.n}")
    return Polygon(circulant.matvec(circulant.second_difference(x.n), x.vertices))


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
    index), so inserted vertices lie on existing segments.
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
    v = x.vertices.copy()
    if strategy == "duplicate":
        pad = np.repeat(v[-1:], target - x.n, axis=0)
        return Polygon(np.vstack([v, pad]))
    verts = list(v)
    # squared edge lengths, kept in step with verts: a split renews two entries
    lengths = [float(np.sum((b - a) ** 2)) for a, b in zip(verts, verts[1:] + verts[:1])]
    while len(verts) < target:
        i = lengths.index(max(lengths))  # the first maximum: lowest index
        a, b = verts[i], verts[(i + 1) % len(verts)]
        mid = 0.5 * (a + b)
        verts.insert(i + 1, mid)
        lengths[i : i + 1] = [float(np.sum((mid - a) ** 2)), float(np.sum((b - mid) ** 2))]
    return Polygon(np.array(verts))


# ---------------------------------------------------------------------------
# File formats.  JSON: {"dim": p, "vertices": [[x1, ..., xp], ...]}.
# CSV: header x1,...,xp then one vertex per row.  Both reject non-finite
# values and ragged rows; floats are written in shortest round-trip form.


def format_float(value: float) -> str:
    return repr(float(value))


def polygon_doc(x: Polygon) -> dict:
    """The JSON document of a polygon, as saved and as reported by the CLI."""
    return {"dim": x.p, "vertices": [[float(c) for c in row] for row in x.vertices]}


def save_polygon_json(x: Polygon, path) -> None:
    with open(path, "w") as fh:
        json.dump(polygon_doc(x), fh)
        fh.write("\n")


def load_polygon_json(path) -> Polygon:
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
    return Polygon(np.array(out))


def save_polygon_csv(x: Polygon, path) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow([f"x{i + 1}" for i in range(x.p)])
        for row in x.vertices:
            writer.writerow([format_float(c) for c in row])


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
