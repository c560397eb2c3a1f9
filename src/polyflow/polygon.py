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
with ``json`` alone, for a run that writes no float array and so need not
import orjson.  ``csv`` is imported by the CSV loader, and ``heapq`` by a
midpoint reconciliation of fewer than ``SPLIT_ORDER_MIN`` insertions (or
one the global split order cannot tell), at their first call, so that a
run that reads JSON and reconciles nothing loads neither.
"""
from __future__ import annotations

import io
import itertools
import json
import math
from dataclasses import dataclass
from itertools import accumulate, chain, repeat
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
    insertion below ``SPLIT_ORDER_MIN`` insertions, and from there numpy
    selects the k splits a level of the bisection forest at a time, the same
    bits in 13 ms against the heap's 240 ms from 1000 to 65 536 vertices
    (2-vCPU Xeon VM, Python 3.11, numpy 2.4).
    """
    if a.p != b.p:
        raise ValueError(f"ambient dimensions differ: {a.p} != {b.p}")
    if strategy not in ("duplicate", "midpoint"):
        raise ValueError(f"unknown strategy {strategy!r}")
    target = max(a.n, b.n)
    return _grow(a, target, strategy), _grow(b, target, strategy)


# From this many midpoint insertions on, the split order is built in numpy:
# about where both cost the same, ~0.15 ms, for the 4-8 vertex polygons that
# are grown most (2-vCPU Xeon VM, Python 3.11, numpy 2.4).
SPLIT_ORDER_MIN = 64


def _grow(x: Polygon, target: int, strategy: str) -> Polygon:
    if x.n == target:
        return x
    v = x.vertices
    if strategy == "duplicate":
        pad = np.repeat(v[-1:], target - x.n, axis=0)
        return Polygon(np.vstack([v, pad]))
    ends = np.concatenate((v[1:], v[:1]))
    scale = _length_scale(v, ends)
    grown = _split_forest(v, ends, target, scale) if target - x.n >= SPLIT_ORDER_MIN else None
    if grown is None:
        grown = np.array(_bisected(v.tolist(), target, scale))
    return Polygon(grown)


def _length_scale(v: np.ndarray, ends: np.ndarray) -> float:
    """The power of two that midpoint lengths are taken at: 2^e of
    :func:`_shift_near_one` for the widest coordinate difference of an edge
    from ``v`` to ``ends``, taken of halves so that it cannot overflow, and
    at most 2^1023."""
    widest = float(np.abs(0.5 * ends - 0.5 * v).max())
    return math.ldexp(1.0, min(_shift_near_one(widest), 1023))


def _shift_near_one(largest: float) -> int:
    """The exponent e that brings ``largest * 2**e`` into [1/2, 1) when the
    binary exponent of ``largest`` (``math.frexp``) lies beyond +-400,
    roughly outside [2^-400, 2^400]; else 0.  Scaling by ``2**e`` is exact,
    so squares and sums taken after it neither overflow nor underflow."""
    exponent = math.frexp(largest)[1]
    return -exponent if abs(exponent) > 400 else 0


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


def _same_bits(u: list, v: list) -> bool:
    """Whether two rows are bitwise equal: equal, with zeros of one sign."""
    return u == v and all(math.copysign(1.0, s) == math.copysign(1.0, t) for s, t in zip(u, v))


def _bisected(rows: list, target: int, scale: float) -> list:
    """The vertex rows after bisecting the longest edge, ties to the lowest
    current index, until there are ``target`` of them.

    A heap holds every sub-edge keyed on (-squared length, original edge,
    path), where the path is the byte string of left (0) and right (1)
    halvings that made it from its edge.  No leaf's path is a prefix of
    another's, so (edge, path) in tuple order is the current index order.
    Midpoints are ``0.5 * (a + b)`` per coordinate, or ``0.5 * a + 0.5 * b``
    where ``a + b`` overflows.  Lengths are taken of the differences times
    ``scale``, the power of two of :func:`_length_scale`, so that squares
    neither overflow nor underflow; the result is bitwise that of rescanning
    every edge length per insertion, and scaling by a power of two commutes.

    A midpoint bitwise equal to an end of its sub-edge (a constant polygon,
    or ends one float apart) leaves a sub-edge as long as the one split, and
    still the lowest of the longest: it is split again, into the same
    midpoint, for every remaining insertion.  Those copies are placed at once,
    so paths stay short and memory linear in ``target``.
    """
    import heapq

    edges = list(zip(rows, rows[1:] + rows[:1]))
    heap = [(-_squared_length(a, b, scale), edge, b"", a, b) for edge, (a, b) in enumerate(edges)]
    heapq.heapify(heap)
    copies = []
    for count in range(len(rows), target):
        leaf = heap[0]
        _, edge, path, a, b = leaf
        mid = [0.5 * (s + t) for s, t in zip(a, b)]
        if math.inf in mid or -math.inf in mid:  # s + t overflowed: halve each first
            mid = [0.5 * (s + t) if math.isfinite(s + t) else 0.5 * s + 0.5 * t for s, t in zip(a, b)]
        if _same_bits(mid, a) or _same_bits(mid, b):
            copies = [mid] * (target - count)
            break
        heapq.heapreplace(heap, (-_squared_length(a, mid, scale), edge, path + b"\0", a, mid))
        heapq.heappush(heap, (-_squared_length(mid, b, scale), edge, path + b"\1", mid, b))
    heap.sort(key=itemgetter(1, 2))
    grown = [start for _, _, _, start, _ in heap]
    if copies:
        at = heap.index(leaf) + 1
        grown[at:at] = copies
    return grown


_DEEPEST = 61  # the deepest sub-edge split: its midpoint's position is the last bit of an int64


def _split_forest(v: np.ndarray, ends: np.ndarray, target: int, scale: float) -> np.ndarray | None:
    """The rows of :func:`_bisected`, bit for bit, from the global split
    order; None where it cannot tell them, and the heap must.

    A half is never longer than the sub-edge it halves, and its key
    (-squared length, edge, path) sorts after its parent's, so the heap
    splits the nodes of the infinite bisection forest in key order: its
    k = target - n splits are the forest's k smallest keys.  The forest is
    built a level at a time: a node is split (its midpoint and halves made)
    only while it is no shorter than the k-th longest node made so far,
    which every chosen node is, and a zero-length node never is chosen.
    The chosen nodes are those longer than the final k-th longest, then the
    ties at it in (edge, path) order; each midpoint goes after its edge's
    start at the in-order position of its path.  A node at depth d starts
    at ``start`` in units of 2^-62 of its edge, so its midpoint lies at
    ``start + 2^(61 - d)``, and (start, depth) orders paths as the heap's
    byte strings do.

    The heap's answer differs where a chosen midpoint equals an end
    bitwise (its ``copies``), and a split past ``_DEEPEST`` halvings has no
    position: both give None.  Lengths and midpoints are the heap's
    operations on the same floats, so they hold the same bits."""
    n, p = v.shape
    k = target - n
    may_overflow = float(np.abs(v).max()) > 2.0**1022  # a sum of two coordinates can pass float max
    a, b = v, ends
    edge, start = np.arange(n), np.zeros(n, dtype=np.int64)
    length = _squared_lengths(a, b, scale)
    longest, floor = np.empty(0), 0.0  # the k longest lengths made, the least of them once k exist
    levels = []  # per depth: the split nodes' lengths, edges, starts and midpoints
    copied, made = [], 0  # the indices among all split nodes of the copies ones; the count so far
    with np.errstate(over="ignore"):
        for depth in itertools.count():
            longest = np.concatenate((longest, length))
            if longest.size >= k:
                longest = np.partition(longest, longest.size - k)[longest.size - k :]
                floor = longest[0]
            split = length >= floor if floor > 0.0 else length > 0.0
            count = np.count_nonzero(split)
            if not count:
                break
            if depth > _DEEPEST:
                return None
            if count < split.size:
                a, b, edge, start, length = a[split], b[split], edge[split], start[split], length[split]
            if may_overflow:  # halve each first where the sum overflowed
                total = a + b
                mid = np.where(np.isfinite(total), 0.5 * total, 0.5 * a + 0.5 * b)
            else:
                mid = 0.5 * (a + b)
            levels.append((length, edge, start, mid))
            a, b = np.concatenate((a, mid)), np.concatenate((mid, b))
            edge, start = np.concatenate((edge, edge)), np.concatenate((start, start + (1 << (_DEEPEST - depth))))
            length = _squared_lengths(a, b, scale)
            if not length.all():  # a zero-length half: its midpoint may equal an end bitwise
                bits = mid.view(np.int64)
                copies = (bits == a[:count].view(np.int64)).all(axis=1)
                copies |= (bits == b[count:].view(np.int64)).all(axis=1)
                if copies.any():  # the heap places copies from it on; its halves are never made
                    copied.append(made + np.flatnonzero(copies))
                    keep = ~np.concatenate((copies, copies))
                    a, b, edge, start, length = a[keep], b[keep], edge[keep], start[keep], length[keep]
            made += count
    if longest.size < k or floor == 0.0:
        return None
    length, edge, start, mid = map(np.concatenate, zip(*levels))
    depth = np.repeat(np.arange(len(levels)), [level[0].size for level in levels])
    chosen = length > floor
    (ties,) = np.nonzero(length == floor)
    first = np.lexsort((depth[ties], start[ties], edge[ties]))[: k - np.count_nonzero(chosen)]
    chosen[ties[first]] = True
    if copied and chosen[np.concatenate(copied)].any():
        return None
    at = start[chosen] + (1 << (_DEEPEST - depth[chosen]))  # > 0, the edge's start
    order = np.lexsort((np.concatenate((np.zeros(n, dtype=np.int64), at)),
                        np.concatenate((np.arange(n), edge[chosen]))))
    return np.concatenate((v, mid[chosen]))[order]


def _squared_lengths(a: np.ndarray, b: np.ndarray, scale: float) -> np.ndarray:
    """:func:`_squared_length` of each row pair, with its operations: the
    squares summed column by column in index order (from 0.0, which adds
    nothing to a square)."""
    if scale < 1.0:
        d = b * scale - a * scale
    else:
        d = b - a
        if scale > 1.0:
            d *= scale
    d *= d
    total = d[:, 0] + d[:, 1]
    for column in d.T[2:]:
        total += column
    return total


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
    is rounded to the same nearest double by both.

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
