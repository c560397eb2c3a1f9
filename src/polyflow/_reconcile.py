"""The ``midpoint`` reconciliation engine behind
:func:`polygon.reconcile_vertex_counts`: bisection by a heap or by the
global split order.

:func:`polygon.reconcile_vertex_counts` imports this module at its first
``midpoint`` call that grows a polygon, so that a run that grows none by
midpoints, ``duplicate`` padding included, does not compile it.  ``heapq`` is imported by :func:`_bisected`, at its first call.
"""
from __future__ import annotations

import itertools
import math
from operator import itemgetter

import numpy as np

from .polygon import Polygon, _shift_near_one

# From this many midpoint insertions on, the split order is built in numpy:
# about where both cost the same, ~0.15 ms, for the 4-8 vertex polygons that
# are grown most (2-vCPU Xeon VM, Python 3.11, numpy 2.4).
SPLIT_ORDER_MIN = 64


def _grow(x: Polygon, target: int) -> Polygon:
    if x.n == target:
        return x
    v = x.vertices
    ends = np.concatenate((v[1:], v[:1]))
    scale = _length_scale(v, ends)
    grown = _split_forest(v, ends, target, scale) if target - x.n >= SPLIT_ORDER_MIN else None
    if grown is None:
        grown = np.array(_bisected(v.tolist(), target, scale))
    return Polygon(grown)


def _length_scale(v: np.ndarray, ends: np.ndarray) -> float:
    """The power of two that midpoint lengths are taken at: 2^e of
    :func:`polygon._shift_near_one` for the widest coordinate difference of
    an edge from ``v`` to ``ends``, taken of halves so that it cannot
    overflow, and at most 2^1023."""
    widest = float(np.abs(0.5 * ends - 0.5 * v).max())
    return math.ldexp(1.0, min(_shift_near_one(widest), 1023))


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
