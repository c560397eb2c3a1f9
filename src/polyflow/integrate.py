"""Fixed-step RK4 oracle for the polygon flows.

This integrator is deliberately independent of the closed-form solvers: it
sees only the exact integer rows of the flow matrix ``A = (-1)^(m+1) M^m``
(applied to X - Y for the Yau flow), so trajectories it produces validate
the spectral solutions.  The classical fourth-order scheme with a fixed step
keeps the convergence order cleanly measurable; stiffness for large m or n
is handled by a warning and the documented step bound
dt <= 0.1 / |lambda_max|, not by adaptivity.  The flows are linear with
constant coefficients, so one RK4 step of size h is exactly the circulant
S = ``R(hA)``, R the RK4 stability function: its row is built once per step
size from the exact powers A .. A^4 on their band of at most 8m + 1
offsets, each entry rounded once, and a step applies it as one stencil of
five numpy calls.  The results differ from a stage-by-stage evaluation only
at rounding level.  N whole steps are S^N, which a non-stiff run whose N
steps of K offsets apply more than n - 1 offsets, N K > n - 1, builds once
by squaring the float step map over the bits of N, each product one
``np.convolve`` of two rows' nonzero bands.  S^N drops its entries of at
most 2^-60 / n and applies the band left, in passes of at most 64
offsets.  A run that keeps only its final state takes all its whole steps
as one application of S^N; one that keeps every state steps them and ends
them on S^N of the first state, so both end on the same bits.  States are
range-checked in blocks, 64 steps or all of a final-state-only run that
takes S^N.  A run that keeps every state writes each step straight into
its row of the block's (b, n, p) array, from the row before; one that
keeps its final state steps in place.  A block is checked once in the
caller's units and kept whole and read-only: the trajectory holds the
blocks, and a state becomes a polygon only when asked for.  A block that
fails the check is replayed from its first state, checking each step, to
name the first bad one.
"""
from __future__ import annotations

import functools
import math
import sys
import warnings
from dataclasses import dataclass, field

import numpy as np

from . import circulant
from .polygon import Polygon, _shift_near_one


# States a buffer holds: the offsets a map applies per pass, and the steps
# between two range checks of a run that steps its states.
_CHUNK = 64

# |R(-x)| = 1 for the RK4 stability function R at x = 2.78529356340528...;
# this float lies just above that root, so a step with dt * |rate| at or
# beyond it does not damp the fastest mode, and one below it does.
RK4_STABILITY_BOUND = 2.785293563405282


class StiffnessWarning(UserWarning):
    """The chosen step is at or beyond the RK4 stability bound."""


class DivergenceError(OverflowError):
    """The integration state left floating range at ``step``; ``norm`` is the
    sup norm of the state one step earlier, the last one within range.  An
    ``OverflowError``, as ``spectral_flow.FlowRangeError`` is: a state beyond
    float range."""

    def __init__(self, step: int, norm: float):
        self.step = step
        self.norm = norm
        super().__init__(f"non-finite state at step {step} (sup norm {norm!r})")


@dataclass(frozen=True)
class PolyharmonicKind:
    """Right-hand side ``(-1)^(m+1) M^m X``."""

    m: int


@dataclass(frozen=True)
class YauKind:
    """Right-hand side ``(-1)^(m+1) M^m (X - Y)`` toward a fixed target."""

    m: int
    target: Polygon


FlowKind = PolyharmonicKind | YauKind


@dataclass(frozen=True)
class IntegratorConfig:
    dt: float
    t_final: float
    kind: FlowKind

    def __post_init__(self):
        if not (self.dt > 0.0 and math.isfinite(self.dt)):
            raise ValueError(f"dt must be positive and finite, got {self.dt}")
        if not (self.t_final >= 0.0 and math.isfinite(self.t_final)):
            raise ValueError(f"final time must be >= 0, got {self.t_final}")
        if self.kind.m < 1:
            raise ValueError(f"flow order must be >= 1, got {self.kind.m}")


@dataclass(frozen=True, eq=False)
class Trajectory:
    """Retained states of one run of ``steps`` RK4 steps, stamped ``times``.

    Either every state, ``steps + 1`` of them, or only the initial and the
    final state; ``final()`` is the same polygon at the same time either way.
    ``blocks`` holds the states in order as read-only (b, n, p) arrays: the
    initial state's vertices, then each range-checked block's kept states.
    ``polygons`` are views of their rows, made on first access; ``final()``
    reads the last row.
    """

    times: tuple[float, ...]
    blocks: tuple[np.ndarray, ...]
    steps: int
    partial_final_step: bool = field(default=False)

    @functools.cached_property
    def polygons(self) -> tuple[Polygon, ...]:
        return tuple(Polygon._checked(v) for block in self.blocks for v in block)

    def final(self) -> Polygon:
        return Polygon._checked(self.blocks[-1][-1])


def _step_row(n: int, m: int, h: float) -> list[tuple[int, float]]:
    """The nonzero off-centre entries of ``R(hA) - I`` as
    :func:`~polyflow.circulant.folded` (offset, coefficient) pairs, for the
    flow matrix ``A = (-1)^(m+1) M^m`` of size n.

    ``R(z) = 1 + z + z^2/2 + z^3/6 + z^4/24`` is the RK4 stability function:
    one classical RK4 step of ``X' = A X`` is exactly ``X <- R(hA) X``.
    A's row, from :func:`~polyflow.circulant.power_of_m`, is nonzero only
    within m of the centre; read as a polynomial in the shift on those
    offsets, its powers are exact integer ``np.convolve`` products on at
    most 8m + 1 offsets, folded mod n at the end.  Entry s is the rational
    ``sum_k h^k (A^k)_s / k!`` with h taken exactly as
    ``h.as_integer_ratio()``, its numerator summed exactly over the offsets
    that fold onto s and divided by Python's correctly rounded int true
    division; entries that round to 0.0 are dropped.  An entry beyond float
    range, first reached near dt * |rate_max| = 1e77, is an OverflowError:
    its step would turn even a constant state into nan.  Rows of A^k have zero sum, so the step needs
    only the off-centre entries.
    """
    first_row, sign = circulant.power_of_m(n, m).first_row, circulant.flow_sign(m)
    lo, hi = max(-m, -((n - 1) // 2)), min(m, n // 2)  # A's band, each entry once
    a = np.array([sign * first_row[s] for s in range(lo, hi + 1)], dtype=object)
    square = np.convolve(a, a)
    num, den = h.as_integer_ratio()
    exact = np.zeros(4 * (hi - lo) + 1, dtype=object)  # on offsets 4 lo .. 4 hi
    for k, power in enumerate((a, square, np.convolve(square, a), np.convolve(square, square)), 1):
        weight = num**k * den ** (4 - k) * (24 // math.factorial(k))  # h^k / k! times 24 den^4
        exact[(k - 4) * lo : (k - 4) * lo + power.size] += weight * power
    entries = circulant.folded(zip(range(4 * lo, 4 * hi + 1), exact), n)
    denominator = 24 * den**4
    try:
        row = [(s, v / denominator) for s, v in entries if s]  # the centre entry is left out
    except OverflowError:
        raise OverflowError(f"the RK4 step of size {h!r} has coefficients beyond float range") from None
    return [(s, q) for s, q in row if q]


def _row_map(row: list[tuple[int, float]], like: np.ndarray):
    """The circulant map of ``row``'s (offset, coefficient) pairs for states
    of the shape of ``like``: ``apply(src, out)`` writes
    ``out <- src + sum_s q_s (src[j+s] - src[j])``, in ascending s, the sum
    started from +0.0; ``out`` may be ``src`` itself.

    Each application gathers the shifted copies of src, takes the
    differences and the products, and adds them in order with one
    ``np.add.reduce``.  A map of at most :data:`_CHUNK` offsets, as every
    step map for m <= 8 is, keeps its gather index and its coefficients laid
    out as the terms, so the multiply is elementwise, its cheapest form: five
    numpy calls an application.  A wider one, S^N applied once a run, goes
    in passes of :data:`_CHUNK` offsets, each gathered from src written out
    twice and summed after the running sum, so its buffers hold about that
    many states however wide its band.  A constant state has zero
    differences, so it stays bitwise fixed.
    """
    n, shape = like.shape[0], (-1,) + (1,) * like.ndim
    subtract, multiply, add, add_up = np.subtract, np.multiply, np.add, np.add.reduce
    total = np.empty_like(like)
    if len(row) <= _CHUNK:
        idx, (terms, coefficients) = circulant.gather_index(row, n), np.empty((2, len(row)) + like.shape)
        coefficients[...] = np.array([q for _, q in row]).reshape(shape)

        def apply(src: np.ndarray, out: np.ndarray) -> None:
            src.take(idx, 0, terms, "clip")  # in range: "clip" skips a copy
            subtract(terms, src, terms)
            multiply(coefficients, terms, terms)
            add(src, add_up(terms, axis=0, initial=0.0, out=total), out)

        return apply

    parts = [row[i : i + _CHUNK] for i in range(0, len(row), _CHUNK)]
    passes = [(np.array([[s % n] for s, _ in p]), np.array([q for _, q in p]).reshape(shape)) for p in parts]
    span, idx, terms = np.arange(n), np.empty((_CHUNK, n), dtype=np.intp), np.empty((_CHUNK + 1,) + like.shape)

    def apply(src: np.ndarray, out: np.ndarray) -> None:
        doubled = np.concatenate((src, src))  # row s + j is src[(s + j) mod n]
        total.fill(0.0)
        for offsets, column in passes:
            k = offsets.shape[0]
            gathered = terms[1 : k + 1]
            doubled.take(np.add(offsets, span, out=idx[:k]), 0, gathered, "clip")
            terms[0] = total  # the sum so far, then this pass's terms
            subtract(gathered, src, gathered)
            multiply(column, gathered, gathered)
            add_up(terms[: k + 1], axis=0, initial=0.0, out=total)
        add(src, total, out)

    return apply


def _power_row(row: list[tuple[int, float]], n: int, steps: int) -> list[tuple[int, float]]:
    """The off-centre entries of S^steps, steps >= 1, S the float step map of
    ``row`` (a :func:`_step_row`), as banded
    :func:`~polyflow.circulant.folded` pairs.

    S is I + E, E's row ``row``'s entries off the centre and, at the centre,
    minus their correctly rounded sum.  (I + E)^2 = I + (2E + E E), so the
    rungs E_0 = E, E_(i+1) = 2 E_i + E_i E_i make I + E_i = S^(2^i), and
    S^steps is their product over the set bits i of ``steps``, in ascending
    i as (I + P)(I + E_i) = I + ((P + E_i) + P E_i).  No Fourier transform
    is used.  A row is held as its band, the entries at offsets -w .. w, or
    whole, all n of them, once that band would not be shorter.  A product
    is one ``np.convolve`` of the two rows' entries, cut to the band of its
    nonzero ones or folded mod n: a short run's rungs are narrow, a long
    run's far entries underflow to zero.  A sum takes the wider band.
    Entries of at most eps / 256 / n = 2^-60 / n are dropped; they weight
    differences |d[j+s] - d[j]| <= 2 max|d|, so together they move a
    coordinate by less than eps / 128 max|d|.
    """

    def whole(a):  # all n entries of row a, entry s at index s mod n
        w, c = a
        return c if w is None else np.bincount(np.arange(-w, w + 1) % n, c, n)

    def band(w: int, c: np.ndarray):
        """(w, c), c's entries at offsets -w .. w, cut to its nonzero ones' band."""
        nonzero = np.flatnonzero(c)
        v = max(w - nonzero[0], nonzero[-1] - w) if nonzero.size else 0
        c = c[w - v : w + v + 1]
        return (int(v), c) if 2 * v + 1 < n else (None, whole((v, c)))

    def product(a, b):
        (wa, x), (wb, y) = a, b
        full = np.convolve(x, y)
        if wa is None and wb is None:  # entries on offsets 0 .. 2n - 2
            full[: n - 1] += full[n:]
            return None, full[:n]
        if wa is None or wb is None:
            return None, np.bincount((np.arange(full.size) - (wa or 0) - (wb or 0)) % n, full, n)
        return band(wa + wb, full)

    def plus(a, b):
        if a[0] is None or b[0] is None:
            return None, whole(a) + whole(b)
        (wa, x), (wb, y) = (a, b) if a[0] <= b[0] else (b, a)
        out = y.copy()
        out[wb - wa : wb + wa + 1] += x
        return wb, out

    w = max((abs(s) for s, _ in row), default=0)
    c = np.zeros(2 * w + 1)
    c[[w + s for s, _ in row]] = [q for _, q in row]
    c[w] = -math.fsum(q for _, q in row)
    e = band(w, c)
    power = None  # I + power is S to the set bits of steps below the rung
    for rung in range(steps.bit_length()):
        if steps >> rung & 1:
            power = e if power is None else plus(plus(power, e), product(power, e))
        if steps >> rung + 1:
            e = plus((e[0], 2.0 * e[1]), product(e, e))
    w, c = power  # entry s at index s + w, or at s mod n for a whole row
    c[w or 0] = 0.0  # the difference form leaves the centre out
    kept = np.flatnonzero(np.abs(c) > sys.float_info.epsilon / 256 / n)
    return circulant.folded(zip((kept - (w or 0)).tolist(), c[kept].tolist()), n)


def stability_limit(n: int, m: int) -> float:
    """Magnitude of the fastest eigenvalue; RK4 needs dt * this below
    :data:`RK4_STABILITY_BOUND`."""
    return abs(circulant.flow_eigenvalue(n, m, n // 2))


def integrate(x0: Polygon, config: IntegratorConfig, keep_steps: bool = True) -> Trajectory:
    """Classical RK4 with fixed step dt from t = 0 to t = t_final.

    With ``keep_steps`` every accepted state is recorded; without it only
    the initial and the final state are, so memory stays flat in the step
    count.  N = floor(t_final / dt + 1e-9) whole steps are taken; if the
    remainder is more than 1e-12 max(1, t_final), one shorter final step
    lands exactly on t_final and the trajectory is flagged.  State k is
    stamped k dt, and the last one t_final.  An RK4 step of size h is the
    circulant S = ``R(hA)`` (:func:`_step_row`); the run builds one step map
    per step size and applies it to each state in turn.  A Yau run
    advances the difference d = X - Y and its state is Y + d.

    One rule: a run with dt * |rate_max| below :data:`RK4_STABILITY_BOUND`
    whose N whole steps of the K offsets of S apply more offsets than S^N
    can, N K > n - 1, builds S^N (:func:`_power_row`); every other run
    steps.  The last whole state of a run that builds it is S^N of the
    first state: without ``keep_steps`` that is all its whole steps cost,
    with it the states before are stepped.  The partial step follows.
    Both retention modes follow this one definition, so their final states
    are the same bits.

    Each coordinate column whose largest |coordinate|, in the state or the
    Yau target, lies outside the band of
    :func:`~polyflow.polygon._shift_near_one`, about [2^-400, 2^400], runs
    times the exact power of two that brings that largest one near one, in
    both, and retained states are scaled back.  No map mixes columns and
    scaling commutes with every operation, so only over- and underflow
    change, and a column near one keeps its bits beside one near float max.
    A state whose coordinates leave float range (in the caller's units)
    aborts with :class:`DivergenceError`, naming the first such step and
    the sup norm, in the caller's units, of the state before it.  States
    are checked in blocks of 64 steps from step 0, or all at once in a
    final-state-only run that takes S^N.  Each block's kept states, all
    with ``keep_steps`` and otherwise its last, fill one (b, n, p) array:
    with ``keep_steps`` each step maps its row's predecessor (the block's
    first state for row 0) straight into its row, and otherwise the run
    steps in place and the last state is copied in.  A Yau run adds its
    target to the block once; the block is scaled back and checked once
    with ``np.isfinite``, then kept whole and read-only in
    ``Trajectory.blocks``, whose rows share no memory.  A failed check
    replays its block bit for bit from a copy of its first state, checking
    every step, so either retention mode names the first out-of-range step.
    (A scaled-down lean run that does not fail may pass float max in the
    caller's units between two checks: only kept states must be
    representable.)
    """
    kind = config.kind
    if isinstance(kind, YauKind):
        if kind.target.p != x0.p:
            raise ValueError(f"target dimension {kind.target.p} != state dimension {x0.p}")
        if kind.target.n != x0.n:
            raise ValueError(f"target has {kind.target.n} vertices, state has {x0.n}")
    if x0.n < 3:
        raise ValueError(f"flow needs n >= 3, got n = {x0.n}")
    rate = stability_limit(x0.n, kind.m)
    if config.dt * rate >= RK4_STABILITY_BOUND:
        warnings.warn(
            f"dt={config.dt} exceeds the RK4 stability bound for the fastest "
            f"mode (|rate|={rate:.6g}); use dt <= {0.1 / rate:.3g}",
            StiffnessWarning,
            stacklevel=2,
        )

    dt, t_final = config.dt, config.t_final
    n_full = int(math.floor(t_final / dt + 1e-9))
    remainder = t_final - n_full * dt
    partial = remainder > 1e-12 * max(1.0, abs(t_final))
    n_steps = n_full + partial

    # each column runs times its own exact power of two: differences of coordinates near
    # float max must not overflow before they are weighted, and no map mixes columns
    largest = np.abs(x0.vertices).max(axis=0)
    target = kind.target.vertices if isinstance(kind, YauKind) else None
    if target is not None:
        largest = np.maximum(largest, np.abs(target).max(axis=0))
    shifts = np.array([_shift_near_one(c) for c in largest.tolist()])
    shifted = bool(shifts.any())
    unshifts = -shifts
    if target is not None and shifted:
        target = np.ldexp(target, shifts)

    d, start = np.empty_like(x0.vertices), np.empty_like(x0.vertices)
    np.ldexp(x0.vertices, shifts, d)  # exact, shift 0 included
    if target is not None:
        np.subtract(d, target, d)
    origin = d.copy()  # the first state, which S^N maps to the last whole one
    row = _step_row(x0.n, kind.m, dt)
    whole = _row_map(row, d)
    short = _row_map(_step_row(x0.n, kind.m, remainder), d) if partial else whole
    # S^N applies at most n - 1 offsets, so it serves a non-stiff run whose steps apply more
    powered = dt * rate < RK4_STABILITY_BOUND and n_full * len(row) > x0.n - 1
    power = _row_map(_power_row(row, x0.n, n_full), d) if powered else None  # S^N
    mapped = power is not None and not keep_steps  # the whole steps go as one application of S^N

    def advance(step: int, source: np.ndarray, out: np.ndarray) -> None:
        """out <- state step + 1: one step from ``source``, state step, or,
        for the last whole state, S^N of the first state."""
        if step == n_full - 1 and power is not None:
            power(origin, out)
        else:
            (whole if step < n_full else short)(source, out)

    def replay(first: int, last: int, checked: np.ndarray) -> None:
        """Repeats steps first + 1 .. last of the block bit for bit from its
        first state, ``checked`` in the caller's units, and raises at the
        first state whose sup norm there is past float max (inf, or nan for a
        nan state)."""
        np.copyto(d, start)
        norm, v = float(np.abs(checked).max()), np.empty_like(d)
        for step in range(first, last):
            advance(step, d, d)
            np.abs(d if target is None else np.add(target, d, v), v)
            size = float((np.ldexp(v, unshifts, v) if shifted else v).max())
            if not size <= sys.float_info.max:
                raise DivergenceError(step=step + 1, norm=norm)
            norm = size

    times, blocks = [0.0], [x0.vertices[None]]
    checked = x0.vertices  # the last state that passed the range check
    block = n_steps if mapped else _CHUNK
    with np.errstate(over="ignore", invalid="ignore"):
        # blowup is found by the range check and reported as DivergenceError
        for first in range(0, n_steps, block):
            last = min(first + block, n_steps)
            np.copyto(start, d)
            kept = range(first + 1 if keep_steps else last, last + 1)
            states = np.empty((len(kept),) + d.shape)
            if keep_steps:  # each step writes its row from the row before
                source = d
                for step, out in zip(range(first, last), states):
                    advance(step, source, out)
                    source = out
                np.copyto(d, source)
            else:
                for step in range(n_full - 1 if mapped else first, last):  # mapped: S^N, then the partial step
                    advance(step, d, d)
                np.copyto(states[0], d)
            if target is not None:
                np.add(states, target, states)
            if shifted:
                np.ldexp(states, unshifts, states)
            if not np.isfinite(states).all():
                replay(first, last, checked)
            checked = states[-1]
            if keep_steps or last == n_steps:
                states.flags.writeable = False  # checked: the trajectory keeps the block itself
                times.extend(step * dt if step < n_steps else t_final for step in kept)
                blocks.append(states)
    return Trajectory(times=tuple(times), blocks=tuple(blocks), steps=n_steps, partial_final_step=partial)
