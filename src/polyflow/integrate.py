"""Fixed-step RK4 oracle for the polygon flows.

This integrator is deliberately independent of the closed-form solvers: it
sees only the exact integer rows of the flow matrix ``A = (-1)^(m+1) M^m``
(applied to X - Y for the Yau flow), so trajectories it produces validate
the spectral solutions.  The classical fourth-order scheme with a fixed step
keeps the convergence order cleanly measurable; stiffness for large m or n
is handled by a warning and the documented step bound
dt <= 0.1 / |lambda_max|, not by adaptivity.  The flows are linear with
constant coefficients, so one RK4 step of size h is exactly the circulant
``R(hA)``, R the RK4 stability function: its row is built once per step size
from the exact powers A .. A^4, each entry rounded once, and a step applies
it as one stencil of five numpy calls.  The results differ from a
stage-by-stage evaluation only at rounding level.  Whole steps go in blocks
of 64 when that pays: the last state of each block is one circulant B, the
float step map to the 64th power built from the step's row by six cyclic
self-convolutions, applied to the block's first state by the same stencil,
so 64 steps cost five numpy calls instead of 320.  The r < 64 whole steps
left after the full blocks go the same way by L, the step map to the r-th
power, the product of the squarings' rungs over the set bits of r.  Both
are smoothing kernels: each drops its off-centre entries of at most
2^-60 / n, which moves a state by less than eps / 128 of its size, and
applies only the band of offsets left, 48-76 of 255 at n = 256 and
dt * |rate_max| = 0.1.  B and L differ from their steps only at rounding
level.
Steps run in place on vertex arrays allocated once per run.  A run keeps
every state, or only the initial and final ones, so its memory need not grow
with the step count.  Each block writes the states it keeps into one array,
range-checked once in the caller's units, and keeps them as read-only views
of it.  A block that fails the check is replayed from its first state,
checking each step, to name the first bad one.
"""
from __future__ import annotations

import math
import sys
import warnings
from dataclasses import dataclass, field

import numpy as np

from . import circulant
from .polygon import Polygon, _shift_near_one


# Steps in a block, between two range checks: the power of the step map that
# the block map B, the step map squared six times, applies.
_SQUARINGS = 6
_CHECK_BLOCK = 2**_SQUARINGS

# B and L are built only when their at most n - 1 off-centre entries times
# the n * p state entries fit in this many floats, so each map's terms and
# coefficients take at most 4 MiB and its row index at most half that; at
# larger n, where elementwise work already dominates the per-call overhead
# that B saves, runs keep stepping.  Banded, a map's buffers take only
# band * n * p floats, its kept offsets times the state entries, but the
# cap stays on n - 1: whether a run blocks depends on its size alone.
_BLOCK_FLOATS = 2**18

# |R(-x)| = 1 for the RK4 stability function R at x = 2.78529356340528...;
# this float lies just above that root, so a step with dt * |rate| at or
# beyond it does not damp the fastest mode, and one below it does.
RK4_STABILITY_BOUND = 2.785293563405282


class StiffnessWarning(UserWarning):
    """The chosen step is at or beyond the RK4 stability bound."""


class DivergenceError(RuntimeError):
    """The integration state left floating range at ``step``; ``norm`` is the
    sup norm of the state one step earlier, the last one within range."""

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


@dataclass(frozen=True)
class Trajectory:
    """Retained states (time, polygon) of one run of ``steps`` RK4 steps.

    Either every state, ``steps + 1`` of them, or only the initial and the
    final state; ``final()`` is the same polygon at the same time either way.
    """

    times: tuple[float, ...]
    polygons: tuple[Polygon, ...]
    steps: int
    partial_final_step: bool = field(default=False)

    def final(self) -> Polygon:
        return self.polygons[-1]


def _flow_powers(n: int, m: int) -> tuple[circulant.CirculantMatrix, ...]:
    """The exact integer rows of A, A^2, A^3 and A^4 for the flow matrix
    ``A = (-1)^(m+1) M^m`` of size n."""
    sign = circulant.flow_sign(m)
    a = circulant.CirculantMatrix(n, tuple(sign * b for b in circulant.power_of_m(n, m).first_row))
    a2 = circulant.circulant_multiply(a, a)
    return a, a2, circulant.circulant_multiply(a2, a), circulant.circulant_multiply(a2, a2)


def _step_row(powers: tuple[circulant.CirculantMatrix, ...], h: float) -> list[tuple[int, float]]:
    """The nonzero off-centre entries of ``R(hA) - I`` as
    :func:`~polyflow.circulant.folded` (offset, coefficient) pairs.

    ``R(z) = 1 + z + z^2/2 + z^3/6 + z^4/24`` is the RK4 stability function:
    one classical RK4 step of ``X' = A X`` is exactly ``X <- R(hA) X``.  Entry
    s of ``R(hA) - I`` is the rational ``sum_k h^k (A^k)_s / k!`` with h
    taken exactly as ``h.as_integer_ratio()``; Python's int true division
    rounds it correctly.  A's nonzero entries lie within ``reach`` of the
    centre, cyclically, so those of A^k lie within k * reach and only the
    band of offsets within 4 * reach is visited.  An entry beyond float
    range, first reached near dt * |rate_max| = 1e77, is an OverflowError:
    its step would turn even a constant state into nan.  Rows of A^k have
    zero sum, so the centre entry is minus the sum of the others and the
    step needs only the off-centre ones.
    """
    n = powers[0].n
    reach = max(min(s, n - s) for s, a in enumerate(powers[0].first_row) if a)
    num, den = h.as_integer_ratio()
    weights = [num**k * den ** (4 - k) * (24 // math.factorial(k)) for k in range(1, 5)]
    denominator = 24 * den**4
    row = [0.0] * n  # the centre entry stays 0.0, left out
    for s in {s % n for s in range(-4 * reach, 4 * reach + 1)} - {0}:
        exact = sum(w * a.first_row[s] for w, a in zip(weights, powers))
        try:
            row[s] = exact / denominator
        except OverflowError:
            raise OverflowError(f"the RK4 step of size {h!r} has coefficients beyond float range") from None
    return circulant.folded(row)


def _row_map(row: list[tuple[int, float]], like: np.ndarray):
    """The circulant map of ``row``'s (offset, coefficient) pairs for states
    of the shape of ``like``, in place: ``d <- d + sum_s q_s (d[j+s] - d[j])``
    in ascending s, the sum started from +0.0.

    Five numpy calls an application: the shifted copies of d gathered with
    one ``take``, the differences, the products, one ``np.add.reduce`` and
    the update.  A constant state has zero differences, so it stays bitwise
    fixed.  The map's buffers are bound to ``like``'s shape once.
    """
    idx = circulant.gather_index(row, like.shape[0])
    terms = np.empty(idx.shape + like.shape[1:])
    # coefficients laid out as the terms make the multiply an elementwise one, its cheapest form
    column = np.array([q for _, q in row]).reshape((-1,) + (1,) * like.ndim)
    coefficients = np.broadcast_to(column, terms.shape).copy()
    total = np.empty_like(like)
    subtract, multiply, add, add_up = np.subtract, np.multiply, np.add, np.add.reduce

    def apply(d: np.ndarray) -> None:
        d.take(idx, 0, terms, "clip")  # in range: "clip" skips a copy
        subtract(terms, d, terms)
        multiply(coefficients, terms, terms)
        add(d, add_up(terms, axis=0, initial=0.0, out=total), d)

    return apply


def _cyclic_product(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The first row of the product of the circulants with rows ``a`` and
    ``b``: one ``np.convolve`` of the two length-n rows, entry k + n folded
    onto entry k.  No Fourier transform is used."""
    n = a.shape[0]
    full = np.convolve(a, b)
    full[: n - 1] += full[n:]
    return full[:n]


def _power_rows(row: list[tuple[int, float]], n: int, leftover: int):
    """The rows of the block map B, :data:`_CHECK_BLOCK` = 2^6 applications
    of the float step map of ``row``, the step's :func:`_step_row`, and of
    the leftover map L, ``leftover`` < 2^6 applications of it (None when
    ``leftover`` is 0), as banded :func:`~polyflow.circulant.folded` pairs
    for :func:`_row_map`.

    The float step map is I + E, E the circulant whose row holds ``row``'s
    entries off the centre and, at the centre, minus their correctly rounded
    sum.  Squaring gives (I + E)^2 = I + (2E + E E), so six rounds of
    E <- 2E + E E make the 64th power I + E, each product E E one
    :func:`_cyclic_product`.  L is the product of the rungs I + E_i of that
    ladder over the set bits i of ``leftover``, taken in ascending i as
    (I + P)(I + E_i) = I + (P + E_i + P E_i).  Both maps smooth: an
    off-centre entry of magnitude at most eps / 256 / n = 2^-60 / n is
    dropped, and those dropped weight differences |d[j+s] - d[j]| <=
    2 max|d|, so together they move a coordinate by less than
    eps / 128 max|d|.  At dt * |rate_max| = 0.1 and n = 256, B keeps 48, 64
    and 76 of its 255 off-centre entries for m = 1, 2, 3.
    """
    e = np.zeros(n)
    e[[s % n for s, _ in row]] = [q for _, q in row]
    e[0] = -math.fsum(q for _, q in row)
    power = None  # I + power is the float step map to the set bits of leftover below the rung
    for rung in range(_SQUARINGS):
        if leftover >> rung & 1:
            power = e if power is None else power + e + _cyclic_product(power, e)
        e = 2.0 * e + _cyclic_product(e, e)
    cut = sys.float_info.epsilon / 256 / n

    def banded(p: np.ndarray) -> list[tuple[int, float]]:
        p[np.abs(p) <= cut] = 0.0
        return circulant.folded([0.0] + p[1:].tolist())  # the difference form leaves the centre out

    return banded(e), None if power is None else banded(power)


def stability_limit(n: int, m: int) -> float:
    """Magnitude of the fastest eigenvalue; RK4 needs dt * this below
    :data:`RK4_STABILITY_BOUND`."""
    return abs(circulant.flow_eigenvalue(n, m, n // 2))


def integrate(x0: Polygon, config: IntegratorConfig, keep_steps: bool = True) -> Trajectory:
    """Classical RK4 with fixed step dt from t = 0 to t = t_final.

    With ``keep_steps`` every accepted state is recorded; without it only
    the initial and the final state are, so memory stays flat in the step
    count.  If t_final is not a whole number of steps, one shorter final
    step lands exactly on t_final and the trajectory is flagged.  The flow
    is linear with constant coefficients, so an RK4 step of size h is the
    circulant ``R(hA)`` (:func:`_step_row`); the run builds one step map
    per step size and advances the state in place with it.  A Yau run
    advances the difference d = X - Y and its state is Y + d.

    Steps are grouped in blocks of 64 from step 0.  A run of at least 64
    whole steps with dt * |rate_max| below :data:`RK4_STABILITY_BOUND` and
    (n - 1) * n * p at most 2^18 (B has at most n - 1 off-centre entries,
    each applied to all n * p coordinates) also builds the block map B
    and, when the whole steps leave r = n_full mod 64 > 0 after the full
    blocks, the leftover map L, each once (:func:`_power_rows`).  Then the
    last state of every full block of 64 whole steps is B applied to the
    block's first state, and the last whole state is L applied to the first
    state of its block; the states in between are stepped one at a time
    from that first state when they are kept or replayed, and skipped
    otherwise.  The partial step goes alone, as every step of any other run
    does.  Both retention modes follow this one definition, so their final
    states are the same bits.

    Each coordinate column whose largest |coordinate|, in the state or the
    Yau target, lies outside the band of
    :func:`~polyflow.polygon._shift_near_one`, about [2^-400, 2^400], runs
    times the exact power of two that brings that largest one near one, in
    both, and retained states are scaled back.  No map mixes columns and
    scaling commutes with every operation, so only over- and underflow
    change, and a column near one keeps its bits beside one near float max.
    A state whose coordinates leave float range (in the caller's units)
    aborts with :class:`DivergenceError`, naming the first such step and
    the sup norm, in the caller's units, of the state before it.  Each
    block writes the states it keeps, all of them with ``keep_steps`` and
    otherwise its last, into one array, scales it back to the caller's
    units and checks it once, in both retention modes, with
    ``np.isfinite``; a kept block's rows are then read-only polygons,
    views that share no memory with each other.  A lean block before the
    last writes its state into one of two rows of a run-level buffer, so
    the previous block's checked state stays.  A failed check replays its
    block bit for bit from a copy of the block's first state, checking every step, so either
    retention mode names the first out-of-range step; a diverging run
    costs up to 64 more steps.  (A scaled-down lean run that does not fail
    may pass float max in the caller's units between two checks: only
    kept states must be representable.)
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
    powers = _flow_powers(x0.n, kind.m)
    row = _step_row(powers, dt)
    whole = _row_map(row, d)
    short = _row_map(_step_row(powers, remainder), d) if partial else whole
    # steps [0, blocked) go in full blocks whose last state is B of their first, the rest's last whole one by L
    blocked, block, leftover = 0, None, None
    if n_full >= _CHECK_BLOCK and dt * rate < RK4_STABILITY_BOUND and (x0.n - 1) * d.size <= _BLOCK_FLOATS:
        blocked = n_full - n_full % _CHECK_BLOCK
        rows = _power_rows(row, x0.n, n_full - blocked)
        block, leftover = (None if r is None else _row_map(r, d) for r in rows)

    def power_map(first: int):
        """(jump, map): state jump + 1 of the block from step ``first`` is
        ``map`` of the block's first state, B for a full block and L for the
        leftover whole steps after them; map is None when the block has none."""
        if first < blocked:
            return first + _CHECK_BLOCK - 1, block
        return n_full - 1, leftover

    def state(out: np.ndarray) -> np.ndarray:
        """``out`` <- the state, still at the run's scale."""
        np.copyto(out, d) if target is None else np.add(target, d, out)
        return out

    def advance(step: int, jump: int, power) -> None:
        """d <- state step + 1 from state step, or, at step ``jump``, from the
        block's first state (in ``start``) by its power map ``power``."""
        if step == jump and power is not None:
            np.copyto(d, start)
            power(d)
        else:
            (whole if step < n_full else short)(d)

    def replay(first: int, last: int, checked: np.ndarray) -> None:
        """Repeats steps first + 1 .. last of the block bit for bit from its
        first state, ``checked`` in the caller's units, and raises at the
        first state whose sup norm there is past float max (inf, or nan for a
        nan state)."""
        np.copyto(d, start)
        norm, v = float(np.abs(checked).max()), np.empty_like(d)
        for step in range(first, last):
            advance(step, *power_map(first))
            np.abs(state(v), v)
            size = float((np.ldexp(v, unshifts, v) if shifted else v).max())
            if not size <= sys.float_info.max:
                raise DivergenceError(step=step + 1, norm=norm)
            norm = size

    times, polygons = [0.0], [x0]
    checked = x0.vertices  # the last state that passed the range check
    lean = np.empty((2, 1) + d.shape)  # a lean block's last state, rows alternating so the previous one stays
    with np.errstate(over="ignore", invalid="ignore"):
        # blowup is found by the range check and reported as DivergenceError
        for first in range(0, n_steps, _CHECK_BLOCK):
            last = min(first + _CHECK_BLOCK, n_steps)
            jump, power = power_map(first)
            np.copyto(start, d)
            kept = range(first + 1 if keep_steps else last, last + 1)
            retained = keep_steps or last == n_steps
            states = np.empty((len(kept),) + d.shape) if retained else lean[first // _CHECK_BLOCK % 2]
            begin = first
            if not keep_steps and power is not None:  # d holds the block's first state: map it in place
                power(d)
                begin = jump + 1
            for step in range(begin, last):
                advance(step, jump, power)
                if keep_steps:
                    state(states[step - first])
            if not keep_steps:
                state(states[0])
            if shifted:
                np.ldexp(states, unshifts, states)
            if not np.isfinite(states).all():
                replay(first, last, checked)
            checked = states[-1]
            if retained:
                states.flags.writeable = False  # checked: each kept state is a view of the block
                times.extend(step * dt if step <= n_full else t_final for step in kept)
                polygons.extend(map(Polygon._checked, states))
    return Trajectory(
        times=tuple(times), polygons=tuple(polygons), steps=n_steps, partial_final_step=partial
    )
