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
stage-by-stage evaluation only at rounding level.  Steps run in place on
vertex arrays allocated once per run; a run keeps every state as a polygon,
or only the initial and final ones, so its memory need not grow with the
step count.  A diverging run is replayed from its start, checking each step,
to name the first bad one.
"""
from __future__ import annotations

import math
import sys
import warnings
from dataclasses import dataclass, field

import numpy as np

from . import circulant
from .polygon import Polygon, _shift_near_one


# Steps between range checks when only the final state is kept; a check costs
# about a third of a step at n = 24, and a fifth (m = 1) to a tenth (m = 3) at
# n = 256, so a block spends under 1% of its time on its check.
_CHECK_BLOCK = 64

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
    """The nonzero off-centre entries of ``R(hA) - I`` as ascending (offset,
    coefficient) pairs, offsets folded to (-n/2, n/2].

    ``R(z) = 1 + z + z^2/2 + z^3/6 + z^4/24`` is the RK4 stability function:
    one classical RK4 step of ``X' = A X`` is exactly ``X <- R(hA) X``.  Entry
    s of ``R(hA) - I`` is the rational ``sum_k h^k (A^k)_s / k!`` with h
    taken exactly as ``h.as_integer_ratio()``; Python's int true division
    rounds it correctly.  An entry beyond float range, first reached near
    dt * |rate_max| = 1e77, is an OverflowError: its step would turn even
    a constant state into nan.  Rows of A^k have zero sum, so the centre
    entry is minus the sum of the others and the step needs only the
    off-centre ones.
    """
    num, den = h.as_integer_ratio()
    weights = [num**k * den ** (4 - k) * (24 // math.factorial(k)) for k in range(1, 5)]
    denominator = 24 * den**4
    n = powers[0].n
    row = []
    for s in range(1, n):
        exact = sum(w * a.first_row[s] for w, a in zip(weights, powers))
        try:
            q = exact / denominator
        except OverflowError:
            raise OverflowError(f"the RK4 step of size {h!r} has coefficients beyond float range") from None
        if q:
            row.append((s if 2 * s <= n else s - n, q))
    return sorted(row)


def _step_map(powers: tuple[circulant.CirculantMatrix, ...], h: float, like: np.ndarray):
    """One RK4 step of size h for states of the shape of ``like``, in place:
    ``d <- d + sum_s q_s (d[j+s] - d[j])`` over :func:`_step_row`'s entries
    in ascending s, the sum started from +0.0.

    Five numpy calls a step: the shifted copies of d gathered with one
    ``take``, the differences, the products, one ``np.add.reduce`` and the
    update.  A constant state has zero differences, so it stays bitwise
    fixed.  The map's buffers are bound to ``like``'s shape once.
    """
    row = _step_row(powers, h)
    n = like.shape[0]
    idx = (np.array([s for s, _ in row], dtype=np.intp)[:, None] + np.arange(n)) % n
    terms = np.empty(idx.shape + like.shape[1:])
    # coefficients laid out as the terms make the multiply an elementwise one, its cheapest form
    column = np.array([q for _, q in row]).reshape((-1,) + (1,) * like.ndim)
    coefficients = np.broadcast_to(column, terms.shape).copy()
    total = np.empty_like(like)
    subtract, multiply, add, add_up = np.subtract, np.multiply, np.add, np.add.reduce

    def step(d: np.ndarray) -> None:
        d.take(idx, 0, terms, "clip")  # in range: "clip" skips a copy
        subtract(terms, d, terms)
        multiply(coefficients, terms, terms)
        add(d, add_up(terms, axis=0, initial=0.0, out=total), d)

    return step


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
    When the largest |coordinate| of the state or the Yau target lies
    outside the band of :func:`~polyflow.polygon._shift_near_one`, about
    [2^-400, 2^400], both run times the exact power of two that brings it
    near one, and retained states are scaled back; scaling commutes with
    every operation, so only over- and underflow change.
    A state whose coordinates leave float range (in the caller's units)
    aborts with :class:`DivergenceError`, naming the first such step and
    the sup norm of the state before it.  The range is checked once per
    block of steps, one step when every state is kept and 64 otherwise, the
    shorter final step riding in the last block.  A failed check replays
    the run bit for bit from its start, checking every step, so either
    retention mode names the first out-of-range step; a diverging run
    costs up to twice its steps.  (A scaled-down run that does not fail
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

    # differences of coordinates near float max must not overflow before they are weighted
    largest = np.abs(x0.vertices).max()
    target = kind.target.vertices if isinstance(kind, YauKind) else None
    if target is not None:
        largest = max(largest, np.abs(target).max())
    shift = _shift_near_one(largest)
    limit = math.ldexp(sys.float_info.max, min(shift, 0))  # largest |state| that scales back finite
    if target is not None and shift:
        target = np.ldexp(target, shift)

    d, u = np.empty_like(x0.vertices), np.empty_like(x0.vertices)

    def begin() -> None:
        """d <- the initial state, or its difference from the target, at the run's scale."""
        np.ldexp(x0.vertices, shift, d)  # exact, shift 0 included
        if target is not None:
            np.subtract(d, target, d)

    begin()
    powers = _flow_powers(x0.n, kind.m)
    whole = _step_map(powers, dt, d)
    short = _step_map(powers, remainder, d) if partial else whole

    def state() -> np.ndarray:
        return d if target is None else np.add(target, d, u)

    def sup() -> float:
        return float(np.abs(state(), u).max())  # nan for a nan state

    def kept() -> Polygon:
        """A copy of the state, which a range check has passed, as a polygon."""
        v = state()
        return Polygon._checked(np.ldexp(v, -shift) if shift else v.copy())

    times = [0.0]
    polygons = [x0]
    block = 1 if keep_steps else _CHECK_BLOCK
    with np.errstate(over="ignore", invalid="ignore"):
        # blowup is found by the range checks and reported as DivergenceError
        for first in range(0, n_steps, block):
            last = min(first + block, n_steps)
            for step in range(first, last):
                (whole if step < n_full else short)(d)
            if not sup() <= limit:
                # the replay repeats the run from its start bit for bit, checking each step
                begin()
                norm = float(np.abs(x0.vertices).max())
                for step in range(last):
                    (whole if step < n_full else short)(d)
                    size = sup()
                    if not size <= limit:
                        raise DivergenceError(step=step + 1, norm=norm)
                    norm = math.ldexp(size, -shift)
            if keep_steps or last == n_steps:
                times.append(last * dt if last <= n_full else t_final)
                polygons.append(kept())
    return Trajectory(
        times=tuple(times), polygons=tuple(polygons), steps=n_steps, partial_final_step=partial
    )
