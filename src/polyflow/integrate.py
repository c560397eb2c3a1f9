"""Fixed-step RK4 oracle for the polygon flows.

This integrator is deliberately independent of the closed-form solvers: it
sees only the right-hand side ``(-1)^(m+1) M^m X`` (or the same applied to
X - Y), so trajectories it produces validate the spectral solutions.  The
classical fourth-order scheme with a fixed step keeps the convergence order
cleanly measurable; stiffness for large m or n is handled by a warning and
the documented step bound dt <= 0.1 / |lambda_max|, not by adaptivity.
Steps run in place on vertex arrays allocated once per run; a run keeps
every state as a polygon, or only the initial and final ones, so its memory
need not grow with the step count.  A step is ~24 numpy calls on arrays of a
few KB, so the fixed cost of a call, not the arithmetic, sets its time: the
right-hand side and its ``M^m`` stencil are bound to the state's shape once
per run, and the stage coefficients are 0-d float64 arrays.  A diverging run
is replayed from its start, checking each step, to name the first bad one.
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
# about a ninth of a step at n = 24 and an eleventh at n = 256.
_CHECK_BLOCK = 64


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


def _rhs_function(state: np.ndarray, kind: FlowKind, shift: int = 0):
    """Build the vectorized right-hand side for vertex arrays of the shape
    and dtype of ``state``.

    The map returns a new velocity array, or writes it into ``out`` (which
    may be the input itself) and returns that.  A Yau target is taken times
    ``2**shift``, the scale at which :func:`integrate` runs the state.  One
    closure subtracts the target, if any, applies the stencil and negates for
    an even order; for an odd order without a target the map is the stencil.
    """
    n = state.shape[0]
    apply_m = circulant.stencil(circulant.power_of_m(n, kind.m), state)
    target = None
    if isinstance(kind, YauKind):
        if kind.target.n != n:
            raise ValueError(f"target has {kind.target.n} vertices, state has {n}")
        target = np.ldexp(kind.target.vertices, shift) if shift else kind.target.vertices
    negate = circulant.flow_sign(kind.m) == -1  # 1 * x is exact, so odd orders skip the sign pass
    if target is None and not negate:
        return apply_m
    sign = np.array(-1.0)

    def velocity(v: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        w = apply_m(v if target is None else np.subtract(v, target, out), out)
        return np.multiply(w, sign, w) if negate else w

    return velocity


def stability_limit(n: int, m: int) -> float:
    """Magnitude of the fastest eigenvalue; RK4 needs dt * this < 2.785."""
    return abs(circulant.flow_eigenvalue(n, m, n // 2))


def integrate(x0: Polygon, config: IntegratorConfig, keep_steps: bool = True) -> Trajectory:
    """Classical RK4 with fixed step dt from t = 0 to t = t_final.

    With ``keep_steps`` every accepted state is recorded; without it only
    the initial and the final state are, so memory stays flat in the step
    count.  If t_final is not a whole number of steps, one shorter final
    step lands exactly on t_final and the trajectory is flagged.  The state
    advances in place, in the operations and order of the textbook stages.
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
    if isinstance(config.kind, YauKind) and config.kind.target.p != x0.p:
        raise ValueError(
            f"target dimension {config.kind.target.p} != state dimension {x0.p}"
        )
    if x0.n < 3:
        raise ValueError(f"flow needs n >= 3, got n = {x0.n}")
    rate = stability_limit(x0.n, config.kind.m)
    if config.dt * rate > 2.8:
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

    # the stencil's terms (-2 * 1e308 for m = 1) must not overflow before they cancel
    largest = np.abs(x0.vertices).max()
    if isinstance(config.kind, YauKind):
        largest = max(largest, np.abs(config.kind.target.vertices).max())
    shift = _shift_near_one(largest)
    limit = math.ldexp(sys.float_info.max, min(shift, 0))  # largest |state| that scales back finite

    v = np.ldexp(x0.vertices, shift)  # a new array; exact, shift 0 included
    f = _rhs_function(v, config.kind, shift)
    u, k1, k2, k3, k4 = (np.empty_like(v) for _ in range(5))
    # ufuncs looked up once and 0-d float64 coefficients: the same products as
    # with Python floats, at a lower fixed cost per call
    add, multiply, two = np.add, np.multiply, np.array(2.0)

    def advance(h: np.ndarray, half: np.ndarray, sixth: np.ndarray) -> None:
        """One RK4 step of v in place: v + (h/6) (k1 + 2 (k2 + k3) + k4)."""
        f(v, k1)
        f(add(v, multiply(k1, half, u), u), k2)
        f(add(v, multiply(k2, half, u), u), k3)
        f(add(v, multiply(k3, h, u), u), k4)
        add(k2, k3, u)
        multiply(u, two, u)
        add(k1, u, u)
        add(u, k4, u)
        add(v, multiply(u, sixth, u), v)

    def in_range() -> bool:
        return np.abs(v, u).max() <= limit  # False on nan

    def kept(w: np.ndarray) -> Polygon:
        """A copy of the state w, which ``in_range`` has checked, as a polygon."""
        return Polygon._checked(np.ldexp(w, -shift) if shift else w.copy())

    times = [0.0]
    polygons = [x0]
    block = 1 if keep_steps else _CHECK_BLOCK
    whole = np.array(dt), np.array(0.5 * dt), np.array(dt / 6.0)
    short = np.array(remainder), np.array(0.5 * remainder), np.array(remainder / 6.0)
    with np.errstate(over="ignore", invalid="ignore"):
        # blowup is found by the range checks and reported as DivergenceError
        for first in range(0, n_steps, block):
            last = min(first + block, n_steps)
            for step in range(first, last):
                advance(*(whole if step < n_full else short))
            if not in_range():
                # the replay repeats the run from its start bit for bit, checking each step
                np.ldexp(x0.vertices, shift, v)
                for step in range(last):
                    norm = math.ldexp(float(np.abs(v, u).max()), -shift)
                    advance(*(whole if step < n_full else short))
                    if not in_range():
                        raise DivergenceError(step=step + 1, norm=norm)
            if keep_steps or last == n_steps:
                times.append(last * dt if last <= n_full else t_final)
                polygons.append(kept(v))
    return Trajectory(
        times=tuple(times), polygons=tuple(polygons), steps=n_steps, partial_final_step=partial
    )
