"""Fixed-step RK4 oracle for the polygon flows.

This integrator is deliberately independent of the closed-form solvers: it
sees only the right-hand side ``(-1)^(m+1) M^m X`` (or the same applied to
X - Y), so trajectories it produces validate the spectral solutions.  The
classical fourth-order scheme with a fixed step keeps the convergence order
cleanly measurable; stiffness for large m or n is handled by a warning and
the documented step bound dt <= 0.1 / |lambda_max|, not by adaptivity.
Steps run on raw vertex arrays; a run keeps every state as a polygon, or
only the initial and final ones, so its memory need not grow with the step
count.
"""
from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from . import circulant
from .polygon import Polygon


class StiffnessWarning(UserWarning):
    """The chosen step is at or beyond the RK4 stability bound."""


class DivergenceError(RuntimeError):
    """The integration state left floating range."""

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


def _rhs_function(n: int, kind: FlowKind):
    """Build the vectorized right-hand side for vertex arrays of n rows."""
    apply_m = circulant.stencil(circulant.power_of_m(n, kind.m))
    sign = circulant.flow_sign(kind.m)
    # 1 * x is exact, so odd orders skip the sign pass
    flow = apply_m if sign == 1 else (lambda d: sign * apply_m(d))
    if isinstance(kind, YauKind):
        if kind.target.n != n:
            raise ValueError(f"target has {kind.target.n} vertices, state has {n}")
        target = kind.target.vertices
        return lambda v: flow(v - target)
    return flow


def stability_limit(n: int, m: int) -> float:
    """Magnitude of the fastest eigenvalue; RK4 needs dt * this < 2.785."""
    return abs(circulant.flow_eigenvalue(n, m, n // 2))


def integrate(x0: Polygon, config: IntegratorConfig, keep_steps: bool = True) -> Trajectory:
    """Classical RK4 with fixed step dt from t = 0 to t = t_final.

    With ``keep_steps`` every accepted state is recorded; without it only
    the initial and the final state are, so memory stays flat in the step
    count.  If t_final is not a whole number of steps, one shorter final
    step lands exactly on t_final and the trajectory is flagged.  A
    non-finite state aborts with step and norm diagnostics.
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

    f = _rhs_function(x0.n, config.kind)
    dt, t_final = config.dt, config.t_final
    n_full = int(math.floor(t_final / dt + 1e-9))
    remainder = t_final - n_full * dt
    partial = remainder > 1e-12 * max(1.0, abs(t_final))
    n_steps = n_full + partial

    v = x0.vertices.copy()
    times = [0.0]
    polygons = [x0]
    with np.errstate(over="ignore", invalid="ignore"):
        # blowup is detected per step and reported as DivergenceError
        for step_index in range(1, n_steps + 1):
            h = dt if step_index <= n_full else remainder
            k1 = f(v)
            k2 = f(v + (0.5 * h) * k1)
            k3 = f(v + (0.5 * h) * k2)
            k4 = f(v + h * k3)
            v = v + (h / 6.0) * (k1 + 2.0 * (k2 + k3) + k4)
            t = step_index * dt if step_index <= n_full else t_final
            if not np.isfinite(v).all():
                finite = np.abs(v[np.isfinite(v)])
                norm = float(finite.max()) if finite.size else math.inf
                raise DivergenceError(step=step_index, norm=norm)
            if keep_steps:
                times.append(t)
                polygons.append(Polygon(v))
    if not keep_steps and n_steps:
        times.append(t)
        polygons.append(Polygon(v))
    return Trajectory(
        times=tuple(times), polygons=tuple(polygons), steps=n_steps, partial_final_step=partial
    )
