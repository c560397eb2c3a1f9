"""Flowing one polygon to another: the semi-discrete Yau difference flow.

The difference polygon Z(t) = X(t) - Y evolves by the homogeneous flow, so
the solution is the homogeneous evolution of X0 - Y translated back by the
target.  As t grows, X(t) converges exponentially to Y translated by the
centroid of the initial difference.  The exact evaluator is therefore the
:class:`FlowSolution` of X0 - Y with ``offset`` Y: its ``polygon_at`` gives
X(t), and its ``rescaled_deviation_at(t, k)``, which adds no offset, gives
exp(-rate_k t) (X(t) - yau_limit).
"""
from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .polygon import Polygon, centroid, reconcile_vertex_counts
from .spectral_flow import FlowRangeError, FlowSolution, flow_solution


@dataclass(frozen=True)
class YauProblem:
    """A fully specified difference-flow instance: order, start, and target."""

    m: int
    initial: Polygon
    target: Polygon

    def __post_init__(self):
        if self.m < 1:
            raise ValueError(f"flow order must be >= 1, got {self.m}")
        if self.initial.p != self.target.p:
            raise ValueError(
                f"ambient dimensions differ: {self.initial.p} != {self.target.p}"
            )
        if self.initial.n != self.target.n:
            raise ValueError(
                f"vertex counts differ: {self.initial.n} != {self.target.n}; "
                "reconcile them first (see yau_flow_between)"
            )
        if self.initial.n < 3:
            raise ValueError(f"flow needs n >= 3, got n = {self.initial.n}")

    def difference(self) -> Polygon:
        """X0 - Y; raises :class:`FlowRangeError` when it overflows."""
        with np.errstate(over="ignore"):
            v = self.initial.vertices - self.target.vertices
        if not np.isfinite(v).all():
            raise FlowRangeError("the initial polygon minus the target leaves floating range")
        return Polygon._checked(v)


def yau_solution(problem: YauProblem) -> FlowSolution:
    """Prepare the exact evaluator: homogeneous flow on X0 - Y, offset by Y."""
    return replace(
        flow_solution(problem.difference(), problem.m), offset=problem.target.vertices
    )


def yau_solve(problem: YauProblem, t: float) -> Polygon:
    """The evolved polygon at time t; X(0) = X0 and X = Y stays exactly at Y."""
    return yau_solution(problem).polygon_at(t)


def yau_limit(problem: YauProblem) -> Polygon:
    """Forward limit: the target translated by the centroid of X0 - Y;
    raises :class:`FlowRangeError` when it leaves floating range."""
    with np.errstate(over="ignore", invalid="ignore"):  # refused below instead
        v = problem.target.vertices + centroid(problem.difference())
    if not np.isfinite(v).all():
        raise FlowRangeError("the limit of the Yau flow leaves floating range")
    return Polygon._checked(v)


def yau_flow_between(
    x0: Polygon, y: Polygon, m: int, strategy: str = "midpoint"
) -> tuple[YauProblem, FlowSolution]:
    """Flow between polygons with possibly different vertex counts.

    Vertex counts are reconciled first (default: midpoint insertion, which
    preserves the target geometry without repeated vertices), then the
    problem and its evaluator are constructed.
    """
    x0r, yr = reconcile_vertex_counts(x0, y, strategy)
    problem = YauProblem(m=m, initial=x0r, target=yr)
    return problem, yau_solution(problem)
