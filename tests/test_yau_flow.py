import dataclasses
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polyflow import circulant
from polyflow.polygon import Polygon, centroid, eigen_polygon, energy
from polyflow.spectral_flow import FlowRangeError, rescaled_limit
from polyflow.yau_flow import (
    YauProblem,
    yau_flow_between,
    yau_limit,
    yau_solution,
    yau_solve,
)

import helpers


def test_problem_validation(rng):
    x5 = helpers.random_polygon(rng, 5)
    with pytest.raises(ValueError):
        YauProblem(m=0, initial=x5, target=x5)
    with pytest.raises(ValueError):
        YauProblem(m=1, initial=x5, target=helpers.random_polygon(rng, 6))
    with pytest.raises(ValueError):
        YauProblem(m=1, initial=x5, target=helpers.random_polygon(rng, 5, p=3))
    with pytest.raises(ValueError):
        YauProblem(
            m=1,
            initial=Polygon(np.zeros((2, 2))),
            target=Polygon(np.ones((2, 2))),
        )


def test_target_is_exactly_stationary(rng):
    y = helpers.random_polygon(rng, 5)
    problem = YauProblem(m=2, initial=y, target=y)
    for t in (0.0, 1.0, 100.0, -50.0):
        assert yau_solve(problem, t) == y


def test_single_mode_difference_evolves_by_one_exponential(rng):
    y = helpers.random_polygon(rng, 6)
    mode = eigen_polygon(6, 2).scaled(0.7)
    problem = YauProblem(m=2, initial=y + mode, target=y)
    lam = circulant.flow_eigenvalue(6, 2, 2)
    for t in (0.0, 0.5, 2.0):
        expected = y + mode.scaled(math.exp(lam * t))
        assert helpers.sup_distance(yau_solve(problem, t), expected) < 1e-12


def test_matches_rk4_oracle(rng):
    from polyflow.integrate import IntegratorConfig, YauKind, integrate

    x = helpers.random_polygon(rng, 5)
    y = helpers.random_polygon(rng, 5)
    problem = YauProblem(m=2, initial=x, target=y)
    exact = yau_solve(problem, 1.0)
    traj = integrate(x, IntegratorConfig(dt=1e-3, t_final=1.0, kind=YauKind(2, y)))
    assert helpers.sup_distance(exact, traj.final()) < 1e-6


def test_matches_fourier_sandwich_form(rng):
    for n, p, m in ((5, 2, 1), (6, 2, 3), (7, 3, 2)):
        x = helpers.random_polygon(rng, n, p=p)
        y = helpers.random_polygon(rng, n, p=p)
        problem = YauProblem(m=m, initial=x, target=y)
        for t in (0.0, 0.4, 1.7):
            direct = helpers.fourier_sandwich_yau(x, y, m, t)
            assert helpers.sup_distance(yau_solve(problem, t), direct) < 1e-10


def test_limit_is_target_translated_by_difference_centroid(rng):
    x = helpers.random_polygon(rng, 5)
    y = helpers.random_polygon(rng, 5)
    problem = YauProblem(m=1, initial=x, target=y)
    limit = yau_limit(problem)
    shift = centroid(x - y)
    assert np.abs(limit.vertices - (y.vertices + shift)).max() == 0.0


def test_limit_with_matching_centroids_is_target():
    y = Polygon(np.array([[0.0, 0.0], [3.0, 0.0], [3.0, 2.0], [0.0, 2.0], [1.0, 1.0]]))
    offsets = Polygon(
        np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0], [0.0, 0.0]])
    )
    problem = YauProblem(m=2, initial=y + offsets, target=y)
    assert yau_limit(problem) == y  # integer data: exact zero-mean difference


def test_pure_shift_limit(rng):
    y = helpers.random_polygon(rng, 6)
    shift = np.array([2.0, -1.0])
    problem = YauProblem(m=3, initial=y.translated(shift), target=y)
    limit = yau_limit(problem)
    assert np.abs(limit.vertices - y.translated(shift).vertices).max() < 1e-12
    # a pure mode-0 difference never moves: the flow is already at its limit
    assert helpers.sup_distance(yau_solve(problem, 5.0), limit) < 1e-12


def test_flow_to_segment_target(rng):
    x = helpers.random_polygon(rng, 6)
    segment = eigen_polygon(6, 3).scaled(1.5)
    problem = YauProblem(m=2, initial=x, target=segment)
    limit = yau_limit(problem)
    t = 40.0 / abs(circulant.flow_eigenvalue(6, 2, 1))
    assert helpers.sup_distance(yau_solve(problem, t), limit) < 1e-8


def test_exponential_approach_rate(rng):
    x = helpers.random_polygon(rng, 5)
    y = helpers.random_polygon(rng, 5)
    ts = np.linspace(5.0, 10.0, 11)
    for m in (1, 2, 3):
        problem = YauProblem(m=m, initial=x, target=y)
        limit = yau_limit(problem)
        logs = [
            math.log(helpers.sup_distance(yau_solve(problem, t), limit)) for t in ts
        ]
        slope = helpers.fit_slope(ts, logs)
        lam = circulant.flow_eigenvalue(5, m, 1)
        assert abs(slope - lam) < 0.01 * abs(lam)


def test_difference_energy_decreases(rng):
    x = helpers.random_polygon(rng, 6)
    y = helpers.random_polygon(rng, 6)
    problem = YauProblem(m=2, initial=x, target=y)
    values = [
        energy(yau_solve(problem, t) - y, 2) for t in np.linspace(0.0, 2.0, 50)
    ]
    assert all(b < a for a, b in zip(values, values[1:]))


def test_convergence_speed_orders_with_m(rng):
    # |lambda_1| > 1 for n <= 5: higher order converges faster; n >= 7 reverses
    for n, faster_is_larger_m in ((5, True), (8, False)):
        x = helpers.random_polygon(rng, n)
        y = helpers.random_polygon(rng, n)
        t = 2.0
        distances = []
        for m in (1, 2, 3):
            problem = YauProblem(m=m, initial=x, target=y)
            distances.append(helpers.sup_distance(yau_solve(problem, t), yau_limit(problem)))
        if faster_is_larger_m:
            assert distances[0] > distances[1] > distances[2]
        else:
            assert distances[0] < distances[1] < distances[2]


def test_flow_between_reconciles_counts(rng):
    quad = helpers.random_polygon(rng, 4)
    pentagon = eigen_polygon(5, 1)
    problem, evaluator = yau_flow_between(quad, pentagon, 1, "duplicate")
    assert problem.initial.n == problem.target.n == 5
    assert np.array_equal(problem.initial.vertices[4], quad.vertices[3])
    assert helpers.sup_distance(evaluator.polygon_at(0.0), problem.initial) < 1e-12
    far = evaluator.polygon_at(40.0 / abs(circulant.flow_eigenvalue(5, 1, 1)))
    assert helpers.sup_distance(far, yau_limit(problem)) < 1e-8


def test_flow_between_triangle_targets(rng):
    pentagon = helpers.random_polygon(rng, 5)
    triangle = Polygon(np.array([[0.0, 0.0], [2.0, 0.0], [1.0, 1.6]]))
    for strategy in ("duplicate", "midpoint"):
        problem, evaluator = yau_flow_between(pentagon, triangle, 3, strategy)
        assert problem.target.n == 5
        for vertex in problem.target.vertices:
            assert helpers.distance_to_polygon_edges(vertex, triangle) < 1e-12
    with pytest.raises(ValueError):
        yau_flow_between(pentagon, helpers.random_polygon(rng, 4, p=3), 1)


def test_ancient_behaviour(rng):
    x = helpers.random_polygon(rng, 6)
    y = helpers.random_polygon(rng, 6)
    problem = YauProblem(m=1, initial=x, target=y)
    k, shape = rescaled_limit(problem.difference(), 1, "ancient")
    assert k == 3
    with pytest.raises(FlowRangeError):
        yau_solve(problem, -1e6)


def test_overflowing_difference_or_sum_raises_flow_range_error():
    """X0 - Y, and X(t) = Z(t) + Y, can leave floating range although both
    polygons are finite: one FlowRangeError, with no numpy warning."""
    near = Polygon(np.array([[1e308, 1e308], [1.1e308, 1e308], [1e308, 1.1e308]]))
    with pytest.raises(FlowRangeError, match="initial polygon minus the target"):
        yau_solution(YauProblem(m=1, initial=near, target=near.scaled(-1.0)))
    # Z = X0 - Y is finite, but Y_0 + centroid(Z) is not
    y = Polygon(np.array([[1.6e308, 0.0, 0.0]] + [[0.0, 0.0, 0.0]] * 3))
    x0 = Polygon(y.vertices + np.array([[0.0, 0.0, 0.0]] * 3 + [[1.6e308, 0.0, 0.0]]))
    solution = yau_solution(YauProblem(m=1, initial=x0, target=y))
    assert solution.offset is y.vertices
    assert np.isfinite(dataclasses.replace(solution, offset=None).polygon_at(100.0).vertices).all()
    with pytest.raises(FlowRangeError, match=r"evolution left floating range at t=100\.0"):
        solution.polygon_at(100.0)
    # in a schedule the sum's overflow at t = 100 comes before the exponential's at t = -1e6
    with pytest.raises(FlowRangeError, match=r"evolution left floating range at t=100\.0$"):
        solution.polygon_at([100.0, -1e6])
    with pytest.raises(FlowRangeError, match=r"^exp\(2e\+06\) overflows evaluating mode 1 at t=-1000000\.0$"):
        solution.polygon_at([-1e6, 100.0])


@pytest.mark.parametrize(
    "start, target",
    [
        # X0 - Y is finite, the limit is not
        ([[1.7e308, 0.0], [1e308, 0.0], [1e308, 1.0]], [[1.7e308, 0.0], [0.0, 0.0], [0.0, 1.0]]),
        # the limit is finite, but the centroid of X0 - Y that reaches it is not
        ([[0.5e308, 0.0], [0.0, 0.0], [0.0, 1.0]], [[-1e308, 0.0], [-1e308, 0.0], [-1e308, 1.0]]),
    ],
)
def test_limit_beyond_float_range_raises_flow_range_error(start, target):
    """A Yau limit that leaves floating range is one FlowRangeError, with
    no numpy warning.  The centroid of X0 - Y is finite in both cases,
    though its coordinate sum is not.  In the first case the evolution is
    not refused: X(0), which an unscaled inverse transform would overflow,
    is evaluated with the x column near one and is X0 within rounding."""
    problem = YauProblem(m=1, initial=Polygon(np.array(start)), target=Polygon(np.array(target)))
    solution = yau_solution(problem)
    if start[0][0] == 1.7e308:
        with pytest.raises(FlowRangeError, match="^the limit of the Yau flow leaves floating range$"):
            yau_limit(problem)
        error = np.abs(solution.polygon_at(0.0).vertices - np.array(start)).max(axis=0)
        assert (error <= 4 * np.finfo(float).eps * np.abs(np.array(start)).max(axis=0)).all()
    else:  # the target moved by the centroid of X0 - Y, whose x column sums to 3.5e308
        shift = float(sum(map(Fraction, [1.5e308, 1e308, 1e308])) / 3)
        error = yau_limit(problem).vertices - (np.array(target) + [shift, 0.0])
        assert np.abs(error).max() <= 4 * np.finfo(float).eps * 1.5e308


@given(
    st.integers(3, 39), st.integers(2, 3), st.integers(1, 3), st.floats(0.0, 5.0),
    st.integers(-3, 3), st.integers(-3, 3), st.integers(0, 2**32 - 1), st.data(),
)
@settings(max_examples=60)
def test_rescaled_deviation_of_a_yau_solution_is_from_its_limit(n, p, m, t, x_exp, y_exp, seed, data):
    """rescaled_deviation_at adds no offset: on a Yau solution it is
    exp(-rate_k t) (X(t) - yau_limit).  Both sides round X0 and Y at eps, and
    the rounded exponent rate * t becomes a relative error of eps |rate t| in
    its exponential; over 4000 draws of this kind the gap stayed below 2.4 times
    eps (1 + |rate_k| t) (max|X0| + max|Y|) exp(-rate_k t), and 8 is asserted."""
    rng = np.random.default_rng(seed)
    k = data.draw(st.integers(1, n // 2))
    x = helpers.random_polygon(rng, n, p=p, scale=10.0**x_exp)
    y = helpers.random_polygon(rng, n, p=p, scale=10.0**y_exp).translated(rng.normal(size=p) * 10.0 ** (y_exp + 1))
    problem = YauProblem(m=m, initial=x, target=y)
    rate = circulant.flow_eigenvalue(n, m, k)
    got = yau_solution(problem).rescaled_deviation_at(t, k)
    expected = math.exp(-rate * t) * (yau_solve(problem, t).vertices - yau_limit(problem).vertices)
    size = float(np.abs(x.vertices).max() + np.abs(y.vertices).max())
    bound = 8.0 * np.finfo(float).eps * (1.0 + abs(rate) * t) * size * math.exp(-rate * t)
    assert float(np.abs(got.vertices - expected).max()) <= bound
