import gc
import json
import math
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from polyflow import circulant, cli
from polyflow.polygon import Polygon, centroid, eigen_polygon, energy, real_basis
from polyflow.spectral_flow import (
    CENTERING_NOISE_EPS,
    DegenerateModeError,
    FlowRangeError,
    FlowSolution,
    SelfSimilarity,
    affine_pushforward,
    classify_self_similar,
    decompose,
    flow_solution,
    mode_component,
    rescaled_limit,
    solve,
)
from polyflow.yau_flow import YauProblem, yau_solution

import helpers
from helpers import solve_planar_complex


def mode_polygon(n, k, coeff=1.0):
    """c * P_k as a planar polygon (complex coefficient allowed)."""
    z = coeff * circulant.fourier_matrix(n)[:, k]
    return Polygon.from_complex(z)


def combination(n, terms):
    z = sum(c * circulant.fourier_matrix(n)[:, k] for k, c in terms)
    return Polygon.from_complex(z)


# --- decomposition -----------------------------------------------------------

def test_basis_element_decomposes_to_single_coefficient():
    x = eigen_polygon(7, 3)
    dec = decompose(x)
    coeffs = dec.planar_coeffs
    assert abs(coeffs[3] - 1.0) < 1e-14
    assert max(abs(coeffs[k]) for k in range(7) if k != 3) < 1e-14
    assert dec.present.tolist() == [3]


def test_mode_zero_coefficient_is_centroid(rng):
    x = helpers.random_polygon(rng, 8)
    dec = decompose(x)
    c = centroid(x)
    assert abs(dec.planar_coeffs[0] - complex(c[0], c[1])) < 1e-14
    assert np.abs(dec.alpha[0] - c).max() == 0.0


@given(st.integers(3, 12), st.integers(2, 4), st.integers(0, 2**32 - 1))
def test_reconstruction_round_trip(n, p, seed):
    x = helpers.random_polygon(np.random.default_rng(seed), n, p=p)
    rebuilt = FlowSolution.from_decomposition(decompose(x), 1).polygon_at(0.0)
    assert helpers.sup_distance(rebuilt, x) < 1e-10


def test_planar_decompose_allocates_no_dense_matrix(rng):
    """One n x n complex matrix is 256 MiB at n = 4096; the planar transform
    holds one block of at most 1 MiB of it at a time and keeps none."""
    n = 4096
    x = helpers.random_polygon(rng, n)
    circulant.roots_of_unity(n)  # the cached O(n) root table is not measured
    gc.collect()
    tracemalloc.start()
    try:
        dec = decompose(x)
        gc.collect()
        retained, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert dec.planar_coeffs is not None
    assert retained < 2**20
    assert peak < 8 * 2**20


def test_decompose_rejects_tiny_polygons():
    with pytest.raises(ValueError):
        decompose(Polygon(np.zeros((2, 2))))


def test_flow_order_zero_is_refused():
    with pytest.raises(ValueError, match="flow order must be >= 1"):
        flow_solution(eigen_polygon(5, 1), 0)


@pytest.mark.parametrize("p", [2, 3])
@pytest.mark.parametrize("column", [
    [1.7e308, 1.7e308, 1.0, 0.0],  # the centroid is inf
    [-1.7e308, -1.7e308, 1.0, 0.0],  # -inf
    [1.7e308, -1.7e308] * 8,  # pairwise summation adds inf to -inf: nan
])
def test_decompose_refuses_a_non_finite_centroid(p, column):
    """Columns whose plain mean is not finite: their centroid is finite, and
    ``decompose`` carries it as alpha[0].  The 4-vertex columns decompose.
    The alternating column is refused, because its k = n/2 coefficient,
    16 * 1.7e308, overflows.  One FlowRangeError, no numpy warning."""
    v = np.zeros((len(column), p))
    v[:, 0], v[:, 1] = column, np.arange(len(column))
    x = Polygon(v)
    with np.errstate(over="ignore", invalid="ignore"):
        assert not np.isfinite(np.mean(v[:, 0]))
    mean = centroid(x)
    assert np.isfinite(mean).all()
    if len(column) == 4:
        dec = decompose(x)
        assert dec.alpha[0].tobytes() == mean.tobytes()
        assert dec.present.tolist() == [1]
    else:
        with pytest.raises(FlowRangeError, match="the mode coefficients of the polygon leave floating range"):
            decompose(x)


# its x column sums to 3.5e308, past float max, though its mean is finite
NEAR_MAX_TRIANGLE = Polygon(np.array([[1.5e308, 0.0], [1e308, 0.0], [1e308, 1.0]]))


def test_a_coordinate_sum_past_float_max_decomposes_and_flows_as_rk4_does():
    """The triangle decomposes, with no numpy warning, and its closed form
    at t = 0.1 agrees with RK4 at dt = 0.01 within 1e-8 of each column's
    largest |entry| (3.4e-10 and 1.0e-9 measured)."""
    from polyflow.integrate import IntegratorConfig, PolyharmonicKind, integrate

    dec = decompose(NEAR_MAX_TRIANGLE)
    assert dec.alpha[0].tobytes() == centroid(NEAR_MAX_TRIANGLE).tobytes()
    assert dec.present.tolist() == [1]
    exact = solve(NEAR_MAX_TRIANGLE, 1, 0.1).vertices
    rk4 = integrate(NEAR_MAX_TRIANGLE, IntegratorConfig(dt=0.01, t_final=0.1, kind=PolyharmonicKind(1)))
    error = np.abs(exact - rk4.final().vertices).max(axis=0)
    assert (error <= 1e-8 * np.abs(NEAR_MAX_TRIANGLE.vertices).max(axis=0)).all()


# its x column decomposes, but (n/2) alpha would overflow an inverse transform not scaled near one
NEAR_MAX_Q = Polygon(np.array([[1.7e308, 0.0], [1.7e308, 1.0], [1.0, 1.0], [0.0, 0.0]]))


def test_a_column_whose_plain_transform_overflows_is_evaluated_near_one():
    """X(0) of q lies within 4 eps of each column's largest |entry| of q
    (the y column is q's bit for bit), and its closed form at t = 0.01 agrees
    with RK4 at dt = 0.005 within 1e-8 of each column's largest |entry|
    (8.2e-13 of 1.7e308 measured).  No numpy warning."""
    from polyflow.integrate import IntegratorConfig, PolyharmonicKind, integrate

    q = NEAR_MAX_Q.vertices
    largest = np.abs(q).max(axis=0)
    at_zero = solve(NEAR_MAX_Q, 1, 0.0).vertices
    assert (np.abs(at_zero - q).max(axis=0) <= 4 * np.finfo(float).eps * largest).all()
    assert at_zero[:, 1].tobytes() == q[:, 1].tobytes()
    exact = solve(NEAR_MAX_Q, 1, 0.01).vertices
    rk4 = integrate(NEAR_MAX_Q, IntegratorConfig(dt=0.005, t_final=0.01, kind=PolyharmonicKind(1)))
    assert (np.abs(exact - rk4.final().vertices).max(axis=0) <= 1e-8 * largest).all()


def test_every_sample_is_evaluated_once_in_the_frame_decompose_chose(monkeypatch):
    """x = 8e307 cos_1 + 1e-300 cos_2 and y = 1e300 cos_2: mode 2 is present
    through y, and x is evaluated times 2^-1023 at every time.  A schedule
    gives the per-time bits and the per-time oracle's; each column lies
    within 4 eps of its largest |entry| of the 40-digit flow; and a schedule
    of q costs one inverse transform, with no sample evaluated twice."""
    pytest.importorskip("mpmath")
    import mpmath

    c1, c2 = real_basis(4, 1)[0], real_basis(4, 2)[0]
    x0 = Polygon(np.column_stack([8e307 * c1 + 1e-300 * c2, 1e300 * c2]))
    solution = flow_solution(x0, 1)
    assert solution.decomposition.column_shifts.tolist() == [-1023, -997]
    times = [0.0, 1.0, 0.25, 0.0]
    scheduled = [x.vertices.tobytes() for x in solution.polygon_at(times)]
    assert scheduled == [solution.polygon_at(t).vertices.tobytes() for t in times]
    assert scheduled == [helpers.recomputed_accumulate(solution, t, 0.0, True).vertices.tobytes() for t in times]
    for t in (0.0, 0.25, 1.0):
        sample = solution.polygon_at(t).vertices
        with mpmath.workdps(40):
            for got, reference in zip(sample.T.tolist(), helpers.mp_flow(x0, 1, t)):
                error = max(abs(mpmath.mpf(g) - r) for g, r in zip(got, reference))
                assert error <= 4 * np.finfo(float).eps * max(abs(r) for r in reference), (t, error)
    transforms = []
    irfft = np.fft.irfft
    monkeypatch.setattr(np.fft, "irfft", lambda *args, **kwargs: transforms.append(1) or irfft(*args, **kwargs))
    assert len(flow_solution(NEAR_MAX_Q, 1).polygon_at([0.0, 0.01, 0.5])) == 3
    assert len(transforms) == 1


@pytest.mark.parametrize("n", [3, 4, 5, 6, 7, 8, 16, 17, 31, 64, 100, 127, 256, 257, 509, 512, 1021, 1024, 2039, 2048])
def test_planar_coeffs_are_the_fft_of_z_over_n(rng, n):
    """``planar_coeffs`` agrees with ``np.fft.fft(z / n)``, z = x + iy, within
    4 eps sqrt(n) max|z| at scales 1e-200 to 1e200, and both stay finite for
    entries at 1e308 + 1e308j."""
    eps = np.finfo(float).eps
    polygons = [helpers.random_polygon(rng, n, scale=scale) for scale in (1e-200, 1.0, 1e200)]
    for x in polygons + [helpers.constant_polygon([1e308, 1e308], n)]:
        z = x.as_complex()
        coeffs, fft = decompose(x).planar_coeffs, np.fft.fft(z / n)
        assert np.isfinite(coeffs).all() and np.isfinite(fft).all()
        assert np.abs(coeffs - fft).max() <= 4 * eps * math.sqrt(n) * np.abs(z).max()


@given(
    st.integers(3, 300), st.integers(2, 5),
    st.sampled_from(("random", "pure", "constant", "translated")),
    st.integers(-200, 200), st.integers(0, 2**32 - 1),
)
@example(7, 2, "random", 200, 0)
@example(8, 3, "pure", -200, 1)
@example(300, 5, "translated", 0, 2)
@example(3, 4, "constant", -170, 3)
@settings(max_examples=80)
def test_decomposition_carries_the_masses_and_modes_it_decided(n, p, shape, exponent, seed):
    rng = np.random.default_rng(seed)
    if shape == "constant":
        x = helpers.constant_polygon(rng.normal(size=p), n)
    elif shape == "random":
        x = Polygon(rng.uniform(-1.0, 1.0, size=(n, p)))
    else:
        basis = real_basis(n, int(rng.integers(1, n // 2 + 1)))
        x = Polygon(np.column_stack(basis) @ rng.normal(size=(2, p)))
        if shape == "translated":  # far enough, at times, for the flush to take the pair
            x = x.translated(rng.normal(scale=10.0 ** int(rng.integers(0, 16)), size=p))
    dec = decompose(x.scaled(10.0**exponent))
    masses, shift, present = helpers.recomputed_decision(dec)
    assert dec.masses.tobytes() == np.ldexp(masses, -shift).tobytes()  # exact: no norm leaves 1e-308..1e308
    assert dec.present.dtype == np.intp
    assert dec.present.tolist() == present.tolist()


@pytest.mark.parametrize("p", [2, 3])
def test_masses_beyond_float_range_are_inf(p):
    """Near float max a mode's norm leaves float range while its
    coefficients do not: ``masses`` holds inf there, and every entry is the
    recomputed shifted mass scaled back bit for bit.  The triangle's mode-1
    norm is 2 * 1.1e308; in p = 3 a constant coordinate at 1.5e308 puts the
    centroid's norm at sqrt(3) * 1.5e308 as well."""
    a = 1.1e308
    columns = [[a, 0.0, -a], [a, -a, 0.0], [1.5e308] * 3][:p]
    dec = decompose(Polygon(np.array(columns).T))
    masses, shift, _ = helpers.recomputed_decision(dec)
    with np.errstate(over="ignore"):
        assert dec.masses.tobytes() == np.ldexp(masses, -shift).tobytes()
    assert np.isinf(dec.masses).tolist() == [p == 3, True]


def test_decomposition_arrays_are_read_only(rng):
    dec = decompose(helpers.random_polygon(rng, 6))
    for array in (dec.alpha, dec.beta, dec.planar_coeffs, dec.masses, dec.present):
        with pytest.raises(ValueError, match="read-only"):
            array[1] = 0


# --- closed-form evolution ------------------------------------------------------

def test_constant_polygon_is_exactly_stationary():
    const = helpers.constant_polygon([0.3, 0.7, -1.1], 6)
    for m in (1, 2, 3):
        for t in (0.0, 1.0, 57.0, -40.0, -1e9):
            assert solve(const, m, t) == const


def test_single_mode_evolves_by_scalar_exponential():
    x = eigen_polygon(6, 1)
    got = solve(x, 2, 1.0)
    assert helpers.sup_distance(got, x.scaled(math.exp(-1.0))) < 1e-14


def test_solution_matches_rk4_oracle(rng):
    from polyflow.integrate import IntegratorConfig, PolyharmonicKind, integrate

    x = helpers.random_polygon(rng, 5)
    exact = solve(x, 3, 0.5)
    traj = integrate(x, IntegratorConfig(dt=5e-4, t_final=0.5, kind=PolyharmonicKind(3)))
    assert helpers.sup_distance(exact, traj.final()) < 1e-6


def test_real_and_complex_paths_agree(rng):
    for n in (3, 5, 8):
        x = helpers.random_polygon(rng, n)
        for m in (1, 2, 3):
            for t in (-0.25, 0.0, 0.4, 1.3, 2.5):
                a = solve(x, m, t)
                b = solve_planar_complex(x, m, t)
                scale = max(1.0, float(np.abs(a.vertices).max()))
                assert helpers.sup_distance(a, b) < 1e-10 * scale


def test_flow_ode_residual_via_finite_differences(rng):
    h = 1e-5
    for n, m in ((5, 1), (6, 2), (6, 3)):
        x = helpers.random_polygon(rng, n)
        operator = flow_solution(x, m)
        mat = circulant.power_of_m(n, m)
        sign = 1.0 if (m + 1) % 2 == 0 else -1.0
        for t in (0.0, 0.3):
            velocity = (
                operator.polygon_at(t + h).vertices - operator.polygon_at(t - h).vertices
            ) / (2 * h)
            expected = sign * circulant.matvec(mat, operator.polygon_at(t).vertices)
            assert np.abs(velocity - expected).max() < 1e-5


def test_time_derivative_commutes_with_difference(rng):
    from polyflow.polygon import difference_stack

    h = 1e-4
    x = helpers.random_polygon(rng, 6)
    operator = flow_solution(x, 2)
    lhs = (
        difference_stack(operator.polygon_at(0.5 + h), 1)
        - difference_stack(operator.polygon_at(0.5 - h), 1)
    ) / (2 * h)
    mat = circulant.power_of_m(6, 2)
    rhs_poly = Polygon(-circulant.matvec(mat, operator.polygon_at(0.5).vertices))
    assert np.abs(lhs - difference_stack(rhs_poly, 1)).max() < 1e-6


def test_centroid_is_conserved(rng):
    x = helpers.random_polygon(rng, 7, p=3)
    c0 = centroid(x)
    for m in (1, 3):
        for t in (0.1, 1.0, 8.0):
            assert np.abs(centroid(solve(x, m, t)) - c0).max() < 1e-10


def test_energy_decreases_along_flow(rng):
    x = helpers.random_polygon(rng, 6)
    for m in (1, 2):
        values = [energy(solve(x, m, t), m) for t in np.linspace(0.0, 2.0, 40)]
        assert all(b < a for a, b in zip(values, values[1:]))


@given(
    st.integers(3, 9),
    st.integers(1, 3),
    st.floats(-1.0, 2.0),
    st.floats(0.0, 2.0),
    st.integers(0, 2**32 - 1),
)
@example(9, 3, -1.0, 0.0, 156)  # X(-1) reaches 1.4e25
@settings(max_examples=40)
def test_semigroup_property(n, m, s, t, seed):
    """X(s + t) from X0 against X(t) from X(s), ancient s included, within
    10 000 eps max(max|X0|, max|X(s)|).  A pair that crosses the presence
    floor between the two decompositions is kept by one side and flushed
    by the other, which is worth up to ~1e-12 of the larger polygon: over
    20 000 draws of this strategy the gap reached 4 295 eps of it (median
    0.26)."""
    x = helpers.random_polygon(np.random.default_rng(seed), n, p=3)
    once = solve(x, m, s + t)
    at_s = solve(x, m, s)
    twice = solve(at_s, m, t)
    size = max(np.abs(x.vertices).max(), np.abs(at_s.vertices).max())
    assert helpers.sup_distance(once, twice) <= 10_000 * np.finfo(float).eps * size


@given(
    st.integers(3, 300), st.integers(2, 5), st.integers(1, 3),
    st.floats(-0.05, 5.0), st.integers(0, 2**32 - 1),
)
@example(3, 2, 1, 0.5, 0)
@example(7, 3, 2, 0.1, 1)
@example(97, 2, 3, -0.05, 2)
@example(257, 5, 1, 2.0, 3)
@example(4, 2, 3, 0.0, 4)
@example(64, 4, 2, 0.3, 5)
@example(256, 2, 1, 5.0, 6)
@settings(max_examples=40)
def test_solve_matches_dense_fourier_sandwich(n, p, m, t, seed):
    x = helpers.random_polygon(np.random.default_rng(seed), n, p=p)
    zero = Polygon(np.zeros((n, p)))
    expected = helpers.fourier_sandwich_yau(x, zero, m, t)
    scale = max(1.0, float(np.abs(expected.vertices).max()))
    assert helpers.sup_distance(solve(x, m, t), expected) < 1e-12 * scale


@given(
    st.integers(3, 300), st.integers(2, 5), st.integers(1, 3),
    st.floats(-0.05, 5.0), st.integers(0, 2**32 - 1),
)
@example(3, 2, 1, 0.5, 0)
@example(4, 3, 2, -0.05, 1)
@example(97, 2, 3, 0.1, 2)
@example(128, 4, 1, 2.0, 3)
@example(257, 5, 2, 0.0, 4)
@example(1024, 2, 3, 0.3, 5)
@example(1031, 3, 1, 5.0, 6)
@settings(max_examples=40)
def test_exact_invariants_at_every_n(n, p, m, t, seed):
    rng = np.random.default_rng(seed)
    const = helpers.constant_polygon(rng.normal(size=p), n)
    assert solve(const, m, t) == const

    # a pure mode pair embedded in R^p and translated off the origin
    k = int(rng.integers(1, n // 2 + 1))
    shift = rng.normal(size=p)
    pure = Polygon(np.column_stack(real_basis(n, k)) @ rng.normal(size=(2, p)) + shift)
    assert decompose(pure).present.tolist() == [k]
    verdict = classify_self_similar(pure, m)
    assert verdict is not None and verdict.mode == k
    c = centroid(pure)
    expected = c + math.exp(verdict.rate * t) * (pure.vertices - c)
    scale = max(1.0, float(np.abs(pure.vertices).max()))
    assert np.abs(solve(pure, m, t).vertices - expected).max() < 1e-12 * scale

    x = Polygon(rng.uniform(-1.0, 1.0, size=(n, p)) + shift)
    c = centroid(x)
    drift = np.abs(centroid(solve(x, m, t)) - c).max()
    assert drift < 1e-14 * max(1.0, float(np.abs(c).max()))


def _evaluated(evaluate):
    """The polygon's bytes, or the error's type and message."""
    try:
        return evaluate().vertices.tobytes()
    except FlowRangeError as exc:
        return type(exc), str(exc)


@given(
    st.integers(3, 300), st.sampled_from([2, 3]), st.integers(1, 3),
    st.one_of(st.floats(-20.0, 20.0), st.sampled_from([-1e6, -300.0, -0.0, 1e6])),
    st.sampled_from(["random", "constant", "two modes"]), st.integers(0, 2**32 - 1),
)
@example(6, 2, 1, -300.0, "two modes", 0)
@example(300, 3, 3, -1e6, "random", 1)
@example(5, 2, 2, 7.5, "constant", 2)
@settings(max_examples=60)
def test_hoisted_evaluation_is_bitwise_the_recomputing_one(n, p, m, t, shape, seed):
    rng = np.random.default_rng(seed)
    if shape == "constant":
        x = helpers.constant_polygon(rng.normal(size=p), n)
    elif shape == "two modes":
        k1, k2 = (int(k) for k in rng.integers(1, n // 2 + 1, size=2))
        x = Polygon(real_basis(n, k1)[0][:, None] * rng.normal(size=p)
                    + real_basis(n, k2)[1][:, None] * rng.normal(size=p))
    else:
        x = helpers.random_polygon(rng, n, p=p)
    solution = flow_solution(x, m)
    k_ref = int(rng.integers(0, n // 2 + 1))
    assert _evaluated(lambda: solution.polygon_at(t)) == _evaluated(
        lambda: helpers.recomputed_accumulate(solution, t, 0.0, True))
    assert _evaluated(lambda: solution.rescaled_deviation_at(t, k_ref)) == _evaluated(
        lambda: helpers.recomputed_accumulate(
            solution, t, float(solution.mode_rates[k_ref]), False))


def _each(evaluate, times):
    """``evaluate`` at one time after another: every sample's bytes, or the
    type and message of the first error."""
    try:
        return [evaluate(t).vertices.tobytes() for t in times]
    except FlowRangeError as exc:
        return type(exc), str(exc)


def _scheduled(evaluate, times):
    """``evaluate`` at the whole schedule in one call, in the form of ``_each``."""
    try:
        samples = evaluate(times)
    except FlowRangeError as exc:
        return type(exc), str(exc)
    assert type(samples) is tuple and len(samples) == len(times)
    return [x.vertices.tobytes() for x in samples]


@st.composite
def schedules(draw):
    """1 to 200 times: geometric as the CLI makes them, random over both signs,
    or geometric into the past, where the exponentials overflow at last."""
    count = draw(st.integers(1, 200))
    kind = draw(st.sampled_from(["geometric", "random", "negative"]))
    if kind == "random":
        return draw(st.lists(st.floats(-30.0, 30.0), min_size=count, max_size=count))
    t0, ratio = draw(st.floats(1e-3, 1.0)), draw(st.floats(1.001, 2.0))
    return [(1.0 if kind == "geometric" else -1.0) * t0 * ratio**j for j in range(count)]


@given(
    st.integers(3, 1100), st.sampled_from([2, 3]), st.integers(1, 3), schedules(),
    st.sampled_from([1.0, 1e300, 1e-300]), st.integers(0, 2**32 - 1),
)
@example(1100, 2, 3, [-0.05 * 1.05**j for j in range(200)], 1.0, 0)
@example(1024, 3, 1, [0.05 * 1.6**j for j in range(8)], 1.0, 1)
@example(7, 2, 2, [-0.5 * 1.02**j for j in range(150)], 1e300, 2)
@example(3, 3, 1, [0.0], 1.0, 3)
@example(9, 3, 2, [-0.5 * 1.3**j for j in range(70)], 1e-300, 4)
@settings(max_examples=30)
def test_schedule_evaluation_is_bitwise_the_per_time_loop(n, p, m, times, scale, seed):
    """The schedule form of every evaluator gives each time's bits, or the
    error of the earliest failing time, as a loop over the times does."""
    rng = np.random.default_rng(seed)
    x = helpers.random_polygon(rng, n, p=p, scale=scale)
    solution = flow_solution(x, m)
    looped = _each(lambda t: helpers.recomputed_accumulate(solution, t, 0.0, True), times)
    assert _scheduled(solution.polygon_at, times) == looped == _each(solution.polygon_at, times)
    k_ref = int(rng.integers(0, n // 2 + 1))
    shift = float(solution.mode_rates[k_ref])
    assert _scheduled(lambda ts: solution.rescaled_deviation_at(ts, k_ref), times) == _each(
        lambda t: helpers.recomputed_accumulate(solution, t, shift, False), times)
    yau = yau_solution(YauProblem(m, x, helpers.random_polygon(rng, n, p=p, scale=scale)))
    assert _scheduled(yau.polygon_at, times) == _each(
        lambda t: helpers.summed_yau_sample(yau, t), times) == _each(yau.polygon_at, times)


@pytest.mark.parametrize("times, message", [
    ([-10.0, -300.0], r"evolution left floating range at t=-10\.0$"),
    ([-300.0, -10.0], r"exp\(900\) overflows evaluating mode 2 at t=-300\.0$"),
    ([0.0] * 70 + [-10.0, -300.0], r"evolution left floating range at t=-10\.0$"),
    ([0.0] * 63 + [-300.0, -10.0], r"exp\(900\) overflows evaluating mode 2 at t=-300\.0$"),
])
def test_schedule_raises_the_error_of_its_earliest_failing_time(times, message):
    """At t = -10 the output overflows, at t = -300 the exponential of modes
    2 and 3 does: the earlier time's error wins, in any transform block."""
    solution = flow_solution(combination(6, [(1, 1e300), (2, 1e300), (3, 1e300)]), 1)
    with pytest.raises(FlowRangeError, match=message):
        solution.polygon_at(times)
    assert _scheduled(solution.polygon_at, times) == _each(solution.polygon_at, times)


@pytest.mark.parametrize("t, named", [
    (np.array([0.5, -1000.0]), "-1000.0"),
    (np.float64(-1000.0), "-1000.0"),
    ([0.5, np.float64(-1000.0)], "-1000.0"),
    (np.array(-1000.0), "-1000.0"),
    (-1000.0, "-1000.0"),
    ([0.5, -1e3], "-1000.0"),
    ([0.5, -1000], "-1000"),
], ids=["array", "float64", "float64_in_list", "0d_array", "float", "floats", "ints"])
def test_a_failing_time_is_named_as_a_python_number(t, named):
    """A numpy time is named as the Python float it holds, not as
    ``np.float64(-1000.0)``; a Python float or int keeps its text."""
    with pytest.raises(FlowRangeError, match=rf"overflows evaluating mode 1 at t={re.escape(named)}$"):
        flow_solution(eigen_polygon(5, 1), 1).polygon_at(t)


def test_times_are_one_number_or_a_flat_sequence():
    solution = flow_solution(eigen_polygon(5, 1), 1)
    assert type(solution.polygon_at(0.5)) is Polygon
    assert solution.polygon_at(np.array([0.5])) == (solution.polygon_at(0.5),)
    with pytest.raises(ValueError, match=r"got shape \(2, 1\)"):
        solution.polygon_at([[0.5], [1.0]])


def test_samples_are_read_only_views_of_one_checked_block(rng):
    """The samples of a schedule share the block their inverse transform
    filled, which no one can write through a sample or its base."""
    x = helpers.random_polygon(rng, 9)
    samples = flow_solution(x, 2).polygon_at([0.1, 0.2, 0.4])
    assert samples == tuple(Polygon(q.vertices.copy()) for q in samples)
    for q in samples:
        assert not q.vertices.flags.writeable and not q.vertices.base.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            q.vertices[0, 0] = 1.0
    assert np.shares_memory(samples[0].vertices.base, samples[2].vertices)


def test_ancient_evaluation_overflows_loudly():
    x = eigen_polygon(6, 1)
    with pytest.raises(FlowRangeError):
        solve(x, 1, -1e6)
    with pytest.raises(FlowRangeError):
        solve_planar_complex(x, 1, -1e6)
    # the error names the lowest present mode whose exponential overflows
    with pytest.raises(FlowRangeError, match=r"exp\(900\) overflows evaluating mode 2 "):
        solve(combination(6, [(1, 1.0), (2, 1.0), (3, 1.0)]), 1, -300.0)
    # far forward in time is fine: everything decays
    assert helpers.sup_distance(solve(x, 1, 1e6), mode_polygon(6, 0, 0.0)) < 1e-12


@pytest.mark.parametrize("p", [2, 3])
def test_overflowing_evaluation_of_a_finite_decomposition_is_refused_quietly(p):
    """Every coefficient is finite, and an inverse transform not scaled near
    one would overflow.  The x column is evaluated near one and scaled back:
    at t = 0.05 that is finite, at t = -1 it is not: one FlowRangeError and
    no numpy warning, which the suite turns into errors."""
    x = Polygon(np.array([[0.0] * p] * 3 + [[1.6e308] + [0.0] * (p - 1)]))
    solution = flow_solution(x, 1)
    sample = solution.polygon_at(0.05).vertices
    assert np.isfinite(sample).all() and sample[:, 0].max() > 1e308 and not sample[:, 1:].any()
    with pytest.raises(FlowRangeError, match=r"evolution left floating range at t=-1\.0$"):
        solution.polygon_at(-1.0)


# --- self-similar classification ---------------------------------------------------

def test_pure_mode_pair_is_self_similar():
    x = combination(7, [(2, 2.0), (5, 0.5)])
    verdict = classify_self_similar(x, 3)
    assert verdict is not None and not verdict.is_trivial
    assert verdict.mode == 2
    assert verdict.rate == circulant.flow_eigenvalue(7, 3, 2)
    for t in (-1.0, 0.0, 0.8, 3.0):
        expected = x.scaled(math.exp(verdict.rate * t))
        assert helpers.sup_distance(solve(x, 3, t), expected) < 1e-9


def test_translated_pure_mode_pair_is_self_similar():
    planar = eigen_polygon(5, 1).translated([1.0, 0.0])
    embedded = affine_pushforward(
        combination(7, [(2, 2.0), (5, 0.5)]),
        np.array([[1.0, 0.5, -2.0], [0.0, 3.0, 1.0]]),
        np.array([4.0, -1.0, 2.5]),
    )
    for x, n, k in ((planar, 5, 1), (embedded, 7, 2)):
        verdict = classify_self_similar(x, 2)
        assert verdict is not None and not verdict.is_trivial
        assert verdict.mode == k
        assert verdict.rate == circulant.flow_eigenvalue(n, 2, k)
        c = centroid(x)
        for t in (-0.5, 0.0, 0.7, 3.0):
            expected = Polygon(c + math.exp(verdict.rate * t) * (x.vertices - c))
            assert helpers.sup_distance(solve(x, 2, t), expected) < 1e-12


@given(
    st.integers(3, 300), st.integers(2, 5), st.integers(1, 3),
    st.sampled_from(("random", "pure", "constant")), st.integers(0, 2**32 - 1),
)
@example(3, 2, 1, "pure", 0)
@example(7, 3, 2, "constant", 1)
@example(256, 5, 3, "random", 2)
@settings(max_examples=40)
def test_limits_and_verdict_take_a_polygon_or_its_decomposition(n, p, m, shape, seed):
    rng = np.random.default_rng(seed)
    if shape == "constant":
        x = helpers.constant_polygon(rng.normal(size=p), n)
    elif shape == "pure":
        basis = real_basis(n, int(rng.integers(1, n // 2 + 1)))
        x = Polygon(np.column_stack(basis) @ rng.normal(size=(2, p)) + rng.normal(size=p))
    else:
        x = Polygon(rng.uniform(-1.0, 1.0, size=(n, p)))
    dec = decompose(x)
    assert classify_self_similar(dec, m) == classify_self_similar(x, m)
    for direction in ("forward", "ancient"):
        if shape == "constant":
            for source in (x, dec):
                with pytest.raises(DegenerateModeError):
                    rescaled_limit(source, m, direction)
            continue
        k_poly, limit_poly = rescaled_limit(x, m, direction)
        k_dec, limit_dec = rescaled_limit(dec, m, direction)
        assert k_dec == k_poly
        assert limit_dec.vertices.tobytes() == limit_poly.vertices.tobytes()


@given(
    st.integers(3, 300), st.integers(2, 3), st.integers(1, 3),
    st.sampled_from(("random", "pure", "two modes", "constant")), st.integers(0, 2**32 - 1),
)
@example(7, 2, 1, "random", 0)  # a 7-gon at 1e155 or 1e-170 used to lose every mode
@example(7, 2, 2, "pure", 1)
@example(300, 3, 3, "two modes", 2)
@example(4, 2, 1, "constant", 3)
@example(106, 2, 1, "pure", 387911659)  # at 1e-200 the rounded input moved the flow by 1.06e-15
@settings(max_examples=40)
def test_presence_and_verdict_do_not_depend_on_the_scale(n, p, m, shape, seed):
    rng = np.random.default_rng(seed)
    if shape == "constant":
        x = helpers.constant_polygon(rng.normal(size=p), n)
    elif shape == "random":
        x = Polygon(rng.uniform(-1.0, 1.0, size=(n, p)))
    else:
        modes = rng.choice(np.arange(1, n // 2 + 1), size=1 if shape == "pure" else min(2, n // 2), replace=False)
        x = Polygon(sum(
            np.column_stack(real_basis(n, int(k))) @ rng.normal(size=(2, p))
            for k in modes
        ) + rng.normal(size=p))
    present, verdict = decompose(x).present.tolist(), classify_self_similar(x, m)
    for scale in (1e200, 1e-200, 1e155, 1e-170):
        y = x.scaled(scale)
        assert decompose(y).present.tolist() == present
        assert classify_self_similar(y, m) == verdict
    # a decimal scale rounds the input; a power of two scales the flow exactly
    expected = solve(x, m, 0.05).vertices
    for k in (664, -664, 515, -565):
        flowed = solve(x.scaled(2.0**k), m, 0.05).vertices
        assert np.array_equal(flowed, np.ldexp(expected, k))


@given(
    st.integers(3, 300), st.integers(2, 3), st.integers(1, 3), st.sampled_from(("pure", "random")),
    st.one_of(st.just(0.0), st.floats(0.0, 14.0).map(lambda e: 10.0**e)), st.integers(0, 2**32 - 1),
)
@example(7, 2, 1, "random", 1e12, 3)  # a 7-gon 1e12 away from the origin used to lose every mode
@example(7, 2, 1, "pure", 1e14, 0)
@settings(max_examples=40)
def test_presence_and_verdict_do_not_depend_on_the_translation(n, p, m, shape, factor, seed):
    """Moved by up to 1e14 times its size, a pure pair keeps its mode and its
    verdict, and a polygon keeps every mode standing above twice the
    centering noise floor; while all do, the flow commutes with the
    translation to within that floor."""
    rng = np.random.default_rng(seed)
    if shape == "pure":
        k = int(rng.integers(1, n // 2 + 1))
        x = Polygon(np.column_stack(real_basis(n, k)) @ rng.normal(size=(2, p)))
    else:
        x = Polygon(rng.uniform(-1.0, 1.0, size=(n, p)))
    direction = rng.normal(size=p)
    offset = factor * np.abs(x.vertices - centroid(x)).max() * direction / np.linalg.norm(direction)
    y = Polygon(x.vertices + offset)
    dec_x, dec_y = decompose(x), decompose(y)
    floor = CENTERING_NOISE_EPS * np.finfo(float).eps * math.sqrt(n) * np.linalg.norm(centroid(y))
    present = dec_x.present.tolist()
    standing = [k for k in present if dec_x.masses[k] > 2.0 * floor]
    assert set(standing) <= set(dec_y.present.tolist()) <= set(present)
    if shape == "pure":
        assert dec_y.present.tolist() == present == [k]
        assert classify_self_similar(dec_y, m) == classify_self_similar(dec_x, m)
    if standing == present:
        for t in (0.05, 1.0):
            gap = solve(y, m, t).vertices - (solve(x, m, t).vertices + offset)
            assert np.linalg.norm(gap) <= floor


@pytest.mark.parametrize("offset", [1e12, 1e13, 1e14])
def test_far_translated_polygon_keeps_its_modes(offset):
    x = np.random.default_rng(3).uniform(-1.0, 1.0, (7, 2))
    assert decompose(Polygon(x + offset)).present.tolist() == [1, 2, 3]


def test_constant_polygon_classifies_as_trivial():
    verdict = classify_self_similar(helpers.constant_polygon([1.0, 2.0], 5), 2)
    assert verdict is not None
    assert verdict.mode == 0
    assert verdict.rate == 0.0
    assert verdict.is_trivial


def test_generic_polygon_is_not_self_similar(rng):
    assert classify_self_similar(helpers.random_polygon(rng, 6), 1) is None


def test_small_contamination_blocks_classification():
    x = combination(7, [(2, 1.0), (3, 1e-7)])
    assert classify_self_similar(x, 1) is None


@given(
    st.integers(3, 300), st.integers(2, 3), st.integers(1, 3),
    st.sampled_from(("pure", "contaminated", "random", "constant")),
    st.integers(1, 150), st.integers(1, 150), st.floats(-11.0, -7.0).map(lambda e: 10.0**e),
    st.one_of(st.just(0.0), st.floats(0.0, 14.0).map(lambda e: 10.0**e)),
    st.sampled_from((1.0, 1e200, 1e-200)), st.integers(0, 2**32 - 1),
)
@example(8, 2, 1, "contaminated", 3, 1, 1e-10, 0.0, 1.0, 0)  # once "self-similar" in mode 3, dominant mode 1
@example(8, 2, 1, "contaminated", 3, 4, 1e-11, 0.0, 1e-200, 1)
@example(5, 3, 3, "pure", 2, 1, 1e-7, 1e14, 1e200, 2)
@example(300, 3, 2, "contaminated", 150, 1, 1e-7, 1e3, 1.0, 3)
@settings(max_examples=60)
def test_verdict_is_the_single_present_pair(n, p, m, shape, k, j, contamination, factor, scale, seed):
    """The self-similar verdict reads ``present`` alone: trivial with no
    present pair, that pair's mode and its bitwise ``flow_eigenvalue`` with
    exactly one, and None with two or more, however small the second.  The
    ``analyze`` report then names the same mode as both limits.  Shapes: a
    pure pair k, that pair plus a pair j != k of the given relative mass,
    random and constant polygons, translated up to 1e14 times their size
    and scaled by 1e+-200."""
    rng = np.random.default_rng(seed)
    half = n // 2
    k, j = 1 + (k - 1) % half, 1 + (j - 1) % half
    if shape == "constant":
        x = helpers.constant_polygon(rng.normal(size=p), n)
    elif shape == "random":
        x = Polygon(rng.uniform(-1.0, 1.0, size=(n, p)))
    else:
        v = np.column_stack(real_basis(n, k)) @ rng.normal(size=(2, p))
        if shape == "contaminated" and j != k:
            w = np.column_stack(real_basis(n, j)) @ rng.normal(size=(2, p))
            v = v + (contamination * np.linalg.norm(v) / np.linalg.norm(w)) * w
        x = Polygon(v)
    direction = rng.normal(size=p)
    offset = factor * np.abs(x.vertices - centroid(x)).max() * direction / np.linalg.norm(direction)
    y = Polygon(x.vertices + offset).scaled(scale)
    dec = decompose(y)
    present = dec.present.tolist()
    verdict = classify_self_similar(dec, m)
    assert (verdict is None) == (len(present) >= 2)
    if not present:
        assert verdict == SelfSimilarity(mode=0, rate=0.0, is_trivial=True)
    elif len(present) == 1:
        assert verdict == SelfSimilarity(mode=present[0], rate=circulant.flow_eigenvalue(n, m, present[0]), is_trivial=False)
    try:
        report = json.loads(cli._analyze_json(y, m, "drawn.json"))
    except FlowRangeError:  # at 1e200 the energy, which squares the edges, can leave float range
        with np.errstate(over="ignore"):
            assert not math.isfinite(energy(y, m))
        return
    if verdict is not None and not verdict.is_trivial:
        assert report["self_similar"]["mode"] == report["dominant_mode"] == report["ancient_mode"] == verdict.mode


# --- rescaled limits ------------------------------------------------------------------

def test_forward_limit_picks_dominant_mode():
    x = combination(5, [(1, 1.0), (2, 0.3)])
    k, limit = rescaled_limit(x, 2, "forward")
    assert k == 1
    assert helpers.sup_distance(limit, eigen_polygon(5, 1)) < 1e-12


def test_forward_limit_skips_absent_dominant_mode():
    x = combination(6, [(2, 1.0), (3, 0.4)])
    k, limit = rescaled_limit(x, 1, "forward")
    assert k == 2
    assert helpers.sup_distance(limit, eigen_polygon(6, 2)) < 1e-12


def test_ancient_limit_is_segment_for_even_n(rng):
    x = helpers.random_polygon(rng, 6)
    k, limit = rescaled_limit(x, 2, "ancient")
    assert k == 3
    dec = decompose(x)
    assert limit == mode_component(dec, 3)
    # mode 3 of an even cycle alternates two points: a doubled segment
    assert np.abs(limit.vertices[0::2] - limit.vertices[0]).max() < 1e-15
    assert np.abs(limit.vertices[1::2] + limit.vertices[0]).max() < 1e-15


def test_rescaled_deviation_converges_to_limit(rng):
    x = helpers.random_polygon(rng, 5)
    for m in (1, 2):
        operator = flow_solution(x, m)
        k, limit = rescaled_limit(x, m, "forward")
        gap = abs(
            circulant.flow_eigenvalue(5, m, 2) - circulant.flow_eigenvalue(5, m, 1)
        )
        t = 30.0 / gap
        got = operator.rescaled_deviation_at(t, k)
        assert helpers.sup_distance(got, limit) < 1e-10


def test_rescaled_ancient_deviation_converges(rng):
    x = helpers.random_polygon(rng, 6)
    operator = flow_solution(x, 1)
    k, limit = rescaled_limit(x, 1, "ancient")
    rates = operator.mode_rates
    gap = min(abs(rates[k] - rates[j]) for j in range(1, 4) if j != k)
    t = -30.0 / gap
    assert helpers.sup_distance(operator.rescaled_deviation_at(t, k), limit) < 1e-10


def test_rescaled_limit_rejects_constant():
    with pytest.raises(DegenerateModeError):
        rescaled_limit(helpers.constant_polygon([1.0, 1.0], 5), 1)
    with pytest.raises(ValueError):
        rescaled_limit(eigen_polygon(5, 1), 1, "sideways")


# --- affine equivariance ------------------------------------------------------------

def test_affine_pushforward_identity(rng):
    x = helpers.random_polygon(rng, 5, p=3)
    assert affine_pushforward(x, np.eye(3), np.zeros(3)) == x


def test_affine_pushforward_shape_errors(rng):
    x = helpers.random_polygon(rng, 5, p=3)
    with pytest.raises(ValueError):
        affine_pushforward(x, np.eye(2), np.zeros(2))
    with pytest.raises(ValueError):
        affine_pushforward(x, np.eye(3), np.zeros(2))


def test_flow_commutes_with_affine_maps(rng):
    x = helpers.random_polygon(rng, 6, p=3)
    e = rng.normal(size=(3, 3))
    a = rng.normal(size=3)
    for m in (1, 2):
        for t in (0.3, 1.5):
            left = solve(affine_pushforward(x, e, a), m, t)
            right = affine_pushforward(solve(x, m, t), e, a)
            assert helpers.sup_distance(left, right) < 1e-9


def test_codimension_limit_is_planar_affine_image(rng):
    planar = helpers.random_polygon(rng, 7)
    embed = rng.normal(size=(2, 4))
    shift = rng.normal(size=4)
    x = affine_pushforward(planar, embed, shift)
    k, limit = rescaled_limit(x, 2, "forward")
    assert x.p == 4
    singular = np.linalg.svd(limit.vertices - limit.vertices.mean(axis=0), compute_uv=False)
    assert singular[2] < 1e-9 * singular[0]
    assert singular[3] < 1e-9 * singular[0]
