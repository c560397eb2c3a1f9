import gc
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from polyflow import circulant
from polyflow.polygon import Polygon, centroid, eigen_polygon, energy, real_basis
from polyflow.spectral_flow import (
    DegenerateModeError,
    FlowRangeError,
    FlowSolution,
    affine_pushforward,
    classify_self_similar,
    decompose,
    flow_solution,
    mode_component,
    rescaled_limit,
    solve,
)

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
    assert dec.present_modes() == [3]


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


def test_planar_decompose_holds_one_dense_matrix_and_keeps_none(rng):
    n = 512
    x = helpers.random_polygon(rng, n)
    circulant.roots_of_unity(n)  # the cached O(n) root table is not measured
    dense = n * n * 16  # bytes of one n x n complex matrix
    gc.collect()
    tracemalloc.start()
    try:
        dec = decompose(x)
        gc.collect()
        retained, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert dec.planar_coeffs is not None
    assert retained < 0.25 * dense
    assert peak < 1.5 * dense


def test_decompose_rejects_tiny_polygons():
    with pytest.raises(ValueError):
        decompose(Polygon(np.zeros((2, 2))))


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
    assert dec.masses.tobytes() == masses.tobytes()
    assert dec.shift == shift
    assert dec.present.dtype == np.intp
    assert dec.present.tolist() == present.tolist()


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
@settings(max_examples=40)
def test_semigroup_property(n, m, s, t, seed):
    x = helpers.random_polygon(np.random.default_rng(seed), n, p=3)
    once = solve(x, m, s + t)
    twice = solve(solve(x, m, s), m, t)
    assert helpers.sup_distance(once, twice) < 1e-9


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
    assert decompose(pure).present_modes() == [k]
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
    """The inverse transform overflows although every coefficient is finite:
    one FlowRangeError and no numpy warning, which the suite turns into errors."""
    x = Polygon(np.array([[0.0] * p] * 3 + [[1.6e308] + [0.0] * (p - 1)]))
    solution = flow_solution(x, 1)
    with pytest.raises(FlowRangeError, match=r"evolution left floating range at t=0\.05"):
        solution.polygon_at(0.05)


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
    present, verdict = decompose(x).present_modes(), classify_self_similar(x, m)
    for scale in (1e200, 1e-200, 1e155, 1e-170):
        y = x.scaled(scale)
        assert decompose(y).present_modes() == present
        assert classify_self_similar(y, m) == verdict
    # a decimal scale rounds the input; a power of two scales the flow exactly
    expected = solve(x, m, 0.05).vertices
    for k in (664, -664, 515, -565):
        flowed = solve(x.scaled(2.0**k), m, 0.05).vertices
        assert np.array_equal(flowed, np.ldexp(expected, k))


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
