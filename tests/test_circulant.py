import math

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from polyflow import circulant
from polyflow.circulant import (
    CirculantMatrix,
    circulant_multiply,
    eigen_system,
    idft,
    matvec,
    power_of_m,
    second_difference,
)
from polyflow.polygon import Polygon, eigen_polygon

import helpers
from helpers import dft, minimal_r, um_value


# --- signed binomial coefficient function -----------------------------------

def test_um_value_band_examples():
    assert um_value(1, 3, 2, 0) == -2
    assert um_value(1, 3, 2, 1) == 1
    assert um_value(1, 3, 2, 5) == 1
    assert um_value(2, 6, 2, 3) == 0          # zero band
    assert um_value(2, 6, 2, 11) == -4        # (-1)^1 * C(4, 1)


def test_um_value_rejects_bad_arguments():
    with pytest.raises(ValueError):
        um_value(1, 3, 1, 0)   # 3 - 3 < 2
    with pytest.raises(ValueError):
        um_value(2, 6, 2, 12)  # k out of range
    with pytest.raises(ValueError):
        um_value(2, 6, 2, -1)


@given(st.integers(1, 6), st.integers(3, 12), st.integers(0, 10))
def test_um_recurrence(m, n, extra_r):
    r = minimal_r(m + 1, n) + extra_r % 2
    rn = r * n
    for k in range(rn):
        lhs = um_value(m + 1, n, r, k)
        rhs = (
            um_value(m, n, r, (k + 1) % rn)
            - 2 * um_value(m, n, r, k)
            + um_value(m, n, r, (k - 1) % rn)
        )
        assert lhs == rhs


@given(st.integers(1, 8), st.integers(3, 12))
def test_um_symmetry(m, n):
    r = minimal_r(m, n)
    rn = r * n
    for k in range(rn):
        assert um_value(m, n, r, k) == um_value(m, n, r, (rn - k) % rn)


def test_minimal_r_examples():
    assert minimal_r(1, 3) == 2
    assert minimal_r(1, 6) == 1
    assert minimal_r(3, 3) == 3


@given(st.integers(1, 30), st.integers(3, 40))
def test_minimal_r_is_smallest(m, n):
    r = minimal_r(m, n)
    assert r * n >= 2 * m + 3
    assert (r - 1) * n < 2 * m + 3


# --- powers of the difference matrix ----------------------------------------

def test_power_rows_match_known_hexagon_values():
    assert power_of_m(6, 1).first_row == (-2, 1, 0, 0, 0, 1)
    assert power_of_m(6, 2).first_row == (6, -4, 1, 0, 1, -4)
    assert power_of_m(6, 3).first_row == (-20, 15, -6, 2, -6, 15)


def test_power_row_entries_are_symmetric_with_zero_sum():
    for n in range(3, 11):
        for m in range(1, 7):
            mat = power_of_m(n, m)
            assert sum(mat.first_row) == 0
            for k in range(1, n):
                assert mat.first_row[k] == mat.first_row[n - k]


def test_power_insensitive_to_repetition_count():
    for n in (3, 5, 8):
        for m in (1, 2, 4):
            r = minimal_r(m, n)
            assert helpers.power_from_um(n, m, r + 1) == power_of_m(n, m).first_row


def test_power_matches_um_window_sum_oracle():
    for n in range(3, 41):
        for m in range(1, circulant.M_MAX + 1):
            row = power_of_m(n, m).first_row
            r = minimal_r(m, n)
            for extra in range(3):
                assert row == helpers.power_from_um(n, m, r + extra)


def test_power_rejects_out_of_budget_order():
    with pytest.raises(OverflowError):
        power_of_m(5, circulant.M_MAX + 1)


def test_eigenvalue_beyond_float_range_names_its_mode():
    assert circulant.flow_eigenvalue(5, 1000, 1) == -((4.0 * math.sin(math.pi / 5) ** 2) ** 1000)
    with pytest.raises(OverflowError, match=r"^the order-1000 flow eigenvalue of mode 2 for n=5 "):
        circulant.flow_eigenvalue(5, 1000, 2)


def test_multiply_reproduces_square_of_m():
    m1 = CirculantMatrix(6, (-2, 1, 0, 0, 0, 1))
    assert circulant_multiply(m1, m1).first_row == (6, -4, 1, 0, 1, -4)


def test_multiply_identity():
    a = power_of_m(7, 3)
    identity = CirculantMatrix(7, (1, 0, 0, 0, 0, 0, 0))
    assert circulant_multiply(a, identity) == a


def test_triple_product_matches_closed_form():
    m1 = second_difference(5)
    product = circulant_multiply(circulant_multiply(m1, m1), m1)
    assert product == power_of_m(5, 3)


@given(st.integers(3, 10), st.integers(1, 6))
def test_power_equals_iterated_multiplication(n, m):
    mat = second_difference(n)
    acc = mat
    for _ in range(m - 1):
        acc = circulant_multiply(acc, mat)
    assert acc == power_of_m(n, m)


def test_multiply_rejects_size_mismatch():
    with pytest.raises(ValueError):
        circulant_multiply(second_difference(5), second_difference(6))


# --- applying the matrix ------------------------------------------------------

def test_apply_constant_polygon_is_exactly_zero():
    const = helpers.constant_polygon([0.3, -1.7], 6)
    image = matvec(second_difference(6), const.vertices)
    assert np.array_equal(image, np.zeros((6, 2)))


def test_apply_unit_square_vertex_zero():
    square = Polygon(np.array([[1.0, 1.0], [-1.0, 1.0], [-1.0, -1.0], [1.0, -1.0]]))
    image = matvec(second_difference(4), square.vertices)
    assert np.allclose(image[0], [-2.0, -2.0], atol=0)


def test_apply_rejects_size_mismatch():
    with pytest.raises(ValueError):
        matvec(second_difference(5), eigen_polygon(6, 1).vertices)


def test_matvec_matches_dense_oracle(rng):
    for n in (3, 5, 8, 11):
        for m in (1, 2, 4):
            mat = power_of_m(n, m)
            dense = helpers.dense_circulant(mat.first_row)
            v = rng.normal(size=(n, 3))
            assert np.allclose(matvec(mat, v), dense @ v, atol=1e-10)



@given(
    st.integers(3, 300),
    st.integers(1, 20),
    st.sampled_from((None, 2, 3, 4, 5)),
    st.booleans(),
    st.sampled_from((0.0, 0.2, 1.0)),
    st.sampled_from(("power", "band", "any")),
    st.booleans(),
    st.integers(0, 2**32 - 1),
)
@example(3, 2, None, False, 0.2, "power", False, 0)  # n < 2m + 1: offsets wrap and collide
@example(5, 4, 2, True, 0.2, "power", False, 1)
@example(4, 20, 3, False, 0.0, "power", False, 2)
@example(6, 3, 5, True, 0.2, "power", False, 3)  # offset n/2 is the widest fold
@example(300, 20, 2, False, 0.0, "power", False, 4)
@example(64, 1, 2, False, 1.0, "power", False, 5)  # all signed zeros: the zero start decides their sign
@example(7, 2, None, True, 1.0, "power", False, 6)
@example(40, 6, 2, False, 0.2, "band", True, 7)  # zeros inside the band meet inf and nan
@example(9, 1, 3, True, 0.2, "any", True, 8)
@example(31, 3, None, False, 0.0, "any", False, 9)
def test_stencil_is_bitwise_the_gather_oracle(n, m, p, is_complex, zeros, rows, special, seed):
    rng = np.random.default_rng(seed)
    shape = (n,) if p is None else (n, p)
    values = rng.normal(size=shape)
    if is_complex:
        values = values + 1j * rng.normal(size=shape)
    mask = rng.random(size=shape) < zeros
    values[mask] = np.copysign(0.0, rng.normal(size=shape))[mask]
    if special:
        picks = rng.random(size=shape)
        values[picks < 0.1] = rng.choice([np.inf, -np.inf, np.nan], size=shape)[picks < 0.1]
    if rows == "power":
        mat = power_of_m(n, m)
    else:  # integer rows with zeros among the nonzero entries
        first_row = [0] * n
        for s in range(-m, m + 1) if rows == "band" else range(n):
            first_row[s % n] += int(rng.integers(-9, 10)) * int(rng.random() < 0.6)
        mat = CirculantMatrix(n, tuple(first_row))
    with np.errstate(invalid="ignore"):  # inf - inf in both maps
        expected = helpers.gather_stencil(mat)(values)
        got = circulant.stencil(mat)(values)
    assert got.dtype == expected.dtype and got.shape == expected.shape
    # compare real and imaginary parts one by one: equal bits, or nan in both
    got, expected = got.view(np.float64), expected.view(np.float64)
    nan = np.isnan(expected)
    assert np.array_equal(np.isnan(got), nan)
    assert got[~nan].tobytes() == expected[~nan].tobytes()


def test_eigen_relation_on_eigenpolygons():
    for n in range(3, 13):
        f = circulant.fourier_matrix(n)
        for m in range(1, 5):
            mat = power_of_m(n, m)
            sign = 1.0 if (m + 1) % 2 == 0 else -1.0
            for k in range(n):
                lam = circulant.flow_eigenvalue(n, m, k)
                residual = sign * matvec(mat, f[:, k]) - lam * f[:, k]
                assert np.abs(residual).max() < 1e-9


def test_nullspace_is_constant_vectors(rng):
    for n in (4, 7):
        for m in (1, 3):
            mat = power_of_m(n, m)
            base = helpers.constant_polygon(rng.normal(size=2), n)
            wobble = Polygon(base.vertices + rng.normal(size=(n, 2)) * 1e-16)
            for poly in (base, wobble):
                image = matvec(mat, poly.vertices)
                if np.abs(image).max() < 1e-12:
                    residual = poly.vertices - poly.vertices.mean(axis=0)
                    assert np.abs(residual).max() < 1e-9
            generic = helpers.random_polygon(rng, n)
            assert np.abs(matvec(mat, generic.vertices)).max() > 1e-6


# --- eigen system --------------------------------------------------------------

def test_eigenvalue_examples():
    for m in range(1, circulant.M_MAX + 1):
        assert eigen_system(6, m)[1] == -1.0
    assert circulant.lambda_base(4, 1) == -2.0
    assert circulant.flow_eigenvalue(4, 2, 1) == -4.0
    for n in (3, 4, 9):
        assert eigen_system(n, 3)[0] == 0.0


def test_eigenvalue_structure():
    for n in range(3, 13):
        for m in (1, 2, 4):
            lam = eigen_system(n, m)
            assert lam[0] == 0.0
            for k in range(1, n):
                assert lam[k] == lam[n - k]       # folded index: bitwise pairs
                assert lam[k] < 0.0
            for k in range(2, n // 2 + 1):
                assert lam[k] < lam[1] < 0.0
                assert lam[k] < lam[k - 1]


def test_eigenpolygon_entries_unit_modulus():
    for n in (3, 5, 8, 12):
        f = circulant.fourier_matrix(n)
        assert np.allclose(np.abs(f), 1.0, atol=1e-15)


# --- discrete Fourier transform ----------------------------------------------

def test_dft_constant_vector():
    out = dft(np.ones(4))
    assert np.array_equal(out, np.array([4, 0, 0, 0], dtype=complex))


@given(st.integers(1, 16), st.integers(0, 2**32 - 1))
def test_dft_round_trip(n, seed):
    rng = np.random.default_rng(seed)
    v = rng.normal(size=n) + 1j * rng.normal(size=n)
    assert np.abs(idft(dft(v)) - v).max() < 1e-12 * max(1.0, np.abs(v).max())


def test_idft_is_bitwise_the_conjugate_matrix_product(rng):
    """Conjugating the Fourier matrix in place changes no bit of the transform."""
    for n in list(range(3, 41)) + [97, 256, 257, 1024]:
        v = rng.normal(size=n) + 1j * rng.normal(size=n)
        assert np.array_equal(idft(v), circulant.fourier_matrix(n).conjugate() @ (v / n))


def test_idft_of_entries_near_float_max_is_finite():
    """Dividing by n before the sums keeps a constant vector at 1e308 finite."""
    for n in (3, 5, 8, 97):
        coeffs = idft(np.full(n, 1e308 + 1e308j))
        assert np.isfinite(coeffs).all() and np.isclose(coeffs[0], 1e308 + 1e308j, rtol=1e-14, atol=0.0)


def test_diagonalization_rebuilds_flow_matrix():
    for n in (3, 6, 9):
        for m in (1, 2, 3):
            f = circulant.fourier_matrix(n)
            lam = eigen_system(n, m)
            rebuilt = (f * lam) @ f.conjugate() / n
            sign = 1.0 if (m + 1) % 2 == 0 else -1.0
            dense = sign * helpers.dense_circulant(power_of_m(n, m).first_row)
            assert np.abs(rebuilt - dense).max() < 1e-9


# --- construction validation ----------------------------------------------------

def test_circulant_matrix_validation():
    with pytest.raises(ValueError):
        CirculantMatrix(2, (1, 1))
    with pytest.raises(ValueError):
        CirculantMatrix(4, (1, 1, 1))
