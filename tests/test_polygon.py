import math
import sys
import tracemalloc
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from polyflow import circulant
from polyflow.polygon import (
    Polygon,
    _shift_near_one,
    centroid,
    difference_stack,
    eigen_polygon,
    energy,
    real_basis,
    reconcile_vertex_counts,
)

import helpers

SQUARE = Polygon(np.array([[1.0, 1.0], [-1.0, 1.0], [-1.0, -1.0], [1.0, -1.0]]))


# --- data model ----------------------------------------------------------------

def test_polygon_validation():
    with pytest.raises(ValueError):
        Polygon(np.array([[np.inf, 0.0]]))
    with pytest.raises(ValueError):
        Polygon(np.array([[np.nan, 0.0], [0.0, 1.0]]))
    with pytest.raises(ValueError):
        Polygon(np.array([1.0, 2.0]))      # not n x p
    with pytest.raises(ValueError):
        Polygon(np.zeros((4, 1)))          # p < 2
    with pytest.raises(ValueError):
        Polygon(np.zeros((0, 2)))


def test_polygon_accepts_degenerate_counts():
    assert Polygon(np.zeros((1, 2))).n == 1
    assert Polygon(np.zeros((2, 3))).n == 2


def test_polygon_value_semantics():
    a = Polygon(np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]))
    b = Polygon(np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]))
    c = Polygon(np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0 + 1e-15]]))
    assert a == b
    assert a != c
    assert np.allclose(a.vertices, c.vertices, atol=1e-12, rtol=0.0)
    with pytest.raises(ValueError):
        a.vertices[0, 0] = 5.0  # immutable storage


def test_arithmetic_refuses_mismatched_operands(rng):
    x = helpers.random_polygon(rng, 5)
    with pytest.raises(ValueError, match="shift must have shape"):
        x.translated([1.0, 2.0, 3.0])
    with pytest.raises(ValueError, match="polygon shapes differ"):
        x + helpers.random_polygon(rng, 6)
    with pytest.raises(ValueError, match="polygon shapes differ"):
        x - helpers.random_polygon(rng, 5, p=3)
    with pytest.raises(TypeError):
        x + 1
    assert (x == 1) is False


def test_complex_view_round_trip(rng):
    x = helpers.random_polygon(rng, 7)
    assert Polygon.from_complex(x.as_complex()) == x
    with pytest.raises(ValueError):
        helpers.random_polygon(rng, 5, p=3).as_complex()


# --- difference operator ---------------------------------------------------------

def test_difference_order_zero_is_refused(rng):
    with pytest.raises(ValueError, match="difference order must be >= 1"):
        difference_stack(helpers.random_polygon(rng, 5), 0)


def test_first_difference_is_consecutive_gap(rng):
    x = helpers.random_polygon(rng, 6)
    stack = difference_stack(x, 1)
    for j in range(6):
        expected = x.vertices[(j + 1) % 6] - x.vertices[j]
        assert np.array_equal(stack[j], expected)


def test_difference_of_constant_polygon_vanishes():
    const = helpers.constant_polygon([2.5, -3.5, 1.0], 5)
    for m in (1, 2, 5):
        assert np.array_equal(difference_stack(const, m), np.zeros((5, 3)))


def test_second_difference_on_square():
    # X_2 - 2 X_1 + X_0 at j = 0
    assert np.array_equal(difference_stack(SQUARE, 2)[0], [2.0, -2.0])


# --- energy ------------------------------------------------------------------------

def test_energy_examples(rng):
    assert energy(helpers.constant_polygon([1.0, 2.0], 5), 1) == 0.0
    assert energy(SQUARE, 1) == 8.0
    assert energy(helpers.random_polygon(rng, 6, p=4), 3) > 0.0


def test_energy_zero_iff_differences_vanish(rng):
    x = helpers.random_polygon(rng, 6)
    assert energy(x, 1) > 0.0
    assert np.abs(difference_stack(helpers.constant_polygon([0.5, 0.5], 6), 1)).max() == 0.0


# --- centroid -----------------------------------------------------------------------

def test_centroid_of_eigen_polygons_is_origin():
    for n in (3, 5, 8):
        for k in range(1, n):
            assert np.abs(centroid(eigen_polygon(n, k))).max() < 1e-14


def test_centroid_of_constant_polygon_is_exact():
    point = np.array([0.1, -0.7, 2.3])
    const = helpers.constant_polygon(point, 7)
    assert np.array_equal(centroid(const), point)


def _warnings_of(fn, x):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        value = fn(x)
    return value, {(w.category, str(w.message)) for w in caught}


@given(
    st.integers(0, 2**32 - 1),
    st.integers(3, 1500),
    st.lists(st.sampled_from([None, None, "zeros", 0.0, -0.0, 2.5, -1.7e308, 1.7e308]), min_size=2, max_size=4),
    st.sampled_from([1e-300, 1.0, 1e300, 1e307]),
)
@example(1, 5, ["zeros", 1.7e308], 1.0)  # signed zeros, and a constant column whose sum overflows
@example(2, 7, [None, None], 1e307)  # the sums overflow in both columns
@example(3, 20000, [None, -0.0, None], 1.0)  # columns longer than numpy's 8192-element buffer
def test_centroid_matches_the_per_column_mean(seed, n, columns, scale):
    """Bit for bit where the column loop's mean is finite.  Where its sum
    overflows, finite and within n eps max|column| of the mean of the exact
    sum.  No numpy warning either way."""
    rng = np.random.default_rng(seed)
    v = rng.normal(size=(n, len(columns))) * scale
    for i, column in enumerate(columns):
        if column == "zeros":
            v[:, i] = rng.choice([0.0, -0.0], size=n)
        elif column is not None:
            v[:, i] = column
    x = Polygon(v)
    got, raised = _warnings_of(centroid, x)
    expected, _ = _warnings_of(helpers.columnwise_centroid, x)
    assert not raised
    finite = np.isfinite(expected)
    assert got[finite].tobytes() == expected[finite].tobytes()
    for i in np.flatnonzero(~finite):
        exact = float(sum(map(Fraction, v[:, i].tolist())) / n)
        assert math.isfinite(got[i])
        assert abs(got[i] - exact) <= n * np.finfo(float).eps * np.abs(v[:, i]).max()


# --- eigen polygons and the real basis --------------------------------------------

def test_eigen_polygon_mode_zero_is_point():
    p0 = eigen_polygon(5, 0)
    assert np.array_equal(p0.vertices, np.tile([1.0, 0.0], (5, 1)))


def test_eigen_polygon_segment_mode():
    seg = eigen_polygon(6, 3)
    expected = np.array([[1.0, 0.0], [-1.0, 0.0]] * 3)
    assert np.array_equal(seg.vertices, expected)


def test_eigen_polygon_star_winds_k_times():
    for n, k in ((5, 2), (7, 3), (8, 3)):
        star = eigen_polygon(n, k)
        angles = np.arctan2(star.vertices[:, 1], star.vertices[:, 0])
        turns = np.diff(np.append(angles, angles[0]))
        turns = (turns + np.pi) % (2 * np.pi) - np.pi
        assert abs(turns.sum() / (2 * np.pi) - k) < 1e-9
        assert np.allclose(np.linalg.norm(star.vertices, axis=1), 1.0, atol=1e-15)


def test_real_basis_zero_sine_rows():
    assert np.array_equal(real_basis(5, 0)[1], np.zeros(5))
    assert np.array_equal(real_basis(8, 4)[1], np.zeros(8))
    with pytest.raises(ValueError):
        real_basis(5, 5)


def test_real_basis_matches_eigenpolygon_parts():
    for n, k in ((5, 2), (6, 3), (9, 4)):
        c, s = real_basis(n, k)
        col = circulant.fourier_matrix(n)[:, k]
        assert np.array_equal(c, col.real)
        assert np.array_equal(s, col.imag)


def test_fourier_matrix_and_real_basis_match_scalar_roots():
    for n in (3, 5, 8, 12, 63, 64, 65, 97, 129):  # 64-row gather blocks and their edges
        f = circulant.fourier_matrix(n)
        for k in range(n):
            expected = [helpers.root_of_unity(j * k % n, n) for j in range(n)]
            c, s = real_basis(n, k)
            assert f[:, k].tolist() == expected
            assert c.tolist() == [w.real for w in expected]
            assert s.tolist() == [w.imag for w in expected]


@given(st.integers(3, 12))
def test_real_basis_orthogonality(n):
    vectors = []
    for k in range(n // 2 + 1):
        c, s = real_basis(n, k)
        vectors.append(c)
        if np.any(s != 0.0):
            vectors.append(s)
    for i in range(len(vectors)):
        for j in range(i + 1, len(vectors)):
            assert abs(float(vectors[i] @ vectors[j])) < 1e-12 * n


# --- the power-of-two rescale -------------------------------------------------------

def test_shift_near_one_band_edges():
    # the binary exponent of frexp decides: 2^400 = 0.5 * 2^401 is beyond the band,
    # 2^-401 = 0.5 * 2^-400 is inside it
    cases = {
        0.0: 0,
        5e-324: 1073,
        2.0**-401: 0,
        2.0**-400: 0,
        2.0**400: -401,
        2.0**401: -402,
        sys.float_info.max: -1024,
    }
    for largest, shift in cases.items():
        assert _shift_near_one(largest) == shift
        if shift:
            assert 0.5 <= math.ldexp(largest, shift) < 1.0


# --- vertex count reconciliation ---------------------------------------------------

def test_reconcile_equal_counts_returns_inputs(rng):
    a = helpers.random_polygon(rng, 5)
    b = helpers.random_polygon(rng, 5)
    ra, rb = reconcile_vertex_counts(a, b, "duplicate")
    assert ra == a and rb == b


def test_reconcile_duplicate_repeats_final_vertex(rng):
    quad = helpers.random_polygon(rng, 4)
    pent = helpers.random_polygon(rng, 5)
    rq, rp = reconcile_vertex_counts(quad, pent, "duplicate")
    assert rq.n == rp.n == 5
    assert rp == pent
    assert np.array_equal(rq.vertices[:4], quad.vertices)
    assert np.array_equal(rq.vertices[4], quad.vertices[3])


def test_reconcile_midpoint_inserts_on_longest_edges():
    triangle = Polygon(np.array([[0.0, 0.0], [4.0, 0.0], [0.0, 3.0]]))
    pent = eigen_polygon(5, 1)
    rt, rp = reconcile_vertex_counts(triangle, pent, "midpoint")
    assert rt.n == 5 and rp == pent
    for vertex in rt.vertices:
        assert helpers.distance_to_polygon_edges(vertex, triangle) < 1e-12
    # first split bisects the hypotenuse, second the base (the next longest)
    expected = np.array([[0.0, 0.0], [2.0, 0.0], [4.0, 0.0], [2.0, 1.5], [0.0, 3.0]])
    assert np.array_equal(rt.vertices, expected)


@given(st.integers(3, 7), st.integers(8, 12), st.integers(0, 2**32 - 1))
def test_reconcile_preserves_drawn_image(n_small, n_big, seed):
    rng = np.random.default_rng(seed)
    small = helpers.random_polygon(rng, n_small, p=3)
    big = helpers.random_polygon(rng, n_big, p=3)
    for strategy in ("duplicate", "midpoint"):
        rs, rb = reconcile_vertex_counts(small, big, strategy)
        assert rs.n == rb.n == n_big
        assert rb == big
        for vertex in rs.vertices:
            assert helpers.distance_to_polygon_edges(vertex, small) < 1e-12


@given(
    st.integers(3, 8), st.integers(0, 60), st.integers(2, 4),
    st.booleans(), st.integers(0, 2**32 - 1),
)
@example(6, 4090, 2, False, 1)
@example(128, 3968, 3, False, 2)
@example(5, 4091, 4, True, 3)
@example(7, 40, 9, False, 4)  # p >= 8, where numpy's own row sum would be pairwise
def test_midpoint_matches_full_rescan_oracle(n, extra, p, on_grid, seed):
    rng = np.random.default_rng(seed)
    if on_grid:  # small integer coordinates: many tied and zero-length edges
        x = Polygon(rng.integers(-2, 3, size=(n, p)).astype(float))
    else:
        x = helpers.random_polygon(rng, n, p=p)
    grown, _ = reconcile_vertex_counts(x, helpers.random_polygon(rng, n + extra, p=p))
    assert grown == helpers.midpoint_grow(x, n + extra)


def test_midpoint_ties_split_the_lowest_edge_first():
    grown, _ = reconcile_vertex_counts(SQUARE, eigen_polygon(11, 1))
    assert grown == helpers.midpoint_grow(SQUARE, 11)
    # four equal edges split in index order, then the three lowest halves
    expected = [[1.0, 1.0], [0.5, 1.0], [0.0, 1.0], [-0.5, 1.0], [-1.0, 1.0], [-1.0, 0.5],
                [-1.0, 0.0], [-1.0, -1.0], [0.0, -1.0], [1.0, -1.0], [1.0, 0.0]]
    assert np.array_equal(grown.vertices, expected)


@pytest.mark.parametrize(
    "rows",
    [
        [[1.0, -2.0]] * 3,  # constant: every split is a tie at length zero
        [[0.0, 0.0], [0.0, 0.0], [1.0, 1.0]],  # one zero-length edge
        # one-ulp edges: a half can keep the length, so one edge splits
        # thousands deep past distinct midpoints and offsets must stay exact
        [[1.0, 0.0], [1.0 + 2**-52, 0.0], [1.0, 2**-52]],
        # the same far from the origin, where edges lie beyond 2^400 and the
        # lengths are taken of rescaled differences: they order edges alike
        [[1e155, 1e155], [1e155 * (1 + 2**-52), 1e155], [1e155, 1e155 * (1 + 2**-52)]],
        # constant up to signed zeros and steps of 2**-1074, compared bit for bit
        [[0.0, -0.0], [-0.0, 0.0], [0.0, 0.0]],
        [[-0.0, 0.0], [0.0, -(2.0**-1074)], [0.0, -0.0]],
        [[-(2.0**-1074), 0.0], [2.0**-1074, -0.0], [-0.0, 0.0]],
        # the positive edges split first, down to ends one float apart
        [[1.0, -0.0], [1.0 + 2**-50, 0.0], [1.0, 0.0], [1.0, 0.0]],
    ],
)
def test_midpoint_degenerate_edges_match_full_rescan_oracle(rows):
    x = Polygon(np.array(rows))
    grown, _ = reconcile_vertex_counts(x, eigen_polygon(4096, 1))
    assert grown.vertices.tobytes() == helpers.midpoint_grow(x, 4096).vertices.tobytes()


@pytest.mark.parametrize(
    ("rows", "copy"),
    [
        ([[1.0, -2.0]] * 3, [1.0, -2.0]),  # constant: every split is a tie at length zero
        ([[1.0, 0.0], [1.0 + 2**-52, 0.0], [1.0, 0.0]], [1.0, 0.0]),  # a one-float edge stays the longest
    ],
)
def test_midpoint_growth_that_repeats_one_vertex_takes_linear_memory(rows, copy):
    """Once a midpoint equals an end of its edge, each later insertion repeats
    it; the paths the splits would leave grew the memory with the square of
    the target (53 MB for the constant triangle at 10 000 vertices)."""
    x, target = Polygon(np.array(rows)), Polygon(np.zeros((10_000, 2)))
    tracemalloc.start()
    try:
        grown, _ = reconcile_vertex_counts(x, target)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 5e6
    assert np.array_equal(grown.vertices[1:9_998], np.repeat([copy], 9_997, axis=0))


@pytest.mark.parametrize(
    ("rows", "target", "k"),
    [
        # squares overflow: every edge used to tie and edge 0 took all five
        ([[0.0, 0.0], [1e160, 0.0], [0.0, 1e155]], 8, 532),
        ([[-1e308, 0.0], [1e308, 0.0], [0.0, 1e308]], 12, 1024),
        # squares underflow: ties at length zero used to split edge 0 ~4000 deep
        ([[0.0, 0.0], [1e-170, 0.0], [0.0, 1e-170]], 4096, -565),
    ],
)
def test_midpoint_beyond_the_squared_range_splits_the_longest_edge(rows, target, k):
    """Squared lengths overflow past ~1.3e154 and underflow below ~1e-162, so
    lengths are taken of exactly rescaled differences: the polygon grows as
    the oracle grows it scaled by 2**-k, to near one, and scaled back."""
    x = Polygon(np.array(rows))
    grown, _ = reconcile_vertex_counts(x, Polygon(np.zeros((target, 2))))
    near_one = helpers.midpoint_grow(Polygon(np.ldexp(x.vertices, -k)), target)
    assert np.array_equal(grown.vertices, np.ldexp(near_one.vertices, k))


def test_midpoint_of_subnormal_edges_splits_the_longest_edge():
    """Two edges two units of 2**-1074 long are scaled by 2**1023, the largest
    power of two, and split before the zero-length edge."""
    unit = 2.0**-1074
    triangle = Polygon(np.array([[0.0, 0.0], [2 * unit, 0.0], [0.0, 0.0]]))
    grown, _ = reconcile_vertex_counts(triangle, eigen_polygon(5, 1))
    assert np.array_equal(grown.vertices[:, 0], [0.0, unit, 2 * unit, unit, 0.0])


@pytest.mark.parametrize("p", [2, 8])
def test_midpoint_of_an_overflowing_sum_is_halved_first(p):
    """Two coordinates whose sum overflows have a finite midpoint, and near
    float max the lengths still order the edges: edge 1, then edge 2."""
    rows = [[1.5e308] * p, [1.7e308] * p, [1.6e308] * (p - 1) + [-1.0]]
    grown, _ = reconcile_vertex_counts(Polygon(np.array(rows)), Polygon(np.zeros((5, p))))
    split_1 = [0.5 * 1.7e308 + 0.5 * 1.6e308] * (p - 1) + [0.5 * (1.7e308 - 1.0)]
    split_2 = [0.5 * 1.6e308 + 0.5 * 1.5e308] * (p - 1) + [0.5 * (-1.0 + 1.5e308)]
    assert np.isfinite(split_1).all() and np.isfinite(split_2).all()
    assert np.array_equal(grown.vertices, [rows[0], rows[1], split_1, rows[2], split_2])


@given(
    st.integers(3, 8), st.integers(1, 40), st.integers(2, 9),
    st.sampled_from([-1000, -600, 600, 1000]), st.integers(0, 2**32 - 1),
)
@example(3, 40, 2, 1000, 0)
def test_midpoint_commutes_with_powers_of_two(n, extra, p, k, seed):
    """``grow(x * 2**k) == 2**k * grow(x)`` bit for bit, far outside the band
    where squared lengths stay in float range.  Coordinates are multiples of
    1/8, so neither the scaled input nor a midpoint is rounded."""
    rng = np.random.default_rng(seed)
    x = Polygon(rng.integers(-64, 65, size=(n, p)) / 8.0)
    other = Polygon(np.zeros((n + extra, p)))
    grown, _ = reconcile_vertex_counts(x, other)
    scaled, _ = reconcile_vertex_counts(x.scaled(2.0**k), other)
    assert np.array_equal(scaled.vertices, np.ldexp(grown.vertices, k))


def test_reconcile_rejects_mismatched_dimensions(rng):
    with pytest.raises(ValueError):
        reconcile_vertex_counts(
            helpers.random_polygon(rng, 4, p=2), helpers.random_polygon(rng, 5, p=3)
        )
    with pytest.raises(ValueError):
        reconcile_vertex_counts(
            helpers.random_polygon(rng, 4), helpers.random_polygon(rng, 5), "resample"
        )
