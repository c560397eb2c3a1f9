"""The laws of the closed-form flows, on Hypothesis draws.

X(t) is ``solve(X0, m, t)``, or ``yau_solve`` of X0 toward a target Y:

- cyclic relabelling: relabelling X0 (and Y) by ``np.roll`` relabels X(t);
- reversal: reversing the vertex order of X0 (and Y) reverses X(t);
- superposition: the flow of X0 + X1 (toward Y + Y1) is the sum of the two
  flows;
- the semigroup law: X(t1 + t2) is X(t1) evolved for t2 more.

None holds bit for bit: the real FFT rounds relabelled, reversed or summed
data differently, so each law holds within a bound in units of
eps * S, S the sum of max|.| over the polygons the law starts from (X0 and
Y, or X0, X1, Y and Y1).  Each bound is about 1.5 times the largest error
measured over 15 000 uniform draws of the test's parameters.

The draws are forward flows, t >= 0: every mode decays, so X(t) stays of
the size of X0 (and Y) and eps * S is the scale of its rounding.  The coordinates are uniform in
[-10^k, 10^k], k = -3..3, the polygon moved or not by up to 100 * 10^k a
coordinate, so every mode pair of X0 lies far above the presence floor of
``decompose``.
"""
import numpy as np
from hypothesis import assume, example, given
from hypothesis import strategies as st

from polyflow.polygon import Polygon
from polyflow.spectral_flow import decompose, solve
from polyflow.yau_flow import YauProblem, yau_solve

EPS = np.finfo(float).eps

# largest error over 15 000 draws, in eps * S: relabelling 7.2, reversal
# 7.2, superposition 3.7, semigroup 4.1 (12 000 draws, 7 300 kept)
C_RELABEL = 11.0
C_REVERSE = 11.0
C_SUPERPOSE = 6.0
C_SEMIGROUP = 6.0


def draw(rng, n, p, decade, moved):
    """n vertices in R^p with coordinates uniform in [-10^decade, 10^decade],
    moved by up to 100 * 10^decade a coordinate when ``moved``."""
    side = 10.0**decade
    shift = rng.uniform(-100.0 * side, 100.0 * side, size=p) if moved else np.zeros(p)
    return rng.uniform(-side, side, size=(n, p)) + shift


def flow(x0, y, m, t):
    """The vertices of X(t) from vertices x0: the order-m flow, or the Yau
    flow toward vertices y unless y is None."""
    if y is None:
        return solve(Polygon(x0), m, t).vertices
    return yau_solve(YauProblem(m, Polygon(x0), Polygon(y)), t).vertices


def scale(*polygons):
    """eps * S: the sum of max|.| over the polygons that are not None."""
    return EPS * sum(float(np.abs(v).max()) for v in polygons if v is not None)


draws = given(
    st.integers(3, 300), st.sampled_from([2, 3]), st.integers(1, 3), st.floats(0.0, 5.0),
    st.integers(-3, 3), st.booleans(), st.booleans(), st.integers(0, 2**32 - 1),
)


@draws
@example(3, 2, 1, 0.0, 0, False, False, 0)
@example(300, 3, 3, 5.0, 3, True, True, 1)
@example(64, 2, 2, 0.5, -3, True, False, 2)
def test_relabelling_and_reversal_commute_with_the_flow(n, p, m, t, decade, moved, yau, seed):
    rng = np.random.default_rng(seed)
    x0 = draw(rng, n, p, decade, moved)
    y = draw(rng, n, p, decade, moved) if yau else None
    shift = int(rng.integers(1, n))
    x = flow(x0, y, m, t)
    for relabel, bound in (
        (lambda v: np.roll(v, shift, axis=0), C_RELABEL),
        (lambda v: v[::-1], C_REVERSE),
    ):
        relabelled = flow(relabel(x0), None if y is None else relabel(y), m, t)
        assert np.abs(relabelled - relabel(x)).max() <= bound * scale(x0, y)


@draws
@example(3, 2, 1, 0.0, 0, False, False, 0)
@example(300, 3, 3, 5.0, 3, True, True, 1)
@example(97, 2, 2, 0.5, -3, True, True, 2)
def test_the_flow_of_a_sum_is_the_sum_of_the_flows(n, p, m, t, decade, moved, yau, seed):
    rng = np.random.default_rng(seed)
    x0, x1 = draw(rng, n, p, decade, moved), draw(rng, n, p, decade, moved)
    y, y1 = (draw(rng, n, p, decade, moved), draw(rng, n, p, decade, moved)) if yau else (None, None)
    summed = flow(x0 + x1, None if y is None else y + y1, m, t)
    assert np.abs(summed - (flow(x0, y, m, t) + flow(x1, y1, m, t))).max() <= C_SUPERPOSE * scale(x0, y, x1, y1)


@given(
    st.integers(3, 300), st.sampled_from([2, 3]), st.integers(1, 3), st.floats(0.0, 2.5),
    st.floats(0.0, 2.5), st.integers(-3, 3), st.booleans(), st.integers(0, 2**32 - 1),
)
@example(3, 2, 1, 0.0, 0.0, 0, False, 0)
@example(300, 3, 1, 2.5, 2.5, 3, True, 1)
@example(50, 2, 3, 0.1, 0.2, -3, True, 2)
def test_the_flow_from_an_evolved_polygon_continues_it(n, p, m, t1, t2, decade, moved, seed):
    """X(t1 + t2) against X(t1) evolved for t2, only on draws where no mode
    crosses the presence floor between the two decompositions, X0's and
    X(t1)'s.  A mode that decays below the floor by t1 is flushed from the
    second evolution but not from the first, and the law then fails by far
    more than rounding: over 12 000 draws the error was at most 4.1
    eps * max|X0| with the floors at 0, against 1 500 with them on."""
    x0 = Polygon(draw(np.random.default_rng(seed), n, p, decade, moved))
    mid = solve(x0, m, t1)
    assume(np.array_equal(decompose(x0).present, decompose(mid).present))
    error = np.abs(solve(mid, m, t2).vertices - solve(x0, m, t1 + t2).vertices).max()
    assert error <= C_SEMIGROUP * scale(x0.vertices)
