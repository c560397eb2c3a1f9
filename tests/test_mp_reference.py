"""The closed forms against a 40-digit reference built from the defining sums."""
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from polyflow import Polygon, YauProblem
from polyflow.spectral_flow import CENTERING_NOISE_EPS, PRESENCE_RELATIVE_THRESHOLD, decompose, solve
from polyflow.yau_flow import yau_solve

import helpers

pytest.importorskip("mpmath")

EPS = np.finfo(float).eps


def _far_above_the_presence_floors(x: Polygon) -> bool:
    """Every shape pair of x lies a million times above both presence floors."""
    masses = decompose(x).masses
    floor = max(PRESENCE_RELATIVE_THRESHOLD * masses[1:].max(), CENTERING_NOISE_EPS * EPS * masses[0])
    return bool(masses[1:].min() > 1e6 * floor)


@given(
    st.integers(3, 64), st.sampled_from([2, 3]), st.integers(1, 3), st.floats(0.0, 2.0),
    st.sampled_from([0, 401, -401, 700, -700, 1000, -1000]), st.integers(0, 2**32 - 1),
)
@example(64, 3, 3, 2.0, 0, 0)
@example(3, 2, 1, 0.0, 0, 1)
@example(64, 3, 1, 0.5, 1000, 2)
@example(17, 2, 2, 1.0, -1000, 3)
@settings(max_examples=25)
def test_solve_and_yau_solve_lie_within_a_few_eps_of_a_40_digit_reference(n, p, m, t, e, seed):
    """``solve`` within 4 eps max|X0| and ``yau_solve`` within
    4 eps (max|X0| + max|Y|) of the 40-digit flow, the Yau one as Y plus the
    flow of X0 - Y, with both polygons times 2^e, e in {0, +-401, +-700,
    +-1000}.  Over 3000 draws at e = 0 the worst were 2.02 and 1.54 eps, the
    medians 0.44 and 0.33; over 70 draws, 10 of each e, the worst was
    1.38 eps, as before the one-frame evaluation.
    ``column_shifts`` is read-only, 0 for every column at e = 0 and nonzero
    for every column at |e| >= 700."""
    rng = np.random.default_rng(seed)
    x0 = Polygon(np.ldexp(rng.normal(size=(n, p)) + 3.0 * rng.normal(size=p), e))
    y = Polygon(np.ldexp(rng.normal(size=(n, p)) + 3.0 * rng.normal(size=p), e))
    assert _far_above_the_presence_floors(x0) and _far_above_the_presence_floors(Polygon(x0.vertices - y.vertices))
    shifts = decompose(x0).column_shifts
    assert not shifts.flags.writeable
    if e == 0:
        assert not shifts.any()
    elif abs(e) >= 700:
        assert shifts.all()
    size_x, size_y = np.abs(x0.vertices).max(), np.abs(y.vertices).max()
    reference = helpers.mp_flow(x0, m, t)
    assert helpers.mp_distance(solve(x0, m, t).vertices, reference) <= 4 * EPS * size_x
    reference = helpers.mp_flow(x0, m, t, target=y)
    assert helpers.mp_distance(yau_solve(YauProblem(m, x0, y), t).vertices, reference) <= 4 * EPS * (size_x + size_y)
