import importlib
import itertools
import math
import tracemalloc
import warnings
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from polyflow import spectral_flow
from polyflow.circulant import M_MAX, flow_eigenvalue
from polyflow.integrate import (
    RK4_STABILITY_BOUND,
    DivergenceError,
    IntegratorConfig,
    PolyharmonicKind,
    StiffnessWarning,
    YauKind,
    _flow_powers,
    _step_row,
    integrate,
    stability_limit,
)
from polyflow.polygon import Polygon, eigen_polygon
from polyflow.yau_flow import YauProblem, yau_solve

import helpers

integrate_module = importlib.import_module("polyflow.integrate")  # the package's `integrate` is the function

# B's entries against the exact 64th power of the float step row, in eps: the
# largest error over 4000 draws (n 3-33, m 1-3, dt |rate_max| 0.01-2.78, half
# of them above 2.5) was 6.5 eps.
C_BLOCK = 16

# A run's final state against its spectral image, per step: the largest gap
# over 5000 draws (n 3-199, p 2-3, m 1-3, dt |rate_max| 0.01-2.78, 1-400
# steps, 3000 of them with 1-8 steps, half with a partial step, scales and
# offsets 1e+-3) was 2.65 N eps (max|X0| + max|Y|), at N = 1, where the
# transforms' own rounding dominates; the median was 0.03.
C_IMAGE = 4.0

# A run of the reversed X0 and Y against the reversed run, per step of the
# run: the largest gap over 2600 draws (n 3-64, p 2-3, m 1-3, dt |rate_max|
# 0.01-2.78, 0-200 steps, half of them at most 8, half with a partial step)
# was 0.93 N eps (max|X0| + max|Y|), at N = 1.
C_REVERSAL = 2.0


def test_config_validation(rng):
    kind = PolyharmonicKind(1)
    with pytest.raises(ValueError):
        IntegratorConfig(dt=0.0, t_final=1.0, kind=kind)
    with pytest.raises(ValueError):
        IntegratorConfig(dt=-0.1, t_final=1.0, kind=kind)
    with pytest.raises(ValueError):
        IntegratorConfig(dt=0.1, t_final=-1.0, kind=kind)
    with pytest.raises(ValueError):
        IntegratorConfig(dt=0.1, t_final=1.0, kind=PolyharmonicKind(0))
    with pytest.raises(ValueError):
        integrate(
            helpers.random_polygon(rng, 5),
            IntegratorConfig(dt=0.1, t_final=1.0, kind=YauKind(1, helpers.random_polygon(rng, 6))),
        )


@pytest.mark.parametrize("m", range(1, M_MAX + 1))
def test_constant_polygons_and_yau_runs_at_their_target_stay_bitwise_fixed(rng, m):
    """Rows of A^k sum to zero, so the step's differences vanish on a constant
    state and on a Yau difference of zero, whether the band of R(hA), 8m + 1
    wide, fits the polygon or wraps (n <= 8m)."""
    for n in (3, 4, 2 * m + 1, 8 * m, 8 * m + 1, 8 * m + 6):
        dt = 0.1 / stability_limit(n, m)
        for point in (rng.normal(size=3), [1e308, -3e307, 2e306]):  # the last runs scaled near one
            x = helpers.constant_polygon(point, n)
            traj = integrate(x, IntegratorConfig(dt=dt, t_final=5.5 * dt, kind=PolyharmonicKind(m)))
            assert all(q.vertices.tobytes() == x.vertices.tobytes() for q in traj.polygons)
        y = helpers.random_polygon(rng, n, p=3)
        traj = integrate(y, IntegratorConfig(dt=dt, t_final=5.5 * dt, kind=YauKind(m, y)))
        assert all(q.vertices.tobytes() == y.vertices.tobytes() for q in traj.polygons)


@given(st.integers(3, 40), st.integers(1, 4), st.floats(1e-4, 2.7), st.booleans())
@example(3, 4, 2.7, False)  # a band of 33 entries folded onto 3
@example(8, 1, 2.5, False)  # 8m + 1 = n + 1: offsets +-4 meet at n/2
@example(7, 2, 1e-4, True)
@example(5, 1, 1e60, False)  # a step far past the stability bound
@example(256, 3, 0.1, False)  # a band of 25 offsets in a row of 256
def test_the_step_row_is_the_oracles_row_bitwise(n, m, ratio, tiny):
    """The library's exact row of R(hA) - I, rounded once per entry, is the
    row the dense Fraction oracle builds, bit for bit."""
    h = (1e-300 if tiny else ratio) / stability_limit(n, m)
    row = _step_row(_flow_powers(n, m), h)
    expected = helpers.rk4_step_row(n, m, h)
    assert [(s, q.hex()) for s, q in row] == [(s, q.hex()) for s, q in expected]
    assert [s for s, _ in row] == sorted({s for s, _ in row})
    assert all(-n < 2 * s <= n and s != 0 for s, _ in row)


@pytest.mark.parametrize("m", [1, M_MAX])
def test_a_step_with_coefficients_beyond_float_range_is_refused(m):
    """Near dt * |rate_max| = 1e77 an entry of R(hA) leaves float range, and
    inf * 0 would turn even a constant polygon into nan."""
    x = helpers.constant_polygon([3.0, 1.0], 5)
    dt = 1e80 / stability_limit(5, m)
    with pytest.warns(StiffnessWarning), pytest.raises(OverflowError, match="beyond float range"):
        integrate(x, IntegratorConfig(dt=dt, t_final=dt, kind=PolyharmonicKind(m)))
    with pytest.warns(StiffnessWarning):  # far past the bound, yet within float range
        traj = integrate(x, IntegratorConfig(dt=1e10, t_final=1e11, kind=PolyharmonicKind(m)))
    assert all(q == x for q in traj.polygons)


@pytest.mark.parametrize("n, m, k", [(6, 1, 3), (7, 1, 2), (8, 2, 1), (9, 3, 4), (12, 2, 5), (16, 3, 8), (5, 4, 2)])
@pytest.mark.parametrize("ratio", [0.05, 1.0, 2.7])
def test_one_step_scales_an_eigenpolygon_by_the_stability_function(n, m, k, ratio):
    """Eigenpolygon k of A is an eigenvector of R(hA) with eigenvalue
    R(h lambda_k).  Each of the K coefficients and differences is rounded
    once and the sum K - 1 times, and lambda_k itself carries a few
    rounding errors, so the step lies within
    eps * max|X0| * (2 + 2 (K + 3) sum|q_s| + 4 m h |lambda_k| |R'(h lambda_k)|)
    of R(h lambda_k) X0."""
    x0 = eigen_polygon(n, k)
    h = ratio / stability_limit(n, m)
    z = h * flow_eigenvalue(n, m, k)
    r, slope = 1 + z + z**2 / 2 + z**3 / 6 + z**4 / 24, 1 + z + z**2 / 2 + z**3 / 6
    row = _step_row(_flow_powers(n, m), h)
    scale = float(np.abs(x0.vertices).max())
    bound = np.finfo(float).eps * scale * (
        2 + 2 * (len(row) + 3) * sum(abs(q) for _, q in row) + 4 * m * abs(z) * abs(slope)
    )
    stepped = integrate(x0, IntegratorConfig(dt=h, t_final=h, kind=PolyharmonicKind(m))).final()
    assert np.abs(stepped.vertices - r * x0.vertices).max() <= bound


@pytest.mark.parametrize("run", ["odd", "even", "yau", "scaled", "replay", "partial", "short", "stiff", "past-cap"])
def test_a_run_builds_its_stencil_once(rng, monkeypatch, run):
    """One step map per step size serves every step, block and replay of a
    run: the whole step's, and the shorter final step's when there is one.
    A run of 64 or more whole steps that is neither stiff nor past the size
    cap also builds exactly one block map, from the whole step's row."""
    step_row, row_map, block_map = integrate_module._step_row, integrate_module._row_map, integrate_module._block_map
    rows, maps, blocks = [], [], []

    def counted_row(powers, h):
        rows.append((h, step_row(powers, h)))
        return rows[-1][1]

    def counted_map(row, like):
        maps.append(like.shape)
        return row_map(row, like)

    def counted_block(row, like):
        blocks.append((row, like.shape))
        return block_map(row, like)

    monkeypatch.setattr(integrate_module, "_step_row", counted_row)
    monkeypatch.setattr(integrate_module, "_row_map", counted_map)
    monkeypatch.setattr(integrate_module, "_block_map", counted_block)
    n, p = (16, 1093) if run == "past-cap" else (7, 2)  # 15 * 16 * 1093 floats exceed 2**18
    x = helpers.random_polygon(rng, n, p)
    kinds = {"even": PolyharmonicKind(2), "yau": YauKind(1, helpers.random_polygon(rng, n, p))}
    kind = kinds.get(run, PolyharmonicKind(1))
    if run in ("replay", "stiff"):  # a failed check is replayed step by step and names its step
        with pytest.warns(StiffnessWarning), pytest.raises(DivergenceError):
            integrate(x, IntegratorConfig(dt=9.0, t_final=900.5, kind=kind), keep_steps=run == "stiff")
        assert [h for h, _ in rows] == [9.0, 0.5] and maps == [(7, 2)] * 2 and blocks == []
        return
    if run == "scaled":
        x = Polygon(np.ldexp(x.vertices, 700))
    steps = {"short": 63, "past-cap": 64}.get(run, 150)
    t_final = steps * 0.01 + 0.005 * (run == "partial")
    traj = integrate(x, IntegratorConfig(dt=0.01, t_final=t_final, kind=kind), keep_steps=False)
    assert traj.steps == steps + (run == "partial")
    assert [h for h, _ in rows] == [0.01] + ([t_final - steps * 0.01] if run == "partial" else [])
    assert blocks == ([] if run in ("short", "past-cap") else [(rows[0][1], (n, p))])
    assert maps == [(n, p)] * (len(rows) + len(blocks))


def test_rk4_converges_at_order_four():
    x0 = eigen_polygon(6, 3)  # pure mode with rate exactly -4
    kind = PolyharmonicKind(1)
    errors = []
    for dt in (4e-3, 2e-3, 1e-3):
        traj = integrate(x0, IntegratorConfig(dt=dt, t_final=1.0, kind=kind))
        exact = x0.scaled(math.exp(-4.0))
        errors.append(helpers.sup_distance(traj.final(), exact))
    assert 12.0 < errors[0] / errors[1] < 20.0
    assert 12.0 < errors[1] / errors[2] < 20.0


def test_agreement_with_closed_forms(rng):
    x = helpers.random_polygon(rng, 8, p=3)
    y = helpers.random_polygon(rng, 8, p=3)
    for m in (1, 2, 3):
        traj = integrate(x, IntegratorConfig(dt=1e-3, t_final=1.0, kind=PolyharmonicKind(m)))
        assert helpers.sup_distance(traj.final(), spectral_flow.solve(x, m, 1.0)) < 1e-6
        traj = integrate(x, IntegratorConfig(dt=1e-3, t_final=1.0, kind=YauKind(m, y)))
        exact = yau_solve(YauProblem(m=m, initial=x, target=y), 1.0)
        assert helpers.sup_distance(traj.final(), exact) < 1e-6


def test_trajectory_sampling_and_partial_step(rng):
    x = helpers.random_polygon(rng, 5)
    traj = integrate(x, IntegratorConfig(dt=0.1, t_final=0.55, kind=PolyharmonicKind(1)))
    assert traj.partial_final_step
    assert traj.times[0] == 0.0
    assert traj.times[-1] == 0.55
    assert len(traj.times) == len(traj.polygons) == 7
    assert traj.polygons[0] == x
    assert traj.steps == 6

    whole = integrate(x, IntegratorConfig(dt=0.1, t_final=0.5, kind=PolyharmonicKind(1)))
    assert not whole.partial_final_step
    assert len(whole.times) == 6
    assert whole.steps == 5


@pytest.mark.parametrize("t_final", [0.5, 0.55, 3.0, 3.01])  # whole and partial last step, 25 and 150 whole steps
@pytest.mark.parametrize("yau", [False, True])
def test_final_state_only_is_bitwise_the_full_run(rng, t_final, yau):
    x = helpers.random_polygon(rng, 7, p=3)
    kind = YauKind(2, helpers.random_polygon(rng, 7, p=3)) if yau else PolyharmonicKind(2)
    config = IntegratorConfig(dt=0.02, t_final=t_final, kind=kind)
    full = integrate(x, config)
    lean = integrate(x, config, keep_steps=False)
    assert lean.times == (0.0, full.times[-1])
    assert lean.polygons[0] == x
    assert lean.final().vertices.tobytes() == full.final().vertices.tobytes()
    assert lean.partial_final_step == full.partial_final_step == (t_final in (0.55, 3.01))
    assert lean.steps == full.steps == len(full.times) - 1


def _around_the_blocks(test):
    """Hypothesis examples on each side of the first and second block of 64
    whole steps, with and without a partial step, for flow and Yau."""
    cases = itertools.product((63, 64, 65, 128, 129), (False, True), (False, True))
    for i, (steps, partial, yau) in enumerate(cases):
        test = example(3 + i, 2 + i % 2, 1 + i % 4, yau, steps, partial, i % 3 == 0, 100 + i)(test)
    return test


@given(
    st.integers(3, 64), st.sampled_from((2, 3)), st.integers(1, 4), st.booleans(),
    st.integers(0, 200), st.booleans(), st.booleans(), st.integers(0, 2**32 - 1),
)
@example(3, 2, 2, False, 5, True, True, 0)  # n < 8m + 1: the step's band wraps
@example(8, 3, 1, True, 12, False, True, 1)
@example(64, 2, 4, True, 30, True, False, 2)
@example(5, 3, 3, False, 0, True, False, 3)  # only the partial step
@example(64, 3, 1, True, 200, True, True, 4)  # three blocks at the largest n
@_around_the_blocks
@settings(max_examples=60)
def test_whole_run_is_bitwise_the_polynomial_oracle(n, p, m, yau, steps, partial, special, seed):
    rng = np.random.default_rng(seed)

    def vertices():
        v = rng.normal(size=(n, p))
        if special:  # signed zeros and a constant column, whose differences are exactly zero
            v[rng.random(size=(n, p)) < 0.3] = -0.0
            v[:, int(rng.integers(p))] = rng.choice([0.0, -0.0, 1.5])
        return Polygon(v)

    x = vertices()
    kind = YauKind(m, vertices()) if yau else PolyharmonicKind(m)
    dt = 0.1 / stability_limit(n, m)
    config = IntegratorConfig(dt=dt, t_final=(steps + 0.375 * partial) * dt, kind=kind)
    states = helpers.polynomial_rk4(x, config)
    full = integrate(x, config)
    assert full.steps == len(states) - 1 == steps + partial
    assert [poly.vertices.tobytes() for poly in full.polygons] == [v.tobytes() for v in states]
    lean = integrate(x, config, keep_steps=False)
    assert lean.final().vertices.tobytes() == states[-1].tobytes()


@given(st.integers(3, 33), st.integers(1, 3), st.floats(0.01, 2.78), st.booleans(), st.integers(0, 2**32 - 1))
@example(33, 3, 2.78, True, 0)
@example(3, 3, 2.78, False, 1)  # a band of 25 offsets folded onto 3
@example(32, 1, 0.01, False, 2)  # B's entries far from the centre near 1e-26
@settings(max_examples=40)
def test_the_block_map_is_within_rounding_of_the_exact_64th_power(n, m, ratio, yau, seed):
    """A run builds B from its whole step's float row by six squarings in
    floats.  B's off-centre entries lie within C_BLOCK eps of the exact 64th
    power of the float step map, I + E with E's centre entry minus the exact
    sum of the off-centre ones, computed from the oracle's row."""
    rng = np.random.default_rng(seed)
    x = Polygon(rng.normal(size=(n, 2)))
    kind = YauKind(m, Polygon(rng.normal(size=(n, 2)))) if yau else PolyharmonicKind(m)
    dt = ratio / stability_limit(n, m)
    block_map, built = integrate_module._block_map, []

    def capture(row, like):
        built.append(block_map(row, like))
        return built[-1]

    with mock.patch.object(integrate_module, "_block_map", capture):
        integrate(x, IntegratorConfig(dt=dt, t_final=64 * dt, kind=kind), keep_steps=False)
    (block,) = built
    column = np.zeros((n, 2))
    column[0] = 1.0
    block(column)  # entry j of B e_0 is B's row entry at offset -j, exactly: one nonzero term
    exact = helpers.exact_step_power(helpers.rk4_step_row(n, m, dt), n)
    eps = Fraction(np.finfo(float).eps)
    assert all(abs(Fraction(column[j, 0]) - exact[-j % n]) <= C_BLOCK * eps for j in range(1, n))


@pytest.mark.parametrize("case", ["stiff", "past-cap", "at-cap"])
def test_blocks_are_taken_only_within_the_stability_bound_and_the_cap(rng, case):
    """A stiff step, or (n - 1) n p past 2**18, keeps a run of 130 whole steps
    and a partial one purely stepwise; at the cap the run goes in blocks, and
    its states then differ from the stepwise ones."""
    n, p = {"past-cap": (16, 1093), "at-cap": (16, 1092)}.get(case, (9, 2))
    x = Polygon(rng.normal(size=(n, p)))
    dt = (RK4_STABILITY_BOUND if case == "stiff" else 0.1) / stability_limit(n, 1)
    config = IntegratorConfig(dt=dt, t_final=130.5 * dt, kind=PolyharmonicKind(1))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore" if case == "stiff" else "error", StiffnessWarning)
        states = [poly.vertices.tobytes() for poly in integrate(x, config).polygons]
    assert states == [v.tobytes() for v in helpers.polynomial_rk4(x, config)]
    stepwise = [v.tobytes() for v in helpers.polynomial_rk4(x, config, blocks=False)]
    assert (states == stepwise) == (case != "at-cap")


@given(
    st.integers(3, 256), st.sampled_from((2, 3)), st.integers(1, 3), st.floats(0.01, 2.78),
    st.integers(64, 1000), st.booleans(), st.booleans(), st.floats(-1e3, 1e3), st.integers(0, 2**32 - 1),
)
@example(256, 3, 3, 0.1, 1000, True, True, 1e3, 0)
@example(3, 2, 1, 2.78, 129, False, True, 0.0, 1)
@settings(max_examples=40)
def test_a_blocked_run_is_within_rounding_of_the_stepwise_run(n, p, m, ratio, steps, yau, partial, shift, seed):
    """Each block's last state is B = (the float step map)^64 of its first,
    which the 64 steps give only up to rounding.  State k of a blocked run
    lies within 0.5 k eps (max|X0| + max|Y|) of the run stepped one step at a
    time (Y = 0 without a target).  Over 2600 random draws (n 3-256, p 2-3,
    m 1-3, dt |rate_max| 0.01-2.78, 64-1000 steps, offsets to 1e3) the
    largest gap was 0.18 k eps (max|X0| + max|Y|)."""
    rng = np.random.default_rng(seed)
    x = Polygon(rng.normal(size=(n, p)) + shift)
    y = Polygon(rng.normal(size=(n, p)) - shift) if yau else None
    kind = YauKind(m, y) if yau else PolyharmonicKind(m)
    dt = ratio / stability_limit(n, m)
    config = IntegratorConfig(dt=dt, t_final=(steps + 0.375 * partial) * dt, kind=kind)
    scale = float(np.abs(x.vertices).max()) + (float(np.abs(y.vertices).max()) if yau else 0.0)
    blocked = integrate(x, config)
    with mock.patch.object(integrate_module, "_BLOCK_FLOATS", 0):  # no run fits: every step is stepped
        stepped = integrate(x, config)
    eps = np.finfo(float).eps
    for k, (a, b) in enumerate(zip(blocked.polygons, stepped.polygons, strict=True)):
        assert np.abs(a.vertices - b.vertices).max() <= 0.5 * k * eps * scale


@given(
    st.integers(3, 64), st.sampled_from((2, 3)), st.integers(1, 3), st.floats(0.01, 2.7),
    st.integers(0, 40), st.booleans(), st.booleans(), st.floats(-1e3, 1e3), st.integers(0, 2**32 - 1),
)
@example(3, 2, 3, 2.7, 40, True, True, 0.0, 0)  # a wrapped band near the stability bound
@example(64, 3, 1, 2.7, 40, False, True, -1e3, 1)
@example(16, 2, 3, 0.01, 7, True, False, 500.0, 2)
@settings(max_examples=100)
def test_a_run_is_within_rounding_of_the_stagewise_rk4(n, p, m, ratio, steps, yau, partial, shift, seed):
    """The step polynomial and the four textbook stages are the same map in
    exact arithmetic; state k of the two runs differ by at most
    8 k eps (max|X0| + max|Y|), Y = 0 without a target."""
    rng = np.random.default_rng(seed)
    x = Polygon(rng.normal(size=(n, p)) + shift)
    y = Polygon(rng.normal(size=(n, p)) - shift) if yau else None
    kind = YauKind(m, y) if yau else PolyharmonicKind(m)
    dt = ratio / stability_limit(n, m)
    config = IntegratorConfig(dt=dt, t_final=(steps + 0.375 * partial) * dt, kind=kind)
    scale = float(np.abs(x.vertices).max()) + (float(np.abs(y.vertices).max()) if yau else 0.0)
    eps = np.finfo(float).eps
    stagewise = helpers.stagewise_rk4(x, config)
    for k, (q, v) in enumerate(zip(integrate(x, config).polygons, stagewise, strict=True)):
        assert np.abs(q.vertices - v).max() <= 8 * k * eps * scale


@given(
    st.integers(3, 128), st.sampled_from((2, 3)), st.integers(1, 3), st.floats(0.01, 2.78), st.integers(1, 300),
    st.booleans(), st.booleans(), st.floats(-3, 3), st.floats(-1e3, 1e3), st.integers(0, 2**32 - 1),
)
@example(256, 3, 3, 0.1, 200, True, True, 0.0, 1e3, 0)  # three blocks at the largest n
@example(3, 2, 3, 2.78, 129, False, True, -3.0, 0.0, 1)  # a wrapped band near the stability bound
@example(64, 2, 1, 2.78, 64, True, False, 3.0, -1e3, 2)  # exactly one block
@example(5, 3, 2, 0.5, 1, False, True, 0.0, 0.0, 3)  # one partial step
@settings(max_examples=60)
def test_a_run_is_within_rounding_of_its_spectral_image(n, p, m, ratio, steps, yau, partial, exponent, shift, seed):
    """The run is the circulant R(hA)^N (times R(rA) for a partial step r),
    so its final state is the Fourier image of X0 with each mode k scaled by
    R(h lambda_k)^N (and R(r lambda_k)), which shares no code with the step
    rows or B.  The two lie within C_IMAGE N eps (max|X0| + max|Y|), N the
    number of steps, Y = 0 without a target."""
    rng = np.random.default_rng(seed)
    scale = 10.0**exponent
    x = Polygon(rng.normal(size=(n, p)) * scale + shift)
    y = Polygon(rng.normal(size=(n, p)) * scale - shift) if yau else None
    kind = YauKind(m, y) if yau else PolyharmonicKind(m)
    dt = ratio / stability_limit(n, m)
    config = IntegratorConfig(dt=dt, t_final=(steps + 0.375 * partial) * dt, kind=kind)
    final = integrate(x, config, keep_steps=False).final().vertices
    size = float(np.abs(x.vertices).max()) + (float(np.abs(y.vertices).max()) if yau else 0.0)
    gap = np.abs(final - helpers.rk4_spectral_image(x, config)).max()
    assert gap <= C_IMAGE * (steps + partial) * np.finfo(float).eps * size


def test_c13_runs_lie_within_rounding_of_their_spectral_image():
    """c13's runs of the pure rate -4 mode, through the image: at each step
    size the run's error against e^{-4} X0 is the image's within
    C_IMAGE N eps max|X0| (measured errors 4.05e-11, 2.52e-12 and
    1.57e-13, gaps at most 1e-15), and the image's error ratios are
    fourth order to within rounding (measured 16.10 and 16.00)."""
    x0 = Polygon(np.array([[1.0, 0.0], [-1.0, 0.0]] * 3))
    exact = x0.scaled(math.exp(-4.0)).vertices
    errors = []
    for dt, steps in ((4e-3, 250), (2e-3, 500), (1e-3, 1000)):
        config = IntegratorConfig(dt=dt, t_final=1.0, kind=PolyharmonicKind(1))
        run = integrate(x0, config, keep_steps=False)
        assert run.steps == steps and not run.partial_final_step
        error = float(np.abs(helpers.rk4_spectral_image(x0, config) - exact).max())
        gap = abs(float(np.abs(run.final().vertices - exact).max()) - error)
        assert gap <= C_IMAGE * steps * np.finfo(float).eps * float(np.abs(x0.vertices).max())
        errors.append(error)
    assert all(15.5 < a / b < 16.5 for a, b in zip(errors, errors[1:]))


@given(
    st.integers(3, 64), st.sampled_from((2, 3)), st.integers(1, 3), st.floats(0.01, 2.78), st.integers(0, 200),
    st.booleans(), st.booleans(), st.booleans(), st.integers(0, 2**32 - 1),
)
@example(5, 2, 1, 0.1, 130, True, True, True, 0)  # two kept blocks, two leftover steps and a partial one
@example(64, 3, 3, 2.78, 129, False, True, False, 1)  # lean blocks at the largest n, near the stability bound
@example(3, 2, 3, 2.7, 40, True, False, True, 2)  # stepwise, a band of 25 offsets folded onto 3
@example(7, 3, 2, 0.5, 0, False, True, True, 3)  # only the partial step
@settings(max_examples=40)
def test_a_run_commutes_with_relabelling_the_vertices(n, p, m, ratio, steps, yau, partial, keep_steps, seed):
    """Relabelling X0 and Y cyclically relabels every kept state bit for
    bit: each output vertex sums the same products in the same order.
    Reversing them reverses the sums' order, so the reversed run lies within
    C_REVERSAL N eps (max|X0| + max|Y|) of the reversed states, N the
    number of steps, Y = 0 without a target."""
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(n, p))
    y = rng.normal(size=(n, p)) if yau else None
    shift = int(rng.integers(1, n))
    dt = ratio / stability_limit(n, m)

    def run(relabel):
        kind = YauKind(m, Polygon(relabel(y))) if yau else PolyharmonicKind(m)
        config = IntegratorConfig(dt=dt, t_final=(steps + 0.375 * partial) * dt, kind=kind)
        return [q.vertices for q in integrate(Polygon(relabel(x)), config, keep_steps=keep_steps).polygons]

    states = run(lambda v: v)
    assert len(states) == (steps + partial + 1 if keep_steps else 1 + (steps + partial > 0))
    rolled = run(lambda v: np.roll(v, shift, axis=0))
    assert [np.roll(v, shift, axis=0).tobytes() for v in states] == [v.tobytes() for v in rolled]
    size = float(np.abs(x).max()) + (float(np.abs(y).max()) if yau else 0.0)
    bound = C_REVERSAL * (steps + partial) * np.finfo(float).eps * size
    for v, w in zip(states, run(lambda v: v[::-1]), strict=True):
        assert np.abs(v[::-1] - w).max() <= bound


def _diverging_run(rng, dt, steps, partial):
    """A random octagon scaled by the largest 2**e (|e| < 400, so the run is
    unscaled) whose RK4 run by the polynomial oracle stays finite for ``steps - 1`` steps,
    its config, and the oracle's states; the oracle goes non-finite at step
    ``steps``, the last step when ``partial``."""
    shape = rng.normal(size=(8, 2))
    t_final = (steps - 0.625 if partial else steps + 5) * dt
    config = IntegratorConfig(dt=dt, t_final=t_final, kind=PolyharmonicKind(1))

    def oracle(e):
        x = Polygon(np.ldexp(shape, e))
        with np.errstate(over="ignore", invalid="ignore"):
            return x, helpers.polynomial_rk4(x, config)

    low, high = -398, 398  # finite through step - 1 at low, not at high
    assert all(np.isfinite(v).all() for v in oracle(low)[1][:steps])
    while high - low > 1:
        mid = (low + high) // 2
        if all(np.isfinite(v).all() for v in oracle(mid)[1][:steps]):
            low = mid
        else:
            high = mid
    x, states = oracle(low)
    assert not np.isfinite(states[steps]).all()
    return x, config, states


@pytest.mark.parametrize(
    "dt, steps, partial",
    [
        (1e60, 1, False),  # the first step
        (9.0, 64, False),  # the last step of the first check block
        (9.0, 50, False),  # mid-block
        (9.0, 80, False),  # mid second block
        (9.0, 70, True),  # the partial step
        (1.5, 200, False),  # mid fourth block: the replay re-runs three blocks
        (1.5, 230, True),  # the partial step in the fourth block
    ],
)
@pytest.mark.parametrize("keep_steps", [True, False])
def test_divergence_names_the_oracles_step_and_the_last_finite_norm(rng, dt, steps, partial, keep_steps):
    x, config, states = _diverging_run(rng, dt, steps, partial)
    with pytest.warns(StiffnessWarning), pytest.raises(DivergenceError) as info:
        integrate(x, config, keep_steps=keep_steps)
    assert info.value.step == steps
    assert info.value.norm == float(np.abs(states[steps - 1]).max())
    assert str(info.value) == f"non-finite state at step {steps} (sup norm {info.value.norm!r})"


@pytest.mark.parametrize("steps", [2, 130])  # stepwise, and in blocks
@pytest.mark.parametrize("keep_steps", [True, False])
def test_each_column_runs_at_its_own_scale(keep_steps, steps):
    """A coordinate near one beside one near float max keeps its bits: each
    column runs times its own power of two, so 0.7 is not made subnormal by
    the 2^-1024 that 1e308 needs.  The Yau target's columns take the same
    shifts: X0 - Y is constant here, so the state stays the input."""
    x = helpers.constant_polygon([1e308, 0.7], 5)
    far = helpers.constant_polygon([-1e308, 0.7], 5)
    for kind in (PolyharmonicKind(1), YauKind(1, far)):
        traj = integrate(x, IntegratorConfig(dt=0.005, t_final=steps * 0.005, kind=kind), keep_steps)
        assert traj.steps == steps
        assert all(q.vertices.tobytes() == x.vertices.tobytes() for q in traj.polygons)


@pytest.mark.parametrize("k", [-600, -1000, 600, 1000])
@pytest.mark.parametrize("keep_steps", [True, False])
def test_divergence_is_named_in_the_callers_units(rng, k, keep_steps):
    """For k < 0 the input times 2^k runs as the input itself: the same step,
    and the norm times 2^k.  For k > 0 a state past float max in the caller's
    units is a divergence, never a polygon refused for inf coordinates."""
    x = Polygon(rng.uniform(0.5, 1.0, size=(8, 2)) * rng.choice([-1.0, 1.0], size=(8, 2)))
    config = IntegratorConfig(dt=9.0, t_final=200 * 9.0, kind=PolyharmonicKind(1))
    with pytest.warns(StiffnessWarning), pytest.raises(DivergenceError) as base:
        integrate(x, config, keep_steps)
    with pytest.warns(StiffnessWarning), pytest.raises(DivergenceError) as scaled:
        integrate(Polygon(np.ldexp(x.vertices, k)), config, keep_steps)
    if k < 0:
        assert scaled.value.step == base.value.step
        assert scaled.value.norm == math.ldexp(base.value.norm, k)
    else:
        assert 1 <= scaled.value.step < base.value.step
        assert math.ldexp(1.0, k - 1) <= scaled.value.norm < math.inf


@pytest.mark.parametrize("column, k", [(0, 600), (1, -600)])
@pytest.mark.parametrize("keep_steps", [True, False])
def test_divergence_is_named_column_by_column_in_the_callers_units(rng, column, k, keep_steps):
    """With one column times 2^k, each column runs at its own scale as the
    unscaled run does, bit for bit: the run stops at the first state with a
    column past float max in the caller's units and names the largest of
    the previous state's column norms, each scaled back by its own shift."""
    x = rng.uniform(0.5, 1.0, size=(8, 2)) * rng.choice([-1.0, 1.0], size=(8, 2))
    config = IntegratorConfig(dt=9.0, t_final=200 * 9.0, kind=PolyharmonicKind(1))
    with np.errstate(over="ignore", invalid="ignore"):
        states = helpers.polynomial_rk4(Polygon(x), config)
        for v in states:
            v[:, column] = np.ldexp(v[:, column], k)
    step = next(i for i, v in enumerate(states) if not np.isfinite(v).all())
    with pytest.warns(StiffnessWarning), pytest.raises(DivergenceError) as info:
        integrate(Polygon(states[0]), config, keep_steps)
    assert info.value.step == step
    assert info.value.norm == float(np.abs(states[step - 1]).max())


@pytest.mark.parametrize("k", [600, -600, 1000, -1000])
@pytest.mark.parametrize("yau", [False, True])
@pytest.mark.parametrize("keep_steps", [True, False])
def test_a_power_of_two_scale_commutes_with_the_run(rng, k, yau, keep_steps):
    """Inputs beyond 2^±400 run scaled near one, so integrate(x 2^k) is
    2^k integrate(x) bit for bit; magnitudes in [1/4, 1) keep x 2^k exact."""

    def vertices():
        return rng.uniform(0.25, 1.0, size=(7, 3)) * rng.choice([-1.0, 1.0], size=(7, 3))

    x, y = vertices(), vertices()
    if yau:
        kind, scaled_kind = YauKind(2, Polygon(y)), YauKind(2, Polygon(np.ldexp(y, k)))
    else:
        kind = scaled_kind = PolyharmonicKind(2)
    dt = 0.1 / stability_limit(7, 2)

    def run(vertices, kind):
        return integrate(Polygon(vertices), IntegratorConfig(dt=dt, t_final=20.375 * dt, kind=kind), keep_steps)

    base, scaled = run(x, kind), run(np.ldexp(x, k), scaled_kind)
    assert scaled.times == base.times and scaled.steps == base.steps == 21
    assert [poly.vertices.tobytes() for poly in scaled.polygons] == [
        np.ldexp(poly.vertices, k).tobytes() for poly in base.polygons
    ]


@pytest.mark.parametrize("exponent", [0, 500, -500])  # unscaled, and run times 2**-+500
def test_kept_states_are_read_only_copies_of_the_oracles_states(rng, exponent):
    """A run advances one state buffer in place; each kept state is a copy
    of it taken after its range check, so after the run every kept state
    still holds the polynomial oracle's bits and no two share memory."""
    x = Polygon(np.ldexp(rng.normal(size=(7, 2)), exponent))
    config = IntegratorConfig(dt=0.01, t_final=0.205, kind=PolyharmonicKind(2))
    full = integrate(x, config)
    lean = integrate(x, config, keep_steps=False)
    states = helpers.polynomial_rk4(x, config)
    assert [q.vertices.tobytes() for q in full.polygons] == [v.tobytes() for v in states]
    assert lean.final().vertices.tobytes() == states[-1].tobytes()
    kept = full.polygons + lean.polygons[1:]
    for i, q in enumerate(kept):
        assert not q.vertices.flags.writeable
        assert not any(np.shares_memory(q.vertices, r.vertices) for r in kept[i + 1:])
    with pytest.raises(ValueError, match="read-only"):
        full.polygons[1].vertices[0, 0] = 1.0


def test_zero_steps_keep_only_the_initial_state(rng):
    x = helpers.random_polygon(rng, 5)
    lean = integrate(x, IntegratorConfig(dt=0.1, t_final=0.0, kind=PolyharmonicKind(1)), keep_steps=False)
    assert lean.times == (0.0,) and lean.polygons == (x,) and lean.steps == 0


def _lean_peak(x, m, steps):
    """tracemalloc's peak over a final-state-only run of ``steps`` whole steps
    at dt |rate_max| = 0.1."""
    dt = 0.1 / stability_limit(x.n, m)
    config = IntegratorConfig(dt=dt, t_final=steps * dt, kind=PolyharmonicKind(m))
    tracemalloc.start()
    try:
        traj = integrate(x, config, keep_steps=False)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert traj.steps == steps and len(traj.polygons) == 2
    return peak


def test_final_state_only_memory_is_flat_in_the_step_count():
    x = eigen_polygon(256, 1)
    assert _lean_peak(x, 1, 4000) <= 1.5 * _lean_peak(x, 1, 500)


@pytest.mark.parametrize("m", [1, 2, 3])
def test_the_block_map_fits_in_four_mib(rng, m):
    """At n = 256, p = 3 the block map's terms, coefficients and row index
    take (n - 1) n (2 p + 1) 8 bytes, 3.7 MB; with the step map the run's peak
    measured 3.9-4.1 MB for m = 1-3, against 0.2-0.4 MB stepwise."""
    assert _lean_peak(Polygon(rng.normal(size=(256, 3))), m, 200) <= 4 * 2**20


@pytest.mark.parametrize("n, p", [(297, 3), (16, 1093)])
def test_a_run_past_the_cap_allocates_as_a_stepwise_run(rng, n, p):
    """Past (n - 1) n p = 2**18 no block map is built: a run of 200 steps
    allocates what one of 63, too short for a block, does (to 5%; a block
    map would add over 4 MB)."""
    x = Polygon(rng.normal(size=(n, p)))
    assert _lean_peak(x, 1, 200) <= 1.05 * _lean_peak(x, 1, 63)


def test_yau_kind_stationary_trajectory(rng):
    y = helpers.random_polygon(rng, 6)
    traj = integrate(y, IntegratorConfig(dt=0.05, t_final=1.0, kind=YauKind(2, y)))
    assert all(poly == y for poly in traj.polygons)


def test_stiffness_warning():
    x = eigen_polygon(6, 1)
    assert stability_limit(6, 2) == 16.0
    with pytest.warns(StiffnessWarning):
        integrate(x, IntegratorConfig(dt=0.2, t_final=0.4, kind=PolyharmonicKind(2)))


def test_the_stiffness_warning_starts_at_the_real_axis_bound():
    """|R(-x)| = 1 at x = 2.785293563405282...: mode 3 of a hexagon (rate
    exactly -4) decays over 700 steps just below the bound and, unwarned
    before, grew 143-fold at dt * |rate| = 2.79."""
    x = eigen_polygon(6, 3)
    assert stability_limit(6, 1) == 4.0
    for ratio in (2.79, RK4_STABILITY_BOUND):
        with pytest.warns(StiffnessWarning):
            traj = integrate(x, IntegratorConfig(dt=ratio / 4, t_final=700 * ratio / 4, kind=PolyharmonicKind(1)))
        assert ratio > 2.785 or np.abs(traj.final().vertices).max() > 100.0
    traj = integrate(x, IntegratorConfig(dt=2.785 / 4, t_final=700 * 2.785 / 4, kind=PolyharmonicKind(1)))
    assert np.abs(traj.final().vertices).max() < 1.0


def test_divergence_reports_step_and_norm():
    x = eigen_polygon(8, 1)
    with pytest.warns(StiffnessWarning):
        with pytest.raises(DivergenceError) as info:
            integrate(x, IntegratorConfig(dt=1.0, t_final=100.0, kind=PolyharmonicKind(3)))
    assert info.value.step > 0
    assert 0.0 < info.value.norm < math.inf  # the last finite state's
    assert "step" in str(info.value)


def test_small_polygon_rejected(rng):
    with pytest.raises(ValueError):
        integrate(
            Polygon(np.zeros((2, 2))),
            IntegratorConfig(dt=0.1, t_final=1.0, kind=PolyharmonicKind(1)),
        )
