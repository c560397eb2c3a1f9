import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from polyflow import spectral_flow
from polyflow.integrate import (
    DivergenceError,
    IntegratorConfig,
    PolyharmonicKind,
    StiffnessWarning,
    YauKind,
    _rhs_function,
    integrate,
    stability_limit,
)
from polyflow.polygon import Polygon, eigen_polygon
from polyflow.yau_flow import YauProblem, yau_solve

import helpers


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


def test_rhs_examples(rng):
    const = helpers.constant_polygon([0.4, -2.0], 6)
    assert np.array_equal(_rhs_function(6, PolyharmonicKind(1))(const.vertices), np.zeros((6, 2)))
    assert np.abs(_rhs_function(6, PolyharmonicKind(3))(const.vertices)).max() < 1e-13

    p1 = eigen_polygon(6, 1)
    assert np.abs(_rhs_function(6, PolyharmonicKind(1))(p1.vertices) + p1.vertices).max() < 1e-14

    y = helpers.random_polygon(rng, 6)
    assert np.array_equal(_rhs_function(6, YauKind(2, y))(y.vertices), np.zeros((6, 2)))


def test_rhs_matches_stencil_bitwise_when_unwrapped(rng):
    # offsets are collision-free when n >= 2m + 3: same terms, same order
    for n, m in ((5, 1), (7, 2), (9, 3)):
        x = helpers.random_polygon(rng, n, p=3)
        velocity = _rhs_function(x.n, PolyharmonicKind(m))(x.vertices)
        assert np.array_equal(velocity, helpers.stencil_rhs(x, m))


def test_rhs_matches_stencil_with_wrapping(rng):
    # wrapped offsets accumulate coefficients first, so only value equality holds
    for n, m in ((3, 2), (4, 3), (5, 4)):
        x = helpers.random_polygon(rng, n)
        gap = np.abs(_rhs_function(x.n, PolyharmonicKind(m))(x.vertices) - helpers.stencil_rhs(x, m))
        assert gap.max() < 1e-11


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


@pytest.mark.parametrize("t_final", [0.5, 0.55])  # whole and partial last step
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
    assert lean.partial_final_step == full.partial_final_step == (t_final == 0.55)
    assert lean.steps == full.steps == len(full.times) - 1


@given(
    st.integers(3, 64), st.sampled_from((2, 3)), st.integers(1, 4), st.booleans(),
    st.integers(0, 30), st.booleans(), st.booleans(), st.integers(0, 2**32 - 1),
)
@example(3, 2, 2, False, 5, True, True, 0)  # n < 2m + 1: the stencil wraps
@example(8, 3, 1, True, 12, False, True, 1)
@example(64, 2, 4, True, 30, True, False, 2)
@example(5, 3, 3, False, 0, True, False, 3)  # only the partial step
@settings(max_examples=60)
def test_whole_run_is_bitwise_the_stagewise_oracle(n, p, m, yau, steps, partial, special, seed):
    rng = np.random.default_rng(seed)

    def vertices():
        v = rng.normal(size=(n, p))
        if special:  # signed zeros and a constant column, whose velocity is exactly zero
            v[rng.random(size=(n, p)) < 0.3] = -0.0
            v[:, int(rng.integers(p))] = rng.choice([0.0, -0.0, 1.5])
        return Polygon(v)

    x = vertices()
    kind = YauKind(m, vertices()) if yau else PolyharmonicKind(m)
    dt = 0.1 / stability_limit(n, m)
    config = IntegratorConfig(dt=dt, t_final=(steps + 0.375 * partial) * dt, kind=kind)
    states = helpers.stagewise_rk4(x, config)
    full = integrate(x, config)
    assert full.steps == len(states) - 1 == steps + partial
    assert [poly.vertices.tobytes() for poly in full.polygons] == [v.tobytes() for v in states]
    lean = integrate(x, config, keep_steps=False)
    assert lean.final().vertices.tobytes() == states[-1].tobytes()


def test_zero_steps_keep_only_the_initial_state(rng):
    x = helpers.random_polygon(rng, 5)
    lean = integrate(x, IntegratorConfig(dt=0.1, t_final=0.0, kind=PolyharmonicKind(1)), keep_steps=False)
    assert lean.times == (0.0,) and lean.polygons == (x,) and lean.steps == 0


def test_final_state_only_memory_is_flat_in_the_step_count():
    x = eigen_polygon(256, 1)
    dt = 0.1 / stability_limit(256, 1)

    def traced_peak(steps):
        config = IntegratorConfig(dt=dt, t_final=steps * dt, kind=PolyharmonicKind(1))
        tracemalloc.start()
        try:
            traj = integrate(x, config, keep_steps=False)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert traj.steps == steps and len(traj.polygons) == 2
        return peak

    assert traced_peak(4000) <= 1.5 * traced_peak(500)


def test_yau_kind_stationary_trajectory(rng):
    y = helpers.random_polygon(rng, 6)
    traj = integrate(y, IntegratorConfig(dt=0.05, t_final=1.0, kind=YauKind(2, y)))
    assert all(poly == y for poly in traj.polygons)


def test_stiffness_warning():
    x = eigen_polygon(6, 1)
    assert stability_limit(6, 2) == 16.0
    with pytest.warns(StiffnessWarning):
        integrate(x, IntegratorConfig(dt=0.2, t_final=0.4, kind=PolyharmonicKind(2)))


def test_divergence_reports_step_and_norm():
    x = eigen_polygon(8, 1)
    with pytest.warns(StiffnessWarning):
        with pytest.raises(DivergenceError) as info:
            integrate(x, IntegratorConfig(dt=1.0, t_final=100.0, kind=PolyharmonicKind(3)))
    assert info.value.step > 0
    assert info.value.norm > 0.0
    assert "step" in str(info.value)


def test_small_polygon_rejected(rng):
    with pytest.raises(ValueError):
        integrate(
            Polygon(np.zeros((2, 2))),
            IntegratorConfig(dt=0.1, t_final=1.0, kind=PolyharmonicKind(1)),
        )
