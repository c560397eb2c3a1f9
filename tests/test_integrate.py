import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from polyflow import circulant, spectral_flow
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
    assert np.array_equal(_rhs_function(const.vertices, PolyharmonicKind(1))(const.vertices), np.zeros((6, 2)))
    assert np.abs(_rhs_function(const.vertices, PolyharmonicKind(3))(const.vertices)).max() < 1e-13

    p1 = eigen_polygon(6, 1)
    assert np.abs(_rhs_function(p1.vertices, PolyharmonicKind(1))(p1.vertices) + p1.vertices).max() < 1e-14

    y = helpers.random_polygon(rng, 6)
    assert np.array_equal(_rhs_function(y.vertices, YauKind(2, y))(y.vertices), np.zeros((6, 2)))


def test_rhs_matches_stencil_bitwise_when_unwrapped(rng):
    # offsets are collision-free when n >= 2m + 3: same terms, same order
    for n, m in ((5, 1), (7, 2), (9, 3)):
        x = helpers.random_polygon(rng, n, p=3)
        velocity = _rhs_function(x.vertices, PolyharmonicKind(m))(x.vertices)
        assert np.array_equal(velocity, helpers.stencil_rhs(x, m))


def test_rhs_matches_stencil_with_wrapping(rng):
    # wrapped offsets accumulate coefficients first, so only value equality holds
    for n, m in ((3, 2), (4, 3), (5, 4)):
        x = helpers.random_polygon(rng, n)
        gap = np.abs(_rhs_function(x.vertices, PolyharmonicKind(m))(x.vertices) - helpers.stencil_rhs(x, m))
        assert gap.max() < 1e-11


@pytest.mark.parametrize("run", ["odd", "even", "yau", "scaled", "replay"])
def test_a_run_builds_its_stencil_once(rng, monkeypatch, run):
    """One bound stencil serves every stage, step, block and replay of a run."""
    bound, built = circulant.stencil, []

    def counted(a, like):
        built.append(like.shape)
        return bound(a, like)

    monkeypatch.setattr(circulant, "stencil", counted)
    x = helpers.random_polygon(rng, 7)
    kind = {"even": PolyharmonicKind(2), "yau": YauKind(1, helpers.random_polygon(rng, 7))}.get(run, PolyharmonicKind(1))
    if run == "replay":  # a check block fails, is replayed step by step and names its step
        with pytest.warns(StiffnessWarning), pytest.raises(DivergenceError):
            integrate(x, IntegratorConfig(dt=9.0, t_final=900.0, kind=kind), keep_steps=False)
    else:
        if run == "scaled":
            x = Polygon(np.ldexp(x.vertices, 700))
        traj = integrate(x, IntegratorConfig(dt=0.01, t_final=1.5, kind=kind), keep_steps=False)
        assert traj.steps == 150
    assert built == [(7, 2)]


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
@example(6, 2, 1, False, 63, False, False, 4)  # around the first range-check block of 64 steps
@example(7, 3, 2, True, 64, False, True, 5)
@example(5, 2, 3, True, 65, False, False, 6)
@example(9, 2, 1, False, 128, False, True, 7)
@example(8, 3, 2, False, 64, True, False, 8)  # a partial step just after a block
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


def _diverging_run(rng, dt, steps, partial):
    """A random octagon scaled by the largest 2**e (|e| < 400, so the run is
    unscaled) whose stagewise RK4 run stays finite for ``steps - 1`` steps,
    its config, and the oracle's states; the oracle goes non-finite at step
    ``steps``, the last step when ``partial``."""
    shape = rng.normal(size=(8, 2))
    t_final = (steps - 0.625 if partial else steps + 5) * dt
    config = IntegratorConfig(dt=dt, t_final=t_final, kind=PolyharmonicKind(1))

    def oracle(e):
        x = Polygon(np.ldexp(shape, e))
        with np.errstate(over="ignore", invalid="ignore"):
            return x, helpers.stagewise_rk4(x, config)

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
    still holds the stagewise oracle's bits and no two share memory."""
    x = Polygon(np.ldexp(rng.normal(size=(7, 2)), exponent))
    config = IntegratorConfig(dt=0.01, t_final=0.205, kind=PolyharmonicKind(2))
    full = integrate(x, config)
    lean = integrate(x, config, keep_steps=False)
    states = helpers.stagewise_rk4(x, config)
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
    assert 0.0 < info.value.norm < math.inf  # the last finite state's
    assert "step" in str(info.value)


def test_small_polygon_rejected(rng):
    with pytest.raises(ValueError):
        integrate(
            Polygon(np.zeros((2, 2))),
            IntegratorConfig(dt=0.1, t_final=1.0, kind=PolyharmonicKind(1)),
        )
