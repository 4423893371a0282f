import numpy as np
import pytest

from extphase import (
    ButcherTableau,
    ConfigError,
    NonConvergence,
    SolverConfig,
    VortexConfig,
    canonical_from_planar,
    gl_step,
    gl_tableau,
    make_nls,
    make_spec,
    make_testcase,
    make_vortices,
    preset,
    run_experiment,
)


def test_midpoint_tableau():
    tab = gl_tableau(2)
    assert tab.stages == 1
    assert tab.a.tolist() == [[0.5]]
    assert tab.b.tolist() == [1.0]
    assert tab.c.tolist() == [0.5]


def test_two_stage_tableau():
    tab = gl_tableau(4)
    r = np.sqrt(3.0) / 6.0
    np.testing.assert_allclose(tab.c, [0.5 - r, 0.5 + r], rtol=1e-16)
    np.testing.assert_allclose(tab.a, [[0.25, 0.25 - r], [0.25 + r, 0.25]], rtol=1e-16)
    np.testing.assert_allclose(tab.b, [0.5, 0.5], rtol=0)


def test_three_stage_tableau():
    tab = gl_tableau(6)
    r = np.sqrt(15.0)
    np.testing.assert_allclose(tab.b, [5 / 18, 4 / 9, 5 / 18], rtol=1e-16)
    np.testing.assert_allclose(tab.c, [0.5 - r / 10, 0.5, 0.5 + r / 10], rtol=1e-16)
    np.testing.assert_allclose(
        tab.a,
        [
            [5 / 36, 2 / 9 - r / 15, 5 / 36 - r / 30],
            [5 / 36 + r / 24, 2 / 9, 5 / 36 - r / 24],
            [5 / 36 + r / 30, 2 / 9 + r / 15, 5 / 36],
        ],
        rtol=1e-16,
    )


@pytest.mark.parametrize("order", [2, 4, 6])
def test_tableaux_satisfy_symplecticity_condition(order):
    tab = gl_tableau(order)
    b, a = tab.b, tab.a
    m = b[:, None] * a + (b[:, None] * a).T - np.outer(b, b)
    assert np.max(np.abs(m)) <= 1e-14
    assert abs(b.sum() - 1.0) <= 1e-15


def test_unsupported_order_rejected():
    with pytest.raises(ConfigError, match="order must be 2, 4, or 6"):
        gl_tableau(3)
    with pytest.raises(ConfigError, match="order must be 2, 4, or 6"):
        gl_tableau(8)


def test_invalid_tableau_rejected():
    with pytest.raises(ConfigError, match="symplecticity"):
        ButcherTableau(a=[[0.0]], b=[1.0], c=[0.0])  # explicit Euler: not symplectic
    with pytest.raises(ValueError):
        ButcherTableau(a=[[0.5]], b=[0.9], c=[0.5])  # weights do not sum to 1
    with pytest.raises(ValueError, match="inconsistent shapes"):
        ButcherTableau(a=[[0.5]], b=[0.5, 0.5], c=[0.5])
    # nan passes every comparison, and text or complex entries are no numbers
    for a, b, c in (([[np.nan]], [1.0], [0.5]), ([[0.5]], [1.0], [np.nan]),
                    ([[0.5]], [1.0], [np.inf]), ([["a"]], [1.0], [0.5]), ([[0.5j]], [1.0], [0.5])):
        with pytest.raises(ConfigError):
            ButcherTableau(a=a, b=b, c=c)
            pytest.fail(f"accepted {a!r}, {b!r}, {c!r}")


def test_midpoint_matches_cayley_rotation(oscillator):
    # for H = (q^2 + p^2)/2 the midpoint step is the Cayley transform of J*dt
    dt = 0.1
    z0 = np.array([1.0, 0.0])
    j = np.array([[0.0, 1.0], [-1.0, 0.0]])
    exact = np.linalg.solve(np.eye(2) - 0.5 * dt * j, (np.eye(2) + 0.5 * dt * j) @ z0)
    cfg = SolverConfig(tol=1e-14, max_iter=60)
    z1, stats = gl_step(oscillator, dt, z0, gl_tableau(2), cfg)
    assert stats.final_residual <= cfg.tol
    np.testing.assert_allclose(z1, exact, rtol=0, atol=10 * cfg.tol)
    np.testing.assert_allclose(exact, [0.9975 / 1.0025, -0.1 / 1.0025], rtol=1e-15)


def test_midpoint_preserves_circle(oscillator):
    cfg = SolverConfig(tol=1e-14, max_iter=60)
    z = np.array([1.0, 0.0])
    for _ in range(50):
        z, _ = gl_step(oscillator, 0.1, z, gl_tableau(2), cfg)
        assert z @ z == pytest.approx(1.0, abs=50 * 10 * cfg.tol)


def test_stage_cost_accounting(oscillator):
    from extphase import EvalCounter

    for order, stages in ((2, 1), (4, 2), (6, 3)):
        counter = EvalCounter()
        metered = oscillator.with_counter(counter)
        cfg = SolverConfig(tol=1e-12, max_iter=60)
        _z, stats = gl_step(metered, 0.1, np.array([1.0, 0.0]), gl_tableau(order), cfg)
        assert stats.iterations >= 1
        assert counter.n_grad == stages * stats.iterations


@pytest.mark.parametrize("order", [2, 4, 6])
def test_steps_are_time_reversible(order):
    from extphase import make_testcase

    sys_ = make_testcase()
    cfg = SolverConfig(tol=1e-13, max_iter=80)
    z0 = np.array([-1.0, 2.0, 1.0, -1.0])
    z1, _ = gl_step(sys_, 0.1, z0, gl_tableau(order), cfg)
    z2, _ = gl_step(sys_, -0.1, z1, gl_tableau(order), cfg)
    np.testing.assert_allclose(z2, z0, rtol=0, atol=10 * cfg.tol)


def test_two_stage_preserves_vortex_angular_impulse():
    spec = preset("vortex4", method="gl4", t_end=10.0, tol=1e-12)
    record = run_experiment(spec)
    assert record.complete
    n_steps = record.total_steps
    assert record.drifts["Q_kappa"].max() <= n_steps * 10 * spec.tol


def test_fixed_point_requires_small_steps():
    sys_ = make_nls(5)
    z0 = np.array([3, 0.01, 0.01, 0.01, 0.01, 1, 0, 0, 0, 0.0])
    cfg = SolverConfig(tol=1e-10, max_iter=100)
    with pytest.raises(NonConvergence):
        gl_step(sys_, 0.5, z0, gl_tableau(2), cfg)


def _field(system, z):
    """The canonical field at the flat point ``z``, from its one row."""
    return system.fields(z.reshape(2, -1)).reshape(-1)


def test_a_failed_gauss_solve_carries_its_smallest_change():
    # testcase at dt=16: the sweeps grow until the divergence guard fires;
    # the failure keeps the stage values whose own sweep changed them least
    sys_ = make_testcase()
    z0 = np.array([-1.0, 2.0, 1.0, -1.0])
    tab = gl_tableau(2)
    with pytest.raises(NonConvergence, match="fixed-point stage solve diverged: change") as err:
        gl_step(sys_, 16.0, z0, tab, SolverConfig(tol=1e-14, max_iter=100))
    first_change = float(np.max(np.abs(_field(sys_, z0))))
    assert err.value.iterations < 100
    assert err.value.final_residual <= first_change
    k = err.value.best
    change = float(np.max(np.abs(_field(sys_, z0 + 16.0 * tab.a[0, 0] * k[0]) - k[0])))
    assert err.value.final_residual == change


def test_a_colliding_gauss_sweep_is_charged_its_whole_stack():
    # Two mirrored pairs of opposite circulations: the lower pair closes in
    # along the x axis, and dt is sized so that the second sweep's first
    # stage point brings it together.  The sweep evaluates its three stage
    # points in one stacked call, which is charged in full: 3 + 3 gradients,
    # where a call per stage stopped at the colliding one (3 + 1).
    gammas = (1.0, -1.0, 1.0, -1.0)
    positions = ((-1.0, 0.0), (1.0, 0.0), (-0.5, 1.0), (0.5, 1.0))
    config = VortexConfig(gammas, positions)
    z = canonical_from_planar(config, positions)
    tab = gl_tableau(6)
    first_sweep = np.tile(_field(make_vortices(config), z), (tab.stages, 1))
    dt = float(-z[0] / (tab.a @ first_sweep)[0, 0])
    spec = make_spec(dict(system="vortex", gammas=gammas, positions=positions, method="gl6",
                          dt=dt, t_end=dt))
    record = run_experiment(spec)
    assert record.failure_kind == "collision"
    assert (record.total_steps, record.itr_total, record.vf_total) == (0, 0, 6)
