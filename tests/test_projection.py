import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from extphase import (
    EvalCounter,
    NonConvergence,
    SolverConfig,
    VortexConfig,
    apply_A,
    apply_AT,
    canonical_from_planar,
    composed_step,
    composition_scheme,
    embed,
    make_nls,
    make_testcase,
    make_vortices,
    nls_mass,
    pihajoki_step,
    residual,
    semiexplicit_step,
    solve_mu,
    symplecticity_defect,
    testcase_L as tc_linear_form,
    testcase_Q as tc_quadratic_form,
    vortex_angular_impulse,
    vortex_linear_impulse_x,
    vortex_linear_impulse_y,
)
from extphase.splitting import COMPOSITION_LABELS

from conftest import seeded_rng

Z0 = np.array([-1.0, 2.0, 1.0, -1.0])


def identity_step(_system, _dt, zeta):
    return zeta.copy()


def test_residual_of_identity_step_on_diagonal_is_zero():
    sys_ = make_testcase()
    zeta = embed(Z0)
    r, image = residual(sys_, identity_step, 0.1, zeta, np.zeros(4))
    assert np.all(r == 0.0)
    assert np.array_equal(image, zeta)


def test_residual_zero_for_constant_gradient(linear_system):
    # the plain Strang step lands on the diagonal when the gradient is constant
    r, _ = residual(linear_system, pihajoki_step, 0.1, np.zeros(4), np.zeros(2))
    np.testing.assert_allclose(r, 0.0, atol=1e-16)


def test_residual_shift_algebra():
    # r(mu) - r(0) = 2 mu + A(Phi(zeta + AT mu) - Phi(zeta))
    sys_ = make_testcase()
    zeta = embed(Z0)
    rng = seeded_rng(401)
    for _ in range(20):
        mu = 1e-3 * rng.normal(size=4)
        lhs = residual(sys_, pihajoki_step, 0.1, zeta, mu)[0] - residual(
            sys_, pihajoki_step, 0.1, zeta, np.zeros(4)
        )[0]
        moved = pihajoki_step(sys_, 0.1, zeta + apply_AT(mu))
        still = pihajoki_step(sys_, 0.1, zeta)
        rhs = 2.0 * mu + apply_A(moved) - apply_A(still)
        np.testing.assert_allclose(lhs, rhs, rtol=0, atol=1e-15)


def test_solver_config_validation():
    with pytest.raises(ValueError):
        SolverConfig(max_iter=0)
    with pytest.raises(ValueError):
        SolverConfig(tol=0.0)
    with pytest.raises(ValueError):
        SolverConfig(tol=1e-17)
    with pytest.raises(ValueError):
        SolverConfig(method="newton_krylov")


def test_solve_converges_immediately_for_constant_gradient(linear_system):
    counter = EvalCounter()
    cfg = SolverConfig(tol=1e-12, max_iter=10)
    metered = linear_system.with_counter(counter)
    mu, _image, stats = solve_mu(metered, pihajoki_step, 0.1, np.zeros(4), cfg)
    assert stats.iterations == 1
    assert stats.final_residual <= cfg.tol
    assert np.all(mu == 0.0)
    assert counter.n_grad == 3


def test_solve_on_testcase_converges_quickly():
    counter = EvalCounter()
    sys_ = make_testcase().with_counter(counter)
    cfg = SolverConfig(tol=1e-12, max_iter=50)
    mu, _image, stats = solve_mu(sys_, pihajoki_step, 0.1, embed(Z0), cfg)
    assert stats.final_residual <= cfg.tol
    assert stats.iterations <= 10
    assert counter.n_grad == 3 * stats.iterations
    assert stats.final_residual <= 1e-12


def test_broyden_solver_agrees_with_newton():
    sys_ = make_testcase()
    newton = SolverConfig(tol=1e-13, max_iter=60, method="simplified_newton")
    broyden = SolverConfig(tol=1e-13, max_iter=60, method="broyden")
    mu_n, _, st_n = solve_mu(sys_, pihajoki_step, 0.1, embed(Z0), newton)
    mu_b, _, st_b = solve_mu(sys_, pihajoki_step, 0.1, embed(Z0), broyden)
    assert st_b.final_residual <= broyden.tol
    np.testing.assert_allclose(mu_b, mu_n, atol=1e-12)
    assert st_b.iterations <= st_n.iterations + 3


def test_solver_divergence_guard():
    sys_ = make_nls(5)
    z0 = np.array([3, 0.01, 0.01, 0.01, 0.01, 1, 0, 0, 0, 0.0])
    cfg = SolverConfig(tol=1e-10, max_iter=200)
    with pytest.raises(NonConvergence) as err:
        solve_mu(sys_, pihajoki_step, 0.5, embed(z0), cfg)
    assert err.value.iterations < 200  # the guard fired, not the iteration cap
    assert np.isfinite(err.value.final_residual)


def test_solver_iteration_cap():
    sys_ = make_testcase()
    cfg = SolverConfig(tol=1e-15, max_iter=2)
    with pytest.raises(NonConvergence) as err:
        solve_mu(sys_, pihajoki_step, 0.4, embed(Z0), cfg)
    assert err.value.iterations == 2
    assert err.value.best is not None


def test_projected_step_preserves_both_first_integrals():
    sys_ = make_testcase()
    cfg = SolverConfig(tol=1e-12, max_iter=50)
    z1, stats = semiexplicit_step(sys_, pihajoki_step, 0.1, Z0, cfg)
    assert stats.final_residual <= cfg.tol
    lin, quad = tc_linear_form(), tc_quadratic_form()
    assert lin.evaluate(Z0) == pytest.approx(-0.5, abs=1e-15)
    assert quad.evaluate(Z0) == pytest.approx(1.5, abs=1e-15)
    assert abs(lin.evaluate(z1) - lin.evaluate(Z0)) <= 10 * cfg.tol
    assert abs(quad.evaluate(z1) - quad.evaluate(Z0)) <= 10 * cfg.tol * 1.5


def test_projected_step_is_symmetric():
    sys_ = make_testcase()
    cfg = SolverConfig(tol=1e-13, max_iter=60)
    z1, _ = semiexplicit_step(sys_, pihajoki_step, 0.1, Z0, cfg)
    z2, _ = semiexplicit_step(sys_, pihajoki_step, -0.1, z1, cfg)
    np.testing.assert_allclose(z2, Z0, rtol=0, atol=10 * cfg.tol)


def test_multiplier_identity():
    # mu = A zeta_hat_0 / 2 = -A zeta_hat_1 / 2 at the accepted solution
    sys_ = make_testcase()
    cfg = SolverConfig(tol=1e-13, max_iter=60)
    zeta_n = embed(Z0)
    mu, image, _stats = solve_mu(sys_, pihajoki_step, 0.1, zeta_n, cfg)
    np.testing.assert_allclose(mu, 0.5 * apply_A(zeta_n + apply_AT(mu)), atol=1e-13)
    np.testing.assert_allclose(mu, -0.5 * apply_A(image), atol=1e-13)


def test_projected_step_cost_accounting():
    counter = EvalCounter()
    sys_ = make_testcase().with_counter(counter)
    cfg = SolverConfig(tol=1e-12, max_iter=50)
    _z1, stats = semiexplicit_step(sys_, pihajoki_step, 0.1, Z0, cfg)
    assert stats.iterations >= 1
    assert counter.n_grad == 3 * stats.iterations


@pytest.mark.parametrize("label,substeps", [("triple_jump_4", 3), ("suzuki_4", 5), ("yoshida_6", 7)])
def test_projection_wraps_higher_order_compositions(label, substeps):
    counter = EvalCounter()
    sys_ = make_testcase().with_counter(counter)
    cfg = SolverConfig(tol=1e-12, max_iter=60)
    step = composed_step(pihajoki_step, composition_scheme(label))
    z1, stats = semiexplicit_step(sys_, step, 0.1, Z0, cfg)
    assert stats.final_residual <= cfg.tol
    assert counter.n_grad == 3 * substeps * stats.iterations
    lin, quad = tc_linear_form(), tc_quadratic_form()
    assert abs(lin.evaluate(z1) - lin.evaluate(Z0)) <= 10 * cfg.tol
    assert abs(quad.evaluate(z1) - quad.evaluate(Z0)) <= 10 * cfg.tol * 1.5


def test_warm_start_reuses_previous_multiplier():
    sys_ = make_testcase()
    cfg = SolverConfig(tol=1e-12, max_iter=50)
    z1, stats1 = semiexplicit_step(sys_, pihajoki_step, 0.1, Z0, cfg)
    _z2_cold, stats_cold = semiexplicit_step(sys_, pihajoki_step, 0.1, z1, cfg)
    _z2_warm, stats_warm = semiexplicit_step(sys_, pihajoki_step, 0.1, z1, cfg, mu0=stats1.mu)
    assert stats_warm.final_residual <= cfg.tol
    assert stats_warm.iterations <= stats_cold.iterations


def test_projected_step_symplectic_on_original_space():
    sys_ = make_testcase()
    cfg = SolverConfig(tol=1e-13, max_iter=80)

    def step(z):
        return semiexplicit_step(sys_, pihajoki_step, 0.1, z, cfg)[0]

    assert symplecticity_defect(step, Z0) <= 1e-6


def test_projected_step_longer_horizon_drift():
    # 100 steps at tol 1e-12: both integrals stay within the tolerance scale
    sys_ = make_testcase()
    cfg = SolverConfig(tol=1e-12, max_iter=50)
    lin, quad = tc_linear_form(), tc_quadratic_form()
    z = Z0.copy()
    l0, q0 = lin.evaluate(z), quad.evaluate(z)
    for _ in range(100):
        z, stats = semiexplicit_step(sys_, pihajoki_step, 0.1, z, cfg)
        assert stats.final_residual <= cfg.tol
    assert abs(lin.evaluate(z) - l0) <= 1e-10
    assert abs(quad.evaluate(z) - q0) <= 1e-10


# --- the paper's two steps, as one property --------------------------------


@st.composite
def systems_with_invariants(draw):
    """A random vortex set or quartic lattice, a state, and its invariants."""
    if draw(st.booleans()):
        n = draw(st.integers(2, 5))
        signs = [1.0, -1.0] + draw(st.lists(st.sampled_from([1.0, -1.0]), min_size=n - 2,
                                            max_size=n - 2))
        gammas = [sign * draw(st.floats(0.5, 2.0)) for sign in signs]
        # distinct cells of a 3 x 3 grid of spacing 1.5, jittered: no two
        # vortices start closer than 0.9
        cells = draw(st.lists(st.integers(0, 8), min_size=n, max_size=n, unique=True))
        jitter = st.floats(-0.3, 0.3)
        positions = [(1.5 * (c % 3) + draw(jitter), 1.5 * (c // 3) + draw(jitter)) for c in cells]
        config = VortexConfig(gammas, positions)
        invariants = [
            vortex_linear_impulse_x(gammas),
            vortex_linear_impulse_y(gammas),
            vortex_angular_impulse(gammas),
        ]
        return make_vortices(config), canonical_from_planar(config, positions), invariants
    d = draw(st.integers(1, 4))
    z = draw(arrays(np.float64, 2 * d, elements=st.floats(-1.0, 1.0)))
    return make_nls(d), z, [nls_mass(d)]


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(
    case=systems_with_invariants(),
    label=st.sampled_from(COMPOSITION_LABELS),
    dt=st.floats(0.01, 0.05),
)
def test_paper_two_steps_keep_every_invariant(case, label, dt):
    """Step one: the doubled-space step keeps every lifted invariant to
    round-off.  Step two: its symmetric projection keeps every invariant
    within criteria 1 and 2's bound per step and is symmetric."""
    system, z0, invariants = case
    inner = composed_step(pihajoki_step, composition_scheme(label))

    zeta = embed(z0)
    for inv in invariants:
        lifted = inv.lift()
        start = lifted.evaluate(zeta)
        zeta_k = zeta
        for _ in range(3):
            zeta_k = inner(system, dt, zeta_k)
            assert abs(lifted.evaluate(zeta_k) - start) <= 1e-12 * max(1.0, abs(start))

    cfg = SolverConfig(tol=1e-12)
    z1, _ = semiexplicit_step(system, inner, dt, z0, cfg)
    back, _ = semiexplicit_step(system, inner, -dt, z1, cfg)
    assert np.max(np.abs(back - z0)) <= 10 * cfg.tol
    z = z0
    for _ in range(3):
        z_next, _ = semiexplicit_step(system, inner, dt, z, cfg)
        for inv in invariants:
            before = inv.evaluate(z)
            assert abs(inv.evaluate(z_next) - before) <= 1e-10 * max(1.0, abs(before))
        z = z_next
