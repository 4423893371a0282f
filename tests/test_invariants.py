import re

import numpy as np
import pytest

from extphase import (
    ConfigError,
    DimensionMismatch,
    LinearInvariant,
    QuadraticInvariant,
    coupling_bracket,
    coupling_flow,
    coupling_preserves_quadratic,
    drift_series,
    embed,
    extended_hamiltonian_gradient,
    infinitesimal_generator,
    make_nls,
    make_testcase,
    make_vortices,
    nls_mass,
    poisson_bracket,
    symplecticity_defect,
    tao_compatibility,
    testcase_L as tc_linear_form,
    testcase_Q as tc_quadratic_form,
    vortex_angular_impulse,
    vortex_linear_impulse_x,
    vortex_linear_impulse_y,
    VortexConfig,
    canonical_from_planar,
)
from extphase.invariants import coupling_energy_gradient

from conftest import seeded_rng

VORTEX4 = VortexConfig(
    (4.0, -3.0, -2.0, 7.0),
    ((1.0, 2.0), (-1.5, 1.0), (-3.0, -1.0), (2.0, 0.5)),
)


def random_quadratic(rng, d):
    k11 = rng.normal(size=(d, d))
    k11 = 0.5 * (k11 + k11.T)
    k22 = rng.normal(size=(d, d))
    k22 = 0.5 * (k22 + k22.T)
    return QuadraticInvariant(k11, rng.normal(size=(d, d)), k22)


def factored_lift(inv, zeta):
    # the independent reference for QuadraticInvariant.lift: the bilinear
    # form eta^T k xi / 2 with eta = (q, y) and xi = (x, p), written out
    d = inv.dim
    q, x, p, y = zeta[:d], zeta[d : 2 * d], zeta[2 * d : 3 * d], zeta[3 * d :]
    return float(
        0.5 * (q @ (inv.k11 @ x) + q @ (inv.k12 @ p) + x @ (inv.k12 @ y) + y @ (inv.k22 @ p))
    )


# --- evaluation ------------------------------------------------------------


def test_eval_examples():
    mass = nls_mass(1)
    assert mass.evaluate(np.array([1.0, 1.0])) == 2.0
    z = canonical_from_planar(VORTEX4, VORTEX4.initial_positions)
    assert vortex_linear_impulse_x(VORTEX4.circulations).evaluate(z) == pytest.approx(
        28.5, rel=1e-14
    )
    assert tc_linear_form().evaluate(np.zeros(4)) == 0.0
    assert tc_quadratic_form().evaluate(np.zeros(4)) == 0.0


def test_eval_dimension_checks():
    with pytest.raises(DimensionMismatch):
        tc_linear_form().evaluate(np.zeros(6))
    with pytest.raises(DimensionMismatch):
        nls_mass(2).evaluate(np.zeros(6))


def test_quadratic_block_symmetry_enforced():
    with pytest.raises(ConfigError, match="k11 must be symmetric"):
        QuadraticInvariant(np.array([[0.0, 1.0], [0.0, 0.0]]), np.zeros((2, 2)), np.eye(2))
    # non-finite blocks are refused before the symmetry check could subtract inf - inf
    for blocks in (([[np.nan]], [[0.0]], [[1.0]]), ([[np.inf]], [[0.0]], [[1.0]]),
                   ([[1.0]], [[-np.inf]], [[1.0]]), ([[1.0]], [[0.0]], [[np.nan]])):
        with pytest.raises(ConfigError, match="blocks must be finite"):
            QuadraticInvariant(*map(np.array, blocks))
    with pytest.raises(DimensionMismatch, match=re.escape("k12 must be 2x2, got (3, 3)")):
        QuadraticInvariant(np.eye(2), np.zeros((3, 3)), np.eye(2))


def test_linear_invariant_coefficients_and_gradient():
    with pytest.raises(ConfigError, match="coefficients must be finite"):
        LinearInvariant(np.array([1.0, np.nan]))
    lin = tc_linear_form()
    grad = lin.gradient(np.ones(4))
    assert grad.tolist() == [0.2, 0.0, -0.3, 0.0] and grad is not lin.a
    with pytest.raises(DimensionMismatch):
        lin.gradient(np.ones(6))


# --- lifts ------------------------------------------------------------------


def test_lift_linear_coefficients():
    lifted = LinearInvariant(np.array([1.0, 0.0])).lift()
    assert isinstance(lifted, LinearInvariant)
    assert lifted.a.tolist() == [0.5, 0.5, 0.0, 0.0]


def test_lifted_forms_restrict_to_originals():
    rng = seeded_rng(501)
    lin = tc_linear_form()
    quad = tc_quadratic_form()
    lin_hat, quad_hat = lin.lift(), quad.lift()
    for _ in range(100):
        z = rng.normal(size=4) * 2.0
        zeta = embed(z)
        assert lin_hat.evaluate(zeta) == pytest.approx(lin.evaluate(z), rel=1e-14, abs=1e-15)
        assert quad_hat.evaluate(zeta) == pytest.approx(quad.evaluate(z), rel=1e-13, abs=1e-14)


def test_lifted_quadratic_matrix_for_doubled_identity():
    # kappa = 2I in one degree of freedom lifts to pure cross-copy blocks
    k_hat = nls_mass(1).lift().matrix
    expected = np.array(
        [
            [0.0, 1.0, 0.0, 0.0],
            [1.0, 0.0, 0.0, 0.0],
            [0.0, 0.0, 0.0, 1.0],
            [0.0, 0.0, 1.0, 0.0],
        ]
    )
    np.testing.assert_allclose(k_hat, expected, rtol=0, atol=0)


def test_lifted_quadratic_matrix_matches_factored_form():
    rng = seeded_rng(502)
    for d in (1, 2, 3):
        inv = random_quadratic(rng, d)
        lifted = inv.lift()
        assert isinstance(lifted, QuadraticInvariant) and lifted.dim == 2 * d
        k_hat = lifted.matrix
        np.testing.assert_allclose(k_hat, k_hat.T, rtol=0, atol=0)
        for _ in range(30):
            zeta = rng.normal(size=4 * d)
            factored = factored_lift(inv, zeta)
            direct = 0.5 * float(zeta @ (k_hat @ zeta))
            assert direct == pytest.approx(factored, rel=1e-12, abs=1e-13)
            assert lifted.evaluate(zeta) == pytest.approx(factored, rel=1e-12, abs=1e-13)


def test_mass_lift_is_cross_copy_dot_products():
    rng = seeded_rng(503)
    d = 4
    mass = nls_mass(d)
    zeta = rng.normal(size=4 * d)
    q, x, p, y = zeta[:d], zeta[d : 2 * d], zeta[2 * d : 3 * d], zeta[3 * d :]
    assert mass.lift().evaluate(zeta) == pytest.approx(q @ x + y @ p, rel=1e-14)


def test_interleaved_lift_identity():
    # the diagonal-restricted companion matrix: kbar recovers Q on the
    # diagonal and contracts to the lift through I - AT A
    rng = seeded_rng(504)
    d = 2
    inv = random_quadratic(rng, d)
    z_blk = np.zeros((d, d))
    eye = np.eye(d)
    kbar = 0.5 * np.block(
        [
            [inv.k11, z_blk, z_blk, inv.k12],
            [z_blk, inv.k11, inv.k12, z_blk],
            [z_blk, inv.k12.T, inv.k22, z_blk],
            [inv.k12.T, z_blk, z_blk, inv.k22],
        ]
    )
    for _ in range(20):
        z = rng.normal(size=2 * d)
        zeta = embed(z)
        qbar = 0.5 * float(zeta @ (kbar @ zeta))
        assert qbar == pytest.approx(inv.evaluate(z), rel=1e-13, abs=1e-14)
    a_op = np.block([[eye, -eye, z_blk, z_blk], [z_blk, z_blk, eye, -eye]])
    proj = np.eye(4 * d) - a_op.T @ a_op
    np.testing.assert_allclose(kbar @ proj, inv.lift().matrix, rtol=0, atol=1e-15)


# --- generators and brackets -------------------------------------------------


def test_infinitesimal_generator_examples():
    gen = infinitesimal_generator(nls_mass(1), np.array([1.0, 0.0]))
    assert gen.tolist() == [0.0, -2.0]
    assert np.all(infinitesimal_generator(tc_quadratic_form(), np.zeros(4)) == 0.0)


def test_generator_is_rotated_gradient():
    rng = seeded_rng(505)
    d = 3
    inv = random_quadratic(rng, d)
    for _ in range(30):
        z = rng.normal(size=2 * d)
        g = inv.gradient(z)
        expected = np.concatenate((g[d:], -g[:d]))
        np.testing.assert_allclose(infinitesimal_generator(inv, z), expected, rtol=1e-13)


def test_poisson_bracket_canonical_pairs():
    grad_q = lambda z: np.array([1.0, 0.0])
    grad_p = lambda z: np.array([0.0, 1.0])
    assert poisson_bracket(grad_q, grad_p, np.zeros(2)) == 1.0
    sys_ = make_testcase()

    def grad_h(z):
        gq, gp = sys_.grad(z[:2], z[2:])
        return np.concatenate((gq, gp))

    rng = seeded_rng(506)
    for _ in range(20):
        z = rng.normal(size=4)
        assert poisson_bracket(grad_h, grad_h, z) == 0.0


def test_system_invariants_commute_and_perturbations_do_not():
    rng = seeded_rng(507)
    cases = []
    sys_t = make_testcase()
    cases.append((sys_t, tc_quadratic_form(), 4))
    sys_n = make_nls(3)
    cases.append((sys_n, nls_mass(3), 6))
    sys_v = make_vortices(VORTEX4)
    cases.append((sys_v, vortex_angular_impulse(VORTEX4.circulations), 8))
    base_points = {
        8: canonical_from_planar(VORTEX4, VORTEX4.initial_positions),
    }
    for system, inv, n in cases:
        d = n // 2

        def grad_h(z, system=system, d=d):
            gq, gp = system.grad(z[:d], z[d:])
            return np.concatenate((gq, gp))

        broken = 0
        delta = random_quadratic(rng, d)
        perturbed = QuadraticInvariant(
            inv.k11 + 0.05 * delta.k11, inv.k12 + 0.05 * delta.k12, inv.k22 + 0.05 * delta.k22
        )
        for _ in range(50):
            if n in base_points:
                z = base_points[n] + rng.uniform(-0.2, 0.2, size=n)
            else:
                z = rng.normal(size=n)
            assert abs(poisson_bracket(inv.gradient, grad_h, z)) <= 1e-10
            if abs(poisson_bracket(perturbed.gradient, grad_h, z)) > 1e-6:
                broken += 1
        assert broken > 0  # a generic perturbation is not conserved


def test_lifted_invariants_commute_with_doubled_energy():
    rng = seeded_rng(508)
    sys_n = make_nls(3)
    mass = nls_mass(3)
    sys_t = make_testcase()
    quad_t = tc_quadratic_form()
    sys_v = make_vortices(VORTEX4)
    quad_v = vortex_angular_impulse(VORTEX4.circulations)
    zv = canonical_from_planar(VORTEX4, VORTEX4.initial_positions)
    cases = [
        (sys_n, mass, lambda: rng.normal(size=12)),
        (sys_t, quad_t, lambda: rng.normal(size=8)),
        # both copies of a perturbed embedded state stay collision-free
        (sys_v, quad_v, lambda: embed(zv) + rng.uniform(-0.2, 0.2, size=16)),
    ]
    for system, inv, draw in cases:

        def grad_hhat(zeta, system=system):
            return extended_hamiltonian_gradient(system, zeta)

        grad_qhat = inv.lift().gradient
        for _ in range(100):
            assert abs(poisson_bracket(grad_qhat, grad_hhat, draw())) <= 1e-10


def test_lifted_generator_consistent_with_lifted_matrix():
    rng = seeded_rng(509)
    d = 2
    inv = random_quadratic(rng, d)
    lifted = inv.lift()
    k_hat = lifted.matrix
    for _ in range(30):
        zeta = rng.normal(size=4 * d)
        np.testing.assert_allclose(lifted.gradient(zeta), k_hat @ zeta, rtol=0, atol=1e-13)


# --- coupling-energy bracket -------------------------------------------------


def test_coupling_bracket_closed_form_matches_numeric_bracket():
    # {Qhat, coupling energy} evaluated from gradients agrees with the
    # closed form (omega/2)(v k12 v - u k12 u + u (k22 - k11) v)
    rng = seeded_rng(510)
    for d in (1, 2, 3):
        inv = random_quadratic(rng, d)
        lifted = inv.lift()
        for _ in range(40):
            zeta = rng.normal(size=4 * d)
            omega = rng.uniform(0.5, 20.0)
            numeric = poisson_bracket(
                lifted.gradient, lambda zz: coupling_energy_gradient(omega, zz), zeta
            )
            closed = coupling_bracket(inv, zeta, omega)
            assert numeric == pytest.approx(closed, rel=1e-12, abs=1e-12)


def test_coupling_preservation_condition():
    rng = seeded_rng(511)
    d = 2
    # equal diagonal blocks + antisymmetric cross block: conserved
    m = rng.normal(size=(d, d))
    m = 0.5 * (m + m.T)
    s = rng.normal(size=(d, d))
    s = 0.5 * (s - s.T)
    good = QuadraticInvariant(m, s, m)
    assert coupling_preserves_quadratic(good)
    bad = QuadraticInvariant(m, s, -m)
    assert not coupling_preserves_quadratic(bad) or np.allclose(m, 0)
    for _ in range(50):
        zeta = rng.normal(size=4 * d)
        assert abs(coupling_bracket(good, zeta, 7.0)) <= 1e-12
    # conservation along the exact rotation itself
    good_hat = good.lift()
    for _ in range(20):
        zeta = rng.normal(size=4 * d)
        t = rng.uniform(-1.0, 1.0)
        before = good_hat.evaluate(zeta)
        after = good_hat.evaluate(coupling_flow(7.0, t, zeta))
        assert after == pytest.approx(before, rel=1e-12, abs=1e-12)


def test_opposite_sign_blocks_are_not_conserved_by_rotation():
    inv = QuadraticInvariant(np.array([[1.0]]), np.zeros((1, 1)), np.array([[-1.0]]))
    zeta = np.array([1.0, 0.0, 0.0, 0.0])
    before = inv.lift().evaluate(zeta)
    after = inv.lift().evaluate(coupling_flow(1.0, np.pi / 4.0, zeta))
    assert abs(after - before) > 0.1
    # the bracket needs both copy gaps nonzero to see the k22 - k11 mismatch
    assert abs(coupling_bracket(inv, np.array([1.0, 0.0, 0.0, 0.5]), 1.0)) > 0.1


# --- coupled-system compatibility predicate ----------------------------------


def test_tao_compatibility_classifications():
    assert not tao_compatibility(nls_mass(4))
    assert not tao_compatibility(tc_quadratic_form())
    assert not tao_compatibility(vortex_angular_impulse(VORTEX4.circulations))
    rng = seeded_rng(512)
    m = rng.normal(size=(3, 3))
    m = 0.5 * (m + m.T)
    s = rng.normal(size=(3, 3))
    s = 0.5 * (s - s.T)
    assert tao_compatibility(QuadraticInvariant(m, s, -m))
    assert not tao_compatibility(QuadraticInvariant(m, s + 0.1 * np.eye(3), -m))


# --- structure measurement ----------------------------------------------------


def test_symplecticity_defect_identity_map():
    assert symplecticity_defect(lambda z: z.copy(), np.zeros(4)) <= 1e-10


def test_symplecticity_defect_flags_non_symplectic_maps():
    assert symplecticity_defect(lambda z: 2.0 * z, np.zeros(2)) == pytest.approx(3.0, rel=1e-6)


def test_drift_series_constant_trajectory():
    lin = tc_linear_form()
    states = [np.array([-1.0, 2.0, 1.0, -1.0])] * 5
    out = drift_series(states, [("L", lin)])
    assert np.all(out["L"] == 0.0)


def test_drift_series_zero_initial_value_degrades_to_absolute():
    lin = LinearInvariant(np.array([1.0, 0.0]))
    states = [np.zeros(2), np.array([1e-3, 0.0])]
    out = drift_series(states, [("L", lin)])
    assert out["L"][1] == pytest.approx(1e-3 / 1e-300)


def test_drift_series_takes_invariant_objects_only():
    def first(z):
        return z[0]

    states = [np.array([1.0, 2.0]), np.array([1.5, 2.0])]
    with pytest.raises(ConfigError, match="'first' is no invariant object: <function .*first"):
        drift_series(states, [("first", first)])
    with pytest.raises(ConfigError, match="at least one state"):
        drift_series([], [("L", tc_linear_form())])


def test_drift_series_raises_dimension_mismatch_on_malformed_states():
    lin = tc_linear_form()
    for states in ([[1.0, 2.0], [1.0]], np.ones((3, 5)), np.ones((3, 6)), np.ones((2, 3, 4)),
                   np.ones(4)):
        with pytest.raises(DimensionMismatch):
            drift_series(states, [("L", lin)])
            pytest.fail(f"drift_series accepted {states!r}")


def test_drift_series_reads_a_blown_up_state_as_a_run_does():
    # inf past float range, nan at a nan state, and no warning
    z0 = np.arange(1.0, 11.0)
    out = drift_series([z0, 1e200 * z0, np.full(10, np.nan)], [("mass", nls_mass(5))])
    assert out["mass"][0] == 0.0 and out["mass"][1] == np.inf and np.isnan(out["mass"][2])
