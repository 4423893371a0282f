import math

import numpy as np
import pytest

from extphase import (
    DimensionMismatch,
    EvalCounter,
    VortexCollision,
    VortexConfig,
    canonical_from_planar,
    check_gradient,
    make_nls,
    make_testcase,
    make_vortices,
    nls_mass,
    planar_from_canonical,
    poisson_bracket,
    preset,
    run_experiment,
    vortex_angular_impulse,
    vortex_linear_impulse_x,
    vortex_linear_impulse_y,
)

from conftest import seeded_rng

Q0 = np.array([-1.0, 2.0])
P0 = np.array([1.0, -1.0])

VORTEX4 = VortexConfig(
    (4.0, -3.0, -2.0, 7.0),
    ((1.0, 2.0), (-1.5, 1.0), (-3.0, -1.0), (2.0, 0.5)),
)


def test_testcase_energy_closed_form():
    sys_ = make_testcase()
    # f = (2*(-1) - 3*1)/10 = -0.5 and g = (4 + 2)/4 = 1.5 at the reference state
    expected = math.exp(-0.5) * math.sin(1.5)
    assert sys_.energy(Q0, P0) == pytest.approx(expected, rel=1e-15)
    assert 0.2 * Q0[0] - 0.3 * P0[0] == -0.5


def test_testcase_gradient_closed_form():
    sys_ = make_testcase()
    gq, gp = sys_.grad(Q0, P0)
    es = math.exp(-0.5) * math.sin(1.5)
    ec = math.exp(-0.5) * math.cos(1.5)
    np.testing.assert_allclose(gq, [0.2 * es, ec * 1.0], rtol=1e-14)
    np.testing.assert_allclose(gp, [-0.3 * es, ec * -1.0], rtol=1e-14)


def test_testcase_gradient_vs_finite_differences():
    sys_ = make_testcase()
    assert check_gradient(sys_, np.concatenate((Q0, P0)), h=1e-5) <= 1e-6


def test_nls_single_site():
    sys_ = make_nls(1)
    q, p = np.array([1.0]), np.array([1.0])
    assert sys_.energy(q, p) == pytest.approx(1.0, rel=1e-15)
    gq, gp = sys_.grad(q, p)
    assert gq[0] == pytest.approx(2.0, rel=1e-15)
    assert gp[0] == pytest.approx(2.0, rel=1e-15)


def test_nls_gradient_vanishes_at_origin():
    sys_ = make_nls(4)
    gq, gp = sys_.grad(np.zeros(4), np.zeros(4))
    assert np.all(gq == 0.0) and np.all(gp == 0.0)


def test_nls_gradient_at_benchmark_state():
    sys_ = make_nls(5)
    z = np.array([3, 0.01, 0.01, 0.01, 0.01, 1, 0, 0, 0, 0.0])
    assert check_gradient(sys_, z, h=1e-5) <= 1e-6


def test_nls_rotation_symmetry():
    # the energy is invariant under the global rotation (q, p) -> (cq - sp, sq + cp)
    sys_ = make_nls(4)
    rng = seeded_rng(201)
    for _ in range(20):
        z = rng.normal(size=8)
        theta = rng.uniform(0, 2 * np.pi)
        c, s = np.cos(theta), np.sin(theta)
        q, p = z[:4], z[4:]
        assert sys_.energy(c * q - s * p, s * q + c * p) == pytest.approx(
            sys_.energy(q, p), rel=1e-12, abs=1e-13
        )


def test_vortex_pair_energy():
    cfg = VortexConfig((1.0, 1.0), ((1.0, 0.0), (-1.0, 0.0)))
    sys_ = make_vortices(cfg)
    z = canonical_from_planar(cfg, cfg.initial_positions)
    expected = -math.log(4.0) / (4.0 * math.pi)
    assert sys_.energy(z[:2], z[2:]) == pytest.approx(expected, rel=1e-14)


def test_vortex_collision_guard():
    cfg = VortexConfig((1.0, 1.0), ((0.0, 0.0), (1.0, 0.0)))
    sys_ = make_vortices(cfg)
    z = canonical_from_planar(cfg, np.array([[0.5, 0.5], [0.5, 0.5]]))
    with pytest.raises(VortexCollision):
        sys_.energy(z[:2], z[2:])
    with pytest.raises(VortexCollision):
        VortexConfig((1.0, 1.0), ((0.5, 0.5), (0.5, 0.5)))


def test_vortex_config_validation():
    with pytest.raises(ValueError):
        VortexConfig((1.0, 0.0), ((0.0, 0.0), (1.0, 0.0)))
    with pytest.raises(DimensionMismatch):
        VortexConfig((1.0, 1.0), ((0.0, 0.0),))


def test_canonical_from_planar_scalings():
    cfg = VortexConfig((4.0,), ((1.0, 2.0),))
    z = canonical_from_planar(cfg, ((1.0, 2.0),))
    assert z.tolist() == [2.0, 4.0]
    cfg = VortexConfig((-3.0,), ((1.0, 1.0),))
    z = canonical_from_planar(cfg, ((1.0, 1.0),))
    np.testing.assert_allclose(z, [math.sqrt(3.0), -math.sqrt(3.0)], rtol=1e-15)


def test_planar_canonical_round_trip():
    rng = seeded_rng(202)
    cfg = VORTEX4
    for _ in range(50):
        pos = rng.normal(size=(4, 2)) * 3.0
        back = planar_from_canonical(cfg, canonical_from_planar(cfg, pos))
        np.testing.assert_allclose(back, pos, rtol=1e-15, atol=1e-15)


def test_vortex_gradient_at_reference_state():
    sys_ = make_vortices(VORTEX4)
    z = canonical_from_planar(VORTEX4, VORTEX4.initial_positions)
    assert check_gradient(sys_, z, h=1e-5) <= 1e-6


def test_quadratic_energy_gradient_nearly_exact():
    # central differences are exact for quadratics up to round-off
    from conftest import Oscillator

    sys_ = Oscillator()
    rng = seeded_rng(203)
    for _ in range(20):
        z = rng.normal(size=2)
        assert check_gradient(sys_, z, h=1e-5) <= 1e-10


@pytest.mark.parametrize("system_name", ["testcase", "nls", "vortex"])
def test_gradients_at_random_points(system_name):
    rng = seeded_rng(204)
    if system_name == "testcase":
        sys_ = make_testcase()
        points = [rng.normal(size=4) * 2.0 for _ in range(100)]
    elif system_name == "nls":
        sys_ = make_nls(5)
        points = [rng.normal(size=10) for _ in range(100)]
    else:
        sys_ = make_vortices(VORTEX4)
        base = canonical_from_planar(VORTEX4, VORTEX4.initial_positions)
        points = [base + rng.uniform(-0.3, 0.3, size=8) for _ in range(100)]
    for z in points:
        assert check_gradient(sys_, z, h=1e-5) <= 1e-6


def test_eval_counter_counts_joint_gradients_only():
    counter = EvalCounter()
    sys_ = make_testcase().with_counter(counter)
    sys_.energy(Q0, P0)
    assert counter.n_grad == 0
    sys_.grad(Q0, P0)
    assert counter.n_grad == 1
    sys_.grad(Q0, P0)
    assert counter.n_grad == 2


def test_counters_chain():
    outer, inner = EvalCounter(), EvalCounter()
    sys_ = make_testcase().with_counter(outer).with_counter(inner)
    sys_.grad(Q0, P0)
    assert outer.n_grad == 1 and inner.n_grad == 1


def test_nls_mass_commutes_with_energy():
    sys_ = make_nls(5)
    mass = nls_mass(5)
    rng = seeded_rng(205)
    for _ in range(100):
        z = rng.normal(size=10)

        def grad_h(z_):
            gq, gp = sys_.grad(z_[:5], z_[5:])
            return np.concatenate((gq, gp))

        assert abs(poisson_bracket(mass.gradient, grad_h, z)) <= 1e-10


def test_vortex_invariants_constant_along_tight_reference():
    # 3-stage Gauss at dt = 1e-4 serves as the near-exact flow on [0, 10]
    spec = preset("vortex4", method="gl6", dt=1e-4, t_end=10.0, tol=1e-13, max_iter=60)
    record = run_experiment(spec)
    assert record.complete
    for name in ("L_a", "L_b", "Q_kappa"):
        assert record.drifts[name].max() <= 1e-8


def test_vortex_invariant_values_at_reference_state():
    z = canonical_from_planar(VORTEX4, VORTEX4.initial_positions)
    g = VORTEX4.circulations
    assert vortex_linear_impulse_x(g).evaluate(z) == pytest.approx(28.5, rel=1e-14)
    assert vortex_linear_impulse_y(g).evaluate(z) == pytest.approx(10.5, rel=1e-14)
    assert vortex_angular_impulse(g).evaluate(z) == pytest.approx(20.0, rel=1e-14)
