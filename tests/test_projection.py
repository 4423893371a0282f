import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from extphase import (
    ConfigError,
    DimensionMismatch,
    EvalCounter,
    NonConvergence,
    SolverConfig,
    VortexConfig,
    apply_A,
    apply_AT,
    canonical_from_planar,
    COMPOSITIONS,
    composed_step,
    defect_norm,
    embed,
    harness,
    make_nls,
    make_testcase,
    make_vortices,
    nls_mass,
    pihajoki_step,
    preset,
    restrict,
    run_experiment,
    semiexplicit_step,
    solve_mu,
    symplecticity_defect,
    testcase_L as tc_linear_form,
    testcase_Q as tc_quadratic_form,
    vortex_angular_impulse,
    vortex_linear_impulse_x,
    vortex_linear_impulse_y,
)
from extphase.projection import ROUND_OFF, SHIFT_ROUNDING, cold_start, iterate

from conftest import seeded_rng

Z0 = np.array([-1.0, 2.0, 1.0, -1.0])


def identity_step(_system, _dt, zeta):
    return zeta.copy()


def test_identity_step_converges_at_once_with_residual_zero():
    # on the diagonal, f(0) = A zeta_n = 0 for the identity inner step
    zeta = embed(Z0)
    mu, image, stats = solve_mu(make_testcase(), identity_step, 0.1, zeta, SolverConfig())
    assert stats.iterations == 1
    assert stats.final_residual == 0.0
    assert np.all(mu == 0.0)
    assert np.array_equal(image, zeta)


def test_residual_zero_for_constant_gradient(linear_system):
    # the plain Strang step lands on the diagonal when the gradient is constant:
    # the residual at mu = 0 is A Phi(zeta), and solve_mu reports its sup norm
    zeta = np.zeros(4)
    r = apply_A(pihajoki_step(linear_system, 0.1, zeta))
    np.testing.assert_allclose(r, 0.0, atol=1e-16)
    _mu, _image, stats = solve_mu(linear_system, pihajoki_step, 0.1, zeta, SolverConfig())
    assert stats.final_residual == float(np.max(np.abs(r)))


def test_a_solve_that_stops_at_once_reports_the_residual_bit_for_bit():
    # one pass at mu0 = mu: f(mu) = A Phi(zeta + A^T mu) + 2 mu, as the
    # failure's residual, with mu itself as the best iterate
    sys_ = make_testcase()
    zeta = embed(Z0)
    rng = seeded_rng(401)
    for _ in range(20):
        mu = 1e-3 * rng.normal(size=4)
        with pytest.raises(NonConvergence) as err:
            solve_mu(sys_, pihajoki_step, 0.1, zeta, SolverConfig(max_iter=1), mu0=mu)
        r = apply_A(pihajoki_step(sys_, 0.1, zeta + apply_AT(mu))) + 2.0 * mu
        assert err.value.final_residual == float(np.max(np.abs(r)))
        assert err.value.iterations == 1
        assert np.array_equal(err.value.best, mu)


# --- the one solve loop, on toy maps ----------------------------------------


def scripted(residuals):
    """A toy solve whose iterate ``[i]`` has residual ``residuals[i]``;
    ``None`` there raises math's range error."""

    def evaluate(x):
        value = residuals[int(x[0])]
        r = np.array([math.exp(1e3) if value is None else value])
        return r, float(np.max(np.abs(r))), x

    return evaluate, lambda x, _r, _out: x + 1.0


def test_iterate_returns_the_first_iterate_within_tol():
    # simplified Newton on f(x) = x: the residual halves each pass
    x, out, stats = iterate(lambda x: (x, float(abs(x[0])), 2.0 * x),
                            lambda x, r, _out: x - 0.5 * r,
                            np.array([1.0]), SolverConfig(tol=1e-3), "toy", "residual")
    assert stats.iterations == 11
    assert x.tolist() == [2.0**-10] and stats.final_residual == 2.0**-10
    assert out.tolist() == [2.0**-9]


@pytest.mark.parametrize(
    "residuals, passes",
    [
        # at round-off, level or rising
        ([0.5, 1e-14, 1e-14, 1e-16], 3),
        ([0.5, 1e-14, 2e-14, 1e-16], 3),  # the current pass, not the smallest residual
        ([0.5, 3e-13, 3e-13, 1e-16], 3),  # above ROUND_OFF, within it times max|out| = 2
        # still falling at round-off, or rising above it: the solve goes on
        ([0.5, 1e-13, 5e-14, 5e-14], 4),
        ([0.5, 1e-3, 2e-3, 1e-16], 4),
    ],
)
def test_iterate_stops_where_the_residual_stops_falling_at_round_off(residuals, passes):
    evaluate, advance = scripted(residuals)
    x, out, stats = iterate(evaluate, advance, np.array([0.0]), SolverConfig(tol=1e-16),
                            "toy", "change")
    assert stats.iterations == passes and x.tolist() == [passes - 1.0] and out is x
    assert stats.final_residual == residuals[passes - 1]


@pytest.mark.parametrize(
    "residuals, max_iter, message",
    [
        # the iteration cap
        ([0.5, 0.2, 0.3, 0.4], 4, "toy solve stalled at change 4.000e-01 after 4 iterations "
         "(tol 1.0e-03)"),
        # the divergence guard, against the first residual, not the best
        ([0.5, 0.2, 0.3, 6e3], 50, "toy solve diverged: change 6.000e+03 from 5.000e-01"),
        # a non-finite residual, and a math range error in the evaluation
        ([0.5, 0.2, 0.3, np.nan], 50, "toy change is no longer finite; reduce the step size"),
        ([0.5, 0.2, 0.3, None], 50, "toy change is no longer finite; reduce the step size"),
    ],
)
def test_a_failed_solve_carries_its_smallest_residual_iterate(residuals, max_iter, message):
    evaluate, advance = scripted(residuals)
    with pytest.raises(NonConvergence) as err:
        iterate(evaluate, advance, np.array([0.0]), SolverConfig(tol=1e-3, max_iter=max_iter),
                "toy", "change")
    assert str(err.value) == message
    assert err.value.iterations == 4
    assert err.value.best.tolist() == [1.0]
    assert err.value.final_residual == 0.2


def test_a_solve_that_is_not_finite_at_once_keeps_its_start():
    evaluate, advance = scripted([np.inf])
    x0 = np.array([0.0])
    with pytest.raises(NonConvergence) as err:
        iterate(evaluate, advance, x0, SolverConfig(), "toy", "change")
    assert err.value.best is x0
    assert err.value.final_residual == np.inf
    assert err.value.iterations == 1


def test_solver_config_validation():
    with pytest.raises(ValueError):
        SolverConfig(max_iter=0)
    with pytest.raises(ValueError):
        SolverConfig(tol=0.0)
    with pytest.raises(ValueError):
        SolverConfig(tol=1e-17)
    # a non-finite tol would end every solve after one pass
    for tol in (math.inf, math.nan):
        with pytest.raises(ConfigError, match="tol must be finite"):
            SolverConfig(tol=tol)
    # the spec's own field rule: a bool is no number, and max_iter is whole
    for name, value in (("tol", True), ("tol", None), ("max_iter", 2.5), ("max_iter", True)):
        with pytest.raises(ConfigError, match=f"{name} must be "):
            SolverConfig(**{name: value})


def test_solve_converges_immediately_for_constant_gradient(linear_system):
    counter = EvalCounter()
    cfg = SolverConfig(tol=1e-12, max_iter=10)
    metered = linear_system.with_counter(counter)
    mu, _image, stats = solve_mu(metered, pihajoki_step, 0.1, np.zeros(4), cfg)
    # the plain Strang step lands on the diagonal when the gradient is constant
    assert stats.iterations == 1
    assert stats.final_residual <= 1e-16
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


def test_solver_divergence_guard():
    sys_ = make_nls(5)
    z0 = np.array([3, 0.01, 0.01, 0.01, 0.01, 1, 0, 0, 0, 0.0])
    cfg = SolverConfig(tol=1e-10, max_iter=200)
    with pytest.raises(NonConvergence) as err:
        solve_mu(sys_, pihajoki_step, 0.5, embed(z0), cfg)
    assert err.value.iterations < 200  # the guard fired, not the iteration cap
    assert np.isfinite(err.value.final_residual)


@pytest.mark.parametrize("mu0", [np.zeros(6), np.zeros(3), np.zeros((2, 2))])
def test_a_warm_start_of_the_wrong_shape_is_a_dimension_mismatch(mu0):
    # not a solve that "no longer converges": the multiplier has length 2d
    with pytest.raises(DimensionMismatch):
        semiexplicit_step(make_testcase(), pihajoki_step, 0.1, Z0, SolverConfig(), mu0=mu0)


@pytest.mark.parametrize("extra", [4, -4])
def test_an_inner_image_of_another_length_is_a_dimension_mismatch(extra):
    # not a residual that is "no longer finite": the image must be a doubled point of d sites
    def wrong_length(system, dt, zeta):
        return np.zeros(zeta.size + extra)

    with pytest.raises(DimensionMismatch):
        solve_mu(make_testcase(), wrong_length, 0.1, embed(Z0), SolverConfig())
    with pytest.raises(DimensionMismatch):
        semiexplicit_step(make_testcase(), wrong_length, 0.1, Z0, SolverConfig())


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


@pytest.mark.parametrize("order,composition,substeps", [
    pytest.param(4, "triple_jump", 3, id="triple_jump_4-3"),
    pytest.param(4, "suzuki", 5, id="suzuki_4-5"),
    pytest.param(6, "yoshida", 7, id="yoshida_6-7"),
])
def test_projection_wraps_higher_order_compositions(order, composition, substeps):
    counter = EvalCounter()
    sys_ = make_testcase().with_counter(counter)
    cfg = SolverConfig(tol=1e-12, max_iter=60)
    step = composed_step(pihajoki_step, COMPOSITIONS[order, composition])
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
    key=st.sampled_from(list(COMPOSITIONS)),
    dt=st.floats(0.01, 0.05),
)
def test_paper_two_steps_keep_every_invariant(case, key, dt):
    """Step one: the doubled-space step keeps every lifted invariant to
    round-off.  Step two: its symmetric projection keeps every invariant
    within criteria 1 and 2's bound per step and is symmetric."""
    system, z0, invariants = case
    inner = composed_step(pihajoki_step, COMPOSITIONS[key])

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


# --- the projected step pinned to its seed formulas ------------------------


def _seed_projected_step(system, inner, dt, z_n, cfg, mu0):
    """The projected step as first written: a fresh shifted point, residual
    and end point on every pass, through the one solve loop."""
    zeta_n = embed(z_n)
    mu = np.zeros(zeta_n.size // 2) if mu0 is None else np.array(mu0, dtype=float)

    def evaluate(mu):
        image = inner(system, dt, zeta_n + apply_AT(mu))
        r = apply_A(image) + 2.0 * mu
        return r, float(np.max(np.abs(r))), image

    def advance(mu, r, _image):
        return mu - 0.25 * r

    mu, image, stats = iterate(evaluate, advance, mu, cfg, "projection", "residual")
    zeta_next = image + apply_AT(mu)
    z_next = restrict(zeta_next, tol=cfg.tol + 4.0 * np.finfo(float).eps)
    return z_next, mu, stats.iterations, stats.final_residual, defect_norm(zeta_next)


def _bits(z_next, mu, iterations, final_residual, defect):
    return (z_next.tobytes(), mu.tobytes(), iterations, float(final_residual).hex(),
            float(defect).hex())


NLS5_Z0 = np.array([3.0, 0.01, 0.01, 0.01, 0.01, 1.0, 0.0, 0.0, 0.0, 0.0])


@pytest.mark.parametrize("warm", [False, True])
@pytest.mark.parametrize("case", ["testcase", "nls5"])
def test_a_stalled_solve_fails_as_the_seed_formulas_do(case, warm):
    """A solve stopped by ``max_iter`` raises the seed formulas' failure bit
    for bit: its message, pass count, smallest residual and the flat ``2d``
    multiplier with that residual, not the iterate the solve runs on."""
    system, z = (make_testcase(), Z0) if case == "testcase" else (make_nls(5), NLS5_Z0)
    cfg = SolverConfig(tol=1e-16, max_iter=3)
    mu0 = 1e-3 * seeded_rng(402).normal(size=z.size) if warm else None
    with pytest.raises(NonConvergence) as ours:
        semiexplicit_step(system, pihajoki_step, 0.1, z, cfg, mu0=mu0)
    with pytest.raises(NonConvergence) as seed:
        _seed_projected_step(system, pihajoki_step, 0.1, z, cfg, mu0)
    ours, seed = ours.value, seed.value
    assert str(ours) == str(seed)
    assert ours.iterations == seed.iterations == 3
    assert float(ours.final_residual).hex() == float(seed.final_residual).hex()
    assert ours.best.shape == (z.size,)
    assert ours.best.tobytes() == seed.best.tobytes()


def test_a_step_stopped_at_round_off_is_on_the_diagonal_to_its_residual():
    """At ``tol=1e-16`` an inner step that rounds by more than the shift does
    (here: 16 ulps on one entry, of alternating sign) stops the solve at
    round-off above ``tol + SHIFT_ROUNDING``, and the step's diagonal check
    accepts what the solve accepted."""
    calls = []

    def noisy(system, dt, zeta):
        image = pihajoki_step(system, dt, zeta)
        calls.append(None)
        image[1] += (-1) ** len(calls) * 16 * np.finfo(float).eps
        return image

    cfg = SolverConfig(tol=1e-16)
    z_next, stats = semiexplicit_step(make_testcase(), noisy, 0.1, Z0, cfg)
    assert cfg.tol + SHIFT_ROUNDING < stats.final_residual <= ROUND_OFF
    assert stats.defect_norm <= 2.0 * stats.final_residual
    plain, _ = semiexplicit_step(make_testcase(), pihajoki_step, 0.1, Z0, cfg)
    np.testing.assert_allclose(z_next, plain, rtol=0.0, atol=1e-13)


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(
    case=systems_with_invariants(),
    key=st.sampled_from(list(COMPOSITIONS)),
    warm=st.booleans(),
    dt=st.floats(0.01, 0.05),
    data=st.data(),
)
def test_the_projected_step_is_the_seed_formulas_and_owns_its_buffers(case, key, warm, dt, data):
    """Two consecutive steps, cold or warm started, equal the seed formulas
    bit for bit; they leave their input as it was, and what they return
    shares no memory with it or with each other."""
    system, z0, _ = case
    inner = composed_step(pihajoki_step, COMPOSITIONS[key])
    cfg = SolverConfig(tol=1e-12)
    d = z0.size // 2
    mu0 = data.draw(arrays(np.float64, 2 * d, elements=st.floats(-1e-3, 1e-3))) if warm else None
    inputs = [z0] if mu0 is None else [z0, mu0]
    before = [a.tobytes() for a in inputs]

    def step(z, mu_start):
        z_next, stats = semiexplicit_step(system, inner, dt, z, cfg, mu0=mu_start)
        seed = _seed_projected_step(system, inner, dt, z, cfg, mu_start)
        result = (z_next, stats.mu, stats.iterations, stats.final_residual, stats.defect_norm)
        assert _bits(*result) == _bits(*seed)
        return z_next, stats.mu

    z1, mu1 = step(z0, mu0)
    assert [a.tobytes() for a in inputs] == before
    kept = [z1.tobytes(), mu1.tobytes()]
    z2, mu2 = step(z1, mu1 if warm else None)
    assert [z1.tobytes(), mu1.tobytes()] == kept
    returned = [z1, mu1, z2, mu2]
    for i, a in enumerate(returned):
        for b in inputs + returned[i + 1:]:
            assert not np.shares_memory(a, b)


def _outcome(step):
    """The bits of what ``step()`` returns, or of the :class:`NonConvergence` it raises."""
    try:
        return _bits(*step())
    except NonConvergence as failure:
        return (str(failure), failure.iterations, float(failure.final_residual).hex(),
                failure.best.tobytes())


def _projected(system, inner, z, cfg, mu0):
    """What :func:`_seed_projected_step` returns, from :func:`semiexplicit_step` at ``dt=0.1``."""
    z_next, stats = semiexplicit_step(system, inner, 0.1, z, cfg, mu0=mu0)
    return z_next, stats.mu, stats.iterations, stats.final_residual, stats.defect_norm


def _poisoned(value, entry, first_pass):
    """An inner step that writes ``value`` into entry ``entry`` of the
    Strang step's image from pass ``first_pass`` (counted from 0) on."""
    passes = []

    def inner(system, dt, zeta):
        image = pihajoki_step(system, dt, zeta)
        if len(passes) >= first_pass:
            image[entry] = value
        passes.append(None)
        return image

    return inner


@pytest.mark.parametrize(
    "make_inner, z, mu0",
    [
        # an exactly-zero residual whose entries are -0.0 and +0.0: its norm is +0.0
        (lambda: identity_step, np.full(4, -0.0), None),
        (lambda: identity_step, np.array([-0.0, 0.0, 0.0, -0.0]), np.array([-0.0, 0.0, -0.0, 0.0])),
        (lambda: identity_step, np.array([0.0, -0.0, -0.0, 0.0]), np.full(4, -0.0)),
        # inf and nan in either copy of the image, at once or after a finite pass
        (lambda: _poisoned(math.inf, 0, 0), Z0, None),
        (lambda: _poisoned(-math.inf, 5, 0), Z0, None),
        (lambda: _poisoned(math.nan, 3, 0), Z0, None),
        (lambda: _poisoned(math.inf, 7, 1), Z0, None),
        (lambda: _poisoned(math.nan, 2, 1), Z0, np.full(4, 1e-3)),
        # a state that is not finite
        (lambda: pihajoki_step, np.array([math.inf, 2.0, 1.0, -1.0]), None),
        (lambda: identity_step, np.array([-1.0, math.nan, 1.0, -1.0]), None),
    ],
)
def test_the_projected_step_is_the_seed_formulas_at_zero_and_non_finite_residuals(
        make_inner, z, mu0):
    """The residual's sup norm is read as ``max(r)``, which equals ``max|r|``
    only because the signed residual holds each entry's negation; at a
    residual of signed zeros, and at one with inf or nan entries, the step
    still returns, or fails with, the seed formulas' bits, the final
    residual compared by ``float.hex``."""
    system, cfg = make_testcase(), SolverConfig(tol=1e-12)
    ours = _outcome(lambda: _projected(system, make_inner(), z, cfg, mu0))
    seed = _outcome(lambda: _seed_projected_step(system, make_inner(), 0.1, z, cfg, mu0))
    assert ours == seed


def test_a_projected_step_leaves_the_shared_cold_start_as_it_was():
    """Every cold solve of one size starts from one read-only ``A^T 0``,
    signs and all, which no step writes."""
    start = cold_start(2)
    before = start.tobytes()
    assert start is cold_start(2)
    assert [float(v).hex() for v in start[:, 0]] == ["0x0.0p+0", "-0x0.0p+0"] * 2
    for _ in range(3):
        semiexplicit_step(make_testcase(), pihajoki_step, 0.1, Z0, SolverConfig())
        semiexplicit_step(make_testcase(), identity_step, 0.1, Z0, SolverConfig())
    assert start.tobytes() == before
    assert not start.flags.writeable
    with pytest.raises(ValueError):
        start[0, 0] = 1.0


def _writes_into_its_input(system, dt, zeta):
    """An inner step that writes its image into the point it is handed and returns it."""
    zeta[...] = pihajoki_step(system, dt, zeta)
    return zeta


def _returns_a_fresh_array(system, dt, zeta):
    return pihajoki_step(system, dt, zeta).copy()


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(
    case=systems_with_invariants(),
    inner=st.sampled_from([_writes_into_its_input, _returns_a_fresh_array]),
    warm=st.booleans(),
    dt=st.floats(0.01, 0.05),
)
def test_an_inner_step_may_write_into_its_input_or_return_a_fresh_array(case, inner, warm, dt):
    """The solve hands the inner step its buffer: an inner step that writes
    into it and returns it, and one that returns a fresh array, both give the
    seed formulas' steps bit for bit, cold or warm started."""
    system, z, _ = case
    cfg = SolverConfig(tol=1e-12)
    mu_start = None
    for _ in range(2):
        z_next, stats = semiexplicit_step(system, inner, dt, z, cfg, mu0=mu_start)
        seed = _seed_projected_step(system, inner, dt, z, cfg, mu_start)
        result = (z_next, stats.mu, stats.iterations, stats.final_residual, stats.defect_norm)
        assert _bits(*result) == _bits(*seed)
        z, mu_start = z_next, (stats.mu if warm else None)


def test_an_inner_image_of_the_right_size_but_not_flat_is_a_dimension_mismatch():
    def rows(system, dt, zeta):
        return zeta.reshape(4, -1)  # a view of the solve's buffer, but not a point

    with pytest.raises(DimensionMismatch):
        solve_mu(make_testcase(), rows, 0.1, embed(Z0), SolverConfig())


@pytest.mark.parametrize("warm_start", [False, True])
def test_a_recorded_projected_run_keeps_what_every_step_returned(monkeypatch, warm_start):
    """Each state and multiplier a step returns keeps the bytes it had when
    the step returned, after all later steps have run, and the record holds
    those states: no step writes into a buffer that an earlier step handed out."""
    returned = []

    def keep(*args, **kwargs):
        z, stats = semiexplicit_step(*args, **kwargs)
        returned.append((z, stats.mu, z.tobytes(), stats.mu.tobytes()))
        return z, stats

    monkeypatch.setattr(harness, "semiexplicit_step", keep)
    spec = preset("testcase", method="semiexplicit", t_end=2.0, tol=1e-12, record_stride=1,
                  record_state=True, warm_start=warm_start)
    record = run_experiment(spec)
    assert len(returned) == spec.n_steps == len(record.states) - 1
    for (z, mu, z_bytes, mu_bytes), row in zip(returned, record.states[1:]):
        assert z.tobytes() == z_bytes and mu.tobytes() == mu_bytes
        assert row.tobytes() == z_bytes
    mus = [mu for _, mu, _, _ in returned]
    assert not any(np.shares_memory(a, b) for i, a in enumerate(mus) for b in mus[i + 1:])
