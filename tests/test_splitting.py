import math
from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from extphase import (
    ConfigError,
    EvalCounter,
    HamiltonianSystem,
    QuadraticInvariant,
    COMPOSITIONS,
    CompositionScheme,
    TaoParams,
    build_system,
    composed_step,
    coupling_flow,
    embed,
    flow_a,
    flow_b,
    make_nls,
    make_testcase,
    nls_mass,
    pihajoki_step,
    preset,
    symplecticity_defect,
    tao_step,
    testcase_L as tc_linear_form,
    testcase_Q as tc_quadratic_form,
)

from conftest import GradOnly, LinearSystem, Oscillator, limited_grad, same_bits, seeded_rng
from parity import kernel_points

# Random lattice states, d in 1..4, in a range where every step stays finite.
STATES = st.integers(1, 4).flatmap(
    lambda d: arrays(np.float64, 4 * d, elements=st.floats(-1.0, 1.0))
)
PROPERTY = settings(max_examples=60, deadline=None, derandomize=True, database=None)


# --- elementary flows ------------------------------------------------------


def test_flow_a_zero_time_is_identity(oscillator):
    zeta = np.array([1.0, 0.5, -0.5, 2.0])
    assert np.array_equal(flow_a(oscillator, 0.0, zeta), zeta)
    assert np.array_equal(flow_b(oscillator, 0.0, zeta), zeta)


def test_flow_a_worked_example(oscillator):
    # gradient at the frozen copy (q, y) = (1, 0) pushes (x, p) by (0, -1)
    out = flow_a(oscillator, 1.0, np.array([1.0, 0.0, 0.0, 0.0]))
    assert out.tolist() == [1.0, 0.0, -1.0, 0.0]


def test_flow_b_worked_example(oscillator):
    # gradient at the frozen copy (x, p) = (1, 0) pushes (q, y) by (0, -1)
    out = flow_b(oscillator, 1.0, np.array([0.0, 1.0, 0.0, 0.0]))
    assert out.tolist() == [0.0, 1.0, 0.0, -1.0]


def test_flows_leave_frozen_blocks_bitwise():
    sys_ = make_testcase()
    rng = seeded_rng(301)
    for _ in range(50):
        zeta = rng.normal(size=8)
        fa = flow_a(sys_, 0.3, zeta)
        assert np.array_equal(fa[0:2], zeta[0:2]) and np.array_equal(fa[6:8], zeta[6:8])
        fb = flow_b(sys_, 0.3, zeta)
        assert np.array_equal(fb[2:4], zeta[2:4]) and np.array_equal(fb[4:6], zeta[4:6])


def test_flows_cost_one_gradient_each():
    counter = EvalCounter()
    sys_ = make_testcase().with_counter(counter)
    zeta = embed(np.array([-1.0, 2.0, 1.0, -1.0]))
    flow_a(sys_, 0.1, zeta)
    assert counter.n_grad == 1
    flow_b(sys_, 0.1, zeta)
    assert counter.n_grad == 2


# --- plain Strang step -----------------------------------------------------


def test_pihajoki_step_constant_gradient(linear_system):
    out = pihajoki_step(linear_system, 0.1, np.zeros(4))
    np.testing.assert_allclose(out, [0.2, 0.2, -0.1, -0.1], rtol=1e-15)
    # constant-gradient steps land exactly on the diagonal
    assert out[0] == out[1] and out[2] == out[3]


def test_pihajoki_step_zero_dt_is_identity():
    sys_ = make_testcase()
    zeta = embed(np.array([-1.0, 2.0, 1.0, -1.0]))
    assert np.array_equal(pihajoki_step(sys_, 0.0, zeta), zeta)


def test_pihajoki_step_matches_flow_composition_bitwise():
    sys_ = make_testcase()
    rng = seeded_rng(302)
    for _ in range(50):
        zeta = rng.normal(size=8)
        direct = pihajoki_step(sys_, 0.1, zeta)
        composed = flow_a(sys_, 0.05, flow_b(sys_, 0.1, flow_a(sys_, 0.05, zeta)))
        assert np.array_equal(direct, composed)


def test_pihajoki_step_costs_three_gradients():
    counter = EvalCounter()
    sys_ = make_testcase().with_counter(counter)
    pihajoki_step(sys_, 0.1, embed(np.array([-1.0, 2.0, 1.0, -1.0])))
    assert counter.n_grad == 3


def test_pihajoki_step_time_reversible():
    sys_ = make_testcase()
    rng = seeded_rng(303)
    for _ in range(20):
        zeta = rng.normal(size=8)
        back = pihajoki_step(sys_, -0.1, pihajoki_step(sys_, 0.1, zeta))
        np.testing.assert_allclose(back, zeta, rtol=0, atol=1e-12 * max(1, np.abs(zeta).max()))


def test_pihajoki_step_preserves_lifted_mass_per_step():
    sys_ = make_nls(3)
    mass_hat = nls_mass(3).lift()
    rng = seeded_rng(304)
    for _ in range(50):
        zeta = rng.normal(size=12)
        before = mass_hat.evaluate(zeta)
        after = mass_hat.evaluate(pihajoki_step(sys_, 0.05, zeta))
        assert abs(after - before) <= 1e-12 * max(1.0, abs(before))


def test_lifted_invariants_constant_over_long_run():
    # 1e4 plain Strang steps: lifted linear and quadratic first integrals stay
    # constant to round-off in the doubled space
    sys_ = make_testcase()
    zeta = embed(np.array([-1.0, 2.0, 1.0, -1.0]))
    l_hat = tc_linear_form().lift()
    q_hat = tc_quadratic_form().lift()
    l0 = l_hat.evaluate(zeta)
    q0 = q_hat.evaluate(zeta)
    worst_l = worst_q = 0.0
    for _ in range(10_000):
        zeta = pihajoki_step(sys_, 0.1, zeta)
        worst_l = max(worst_l, abs(l_hat.evaluate(zeta) - l0) / abs(l0))
        worst_q = max(worst_q, abs(q_hat.evaluate(zeta) - q0) / abs(q0))
    assert worst_l <= 1e-12
    assert worst_q <= 1e-12


# --- copy-coupling rotation ------------------------------------------------


def test_coupling_flow_fixes_diagonal():
    zeta = embed(np.array([1.0, -2.0, 0.5, 4.0]))
    np.testing.assert_allclose(coupling_flow(3.0, 0.7, zeta), zeta, rtol=0, atol=1e-15)


def test_coupling_flow_full_turn_is_identity():
    rng = seeded_rng(305)
    zeta = rng.normal(size=8)
    omega = 2.5
    out = coupling_flow(omega, math.pi / omega, zeta)  # angle 2*omega*t = 2*pi
    np.testing.assert_allclose(out, zeta, rtol=0, atol=1e-14)


def test_coupling_flow_quarter_turn():
    out = coupling_flow(1.0, math.pi / 4.0, np.array([1.0, 0.0, 0.0, 0.0]))
    np.testing.assert_allclose(out, [0.5, 0.5, -0.5, 0.5], rtol=0, atol=1e-15)


def test_coupling_flow_preserves_sums_and_difference_norm():
    rng = seeded_rng(306)
    for _ in range(50):
        zeta = rng.normal(size=12)
        t = rng.uniform(-2, 2)
        out = coupling_flow(4.0, t, zeta)
        d = 3
        for blocks in ((0, 1), (2, 3)):
            s_in = zeta[blocks[0] * d : blocks[0] * d + d] + zeta[blocks[1] * d : blocks[1] * d + d]
            s_out = out[blocks[0] * d : blocks[0] * d + d] + out[blocks[1] * d : blocks[1] * d + d]
            np.testing.assert_allclose(s_out, s_in, rtol=0, atol=1e-13)
        gap_in = np.linalg.norm([zeta[3:6] - zeta[0:3], zeta[9:12] - zeta[6:9]])
        gap_out = np.linalg.norm([out[3:6] - out[0:3], out[9:12] - out[6:9]])
        assert gap_out == pytest.approx(gap_in, rel=1e-13)


def test_coupling_flow_costs_no_gradients():
    counter = EvalCounter()
    _ = make_testcase().with_counter(counter)  # counter stays untouched
    coupling_flow(10.0, 0.1, np.arange(8.0))
    assert counter.n_grad == 0


def test_coupling_flow_matches_reference_ode_solution():
    from scipy.integrate import solve_ivp

    omega = 3.0
    rng = seeded_rng(307)
    zeta0 = rng.normal(size=8)

    def rhs(_t, zeta):
        d = 2
        q, x = zeta[0:d], zeta[d : 2 * d]
        p, y = zeta[2 * d : 3 * d], zeta[3 * d :]
        return np.concatenate((omega * (p - y), omega * (y - p), omega * (x - q), omega * (q - x)))

    period = math.pi / omega
    for t in (period / 3.0, period):
        sol = solve_ivp(rhs, (0.0, t), zeta0, method="DOP853", rtol=1e-13, atol=1e-13)
        np.testing.assert_allclose(coupling_flow(omega, t, zeta0), sol.y[:, -1], atol=1e-10)


# --- coupled Strang step ---------------------------------------------------


def test_tao_step_with_zero_coupling_equals_plain_step_bitwise():
    sys_ = make_testcase()
    rng = seeded_rng(308)
    params = TaoParams(0.0)
    for _ in range(100):
        zeta = rng.normal(size=8)
        assert np.array_equal(tao_step(sys_, 0.1, zeta, params), pihajoki_step(sys_, 0.1, zeta))


def test_tao_step_costs_four_gradients():
    counter = EvalCounter()
    sys_ = make_testcase().with_counter(counter)
    tao_step(sys_, 0.1, embed(np.array([-1.0, 2.0, 1.0, -1.0])), TaoParams(10.0))
    assert counter.n_grad == 4


def test_tao_step_constant_gradient(linear_system):
    # a diagonal start stays diagonal, so the rotation acts trivially
    out = tao_step(linear_system, 0.1, np.zeros(4), TaoParams(7.0))
    np.testing.assert_allclose(out, [0.2, 0.2, -0.1, -0.1], rtol=0, atol=1e-15)


def test_tao_step_time_reversible():
    sys_ = make_testcase()
    rng = seeded_rng(309)
    params = TaoParams(10.0)
    for _ in range(20):
        zeta = rng.normal(size=8)
        back = tao_step(sys_, -0.1, tao_step(sys_, 0.1, zeta, params), params)
        np.testing.assert_allclose(back, zeta, rtol=0, atol=1e-12 * max(1, np.abs(zeta).max()))


def test_tao_params_validation():
    with pytest.raises(ValueError):
        TaoParams(-1.0)
    with pytest.raises(ValueError):
        TaoParams(float("nan"))
    for omega in (True, "10", None):
        with pytest.raises(ConfigError, match="omega must be float"):
            TaoParams(omega)
    # a finite omega whose rotation angle overflows: the rule the spec applies
    zeta = embed(np.array([-1.0, 2.0, 1.0, -1.0]))
    for step in (lambda: coupling_flow(1.7e308, 1.0, zeta),
                 lambda: tao_step(make_testcase(), 1.0, zeta, TaoParams(1.7e308))):
        with pytest.raises(ConfigError, match="omega is too large"):
            step()


def test_coupled_step_conserves_compatible_lifted_quadratics():
    # the rotation conserves the lifted quadratic exactly when k12 is
    # antisymmetric and k22 == +k11; equal-block data (mass-like) qualifies
    sys_ = make_nls(2)
    mass_hat = nls_mass(2).lift()
    params = TaoParams(50.0)
    rng = seeded_rng(310)
    zeta = rng.normal(size=8) * 0.5
    before = mass_hat.evaluate(zeta)
    for _ in range(200):
        zeta = tao_step(sys_, 1e-2, zeta, params)
    after = mass_hat.evaluate(zeta)
    assert abs(after - before) <= 1e-12 * max(1.0, abs(before))


def test_coupled_step_breaks_opposite_sign_quadratics():
    # with k22 == -k11 the rotation does NOT conserve the lift, even though
    # the underlying system conserves the original quadratic (H = Q here)
    class SplitSquares(HamiltonianSystem):
        dim = 1

        def energy(self, q, p):
            return 0.5 * float(q[0] ** 2 - p[0] ** 2)

        def grad(self, q, p):
            return q.copy(), -p.copy()

    sys_ = SplitSquares()
    inv = QuadraticInvariant(np.array([[1.0]]), np.zeros((1, 1)), np.array([[-1.0]]))
    zeta = np.array([1.0, 0.0, 0.0, 0.0])  # off the diagonal
    before = inv.lift().evaluate(zeta)
    zeta1 = tao_step(sys_, 0.3, zeta, TaoParams(5.0))
    after = inv.lift().evaluate(zeta1)
    assert abs(after - before) > 1e-6


# --- compositions ----------------------------------------------------------


def test_triple_jump_coefficients():
    scheme = COMPOSITIONS[4, "triple_jump"]
    assert COMPOSITIONS[4, None] == scheme  # the 4th order's default
    g1 = 1.0 / (2.0 - 2.0 ** (1.0 / 3.0))
    assert scheme.coefficients == (g1, 1.0 - 2.0 * g1, g1)
    assert g1 == pytest.approx(1.35120719195966, rel=1e-13)
    # order conditions: sum = 1 and sum of cubes = 0
    c = np.array(scheme.coefficients)
    assert abs(c.sum() - 1.0) <= 1e-15
    assert abs((c**3).sum()) <= 1e-13


def test_suzuki_coefficients():
    scheme = COMPOSITIONS[4, "suzuki"]
    g = 1.0 / (4.0 - 4.0 ** (1.0 / 3.0))
    assert scheme.coefficients == (g, g, 1.0 - 4.0 * g, g, g)
    c = np.array(scheme.coefficients)
    assert abs(c.sum() - 1.0) <= 1e-15
    assert abs((c**3).sum()) <= 1e-13


def test_yoshida_coefficients():
    scheme = COMPOSITIONS[6, "yoshida"]
    assert COMPOSITIONS[6, None] == scheme  # the 6th order's default
    assert len(scheme) == 7
    w = scheme.coefficients
    assert w == w[::-1]
    assert w[2] == pytest.approx(-1.17767998417887, rel=1e-13)
    assert w[1] == pytest.approx(0.235573213359357, rel=1e-13)
    assert w[0] == pytest.approx(0.784513610477560, rel=1e-13)
    assert sum(w) == pytest.approx(1.0, abs=1e-14)


def test_single_scheme_calls_base_once():
    calls = []

    def base(_system, dt, state):
        calls.append(dt)
        return state + dt

    out = composed_step(base, COMPOSITIONS[2, "single"])(None, 0.25, np.zeros(1))
    assert calls == [0.25]
    assert out[0] == 0.25


def test_compose_applies_substeps_in_order():
    seen = []

    def base(_system, dt, state):
        seen.append(dt)
        return state

    scheme = COMPOSITIONS[4, "triple_jump"]
    composed_step(base, scheme)(None, 2.0, np.zeros(1))
    np.testing.assert_allclose(seen, [2.0 * g for g in scheme.coefficients], rtol=1e-15)


def test_scheme_validation():
    with pytest.raises(ConfigError, match="palindromic"):
        CompositionScheme((0.7, 0.3))  # not palindromic
    with pytest.raises(ValueError):
        CompositionScheme((0.6, 0.6))  # does not sum to 1
    # nan compares false with any bound, and text or complex coefficients are no numbers
    for coefficients in ((np.nan,), (0.5, np.nan, 0.5), ("a",), (1j,), ((1.0,),)):
        with pytest.raises(ConfigError):
            CompositionScheme(coefficients)
            pytest.fail(f"accepted {coefficients!r}")


def test_every_schedule_is_a_symmetric_composition():
    assert list(COMPOSITIONS) == [(2, None), (2, "single"), (4, None), (4, "triple_jump"),
                                  (4, "suzuki"), (6, None), (6, "yoshida")]
    for scheme in COMPOSITIONS.values():
        assert isinstance(scheme, CompositionScheme)
        assert scheme.coefficients == scheme.coefficients[::-1]
        assert abs(sum(scheme.coefficients) - 1.0) <= 1e-14


def test_composed_step_cost_scaling():
    sys0 = make_testcase()
    zeta = embed(np.array([-1.0, 2.0, 1.0, -1.0]))
    for key, substeps in (((4, "triple_jump"), 3), ((4, "suzuki"), 5), ((6, "yoshida"), 7)):
        counter = EvalCounter()
        sys_ = sys0.with_counter(counter)
        composed_step(pihajoki_step, COMPOSITIONS[key])(sys_, 0.05, zeta)
        assert counter.n_grad == 3 * substeps
        counter = EvalCounter()
        sys_ = sys0.with_counter(counter)
        base = lambda s, dt, zz: tao_step(s, dt, zz, TaoParams(10.0))
        composed_step(base, COMPOSITIONS[key])(sys_, 0.05, zeta)
        assert counter.n_grad == 4 * substeps


# --- structure preservation ------------------------------------------------


def test_steps_are_symplectic_on_doubled_space():
    sys_ = make_testcase()
    rng = seeded_rng(311)
    zeta = embed(np.array([-1.0, 2.0, 1.0, -1.0])) + 0.1 * rng.normal(size=8)
    for step in (
        lambda zz: flow_a(sys_, 0.1, zz),
        lambda zz: flow_b(sys_, 0.1, zz),
        lambda zz: pihajoki_step(sys_, 0.1, zz),
        lambda zz: tao_step(sys_, 0.1, zz, TaoParams(10.0)),
    ):
        assert symplecticity_defect(step, zeta) <= 1e-6


# --- in-place kernels: properties over random states ------------------------


@PROPERTY
@given(
    zeta=STATES,
    dt=st.floats(-0.05, 0.05),
    omega=st.floats(0.1, 50.0),
    key=st.sampled_from(list(COMPOSITIONS)),
)
def test_flows_and_steps_leave_their_input_bitwise_unchanged(zeta, dt, omega, key):
    sys_ = make_nls(zeta.size // 4)
    tao = partial(tao_step, params=TaoParams(omega))
    scheme = COMPOSITIONS[key]
    before = zeta.tobytes()
    steps = (flow_a, flow_b, pihajoki_step, tao)
    steps += (composed_step(pihajoki_step, scheme), composed_step(tao, scheme))
    for step in steps:
        out = step(sys_, dt, zeta)
        assert zeta.tobytes() == before
        assert not np.shares_memory(out, zeta)
    out = coupling_flow(omega, dt, zeta)
    assert zeta.tobytes() == before
    assert not np.shares_memory(out, zeta)


@PROPERTY
@given(zeta=STATES, dt=st.floats(-0.05, 0.05), omega=st.floats(0.1, 50.0))
def test_tao_step_matches_flow_composition_bitwise(zeta, dt, omega):
    sys_ = make_nls(zeta.size // 4)
    h = 0.5 * dt
    inner = flow_b(sys_, h, flow_a(sys_, h, zeta))
    composed = flow_a(sys_, h, flow_b(sys_, h, coupling_flow(omega, dt, inner)))
    direct = tao_step(sys_, dt, zeta, TaoParams(omega))
    assert direct.tobytes() == composed.tobytes()


def _seed_coupling_flow(omega, t, zeta):
    """The rotation as first written: twelve element-wise operations on the
    four blocks and a concatenate."""
    zeta = np.asarray(zeta, dtype=float)
    d = zeta.size // 4
    q, x, p, y = zeta[:d], zeta[d : 2 * d], zeta[2 * d : 3 * d], zeta[3 * d :]
    angle = 2.0 * omega * t
    if angle == 0.0:
        return zeta.copy()
    c = math.cos(angle)
    s = math.sin(angle)
    sq, sp, u, v = q + x, p + y, q - x, p - y
    ur = c * u + s * v
    vr = c * v - s * u
    return np.concatenate((0.5 * (sq + ur), 0.5 * (sq - ur), 0.5 * (sp + vr), 0.5 * (sp - vr)))


@PROPERTY
@given(
    zeta=st.integers(1, 6).flatmap(
        lambda d: arrays(np.float64, 4 * d, elements=st.floats(-1e100, 1e100))
    ),
    omega=st.one_of(st.just(0.0), st.floats(0.0, 100.0)),
    t=st.one_of(st.just(0.0), st.floats(-2.0, 2.0)),
    layout=st.sampled_from(("float", "integer", "strided")),
)
def test_coupling_flow_is_the_seed_formula_bit_for_bit(zeta, omega, t, layout):
    if layout == "integer":
        zeta = np.clip(zeta, -1e15, 1e15).astype(np.int64)
    elif layout == "strided":
        zeta = np.repeat(zeta, 2)[::2]  # the same values, not contiguous
    before = zeta.tobytes()
    out = coupling_flow(omega, t, zeta)
    assert out.dtype == np.float64 and out.flags.c_contiguous
    assert out.tobytes() == _seed_coupling_flow(omega, t, zeta).tobytes()
    assert zeta.tobytes() == before and not np.shares_memory(out, zeta)



# --- the flows against the kernel as first written ---------------------------


def _seed_drift(system, t, q, p, x, y):
    """The flow kernel as first written: push ``(x, y)`` in place along the
    field taken at the frozen ``(q, p)``, from one ``grad`` call read by the
    kernels' rule."""
    gq, gp = limited_grad(system, q, p)
    x += t * gp
    y -= t * gq


def _seed_flow(system, t, zeta, flow):
    out = np.array(zeta, dtype=float)
    q, x, p, y = np.split(out, 4)
    if flow == "a":
        _seed_drift(system, t, q, y, x, p)
    else:
        _seed_drift(system, t, x, p, q, y)
    return out


def _seed_step(system, dt, zeta, omega):
    """``A(dt/2) B(dt) A(dt/2)``, or with ``omega > 0`` the coupled
    ``A(dt/2) B(dt/2) C(dt) B(dt/2) A(dt/2)``, from the seed flows."""
    h = 0.5 * dt
    if omega == 0.0:
        zeta = _seed_flow(system, dt, _seed_flow(system, h, zeta, "a"), "b")
        return _seed_flow(system, h, zeta, "a")
    zeta = coupling_flow(omega, dt, _seed_flow(system, h, _seed_flow(system, h, zeta, "a"), "b"))
    return _seed_flow(system, h, _seed_flow(system, h, zeta, "b"), "a")


def _seed_composed(omega, scheme):
    def step(system, dt, zeta):
        for gamma in scheme.coefficients:
            zeta = _seed_step(system, gamma * dt, zeta, omega)
        return zeta

    return step


def _outcome(call):
    """A call's float array, or the type and text of the error it raised."""
    try:
        with np.errstate(all="ignore"):
            return np.asarray(call(), dtype=float)
    except Exception as exc:  # a collision or a layout error
        return f"{type(exc).__name__}: {exc}"


# the lattice with its coupling sum at two sizes, both vortex presets, the
# closed-form system and a system that defines only ``grad``
SEED_SYSTEMS = {
    "nls5": make_nls(5),
    "nls_d2": make_nls(2),
    "vortex4": build_system(preset("vortex4"))[0],
    "vortex10": build_system(preset("vortex10"))[0],
    "testcase": make_testcase(),
    "grad_only": GradOnly(make_nls(3)),
}


@pytest.mark.parametrize("name", sorted(SEED_SYSTEMS))
def test_flows_and_steps_are_the_seed_drifts_bit_for_bit(name):
    system = SEED_SYSTEMS[name]
    size = 4 * system.dim
    rng = seeded_rng(312)
    points = kernel_points(size, 312) + [rng.normal(size=size) * 0.5 + np.arange(size)
                                         for _ in range(6)]
    triple = COMPOSITIONS[(4, "triple_jump")]
    tao = partial(tao_step, params=TaoParams(10.0))
    pairs = [
        (flow_a, partial(_seed_flow, flow="a")),
        (flow_b, partial(_seed_flow, flow="b")),
        (pihajoki_step, partial(_seed_step, omega=0.0)),
        (tao, partial(_seed_step, omega=10.0)),
        (composed_step(pihajoki_step, triple), _seed_composed(0.0, triple)),
        (composed_step(tao, triple), _seed_composed(10.0, triple)),
    ]
    for zeta in points:
        for step, seed in pairs:
            for dt in (0.05, -0.03):
                new = _outcome(lambda: step(system, dt, zeta))
                old = _outcome(lambda: seed(system, dt, zeta))
                if isinstance(old, str) or isinstance(new, str):
                    assert new == old
                else:
                    assert same_bits(new, old)
