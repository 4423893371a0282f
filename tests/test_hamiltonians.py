import itertools
import math
import re
from functools import partial

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from extphase import (
    PRESETS,
    ConfigError,
    CountingSystem,
    DimensionMismatch,
    EvalCounter,
    HamiltonianSystem,
    SolverConfig,
    TaoParams,
    VortexCollision,
    VortexConfig,
    build_system,
    canonical_from_planar,
    check_gradient,
    embed,
    flow_a,
    flow_b,
    gl_step,
    gl_tableau,
    halves,
    harness,
    join,
    make_nls,
    make_testcase,
    make_vortices,
    nls_mass,
    make_spec,
    pihajoki_step,
    planar_from_canonical,
    poisson_bracket,
    preset,
    recording,
    run_experiment,
    semiexplicit_step,
    tao_step,
    vortex_angular_impulse,
    vortex_linear_impulse_x,
    vortex_linear_impulse_y,
)
from extphase.hamiltonians import COLLISION_GUARD

from conftest import GradOnly, limited, limited_grad, same_bits, seeded_rng
from parity import EDGE_VALUES, kernel_points

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
    assert check_gradient(sys_, np.concatenate((Q0, P0))) <= 1e-6


def test_nls_single_site():
    # a lattice, and its mass, has a whole number of sites, at least one; a bool is no count
    for d in (0, -1, 2.5, 1.0, True, False):
        for make in (make_nls, nls_mass):
            with pytest.raises(DimensionMismatch, match="whole number of sites"):
                make(d)
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
    assert check_gradient(sys_, z) <= 1e-6


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
    # one rule for initial positions and evaluated states: closer than the guard collides
    for gap, collides in ((COLLISION_GUARD, False), (0.5 * COLLISION_GUARD, True), (0.0, True)):
        positions = ((0.0, 0.0), (gap, 0.0))
        z = canonical_from_planar(cfg, positions)
        verdicts = []
        for check in (partial(VortexConfig, (1.0, 1.0), positions),
                      partial(sys_.energy, z[:2], z[2:]), partial(sys_.grad, z[:2], z[2:])):
            try:
                check()
                verdicts.append(None)
            except VortexCollision as exc:
                verdicts.append(str(exc))
        expected = "vortices closer than 1e-12 in planar coordinates" if collides else None
        assert verdicts == [expected] * 3, gap


@pytest.mark.parametrize(
    "system,state", [(make_testcase(), np.arange(6.0)), (make_testcase(), np.arange(3.0)),
                     (make_nls(3), np.arange(4.0)), (make_nls(3), np.arange(8.0))],
)
def test_wrong_length_state_is_a_dimension_mismatch(system, state):
    # the readers of a flat point of a system: a wrong length is no failed solve
    with pytest.raises(DimensionMismatch):
        check_gradient(system, state)
    with pytest.raises(DimensionMismatch):
        gl_step(system, 0.01, state, gl_tableau(4), SolverConfig())


def test_vortex_config_validation():
    with pytest.raises(ValueError):
        VortexConfig((1.0, 0.0), ((0.0, 0.0), (1.0, 0.0)))
    # the collision check skips a nan pair, so finiteness is checked first
    for bad in (np.nan, np.inf):
        with pytest.raises(ConfigError, match="initial positions must be finite"):
            VortexConfig((1.0, 2.0), ((bad, 0.0), (1.0, 1.0)))
    with pytest.raises(DimensionMismatch):
        VortexConfig((1.0, 1.0), ((0.0, 0.0),))
    with pytest.raises(DimensionMismatch):
        canonical_from_planar(VortexConfig((1.0, 1.0)), ((0.0, 0.0), (1.0, 0.0), (2.0, 0.0)))


def test_ragged_vortex_positions_name_their_shape():
    message = "initial positions must have shape (N, 2)"
    with pytest.raises(DimensionMismatch, match=re.escape(message)):
        VortexConfig((1.0, 1.0), ((0.0, 0.0), (1.0,)))
    # the coordinate map reads positions under the same rule
    for positions in (((0, 0), (1,)), ((0.0, 0.0),), ((0.0, 0.0, 0.0), (1.0, 0.0, 0.0))):
        with pytest.raises(DimensionMismatch, match=re.escape(message)):
            canonical_from_planar(VortexConfig((1.0, 1.0)), positions)
    with pytest.raises(ConfigError, match=re.escape(message)):
        make_spec({"system": "vortex", "gammas": [1.0, 1.0], "positions": [[0, 0], [1]]})


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
    assert check_gradient(sys_, z) <= 1e-6


def test_quadratic_energy_gradient_nearly_exact():
    # central differences are exact for quadratics up to round-off
    from conftest import Oscillator

    sys_ = Oscillator()
    rng = seeded_rng(203)
    for _ in range(20):
        z = rng.normal(size=2)
        assert check_gradient(sys_, z) <= 1e-10


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
        assert check_gradient(sys_, z) <= 1e-6


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


@pytest.mark.parametrize("name", sorted(PRESETS))
def test_a_counted_grad_is_the_base_grad_charged_once(name):
    base, z0, _ = build_system(preset(name))
    q, p = halves(z0, base.dim)
    counter = EvalCounter()
    counted = base.with_counter(counter)
    assert same_bits(join(*counted.grad(q, p)), join(*base.grad(q, p)))
    assert counter.n_grad == 1


def test_a_counted_one_point_system_reads_math_range_errors_by_the_kernel_rule():
    q, p = np.array([1e4, 1.0]), np.array([0.0, 0.5])
    with pytest.raises(OverflowError):  # an uncounted system keeps math's error
        make_testcase().grad(q, p)
    counter = EvalCounter()
    gq, gp = make_testcase().with_counter(counter).grad(q, p)
    assert np.isposinf(gq).all() and np.isposinf(gp).all() and counter.n_grad == 1


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


def _seed_vortex_geometry(g, q, p):
    sqrt, sign = np.sqrt(np.abs(g)), np.sign(g)
    x, y = q / sqrt, p / (sqrt * sign)
    dx = x[:, None] - x[None, :]
    dy = y[:, None] - y[None, :]
    r2 = dx * dx + dy * dy
    np.fill_diagonal(r2, np.inf)
    return dx, dy, r2


def _seed_vortex_grad(g, q, p):
    """The vortex gradient as first written, scalings recomputed per call."""
    dx, dy, r2 = _seed_vortex_geometry(g, q, p)
    inv = 1.0 / r2
    coef = -1.0 / (2.0 * math.pi)
    gx = coef * g * ((inv * dx) @ g)
    gy = coef * g * ((inv * dy) @ g)
    sqrt, sign = np.sqrt(np.abs(g)), np.sign(g)
    return gx / sqrt, gy / (sqrt * sign)


def _seed_vortex_energy(g, q, p):
    _, _, r2 = _seed_vortex_geometry(g, q, p)
    np.fill_diagonal(r2, 1.0)
    return float(-(np.triu(np.outer(g, g), 1) * np.log(r2)).sum() / (4.0 * math.pi))


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(
    gammas=st.integers(2, 10).flatmap(
        lambda n: arrays(np.float64, n, elements=st.floats(0.05, 20.0) | st.floats(-20.0, -0.05))
    ),
    data=st.data(),
)
def test_vortex_kernels_are_the_seed_formulas_bit_for_bit(gammas, data):
    n = gammas.size
    positions = data.draw(arrays(np.float64, (n, 2), elements=st.floats(-10.0, 10.0)))
    gaps = positions[:, None, :] - positions[None, :, :]
    assume(np.all((gaps**2).sum(axis=-1)[~np.eye(n, dtype=bool)] > 1e-6))
    config = VortexConfig(gammas)
    system = make_vortices(config)
    z = canonical_from_planar(config, positions)
    q, p = z[:n], z[n:]
    gq, gp = system.grad(q, p)
    sq, sp = _seed_vortex_grad(gammas, q, p)
    assert gq.tobytes() == sq.tobytes() and gp.tobytes() == sp.tobytes()
    energy = np.float64(system.energy(q, p))
    assert energy.tobytes() == np.float64(_seed_vortex_energy(gammas, q, p)).tobytes()
    assert system.fields(z.reshape(2, n)).tobytes() == np.concatenate((sp, -sq)).tobytes()
    # the stacked field, which the per-row one shares, on the point and two more draws
    more = data.draw(arrays(np.float64, (2, n, 2), elements=st.floats(-10.0, 10.0)))
    gaps = more[:, :, None, :] - more[:, None, :, :]
    assume(np.all((gaps**2).sum(axis=-1)[:, ~np.eye(n, dtype=bool)] > 1e-6))
    zs = np.array([z] + [canonical_from_planar(config, positions) for positions in more])
    seed_fields = [np.concatenate((sp, -sq))
                   for sq, sp in (_seed_vortex_grad(gammas, row[:n], row[n:]) for row in zs)]
    assert system.fields(zs.reshape(3, 2, n)).tobytes() == np.array(seed_fields).tobytes()



def _seed_nls_grad(d, q, p):
    """The lattice gradient as first written."""
    n2 = q * q + p * p
    gq = q * n2
    gp = p * n2
    if d > 1:
        s = q * q - p * p  # s_i = q_i^2 - p_i^2
        w = q * p
        # site j coupled to the right neighbour (term with left index j)
        gq[:-1] -= 2.0 * q[:-1] * s[1:] + 4.0 * p[:-1] * w[1:]
        gp[:-1] -= -2.0 * p[:-1] * s[1:] + 4.0 * q[:-1] * w[1:]
        # site j coupled to the left neighbour (term with right index j)
        gq[1:] -= 2.0 * q[1:] * s[:-1] + 4.0 * p[1:] * w[:-1]
        gp[1:] -= -2.0 * p[1:] * s[:-1] + 4.0 * q[1:] * w[:-1]
    return gq, gp


# signed zeros, infinities, nan, subnormals and entries whose squares near float range
LATTICE_EDGES = st.sampled_from(
    [0.0, -0.0, math.inf, -math.inf, math.nan, 5e-324, -5e-324, 1e-310, -1e-310, 1e150, -1e150]
)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(
    st.integers(1, 24).flatmap(
        lambda d: arrays(np.float64, 2 * d, elements=LATTICE_EDGES | st.floats(-10.0, 10.0))
    )
)
def test_lattice_kernel_is_the_seed_formula_bit_for_bit(z):
    d = z.size // 2
    system = make_nls(d)
    before = z.tobytes()
    with np.errstate(all="ignore"):
        gq, gp = system.grad(z[:d], z[d:])
        sq, sp = _seed_nls_grad(d, z[:d], z[d:])
        field = system.fields(z.reshape(2, d))
        negated = -sq
    assert gq.tobytes() == sq.tobytes() and gp.tobytes() == sp.tobytes()
    assert field.tobytes() == np.concatenate((sp, negated)).tobytes()
    assert z.tobytes() == before


@pytest.mark.parametrize("sizes", [(5, 4), (4, 5)])
def test_lattice_gradient_refuses_mismatched_halves(sizes):
    system = make_nls(min(sizes))
    with pytest.raises(ValueError):
        system.grad(np.ones(sizes[0]), np.ones(sizes[1]))


# every built-in system, the lattice with and without its coupling sum
STACKED_SYSTEMS = {
    "testcase": make_testcase(),
    "nls1": make_nls(1),
    "nls5": make_nls(5),
    "vortex4": make_vortices(VORTEX4),
    "vortex10": make_vortices(VortexConfig(preset("vortex10").gammas)),
}


def _outcome(call):
    """The bytes of a call's arrays, or the type and text of what it raised."""
    try:
        with np.errstate(all="ignore"):
            return b"".join(np.ascontiguousarray(part).tobytes() for part in call())
    except Exception as exc:  # a collision or a layout error
        return f"{type(exc).__name__}: {exc}"


def _grad_fields(system, rows):
    """The field ``(D2H, -D1H)`` of each row from the per-point ``grad``,
    row after row, read by the kernels' rule."""
    out = []
    for q, p in rows:
        gq, gp = limited_grad(system, q, p)
        out += [gp, -gq]
    return out


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(st.sampled_from(sorted(STACKED_SYSTEMS)), st.integers(1, 4), st.data())
def test_stacked_calls_are_per_point_calls_bit_for_bit(name, points, data):
    system = STACKED_SYSTEMS[name]
    shape = (points, 2 * system.dim)
    # normal draws at the parity tool's scales, some entries replaced by its edge values
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    zs = rng.normal(size=shape) * data.draw(st.sampled_from((1e-3, 1.0, 1e3)))
    edges = data.draw(arrays(bool, shape))
    zs[edges] = data.draw(
        arrays(np.float64, int(edges.sum()), elements=st.sampled_from(EDGE_VALUES))
    )
    before = zs.tobytes()
    rows = zs.reshape(points, 2, system.dim)
    stacked = _outcome(lambda: (system.fields(rows),))
    assert stacked == _outcome(lambda: [system.fields(row) for row in rows])
    assert stacked == _outcome(lambda: _grad_fields(system, rows))
    assert zs.tobytes() == before


def test_a_nan_member_does_not_hide_a_colliding_one():
    system = make_vortices(VORTEX4)
    reference = canonical_from_planar(VORTEX4, VORTEX4.initial_positions)
    colliding = canonical_from_planar(VORTEX4, ((0.0, 0.0), (1.0, 1.0), (2.0, 0.5), (0.0, 0.0)))
    blown_up = reference.copy()
    blown_up[1] = np.nan
    kernels = (system.fields, system.energies)
    stacks = ((blown_up, colliding), (colliding, blown_up), (reference, blown_up, colliding))
    for stack, kernel in itertools.product(stacks, kernels):
        with pytest.raises(VortexCollision, match="vortices closer than"):
            kernel(np.array(stack).reshape(-1, 2, 4))
    with np.errstate(invalid="ignore"):  # a nan member alone is no collision
        assert np.isnan(system.fields(np.array((reference, blown_up)).reshape(2, 2, 4))[1]).all()
        assert np.isnan(system.energies(np.array((reference, blown_up)).reshape(2, 2, 4))[1])
    # nor may a nan coordinate hide a coincident pair in its own configuration
    hidden = canonical_from_planar(VORTEX4, ((np.nan, 0.0), (1.0, 1.0), (1.0, 1.0), (2.0, 0.5)))
    for evaluate in (system.energy, system.grad):
        with pytest.raises(VortexCollision, match="vortices closer than"):
            evaluate(hidden[:4], hidden[4:])
    for kernel in kernels:
        with pytest.raises(VortexCollision, match="vortices closer than"):
            kernel(np.array((reference, hidden)).reshape(2, 2, 4))


@pytest.mark.parametrize("name", sorted(STACKED_SYSTEMS))
def test_a_grad_only_system_sees_one_grad_per_point(name):
    base = STACKED_SYSTEMS[name]
    zs = seeded_rng(206).normal(size=(3, 2 * base.dim)) + 2.0 * np.arange(2 * base.dim)
    rows = zs.reshape(3, 2, base.dim)
    wrapped = GradOnly(base)
    assert wrapped.fields(rows).tobytes() == base.fields(rows).tobytes()
    assert wrapped.calls == 3
    assert wrapped.fields(rows[0]).tobytes() == base.fields(rows[0]).tobytes()
    assert wrapped.calls == 4


@pytest.mark.parametrize("name", ["nls5", "vortex4"])
def test_stacked_counters_charge_every_point_to_each_counter(name):
    outer, inner = EvalCounter(), EvalCounter()
    timed = GradOnly(STACKED_SYSTEMS[name])
    stacks, fields = [], timed.fields  # the stacks that reach the wrapped system whole
    timed.fields = lambda rows: stacks.append(rows.shape[:-2]) or fields(rows)
    system = CountingSystem(timed, outer).with_counter(inner)
    rows = seeded_rng(207).normal(size=(4, 2, timed.dim))
    system.fields(rows)
    assert outer.n_grad == inner.n_grad == timed.calls == 4 and stacks == [(4,)]
    system.fields(rows[0])
    assert outer.n_grad == inner.n_grad == timed.calls == 5 and stacks == [(4,), ()]


@pytest.mark.parametrize("name", ["nls5", "vortex4"])
def test_a_counter_forwards_energies_whole_and_charges_nothing(name):
    base = STACKED_SYSTEMS[name]
    timed = GradOnly(base)
    stacks = []  # the rows each call of the wrapped kernel receives
    timed.energies = lambda rows: stacks.append(rows) or base.energies(rows)
    counter = EvalCounter()
    rows = seeded_rng(209).normal(size=(5, 2, base.dim)) + np.arange(base.dim)
    values = CountingSystem(timed, counter).energies(rows)
    assert len(stacks) == 1 and stacks[0] is rows
    assert values.tobytes() == base.energies(rows).tobytes()
    assert counter.n_grad == timed.calls == 0


@pytest.mark.parametrize("name", sorted(STACKED_SYSTEMS))
def test_a_counter_over_a_grad_only_system_charges_one_grad_per_point(name):
    timed = GradOnly(STACKED_SYSTEMS[name])  # as a timing wrapper is
    counter = EvalCounter()
    system = CountingSystem(timed, counter)
    z = seeded_rng(208).normal(size=2 * timed.dim) * 0.1 + np.arange(2 * timed.dim)
    charged = 0
    for step, cost in ((flow_a, 1), (flow_b, 1), (pihajoki_step, 3),
                       (partial(tao_step, params=TaoParams(10.0)), 4)):
        step(system, 1e-3, embed(z))
        charged += cost
        assert counter.n_grad == timed.calls == charged
    _, stats = gl_step(system, 1e-3, z, gl_tableau(6), SolverConfig(tol=1e-10))
    assert counter.n_grad == timed.calls == charged + 3 * stats.iterations


class OscillatorRows(HamiltonianSystem):
    """The kernels-only twin of ``conftest.Oscillator``."""

    dim = 1

    def fields(self, rows):
        return np.stack((rows[..., 1, :], -rows[..., 0, :]), axis=-2)

    def energies(self, rows):
        q, p = rows[..., 0, 0], rows[..., 1, 0]
        return 0.5 * (q**2 + p**2)


def test_a_system_writes_one_method_of_each_pair(oscillator):
    public = {name for name in dir(HamiltonianSystem) if not name.startswith("_")}
    assert public == {"energy", "grad", "fields", "energies", "with_counter"}

    def one(self, *args):
        raise AssertionError("never called")

    for written in ({}, {"grad": one}, {"fields": one}, {"energy": one}, {"energies": one}):
        with pytest.raises(TypeError, match="must define (fields or grad|energies or energy)"):
            type("Partial", (HamiltonianSystem,), written)
    twin = OscillatorRows()
    q, p = np.array([0.3]), np.array([-1.7])
    assert same_bits(join(*twin.grad(q, p)), join(*oscillator.grad(q, p)))
    assert twin.energy(q, p) == oscillator.energy(q, p)
    cfg = SolverConfig(tol=1e-14)
    steps = [semiexplicit_step(system, pihajoki_step, 0.1, join(q, p), cfg)[0]
             for system in (twin, oscillator)]
    assert same_bits(*steps)


class CallLog(HamiltonianSystem):
    """Forwards every call to ``base`` and logs its name and row count."""

    def __init__(self, base):
        self.base, self.dim, self.calls = base, base.dim, []

    def energy(self, q, p):
        self.calls.append(("energy", 1))
        return self.base.energy(q, p)

    def grad(self, q, p):
        self.calls.append(("grad", 1))
        return self.base.grad(q, p)

    def fields(self, rows):
        self.calls.append(("fields", rows.size // (2 * self.dim)))
        return self.base.fields(rows)

    def energies(self, rows):
        self.calls.append(("energies", rows.size // (2 * self.dim)))
        return self.base.energies(rows)


@pytest.mark.parametrize("method", ["pihajoki", "tao", "semiexplicit", "gl6"])
def test_a_recorded_run_steps_on_fields_and_records_on_energies(monkeypatch, method):
    order = dict(order=6) if method == "gl6" else {}
    spec = preset("vortex4", method=method, t_end=10 * PRESETS["vortex4"]["dt"], record_stride=1,
                  **order)
    logs, build = [], harness.build_system

    def logged_build(spec):  # patched in as a benchmark's timing wrapper is
        system, z0, invariants = build(spec)
        logs.append(CallLog(system))
        return logs[-1], z0, invariants

    monkeypatch.setattr(harness, "build_system", logged_build)
    # chunks of 4 rows interleave the two kernels, so each call shows its phase
    monkeypatch.setattr(recording, "CHUNK_ROWS", 4)
    record = run_experiment(spec)
    assert record.complete and record.rows == 11
    (log,) = logs
    phases = [(name, sum(rows for _, rows in calls))
              for name, calls in itertools.groupby(log.calls, key=lambda call: call[0])]
    assert [name for name, _ in phases] == ["fields", "energies"] * 3
    assert [rows for name, rows in phases if name == "energies"] == [4, 4, 3]
    assert sum(rows for name, rows in phases if name == "fields") == record.vf_total


@pytest.mark.parametrize("name", sorted(PRESETS))
def test_fields_grad_and_vector_fields_agree_bit_for_bit(name):
    system = build_system(preset(name))[0]
    d = system.dim
    points = kernel_points(4 * d, 209)  # read as two (2, d) rows, or two points
    for z in (point[: 2 * d] for point in points):
        rows = z.reshape(2, d)
        field = _outcome(lambda: (system.fields(rows),))
        assert field == _outcome(lambda: _grad_fields(system, rows[None]))
        assert field == _outcome(lambda: (system.fields(rows[None]),))  # a one-row stack
    for pair in points:  # a stack of two, strided rows included
        stack = pair.reshape(2, 2, d)
        fields = _outcome(lambda: (system.fields(stack),))
        assert fields == _outcome(lambda: [system.fields(rows) for rows in stack])
        assert _outcome(lambda: (system.fields(pair.reshape(4, d)[0::3]),)) == _outcome(
            lambda: (system.fields(pair.reshape(4, d)[0::3].copy()),))


def _energy(system, q, p):
    """The energy at one point by the kernels' rule, None for a collision."""
    try:
        return limited(system.energy, q, p)
    except VortexCollision:
        return None


def _doubled(states, d):
    """Doubled-space points whose copies are consecutive states, off the diagonal,
    each read as its ``(2, 2d)`` canonical rows."""
    points = [join(a[:d], b[:d], a[d:], b[d:]) for a, b in zip(states[:-1], states[1:])]
    return np.array(points).reshape(-1, 2, 2 * d)


@pytest.mark.parametrize("seed, name", enumerate(sorted(PRESETS)))
def test_stacked_diagnostics_are_per_point_diagnostics_bit_for_bit(seed, name):
    system, _, invariants = build_system(preset(name))
    d = system.dim
    dt = PRESETS[name]["dt"]
    states = run_experiment(preset(name, method="tao", t_end=40 * dt, record_stride=1,
                                   record_state=True)).states
    lifts = [inv.lift() for _, inv in invariants]
    # Both kinds of point run under the harness's error state, where any
    # other numerical warning is an error.
    for zs, doubled in (
        (np.array(kernel_points(2 * d, seed)),
         np.array(kernel_points(4 * d, seed)).reshape(-1, 2, 2 * d)),
        (states, _doubled(states, d)),
    ):
        with np.errstate(over="ignore", invalid="ignore"):
            energies = [_energy(system, z[:d], z[d:]) for z in zs]
            whole = [i for i, e in enumerate(energies) if e is not None]  # no collision
            rows = zs.reshape(-1, 2, d)
            assert same_bits(system.energies(rows[whole]), [energies[i] for i in whole])
            if len(whole) < len(zs):
                with pytest.raises(VortexCollision):
                    system.energies(rows)
            for _, inv in invariants:
                assert same_bits(inv.evaluate(rows), [inv.evaluate(z) for z in zs])
            for inv in lifts:
                assert same_bits(inv.evaluate(doubled),
                                 [inv.evaluate(z.reshape(-1)) for z in doubled])
    assert isinstance(invariants[0][1].evaluate(states[0]), float)
    # an empty stack of rows: every kernel and every evaluate returns no values
    empty = np.empty((0, 2, d))
    assert system.fields(empty).shape == empty.shape and system.energies(empty).shape == (0,)
    for inv in [inv for _, inv in invariants] + lifts:
        assert inv.evaluate(np.empty((0, 2, inv.dim))).shape == (0,)


def test_stacked_diagnostics_read_overflow_as_inf_and_a_bad_domain_as_nan():
    testcase, lattice, one_site = make_testcase(), make_nls(5), make_nls(1)
    with np.errstate(over="ignore", invalid="ignore"):
        # exp past math's range in the first row, sin(inf) outside its domain in the second
        rows = np.array([[[1e4, 1.0], [0.0, 1.0]], [[0.0, np.inf], [0.0, 1.0]]])
        assert same_bits(testcase.energies(rows), [np.inf, np.nan])
        fields = testcase.fields(rows)  # the field of a gradient read as inf, or as nan
        assert same_bits(fields[0], [[np.inf, np.inf], [-np.inf, -np.inf]])
        assert np.isnan(fields[1]).all()
        assert same_bits(one_site.energies(np.array([[[1e200], [1.0]], [[np.nan], [1.0]]])),
                         [np.inf, np.nan])
        rows = np.array([np.full(10, 1e200), np.full(10, np.nan)]).reshape(2, 2, 5)
        assert same_bits(nls_mass(5).evaluate(rows), [np.inf, np.nan])
        assert np.isnan(lattice.energies(rows)).all()  # inf - inf in the coupling


class Refusing(GradOnly):
    """A grad-only system whose one-point methods raise the package's own error."""

    def energy(self, q, p):
        raise ConfigError("energy refused")

    def grad(self, q, p):
        raise ConfigError("grad refused")


def test_the_per_row_kernels_pass_the_packages_own_errors_through():
    # a ConfigError is a ValueError, yet no kernel reads it as nan
    system, rows = Refusing(make_nls(2)), np.ones((3, 2, 2))
    with pytest.raises(ConfigError, match="grad refused"):
        system.fields(rows)
    with pytest.raises(ConfigError, match="energy refused"):
        system.energies(rows)
