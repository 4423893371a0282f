import math
import types

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import extphase
from extphase import (
    ConfigError,
    DimensionMismatch,
    LinearInvariant,
    NotOnDiagonal,
    SolverConfig,
    TaoParams,
    VortexConfig,
    apply_A,
    apply_AT,
    blocks,
    check_gradient,
    COMPOSITIONS,
    composed_step,
    coupling_bracket,
    coupling_flow,
    defect_norm,
    embed,
    extended_hamiltonian_gradient,
    flow_a,
    flow_b,
    gl_step,
    gl_tableau,
    halves,
    infinitesimal_generator,
    join,
    make_nls,
    nls_mass,
    pihajoki_step,
    planar_from_canonical,
    poisson_bracket,
    restrict,
    semiexplicit_step,
    solve_mu,
    symplecticity_defect,
    tao_step,
)
from extphase.core import restrict_copies

from conftest import seeded_rng


def test_blocks_is_the_row_view_q_x_p_y():
    zeta = np.arange(8.0)
    rows = blocks(zeta)
    assert rows.shape == (4, 2)
    assert rows.tolist() == [[0, 1], [2, 3], [4, 5], [6, 7]]
    assert np.shares_memory(rows, zeta)
    rows[2] += 10.0  # the p rows write through to zeta
    assert zeta.tolist() == [0, 1, 2, 3, 14, 15, 6, 7]
    assert blocks(zeta, 2).shape == (4, 2)


@pytest.mark.parametrize(
    "zeta,d",
    [(np.zeros(0), None), (np.zeros(6), None), (np.zeros((2, 4)), None), (np.zeros(8), 1)],
)
def test_blocks_rejects_bad_layouts(zeta, d):
    with pytest.raises(DimensionMismatch):
        blocks(zeta, d)


def bits(a: np.ndarray) -> list:
    return a.view(np.uint64).tolist()


LAYOUT = settings(max_examples=100, deadline=None, derandomize=True, database=None)


@LAYOUT
@given(st.integers(1, 5).flatmap(lambda d: st.lists(st.floats(), min_size=4 * d, max_size=4 * d)))
def test_layout_round_trips_bitwise(values):
    zeta = np.array(values)
    d = zeta.size // 4
    z = zeta[: 2 * d].copy()
    q, p = halves(z, d)
    assert np.shares_memory(q, z) and np.shares_memory(p, z)
    assert bits(q) == bits(z)[:d] and bits(join(q, p)) == bits(z)
    positions, momenta = halves(zeta, 2 * d)  # (q, x) and (p, y)
    assert bits(positions) == bits(zeta)[: 2 * d]
    assert bits(join(positions, momenta)) == bits(zeta)
    assert bits(join(*blocks(zeta, d))) == bits(zeta)
    # a list reads as its array, bit for bit
    assert bits(np.concatenate(halves(values, 2 * d))) == bits(zeta)
    assert bits(blocks(values, d)) == bits(zeta.reshape(4, d))
    assert bits(join(*blocks(zeta, d).tolist())) == bits(zeta)


# entries that are not real numbers, in an array of the right length
NOT_REAL = {"complex": complex, "bool": bool, "object": object, "text": str}


def _bad_point(d: int, kind: str, k: int, parts: int) -> np.ndarray:
    """A point of ``parts`` blocks that no reader of dimension ``d`` accepts;
    ``k`` in 1..6 sizes it."""
    if kind == "odd":
        return np.ones(2 * k - 1)
    if kind == "empty":
        return np.ones(0)
    if kind == "2-D":
        return np.ones((k, parts * d))
    if kind in NOT_REAL:
        return np.ones(parts * d).astype(NOT_REAL[kind])
    return np.ones(parts * (d + k))  # wrong d


def _layout_readers(d: int) -> dict:
    """Every reader of a point of dimension ``d``: ``(q, p)``, or ``(q, x, p, y)``
    for the names in :data:`DOUBLED`."""
    linear = LinearInvariant(np.arange(1.0, 2 * d + 1))
    quadratic = nls_mass(d)
    system, cfg = make_nls(d), SolverConfig()
    return {
        "LinearInvariant.evaluate": linear.evaluate,
        "LinearInvariant.gradient": linear.gradient,
        "QuadraticInvariant.evaluate": quadratic.evaluate,
        "QuadraticInvariant.gradient": quadratic.gradient,
        "poisson_bracket": lambda z: poisson_bracket(linear.gradient, quadratic.gradient, z),
        "infinitesimal_generator": lambda z: infinitesimal_generator(quadratic, z),
        "planar_from_canonical": lambda z: planar_from_canonical(VortexConfig(np.ones(d)), z),
        "check_gradient": lambda z: check_gradient(system, z),
        "gl_step": lambda z: gl_step(system, 0.1, z, gl_tableau(2), cfg)[0],
        "semiexplicit_step": lambda z: semiexplicit_step(system, pihajoki_step, 0.1, z, cfg)[0],
        "solve_mu": lambda zeta: np.concatenate(solve_mu(system, pihajoki_step, 0.1, zeta, cfg)[:2]),
        "flow_a": lambda zeta: flow_a(system, 0.1, zeta),
        "flow_b": lambda zeta: flow_b(system, 0.1, zeta),
        "pihajoki_step": lambda zeta: pihajoki_step(system, 0.1, zeta),
        "tao_step": lambda zeta: tao_step(system, 0.1, zeta, TaoParams()),
        "extended_hamiltonian_gradient": lambda zeta: extended_hamiltonian_gradient(system, zeta),
        "coupling_bracket": lambda zeta: coupling_bracket(quadratic, zeta, 10.0),
    }


# readers of a point of any dimension, which a wrong d does not fault
ANY_DIMENSION = {
    "symplecticity_defect": lambda z: symplecticity_defect(np.copy, z),
    "embed": embed,
    "apply_AT": apply_AT,
    "restrict": lambda zeta: restrict(zeta, 1e-12),
    "apply_A": apply_A,
    "defect_norm": defect_norm,
    "coupling_flow": lambda zeta: coupling_flow(10.0, 0.1, zeta),
    "halves": lambda z: np.concatenate(halves(z)),
    "blocks": blocks,
}
# readers of a doubled point (q, x, p, y); the others read 2*d entries
DOUBLED = ("flow_a", "flow_b", "pihajoki_step", "tao_step", "restrict", "apply_A", "defect_norm",
           "coupling_flow", "solve_mu", "extended_hamiltonian_gradient", "coupling_bracket",
           "blocks")
# readers of a point that read canonical rows (..., 2, d) too, one point per row
STACK_READERS = ("LinearInvariant.evaluate", "QuadraticInvariant.evaluate")


@LAYOUT
@given(
    st.integers(1, 5), st.sampled_from(["odd", "empty", "2-D", "wrong d", *NOT_REAL]),
    st.integers(1, 6),
)
def test_every_layout_reader_rejects_a_bad_layout(d, kind, k):
    # under the suite's error::RuntimeWarning, a ComplexWarning fails the case too
    error = ConfigError if kind in NOT_REAL else DimensionMismatch
    readers = _layout_readers(d)
    if kind != "wrong d":
        readers.update(ANY_DIMENSION)
    for name, reader in readers.items():
        bad = _bad_point(d, kind, k, 4 if name in DOUBLED else 2)
        with pytest.raises(error):
            reader(bad)
            pytest.fail(f"{name} accepted {bad.dtype} shape {bad.shape} at d={d}")


def test_every_layout_reader_reads_a_list_as_its_array():
    d = 2
    z = np.array([0.3, -0.2, 0.5, 0.1])
    for name, reader in {**_layout_readers(d), **ANY_DIMENSION}.items():
        point = embed(z) if name in DOUBLED else z  # on the diagonal, for restrict
        assert bits(np.asarray(reader(point.tolist()))) == bits(np.asarray(reader(point))), name


def _scalar_readers() -> dict:
    """Each function with a scalar argument, as ``(name, argument)`` to a call
    of that value on a fixed point, the other arguments well formed."""
    system, cfg, params = make_nls(2), SolverConfig(), TaoParams()
    z = np.array([0.3, -0.2, 0.5, 0.1])
    zeta = embed(z)
    fourth = composed_step(pihajoki_step, COMPOSITIONS[4, None])
    return {
        ("flow_a", "t"): lambda t: flow_a(system, t, zeta),
        ("flow_b", "t"): lambda t: flow_b(system, t, zeta),
        ("pihajoki_step", "dt"): lambda dt: pihajoki_step(system, dt, zeta),
        ("tao_step", "dt"): lambda dt: tao_step(system, dt, zeta, params),
        ("composed_step", "dt"): lambda dt: fourth(system, dt, zeta),
        ("coupling_flow", "omega"): lambda omega: coupling_flow(omega, 0.1, zeta),
        ("coupling_flow", "t"): lambda t: coupling_flow(10.0, t, zeta),
        ("solve_mu", "dt"): lambda dt: solve_mu(system, pihajoki_step, dt, zeta, cfg)[0],
        ("semiexplicit_step", "dt"): lambda dt: semiexplicit_step(
            system, pihajoki_step, dt, z, cfg)[0],
        ("gl_step", "dt"): lambda dt: gl_step(system, dt, z, gl_tableau(4), cfg)[0],
        ("restrict", "tol"): lambda tol: restrict(zeta, tol),
        ("coupling_bracket", "omega"): lambda omega: coupling_bracket(
            nls_mass(2), zeta + np.arange(8.0) / 100, omega),
    }


# scalars no reader takes: each was an untyped error, a misleading
# NonConvergence or a result before scalar arguments were read by one rule
NOT_SCALARS = {
    "None": None, "bool": True, "text": "0.1", "complex": 1j, "0-d array": np.array(0.1),
    "list": [0.1], "int past float range": 10**400,
}


@pytest.mark.parametrize("value", NOT_SCALARS.values(), ids=NOT_SCALARS.keys())
@pytest.mark.parametrize("reader", _scalar_readers().keys(), ids="{0[0]}-{0[1]}".format)
def test_every_scalar_argument_is_refused_by_name_unless_a_real_number(reader, value):
    _, argument = reader
    with pytest.raises(ConfigError, match=f"^{argument} must be a real number, not "):
        _scalar_readers()[reader](value)


@pytest.mark.parametrize("reader", _scalar_readers().keys(), ids="{0[0]}-{0[1]}".format)
def test_a_scalar_argument_reads_an_integer_or_a_numpy_number_as_its_float(reader):
    call = _scalar_readers()[reader]
    value = 1e-12 if reader[1] == "tol" else 0.1
    expected = bits(np.asarray(call(value)))
    assert bits(np.asarray(call(np.float64(value)))) == expected
    assert bits(np.asarray(call(np.float32(0.5)))) == bits(np.asarray(call(0.5)))
    assert bits(np.asarray(call(1))) == bits(np.asarray(call(1.0)))


def test_a_stack_reads_each_row_as_halves():
    zs = np.arange(12.0).reshape(3, 4)
    rows = zs.reshape(3, 2, 2)
    readers = {name: reader for name, reader in _layout_readers(2).items()
               if name in STACK_READERS}
    for name, reader in readers.items():
        # each row's value is its flat point's, in the shape rows.shape[:-2]
        assert bits(reader(rows)) == bits(np.array([reader(z) for z in zs])), name
        assert reader(rows.reshape(3, 1, 2, 2)).shape == (3, 1)
        assert reader(rows[0]).shape == () and reader(np.ones((0, 2, 2))).shape == (0,)
    # a (B, 2d) stack, malformed rows and ragged ones: every one a DimensionMismatch
    for bad in (zs, np.ones((0, 4)), np.ones((3, 5)), np.ones((3, 6)), np.ones((2, 3, 4)),
                np.ones((3, 2, 3)), [[1.0, 2.0], [1.0]]):
        for name, reader in readers.items():
            with pytest.raises(DimensionMismatch):
                reader(bad)
                pytest.fail(f"{name} accepted {bad!r}")


@pytest.mark.parametrize(
    "parts", [(), (np.ones(2),), (np.ones(2),) * 3, (np.ones(2), np.ones(3)), (np.ones(0),) * 2,
              (np.ones((1, 2)),) * 2, (np.ones(1),) * 3 + (np.ones(2),)],
)
def test_join_rejects_parts_that_are_not_a_point(parts):
    with pytest.raises(DimensionMismatch):
        join(*parts)


def test_package_api_is_explicit():
    names = extphase.__all__
    assert len(names) == len(set(names))
    for name in names:
        assert not isinstance(getattr(extphase, name), types.ModuleType), name


_ERROR = "an error type: raised by the library, never called with its input"
_SYSTEM = "a system: its row kernels take their rows unchecked, as the README says"
_SPEC_RUN = "reads an ExperimentSpec, which checks every field on construction"
_CONFIG = "a configuration or record type that checks its own fields, with its own tests"
_FACTORY = "builds a system, tableau or invariant from no point; its own tests pin what it builds"

# public callables that no reader table above probes, one reason each
EXEMPT = (
    ("ExtPhaseError", _ERROR), ("ConfigError", _ERROR), ("DimensionMismatch", _ERROR),
    ("NonConvergence", _ERROR), ("NotOnDiagonal", _ERROR), ("VortexCollision", _ERROR),
    ("HamiltonianSystem", _SYSTEM), ("NlsLattice", _SYSTEM), ("PointVortexSystem", _SYSTEM),
    ("TestcaseSystem", _SYSTEM), ("CountingSystem", _SYSTEM),
    ("EvalCounter", "a tally of one integer field, which reads no input"),
    ("make_nls", _FACTORY), ("make_testcase", _FACTORY), ("make_vortices", _FACTORY),
    ("VortexConfig", _CONFIG), ("ExperimentSpec", _CONFIG), ("SolverConfig", _CONFIG),
    ("TaoParams", _CONFIG), ("CompositionScheme", _CONFIG), ("ButcherTableau", _CONFIG),
    ("StepStats", "the solves' telemetry, built by the library, never from input"),
    ("TrajectoryRecord", "a run's result, built by run_experiment, never from input"),
    ("canonical_from_planar", "reads planar (N, 2) positions, the shape rule that "
                              "test_vortex_config_validation probes"),
    ("make_spec", "builds an ExperimentSpec from a mapping, refusing unknown keys"),
    ("preset", "builds an ExperimentSpec from a named preset, refusing unknown names"),
    ("load_config", "reads a JSON file into make_spec; every failure is a ConfigError"),
    ("build_system", _SPEC_RUN), ("run_experiment", _SPEC_RUN), ("benchmark", _SPEC_RUN),
    ("final_state", _SPEC_RUN), ("convergence_study", _SPEC_RUN),
    ("emit_csv", "writes a TrajectoryRecord"), ("emit_svg", "draws a TrajectoryRecord"),
    ("load_csv", "reads a file it wrote; an unreadable one is a ConfigError"),
    ("gl_tableau", _FACTORY), ("nls_mass", _FACTORY), ("testcase_L", _FACTORY),
    ("testcase_Q", _FACTORY), ("vortex_angular_impulse", _FACTORY),
    ("vortex_linear_impulse_x", _FACTORY), ("vortex_linear_impulse_y", _FACTORY),
    ("drift_series", "reads a stack of states, which its own tests probe"),
    ("join", "joins blocks, not a point: test_join_rejects_parts_that_are_not_a_point"),
    # the two predicates' tol is not yet read by the scalar rule (ROADMAP item 10)
    ("coupling_preserves_quadratic", "a predicate on an invariant's checked blocks"),
    ("tao_compatibility", "a predicate on an invariant's checked blocks"),
)


def test_every_public_callable_is_probed_or_exempt():
    # a public function added without a row in a reader table, or a reason here, fails
    probed = {name.split(".")[0] for name in {**_layout_readers(1), **ANY_DIMENSION}}
    probed |= {name for name, _ in _scalar_readers()}
    exempt = [name for name, _ in EXEMPT]
    public = {name for name in extphase.__all__ if callable(getattr(extphase, name))}
    assert len(exempt) == len(set(exempt))
    assert sorted(public - probed - set(exempt)) == []  # neither probed nor exempt
    assert sorted(set(exempt) & probed) == [] and set(exempt) <= public  # stale exemptions


def test_embed_duplicates_blocks():
    zeta = embed(np.array([1.0, 2.0, 3.0, 4.0]))
    assert zeta.tolist() == [1, 2, 1, 2, 3, 4, 3, 4]


def test_embed_zero():
    assert embed(np.zeros(4)).tolist() == [0.0] * 8


def test_embed_reference_initial_state():
    zeta = embed(np.array([-1.0, 2.0, 1.0, -1.0]))
    assert zeta.tolist() == [-1, 2, -1, 2, 1, -1, 1, -1]


def test_embed_lands_exactly_on_diagonal():
    rng = seeded_rng(101)
    for _ in range(100):
        z = rng.normal(size=6)
        assert np.all(apply_A(embed(z)) == 0.0)


def test_restrict_inverts_embed_bitwise():
    rng = seeded_rng(102)
    for _ in range(100):
        z = rng.normal(size=8) * rng.choice([1e-8, 1.0, 1e8])
        assert np.array_equal(restrict(embed(z), tol=0.0), z)  # exactly on the diagonal


def test_restrict_extracts_blocks():
    z = restrict(np.array([1.0, 2.0, 1.0, 2.0, 3.0, 4.0, 3.0, 4.0]), tol=1e-12)
    assert z.tolist() == [1, 2, 3, 4]


def test_restrict_rejects_off_diagonal_point():
    with pytest.raises(NotOnDiagonal):
        restrict(np.array([1.0, 1.1, 0.0, 0.0]), tol=1e-12)


@pytest.mark.parametrize("zeta", [[np.nan, 5.0, 0.0, 0.0], [np.inf, 5.0, 0.0, 0.0],
                                  [5.0, np.nan, 0.0, 0.0], [np.inf, np.inf, 0.0, 0.0]])
def test_restrict_rejects_a_non_finite_copy_gap(zeta):
    # nan > bound and inf > tol * inf are both false, so the gap is checked finite first
    with np.errstate(invalid="ignore"), pytest.raises(NotOnDiagonal):
        restrict(np.array(zeta), tol=1e-12)


@pytest.mark.parametrize("zeta, message", [
    ([1.0, np.nan, 2.0, 2.0], "diagonal defect nan exceeds tolerance 1.000e-12"),  # one copy
    ([np.inf, np.inf, 2.0, 2.0], "diagonal defect nan exceeds tolerance 1.000e-12"),  # inf - inf
    ([np.inf, 1.0, 2.0, -np.inf], "diagonal defect inf exceeds tolerance 1.000e-12"),
])
def test_restrict_copies_names_a_non_finite_defect(zeta, message):
    with np.errstate(invalid="ignore"), pytest.raises(NotOnDiagonal) as err:
        restrict_copies(np.array(zeta), 1e-12)
    assert str(err.value) == message


@pytest.mark.parametrize("q, x, p, y, tol, message", [
    # the largest entry is in the second copy: the bound reads both copies
    ([1.0, 0.0], [0.0, 0.0], [0.0, 0.0], [0.0, -8.0], 1.0,
     "diagonal defect 8.000e+00 exceeds tolerance 1.000e+00"),
    # every entry below 1: the bound is tol itself
    ([0.5], [0.25], [0.0], [0.0], 0.25, "diagonal defect 2.500e-01 exceeds tolerance 2.500e-01"),
])
def test_restrict_copies_accepts_a_gap_exactly_at_its_bound(q, x, p, y, tol, message):
    """``|A zeta|_inf == tol * max(1, |zeta|_inf)`` passes with the first
    copy and the gap's Euclidean norm; one ulp less of ``tol`` fails."""
    zeta = join(*map(np.array, (q, x, p, y)))
    z, defect = restrict_copies(zeta, tol)
    assert z.tobytes() == np.array(q + p).tobytes()
    gap = np.array(q + p) - np.array(x + y)
    assert defect == math.sqrt(gap.dot(gap))
    assert not np.shares_memory(z, zeta)
    with pytest.raises(NotOnDiagonal) as err:
        restrict_copies(zeta, np.nextafter(tol, 0.0))
    assert str(err.value) == message


def test_apply_A_vanishes_on_diagonal():
    assert np.all(apply_A(embed(np.array([3.0, -2.0]))) == 0.0)


def test_apply_A_definition():
    # d=1, zeta = (q, x, p, y) = (1, 2, 3, 5) -> (q - x, p - y)
    assert apply_A(np.array([1.0, 2.0, 3.0, 5.0])).tolist() == [-1.0, -2.0]


def test_apply_A_after_apply_AT_doubles():
    mu = np.array([1.0, -1.0])
    assert apply_A(apply_AT(mu)).tolist() == [2.0, -2.0]


def test_constraint_composition_is_exact_doubling():
    rng = seeded_rng(103)
    for _ in range(100):
        mu = rng.normal(size=6) * rng.choice([1e-7, 1.0, 1e7])
        assert np.array_equal(apply_A(apply_AT(mu)), 2.0 * mu)


def test_apply_AT_examples():
    assert np.all(apply_AT(np.zeros(2)) == 0.0)
    assert apply_AT(np.array([1.0, -1.0])).tolist() == [1.0, -1.0, -1.0, 1.0]


def test_shift_linearity():
    rng = seeded_rng(104)
    for _ in range(50):
        zeta = rng.normal(size=8)
        mu = rng.normal(size=4)
        lhs = apply_A(zeta + apply_AT(mu))
        rhs = apply_A(zeta) + 2.0 * mu
        np.testing.assert_allclose(lhs, rhs, rtol=0, atol=1e-14)


def test_restrict_copies_reads_zeta_plus_AT_mu_bit_for_bit():
    # the projected step's finish: the copies and defect of the shifted point, never formed
    rng = seeded_rng(105)
    for _ in range(50):
        zeta = rng.normal(size=8) * rng.choice([1e-7, 1.0, 1e7])
        mu = rng.normal(size=4) * rng.choice([1e-7, 1.0, 1e7])
        shift = apply_AT(mu).reshape(4, -1)  # the solve's rows (mu1, -mu1, mu2, -mu2)
        before = zeta.tobytes(), shift.tobytes()
        z, defect = restrict_copies(zeta, math.inf, shift)
        shifted = zeta + apply_AT(mu)
        assert z.tobytes() == blocks(shifted)[0::2].tobytes()
        assert defect == defect_norm(shifted)
        assert (zeta.tobytes(), shift.tobytes()) == before
        # the bound reads the shifted point: A^T mu - A^T mu is on the diagonal
        assert not restrict_copies(apply_AT(mu), 0.0, -shift)[0].any()
        with pytest.raises(NotOnDiagonal):
            restrict_copies(apply_AT(mu), 0.0)


def test_defect_norm_on_diagonal_is_zero():
    assert defect_norm(embed(np.array([1.0, 2.0, 3.0, 4.0]))) == 0.0


def test_defect_norm_pythagorean():
    assert defect_norm(np.array([0.0, 3.0, 0.0, 4.0])) == 5.0


def test_defect_norm_homogeneous():
    rng = seeded_rng(105)
    zeta = rng.normal(size=8)
    base = defect_norm(zeta)
    np.testing.assert_allclose(defect_norm(2.0 * zeta), 2.0 * base, rtol=1e-14)
    np.testing.assert_allclose(defect_norm(-3.0 * zeta), 3.0 * base, rtol=1e-14)


def test_defect_norm_matches_constraint_norm():
    rng = seeded_rng(106)
    for _ in range(50):
        zeta = rng.normal(size=12)
        assert defect_norm(zeta) == pytest.approx(np.linalg.norm(apply_A(zeta)), rel=1e-15)
