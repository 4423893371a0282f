import types

import numpy as np
import pytest

import extphase
from extphase import (
    DimensionMismatch,
    NotOnDiagonal,
    apply_A,
    apply_AT,
    blocks,
    defect_norm,
    embed,
    restrict,
)

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


def test_package_api_is_explicit():
    names = extphase.__all__
    assert len(names) == len(set(names))
    for name in names:
        assert not isinstance(getattr(extphase, name), types.ModuleType), name


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
        assert np.array_equal(restrict(embed(z)), z)


def test_restrict_extracts_blocks():
    z = restrict(np.array([1.0, 2.0, 1.0, 2.0, 3.0, 4.0, 3.0, 4.0]), tol=1e-12)
    assert z.tolist() == [1, 2, 3, 4]


def test_restrict_rejects_off_diagonal_point():
    with pytest.raises(NotOnDiagonal):
        restrict(np.array([1.0, 1.1, 0.0, 0.0]), tol=1e-12)


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
