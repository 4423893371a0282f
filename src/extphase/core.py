"""State layout and the diagonal-constraint algebra of the doubled phase space.

A point of the original phase space is a flat float64 array ``z = (q, p)``
of length ``2*d``.  A point of the doubled (extended) phase space is a flat
array ``zeta = (q, x, p, y)`` of length ``4*d``: ``(q, p)`` and ``(x, y)``
are two copies of the original variables.  This module alone stores that
block order: every other module reads or writes the four blocks through
:func:`blocks`, which also holds the one check of the layout's shape.
The diagonal subspace ``x == q, y == p`` is the kernel of the constraint
operator implemented by :func:`apply_A`; its transpose is :func:`apply_AT`
and ``A @ A.T == 2*I`` holds exactly.

All functions here are pure and allocation-light, and each checks the
shape of its operand, raising :class:`DimensionMismatch` on a bad layout.
"""

from __future__ import annotations

import numpy as np

from .errors import DimensionMismatch, NotOnDiagonal

__all__ = ["DIAGONAL_TOL", "apply_A", "apply_AT", "blocks", "defect_norm", "embed", "restrict"]

# Relative tolerance for diagonal membership, scaled by max(1, |zeta|_inf).
DIAGONAL_TOL = 1e-12


def blocks(zeta: np.ndarray, d: int | None = None) -> np.ndarray:
    """The ``(4, d)`` row view ``(q, x, p, y)`` of a doubled-space point.

    The even rows hold the first copy ``(q, p)``, the odd rows the second
    copy ``(x, y)``.  The rows share memory with a contiguous ``zeta``, so
    writing to them writes the point.  Raises :class:`DimensionMismatch`
    unless ``zeta`` is flat with length ``4*d`` (any positive multiple of 4
    when ``d`` is None).
    """
    if zeta.ndim != 1 or zeta.size == 0 or zeta.size % 4 or d not in (None, zeta.size // 4):
        expected = "4*d with d >= 1" if d is None else str(4 * d)
        raise DimensionMismatch(
            f"extended state must have length {expected}, got shape {zeta.shape}"
        )
    return zeta.reshape(4, -1)


def embed(z: np.ndarray) -> np.ndarray:
    """Duplicate ``z = (q, p)`` into the diagonal point ``(q, q, p, p)``."""
    z = np.asarray(z, dtype=float)
    if z.ndim != 1 or z.size % 2 or z.size == 0:
        raise DimensionMismatch(f"state must have even positive length, got shape {z.shape}")
    zeta = np.empty(2 * z.size)
    rows = blocks(zeta)
    rows[0::2] = rows[1::2] = z.reshape(2, -1)
    return zeta


def restrict(zeta: np.ndarray, tol: float = DIAGONAL_TOL) -> np.ndarray:
    """Return the ``(q, p)`` block of a point lying on the diagonal.

    Raises :class:`NotOnDiagonal` if ``|A zeta|_inf`` exceeds
    ``tol * max(1, |zeta|_inf)``; a failure here signals that an upstream
    projection did not actually land on the diagonal.
    """
    zeta = np.asarray(zeta, dtype=float)
    q, _, p, _ = blocks(zeta)
    gap = np.max(np.abs(apply_A(zeta)))
    if gap > tol * max(1.0, np.max(np.abs(zeta))):
        raise NotOnDiagonal(f"diagonal defect {gap:.3e} exceeds tolerance {tol:.3e}")
    return np.concatenate((q, p))


def apply_A(zeta: np.ndarray) -> np.ndarray:
    """Constraint operator: ``(q - x, p - y)``, zero exactly on the diagonal."""
    rows = blocks(zeta)
    return (rows[0::2] - rows[1::2]).reshape(-1)


def apply_AT(mu: np.ndarray) -> np.ndarray:
    """Transpose of the constraint operator: ``(mu1, -mu1, mu2, -mu2)``.

    That is the embedding of ``mu = (mu1, mu2)`` with its second copy negated.
    """
    out = embed(mu)
    second = blocks(out)[1::2]
    np.negative(second, out=second)
    return out


def defect_norm(zeta: np.ndarray) -> float:
    """Euclidean norm of the copy mismatch ``(x - q, y - p)``."""
    return float(np.linalg.norm(apply_A(zeta)))
