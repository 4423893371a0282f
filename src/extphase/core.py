"""State layout and the diagonal-constraint algebra of the doubled phase space.

A point of the original phase space is a flat float64 array ``z = (q, p)``
of length ``2*d``.  A point of the doubled (extended) phase space is a flat
array ``zeta = (q, x, p, y)`` of length ``4*d``: ``(q, p)`` and ``(x, y)``
are two copies of the original variables, stored in that fixed block order.
The diagonal subspace ``x == q, y == p`` is the kernel of the constraint
operator implemented by :func:`apply_A`; its transpose is :func:`apply_AT`
and ``A @ A.T == 2*I`` holds exactly.

All functions here are pure and allocation-light, and each checks the
shape of its operand, raising :class:`DimensionMismatch` on a bad layout.
"""

from __future__ import annotations

import numpy as np

from .errors import DimensionMismatch, NotOnDiagonal

# Relative tolerance for diagonal membership, scaled by max(1, |zeta|_inf).
DIAGONAL_TOL = 1e-12


def embed(z: np.ndarray) -> np.ndarray:
    """Duplicate ``z = (q, p)`` into the diagonal point ``(q, q, p, p)``."""
    z = np.asarray(z, dtype=float)
    if z.ndim != 1 or z.size % 2 or z.size == 0:
        raise DimensionMismatch(f"state must have even positive length, got shape {z.shape}")
    d = z.size // 2
    zeta = np.empty(4 * d)
    zeta[0:d] = z[0:d]
    zeta[d : 2 * d] = z[0:d]
    zeta[2 * d : 3 * d] = z[d:]
    zeta[3 * d :] = z[d:]
    return zeta


def restrict(zeta: np.ndarray, tol: float = DIAGONAL_TOL) -> np.ndarray:
    """Return the ``(q, p)`` block of a point lying on the diagonal.

    Raises :class:`NotOnDiagonal` if ``|A zeta|_inf`` exceeds
    ``tol * max(1, |zeta|_inf)``; a failure here signals that an upstream
    projection did not actually land on the diagonal.
    """
    zeta = np.asarray(zeta, dtype=float)
    d = _extended_dim(zeta)
    gap = np.max(np.abs(apply_A(zeta)))
    if gap > tol * max(1.0, np.max(np.abs(zeta))):
        raise NotOnDiagonal(f"diagonal defect {gap:.3e} exceeds tolerance {tol:.3e}")
    z = np.empty(2 * d)
    z[0:d] = zeta[0:d]
    z[d:] = zeta[2 * d : 3 * d]
    return z


def apply_A(zeta: np.ndarray) -> np.ndarray:
    """Constraint operator: ``(q - x, p - y)``, zero exactly on the diagonal."""
    d = _extended_dim(zeta)
    out = np.empty(2 * d)
    out[0:d] = zeta[0:d] - zeta[d : 2 * d]
    out[d:] = zeta[2 * d : 3 * d] - zeta[3 * d :]
    return out


def apply_AT(mu: np.ndarray) -> np.ndarray:
    """Transpose of the constraint operator: ``(mu1, -mu1, mu2, -mu2)``."""
    mu = np.asarray(mu, dtype=float)
    if mu.ndim != 1 or mu.size % 2 or mu.size == 0:
        raise DimensionMismatch(f"multiplier must have even positive length, got shape {mu.shape}")
    d = mu.size // 2
    out = np.empty(4 * d)
    out[0:d] = mu[0:d]
    out[d : 2 * d] = -mu[0:d]
    out[2 * d : 3 * d] = mu[d:]
    out[3 * d :] = -mu[d:]
    return out


def defect_norm(zeta: np.ndarray) -> float:
    """Euclidean norm of the copy mismatch ``(x - q, y - p)``."""
    return float(np.linalg.norm(apply_A(zeta)))


def _extended_dim(zeta: np.ndarray) -> int:
    if zeta.ndim != 1 or zeta.size % 4 or zeta.size == 0:
        raise DimensionMismatch(
            f"extended state must have length 4*d with d >= 1, got shape {zeta.shape}"
        )
    return zeta.size // 4
