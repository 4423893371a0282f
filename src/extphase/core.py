"""State layout and the diagonal-constraint algebra of the doubled phase space.

A point of the original phase space is a flat float64 array ``z = (q, p)``
of length ``2*d``.  A point of the doubled (extended) phase space is a flat
array ``zeta = (q, x, p, y)`` of length ``4*d``: ``(q, p)`` and ``(x, y)``
are two copies of the original variables.  This module alone stores that
layout.  Every other module reads a point through :func:`halves` (the
positions and momenta, in either space) or :func:`blocks` (the four rows of
a doubled point) and builds one with :func:`join`; a ``(B, 2*d)`` stack of
``B`` points, one per row, is read through :func:`stack_halves`.  These
hold the one check of the layout's shape.  The diagonal subspace
``x == q, y == p`` is the kernel of the constraint operator implemented by
:func:`apply_A`; its transpose is :func:`apply_AT` and ``A @ A.T == 2*I``
holds exactly, and :func:`shift` forms ``zeta + A^T mu`` in one buffer.

All functions here are pure and allocation-light (:func:`shift` writes
only into the ``out`` it is given), and each checks the shape of its
operand, raising :class:`DimensionMismatch` on a bad layout.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DimensionMismatch, NotOnDiagonal

__all__ = [
    "apply_A", "apply_AT", "blocks", "defect_norm", "embed", "halves", "join", "restrict", "shift",
    "stack_halves",
]

# The sign of each copy's share of a multiplier: A^T mu is (mu1, -mu1, mu2, -mu2).
_COPY_SIGNS = np.array(((1.0,), (-1.0,)))


def _block_length(point: np.ndarray, parts: int, d: int | None) -> int:
    """Length ``d`` of the ``parts`` equal blocks of a flat point, checked."""
    n, rest = divmod(point.size, parts)
    if rest or not n or point.ndim != 1 or d not in (None, n):
        expected = f"{parts}*d with d >= 1" if d is None else str(parts * d)
        raise DimensionMismatch(f"state must have length {expected}, got shape {point.shape}")
    return n


def halves(z: np.ndarray, d: int | None = None) -> tuple[np.ndarray, np.ndarray]:
    """The views ``(positions, momenta)`` of a flat point of either space.

    For ``z = (q, p)`` they are ``q`` and ``p``; for a doubled point
    ``(q, x, p, y)`` they are ``(q, x)`` and ``(p, y)``.  Raises
    :class:`DimensionMismatch` unless ``z`` is a flat array of length
    ``2*d`` (any positive even length when ``d`` is None).
    """
    n = _block_length(z, 2, d)
    return z[:n], z[n:]


def stack_halves(zs: np.ndarray, d: int | None = None) -> tuple[np.ndarray, np.ndarray]:
    """The ``(B, n)`` views ``(positions, momenta)`` of a ``(B, 2*n)`` stack
    of ``B >= 1`` points, one point per row, each read as by :func:`halves`.

    Raises :class:`DimensionMismatch` unless ``zs`` is 2-D with at least one
    row and each row has the length :func:`halves` accepts.
    """
    if zs.ndim != 2 or not zs.shape[0]:
        raise DimensionMismatch(f"a stack of points must be 2-D with a row, got shape {zs.shape}")
    n = _block_length(zs[0], 2, d)
    return zs[:, :n], zs[:, n:]


def blocks(zeta: np.ndarray, d: int | None = None) -> np.ndarray:
    """The ``(4, d)`` row view ``(q, x, p, y)`` of a doubled-space point.

    The even rows hold the first copy ``(q, p)``, the odd rows the second
    copy ``(x, y)``.  The rows share memory with a contiguous ``zeta``, so
    writing to them writes the point.  Raises :class:`DimensionMismatch`
    unless ``zeta`` is flat with length ``4*d`` (any positive multiple of 4
    when ``d`` is None).
    """
    _block_length(zeta, 4, d)
    return zeta.reshape(4, -1)


def join(*parts: np.ndarray) -> np.ndarray:
    """A fresh flat point from its blocks in layout order: ``(q, p)`` or
    ``(q, x, p, y)``; the inverse of :func:`halves` and :func:`blocks`.

    Raises :class:`DimensionMismatch` unless there are two or four flat
    arrays of one positive length.
    """
    shapes = [block.shape for block in parts]
    if len(parts) not in (2, 4) or len(shapes[0]) != 1 or not shapes[0][0] or (
            shapes.count(shapes[0]) != len(parts)):
        raise DimensionMismatch(f"a point joins 2 or 4 flat blocks of one length, got {shapes}")
    return np.concatenate(parts)


def embed(z: np.ndarray) -> np.ndarray:
    """Duplicate ``z = (q, p)`` into the diagonal point ``(q, q, p, p)``."""
    q, p = halves(np.asarray(z, dtype=float))
    return join(q, q, p, p)


def restrict(zeta: np.ndarray, tol: float, gap: np.ndarray | None = None) -> np.ndarray:
    """Return the ``(q, p)`` block of a point lying on the diagonal.

    Raises :class:`NotOnDiagonal` if ``|A zeta|_inf`` exceeds
    ``tol * max(1, |zeta|_inf)``; a failure here signals that an upstream
    projection did not actually land on the diagonal.  ``gap`` is
    ``apply_A(zeta)`` when the caller holds it already.
    """
    zeta = np.asarray(zeta, dtype=float)
    rows = blocks(zeta)
    worst = np.abs(apply_A(zeta) if gap is None else gap).max()
    if worst > tol * max(1.0, np.abs(zeta).max()):
        raise NotOnDiagonal(f"diagonal defect {worst:.3e} exceeds tolerance {tol:.3e}")
    return join(rows[0], rows[2])


def apply_A(zeta: np.ndarray) -> np.ndarray:
    """Constraint operator: ``(q - x, p - y)``, zero exactly on the diagonal."""
    rows = blocks(zeta)
    return (rows[0::2] - rows[1::2]).reshape(-1)


def apply_AT(mu: np.ndarray) -> np.ndarray:
    """Transpose of the constraint operator: ``(mu1, -mu1, mu2, -mu2)``.

    That is the embedding of ``mu = (mu1, mu2)`` with its second copy negated.
    """
    m1, m2 = halves(np.asarray(mu, dtype=float))
    return join(m1, -m1, m2, -m2)


def shift(zeta: np.ndarray, mu: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """``zeta + A^T mu``, that is ``(q + mu1, x - mu1, p + mu2, y - mu2)``,
    written into ``out`` (a flat float array of ``zeta``'s length) or into a
    fresh array, and returned.

    The rows ``(mu1, -mu1, mu2, -mu2)`` come from one broadcast product, so
    the sums are those of ``zeta + apply_AT(mu)`` bit for bit.  Only the
    sign of a nan taken from ``mu`` may differ, and a solve ends on such a
    point, whose residual is not finite.
    """
    d = _block_length(zeta, 4, None)
    mu = np.asarray(mu, dtype=float)
    _block_length(mu, 2, d)
    if out is not None:
        _block_length(out, 4, d)
    signed = mu.reshape(2, 1, d) * _COPY_SIGNS
    return np.add(zeta, signed.reshape(-1), out=out)


def defect_norm(zeta: np.ndarray, gap: np.ndarray | None = None) -> float:
    """Euclidean norm of the copy mismatch ``(x - q, y - p)``: the square root
    of its dot product with itself, as ``np.linalg.norm`` takes it.  ``gap``
    is ``apply_A(zeta)`` when the caller holds it already."""
    if gap is None:
        gap = apply_A(zeta)
    return math.sqrt(gap.dot(gap))
