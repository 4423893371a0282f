"""State layout and the diagonal-constraint algebra of the doubled phase space.

A point of the original phase space is a flat float64 array ``z = (q, p)``
of length ``2*d``.  A point of the doubled (extended) phase space is a flat
array ``zeta = (q, x, p, y)`` of length ``4*d``: ``(q, p)`` and ``(x, y)``
are two copies of the original variables.  Other modules read a point
through :func:`halves` (positions and momenta, in either space),
:func:`blocks` (the four rows of a doubled point) or :func:`row_pairs`
(two ``(2, d)`` canonical rows of them), build one with :func:`join` and
double one with :func:`embed`; only the projection solve reads a doubled
point as its ``(4, d)`` rows itself.  These hold the one check of
the layout's shape, :func:`block_length`, which the projected step calls
once per point and step.  A stack of points is canonical rows ``(..., 2, d)``.
The diagonal subspace ``x == q, y == p`` is the kernel of the constraint
operator implemented by :func:`apply_A`; its transpose is
:func:`apply_AT` and ``A @ A.T == 2*I`` holds exactly.

The package reads every array argument through :func:`floats`, the one rule
of what it may hold, but for the systems' row kernels, which take their rows
unchecked on the hot path; and every scalar argument (a time, a step size,
``omega``, a tolerance) through :func:`scalar`.
All functions here are pure and allocation-light, and each checks the shape
of its operand, raising :class:`DimensionMismatch` on a bad layout.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import ConfigError, DimensionMismatch, NotOnDiagonal, _real

__all__ = [
    "apply_A", "apply_AT", "blocks", "defect_norm", "embed", "halves", "join", "restrict",
]

_NDARRAY, _FLOAT = np.ndarray, np.dtype(float)  # an array floats returns as it is


def floats(value) -> np.ndarray:
    """``value`` as a float array, itself if it is one: the one rule for an array
    argument.  Ragged rows raise :class:`DimensionMismatch`, and entries other than
    floats and integers (complex, bool, object, text) :class:`ConfigError`.  A
    list's integer past 64 bits reads as its float where a float holds it, the
    rule of a spec's numbers."""
    if type(value) is _NDARRAY and value.dtype is _FLOAT:
        return value
    try:
        array = np.asarray(value)
    except ValueError as exc:  # ragged rows, which NumPy cannot make one array
        raise DimensionMismatch(f"an array's rows must have one length: {exc}") from None
    if array.dtype == object and not isinstance(value, _NDARRAY) and all(map(_real, array.flat)):
        array = array.astype(float)  # an integer past 64 bits, which NumPy keeps as an object
    if array.dtype.kind not in "fiu":
        raise ConfigError(f"an array must hold real numbers, not {array.dtype}")
    return array.astype(float, copy=False)


def scalar(value, name: str) -> float:
    """``value`` as a float, the one rule for a scalar argument: a number a
    float holds (:func:`errors._real`), inf and nan included, where a bool,
    text, None, a complex or an array is a :class:`ConfigError` naming ``name``."""
    if type(value) is float:
        return value
    if not _real(value):
        raise ConfigError(f"{name} must be a real number, not {value!r}")
    return float(value)


def read_point(value, parts: int, d: int | None = None) -> tuple[np.ndarray, int]:
    """``(point, d)``: ``value`` read by :func:`floats`, checked by :func:`block_length`."""
    point = floats(value)
    return point, block_length(point, parts, d)


def block_length(point: np.ndarray, parts: int, d: int | None = None) -> int:
    """Length ``d`` of the ``parts`` equal blocks of a flat point, checked by
    one comparison of its shape with ``(parts * d,)``; the layout's one check."""
    n = point.size // parts if d is None else d
    if point.shape != (parts * n,) or not n:
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
    z, n = read_point(z, 2, d)
    return z[:n], z[n:]


def blocks(zeta: np.ndarray, d: int | None = None) -> np.ndarray:
    """The ``(4, d)`` row view ``(q, x, p, y)`` of a doubled-space point.

    The even rows hold the first copy ``(q, p)``, the odd rows the second
    copy ``(x, y)``.  The rows share memory with a contiguous ``zeta``, so
    writing to them writes the point.  Raises :class:`DimensionMismatch`
    unless ``zeta`` is flat with length ``4*d`` (any positive multiple of 4
    when ``d`` is None).
    """
    return read_point(zeta, 4, d)[0].reshape(4, -1)


# The copies' signs in A^T mu = ((mu1, -mu1), (mu2, -mu2)), a column to broadcast mu by.
_AT_SIGNS = np.array([[1.0], [-1.0]])

# Slices of the rows (q, x, p, y) that pick two canonical rows (positions,
# momenta): the copies (q, p) and (x, y), or the flows' points (q, y) and (x, p).
COPIES = (slice(0, None, 2), slice(1, None, 2))
FLOWS = (slice(0, None, 3), slice(1, 3))


def row_pairs(zeta: np.ndarray, pairs: tuple, d: int | None = None) -> tuple:
    """The two ``(2, d)`` canonical row views of a doubled point that
    ``pairs`` (:data:`COPIES` or :data:`FLOWS`) picks, checked as
    :func:`blocks` checks; writing to them writes the point."""
    rows = zeta.reshape(4, block_length(zeta, 4, d))
    return rows[pairs[0]], rows[pairs[1]]


def join(*parts: np.ndarray) -> np.ndarray:
    """A fresh flat point from its blocks in layout order: ``(q, p)`` or
    ``(q, x, p, y)``; the inverse of :func:`halves` and :func:`blocks`.

    Raises :class:`DimensionMismatch` unless there are two or four flat
    arrays of one positive length.
    """
    parts = [floats(block) for block in parts]
    shapes = [block.shape for block in parts]
    if len(parts) not in (2, 4) or len(shapes[0]) != 1 or not shapes[0][0] or (
            shapes.count(shapes[0]) != len(parts)):
        raise DimensionMismatch(f"a point joins 2 or 4 flat blocks of one length, got {shapes}")
    return np.concatenate(parts)


def embed(z: np.ndarray) -> np.ndarray:
    """Duplicate ``z = (q, p)`` into the fresh diagonal point ``(q, q, p, p)``,
    by one broadcast write; checked as :func:`halves` checks."""
    z, d = read_point(z, 2)
    zeta = np.empty(4 * d)
    zeta.reshape(2, 2, d)[:] = z.reshape(2, 1, d)
    return zeta


def restrict(zeta: np.ndarray, tol: float) -> np.ndarray:
    """The ``(q, p)`` block of a point on the diagonal; see :func:`restrict_copies`."""
    return restrict_copies(floats(zeta), scalar(tol, "tol"))[0]


def restrict_copies(zeta: np.ndarray, tol: float, shift: np.ndarray | None = None) -> tuple:
    """The fresh point ``(q, p)`` of the doubled point ``zeta + shift`` (of
    ``zeta`` when ``shift`` is None) and its :func:`defect_norm`; ``shift`` is
    ``A^T mu`` with the size of ``zeta``, in any shape (unchecked).

    Raises :class:`NotOnDiagonal` if ``|A zeta|_inf`` is not finite or
    exceeds ``tol * max(1, |zeta|_inf)``; a failure here signals that an
    upstream projection did not actually land on the diagonal.
    """
    d = block_length(zeta, 4)
    rows = np.empty((3, 2 * d))  # the copies (q, p) and (x, y), then their gap
    copies = rows.reshape(3, 2, d)[:2].swapaxes(0, 1)  # laid out as zeta's (2, 2, d) view
    if shift is None:
        copies[...] = zeta.reshape(2, 2, d)
    else:
        np.add(zeta.reshape(2, 2, d), shift.reshape(2, 2, d), out=copies)
    gap = np.subtract(rows[0], rows[1], out=rows[2])
    first, second, worst = np.maximum.reduce(np.abs(rows), axis=1).tolist()
    if not (math.isfinite(worst) and worst <= tol * max(1.0, first, second)):
        raise NotOnDiagonal(f"diagonal defect {worst:.3e} exceeds tolerance {tol:.3e}")
    return rows[0], math.sqrt(gap.dot(gap))


def apply_A(zeta: np.ndarray) -> np.ndarray:
    """``A zeta = (q - x, p - y)``, zero exactly on the diagonal."""
    first, second = row_pairs(floats(zeta), COPIES)
    return (first - second).reshape(-1)


def apply_AT(mu: np.ndarray) -> np.ndarray:
    """Transpose of the constraint operator: ``(mu1, -mu1, mu2, -mu2)``.

    That is the embedding of ``mu = (mu1, mu2)`` with its second copy negated.
    """
    m, d = read_point(mu, 2)
    return (m.reshape(2, 1, d) * _AT_SIGNS).reshape(-1)


def defect_norm(zeta: np.ndarray) -> float:
    """Euclidean norm of the copy mismatch ``(x - q, y - p)``: the square root
    of its dot product with itself, as ``np.linalg.norm`` takes it."""
    gap = apply_A(zeta)
    return math.sqrt(gap.dot(gap))
