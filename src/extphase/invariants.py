"""Linear and quadratic first integrals, their doubled-space lifts, and
numerical structure checks (Poisson brackets, symplecticity defect, drift).

A linear integral is ``L_a(z) = a^T z``; a quadratic one is
``Q_k(z) = z^T k z / 2`` with symmetric block data ``(k11, k12, k22)``.
Their lifts to the doubled space are ``Lhat(zeta) = ahat^T zeta`` with
``ahat = (a_q, a_q, a_p, a_p)/2`` and ``Qhat(zeta) = eta^T k xi / 2`` with
the copy gathers ``eta = (q, y)``, ``xi = (x, p)``; both restrict to the
originals on the diagonal.  A lift is an invariant of the same kind on the
doubled space, whose positions are ``(q, x)`` and momenta ``(p, y)``:
:meth:`LinearInvariant.lift` and :meth:`QuadraticInvariant.lift` return
one, so ``evaluate``, ``gradient``, ``matrix``, :func:`poisson_bracket`,
:func:`infinitesimal_generator` and :func:`drift_series` serve both spaces.
The lifted quadratic carries the ``2d x 2d`` blocks of ``Qhat``'s
``4d x 4d`` matrix, so it costs O(d^2) storage.

``evaluate`` takes one flat point, and returns a float, or canonical rows
``(..., 2, d)``, as the system kernels do, and returns ``rows.shape[:-2]``
values; a lift reads a doubled point as ``(2, 2d)`` rows.  Each value is
the flat point's bit for bit: the products are batched matrix products
whose row and vector cases take the same BLAS kernels as the one-point
products, where an einsum or a matrix-vector product over the stack sums
in another order.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .core import block_length, blocks, embed, floats, halves, join, read_point, scalar
from .errors import ConfigError, DimensionMismatch
from .hamiltonians import HamiltonianSystem, _canonical_scaling, _central_differences, _lattice_size

__all__ = [
    "LinearInvariant", "QuadraticInvariant", "coupling_bracket", "coupling_preserves_quadratic",
    "drift_series", "extended_hamiltonian_gradient", "infinitesimal_generator", "nls_mass",
    "poisson_bracket", "symplecticity_defect", "tao_compatibility", "testcase_L", "testcase_Q",
    "vortex_angular_impulse", "vortex_linear_impulse_x", "vortex_linear_impulse_y",
]

DRIFT_FLOOR = 1e-300


def _rows(z, d: int) -> tuple[np.ndarray, tuple | None]:
    """``z``, one flat point or canonical rows ``(..., 2, d)``, as checked
    rows ``(B, 2, d)``, and the shape of its values: ``None`` for one flat
    point, which has a float."""
    z = floats(z)
    if z.ndim == 1:
        block_length(z, 2, d)  # the layout check
        return z.reshape(1, 2, d), None
    if z.shape[-2:] != (2, d):
        raise DimensionMismatch(f"points must be rows (..., 2, {d}), got shape {z.shape}")
    return z.reshape(-1, 2, d), z.shape[:-2]


@dataclass(frozen=True)
class LinearInvariant:
    """Coefficients of a conserved linear function ``a^T z``."""

    a: np.ndarray

    def __post_init__(self):
        a, _ = read_point(self.a, 2)  # the layout check
        if not np.isfinite(a).all():
            raise ConfigError("coefficients must be finite")
        object.__setattr__(self, "a", a)

    @cached_property  # evaluate reads it on every call
    def dim(self) -> int:
        return halves(self.a)[0].size

    def evaluate(self, z: np.ndarray) -> float | np.ndarray:
        """``a^T z`` at one flat point (a float) or at each of canonical rows."""
        rows, shape = _rows(z, self.dim)
        zs = rows.reshape(len(rows), self.a.size)
        values = (zs[:, None, :] @ self.a[:, None])[:, 0, 0]
        return float(values[0]) if shape is None else values.reshape(shape)

    def gradient(self, z: np.ndarray) -> np.ndarray:
        halves(z, self.dim)  # the layout check
        return self.a.copy()

    def lift(self) -> LinearInvariant:
        """The doubled-space invariant with coefficients ``(a_q, a_q, a_p, a_p) / 2``."""
        return LinearInvariant(0.5 * embed(self.a))


@dataclass(frozen=True)
class QuadraticInvariant:
    """Symmetric block data of a conserved quadratic ``z^T k z / 2``."""

    k11: np.ndarray
    k12: np.ndarray
    k22: np.ndarray

    def __post_init__(self):
        k11, k12, k22 = (np.atleast_2d(floats(blk)) for blk in (self.k11, self.k12, self.k22))
        d = k11.shape[0]
        for name, blk in (("k11", k11), ("k12", k12), ("k22", k22)):
            if blk.shape != (d, d):
                raise DimensionMismatch(f"{name} must be {d}x{d}, got {blk.shape}")
        if not all(np.isfinite(blk).all() for blk in (k11, k12, k22)):
            raise ConfigError("blocks must be finite")
        for name, blk in (("k11", k11), ("k22", k22)):
            if np.max(np.abs(blk - blk.T), initial=0.0) > 1e-14:
                raise ConfigError(f"{name} must be symmetric")
        object.__setattr__(self, "k11", k11)
        object.__setattr__(self, "k12", k12)
        object.__setattr__(self, "k22", k22)

    @property
    def dim(self) -> int:
        return self.k11.shape[0]

    @property
    def matrix(self) -> np.ndarray:
        """Full symmetric ``2d x 2d`` coefficient matrix."""
        return np.block([[self.k11, self.k12], [self.k12.T, self.k22]])

    def evaluate(self, z: np.ndarray) -> float | np.ndarray:
        """``z^T k z / 2`` at one flat point (a float) or at each of canonical rows."""
        rows, shape = _rows(z, self.dim)
        qs, ps = rows[:, 0], rows[:, 1]
        q_row, q_col, p_row, p_col = qs[:, None, :], qs[:, :, None], ps[:, None, :], ps[:, :, None]
        values = (
            0.5 * (q_row @ (self.k11 @ q_col)) + q_row @ (self.k12 @ p_col)
            + 0.5 * (p_row @ (self.k22 @ p_col))
        )[:, 0, 0]
        return float(values[0]) if shape is None else values.reshape(shape)

    def gradient(self, z: np.ndarray) -> np.ndarray:
        q, p = halves(z, self.dim)
        return join(self.k11 @ q + self.k12 @ p, self.k12.T @ q + self.k22 @ p)

    def lift(self) -> QuadraticInvariant:
        """The lift ``eta^T k xi / 2`` as a quadratic on the doubled space.

        With positions ``(q, x)`` and momenta ``(p, y)`` its blocks are
        ``[[0, k11], [k11, 0]] / 2``, ``[[k12, 0], [0, k12]] / 2`` and
        ``[[0, k22], [k22, 0]] / 2``.
        """
        z = np.zeros_like(self.k11)

        def cross(blk):
            return 0.5 * np.block([[z, blk], [blk, z]])

        return QuadraticInvariant(
            cross(self.k11), 0.5 * np.block([[self.k12, z], [z, self.k12]]), cross(self.k22)
        )


def infinitesimal_generator(inv: QuadraticInvariant, z: np.ndarray) -> np.ndarray:
    """Symmetry direction ``J k z = (k12^T q + k22 p, -k11 q - k12 p)``."""
    q, p = halves(z, inv.dim)
    return join(inv.k12.T @ q + inv.k22 @ p, -(inv.k11 @ q) - inv.k12 @ p)


def poisson_bracket(grad_f, grad_g, z: np.ndarray) -> float:
    """Canonical bracket ``DF^T J DG`` at ``z`` from two gradient callables."""
    z, d = read_point(z, 2)
    fq, fp = halves(grad_f(z), d)
    gq, gp = halves(grad_g(z), d)
    return float(fq @ gp - fp @ gq)


def extended_hamiltonian_gradient(system: HamiltonianSystem, zeta: np.ndarray) -> np.ndarray:
    """Gradient of ``H(q, y) + H(x, p)`` with respect to ``(q, x, p, y)``."""
    q, x, p, y = blocks(zeta, system.dim)
    g1q, g1p = system.grad(q, y)
    g2q, g2p = system.grad(x, p)
    return join(g1q, g2q, g2p, g1p)


def coupling_energy_gradient(omega: float, zeta: np.ndarray) -> np.ndarray:
    """Gradient of the copy-coupling energy ``(omega/2)(|x-q|^2 + |y-p|^2)``."""
    q, x, p, y = blocks(zeta)
    u = x - q
    v = y - p
    return omega * join(-u, u, -v, v)


def coupling_bracket(inv: QuadraticInvariant, zeta: np.ndarray, omega: float) -> float:
    """Closed form of the bracket of the lifted quadratic with the coupling
    energy: ``(omega/2) * (v^T k12 v - u^T k12 u + u^T (k22 - k11) v)`` with
    ``u = x - q`` and ``v = y - p``.

    It vanishes for every state exactly when ``k12`` is antisymmetric and
    ``k22 == k11``, which is the precise condition for the copy-coupling
    rotation to conserve the lifted quadratic.
    """
    q, x, p, y = blocks(zeta, inv.dim)
    u, v, omega = x - q, y - p, scalar(omega, "omega")
    return float(
        0.5 * omega * (v @ (inv.k12 @ v) - u @ (inv.k12 @ u) + u @ ((inv.k22 - inv.k11) @ v))
    )


def coupling_preserves_quadratic(inv: QuadraticInvariant, tol: float = 1e-12) -> bool:
    """True iff the copy-coupling rotation conserves the lifted quadratic."""
    tol = scalar(tol, "tol")
    return bool(
        np.max(np.abs(inv.k12 + inv.k12.T), initial=0.0) <= tol
        and np.max(np.abs(inv.k22 - inv.k11), initial=0.0) <= tol
    )


def tao_compatibility(inv: QuadraticInvariant, tol: float = 1e-12) -> bool:
    """Block-sign predicate: ``k12`` antisymmetric and ``k22 == -k11``.

    This is the condition under which the conventional matrix form
    ``dz^T [[k12, -k11], [-k22, k12]] dz`` (``dz = (x - q, y - p)``)
    vanishes for every state.  It does not predict conservation under the
    copy-coupling rotation: the lifted :func:`nls_mass` is conserved by
    :func:`coupling_flow`, yet this predicate returns False for it.  The
    condition for conservation is tested by
    :func:`coupling_preserves_quadratic` (``k22 == +k11``).
    """
    tol = scalar(tol, "tol")
    return bool(
        np.max(np.abs(inv.k12 + inv.k12.T), initial=0.0) <= tol
        and np.max(np.abs(inv.k22 + inv.k11), initial=0.0) <= tol
    )


def symplecticity_defect(map_fn, point: np.ndarray) -> float:
    """Max-norm of ``J^T W J - W`` for the central-difference Jacobian of a
    map, taken with the step ``eps^(1/3) max(1, |point|_inf)``.

    ``W`` is the canonical structure matrix of the point's space: for a
    vector of length ``2m`` the positions are the first ``m`` entries.  For
    doubled-space points (length ``4d``) this is exactly the doubled
    structure matrix.
    """
    point, m = read_point(point, 2)
    n = point.size
    step = float(np.finfo(float).eps ** (1.0 / 3.0) * max(1.0, np.max(np.abs(point))))
    jac = _central_differences(map_fn, point, step).T
    w = np.zeros((n, n))
    w[:m, m:] = np.eye(m)
    w[m:, :m] = -np.eye(m)
    return float(np.max(np.abs(jac.T @ w @ jac - w)))


def _relative_drift(values) -> np.ndarray:
    """The drift rule ``|v - v_0| / max(|v_0|, DRIFT_FLOOR)`` along a series of values."""
    values = np.array(values)
    with np.errstate(over="ignore", invalid="ignore"):
        return np.abs(values - values[0]) / max(abs(values[0]), DRIFT_FLOOR)


def drift_series(states, invariants) -> dict:
    """Relative drift of each invariant along a recorded trajectory.

    ``states`` is a sequence of flat points of one length; ``invariants`` is a
    sequence of ``(name, invariant)`` pairs, each a :class:`LinearInvariant`
    or :class:`QuadraticInvariant`, evaluated once on the states' canonical
    rows as a run's record is; any other evaluator raises
    :class:`ConfigError`.  Drift follows a run's rule: a zero initial value
    degrades to absolute error, a blown-up state reads inf or nan.  States
    that are not flat points of one length, or that an invariant cannot
    read, raise :class:`DimensionMismatch`.
    """
    zs = floats(states)
    if zs.shape[:1] == (0,):
        raise ConfigError("trajectory must contain at least one state")
    if zs.ndim != 2:
        raise DimensionMismatch(f"states must be flat points of one length, got shape {zs.shape}")
    drifts = {}
    with np.errstate(over="ignore", invalid="ignore"):
        for name, inv in invariants:
            if not isinstance(inv, (LinearInvariant, QuadraticInvariant)):
                raise ConfigError(f"invariant {name!r} is no invariant object: {inv!r}")
            values = inv.evaluate(zs.reshape(len(zs), 2, block_length(zs[0], 2)))
            drifts[name] = _relative_drift(values)
    return drifts


# ---------------------------------------------------------------------------
# Named invariants of the built-in systems, keyed for CLI selection.


def nls_mass(d: int) -> QuadraticInvariant:
    """Total mass ``sum_i (q_i^2 + p_i^2)`` of the quartic lattice of ``d`` sites."""
    eye = 2.0 * np.eye(_lattice_size(d))
    return QuadraticInvariant(eye, np.zeros((d, d)), eye)


def testcase_L() -> LinearInvariant:
    """Conserved linear function ``(2 q1 - 3 p1) / 10`` of the test system."""
    return LinearInvariant(np.array([0.2, 0.0, -0.3, 0.0]))


def testcase_Q() -> QuadraticInvariant:
    """Conserved quadratic ``(q2^2 + 2 p2^2) / 4`` of the test system."""
    return QuadraticInvariant(np.diag([0.0, 0.5]), np.zeros((2, 2)), np.diag([0.0, 1.0]))


def vortex_linear_impulse_x(circulations) -> LinearInvariant:
    """First linear impulse component ``sum_i G_i X_i`` in canonical form."""
    g = floats(circulations)
    return LinearInvariant(join(_canonical_scaling(g)[1], np.zeros(g.size)))


def vortex_linear_impulse_y(circulations) -> LinearInvariant:
    """Second linear impulse component ``sum_i G_i Y_i`` in canonical form."""
    g = floats(circulations)
    return LinearInvariant(join(np.zeros(g.size), _canonical_scaling(g)[0]))


def vortex_angular_impulse(circulations) -> QuadraticInvariant:
    """Angular impulse ``sum_i G_i |X_i|^2 = sum_i sgn(G_i)(q_i^2 + p_i^2)``."""
    g = floats(circulations)
    sigma = 2.0 * np.diag(np.sign(g))
    return QuadraticInvariant(sigma, np.zeros((g.size, g.size)), sigma)
