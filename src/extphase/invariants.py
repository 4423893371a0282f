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
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import blocks, embed
from .errors import DimensionMismatch
from .hamiltonians import HamiltonianSystem

__all__ = [
    "LinearInvariant", "QuadraticInvariant", "coupling_bracket", "coupling_preserves_quadratic",
    "drift_series", "extended_hamiltonian_gradient", "infinitesimal_generator", "nls_mass",
    "poisson_bracket", "symplecticity_defect", "tao_compatibility", "testcase_L", "testcase_Q",
    "vortex_angular_impulse", "vortex_linear_impulse_x", "vortex_linear_impulse_y",
]

DRIFT_FLOOR = 1e-300


@dataclass(frozen=True)
class LinearInvariant:
    """Coefficients of a conserved linear function ``a^T z``."""

    a: np.ndarray

    def __post_init__(self):
        a = np.asarray(self.a, dtype=float)
        if a.ndim != 1 or a.size % 2 or a.size == 0:
            raise DimensionMismatch("coefficient vector must have even positive length")
        if not np.isfinite(a).all():
            raise ValueError("coefficients must be finite")
        object.__setattr__(self, "a", a)

    @property
    def dim(self) -> int:
        return self.a.size // 2

    @property
    def a_q(self) -> np.ndarray:
        return self.a[: self.dim]

    @property
    def a_p(self) -> np.ndarray:
        return self.a[self.dim :]

    def evaluate(self, z: np.ndarray) -> float:
        z = np.asarray(z, dtype=float)
        if z.shape != self.a.shape:
            raise DimensionMismatch(f"state must have shape {self.a.shape}, got {z.shape}")
        return float(self.a @ z)

    def gradient(self, z: np.ndarray) -> np.ndarray:
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
        k11 = np.atleast_2d(np.asarray(self.k11, dtype=float))
        k12 = np.atleast_2d(np.asarray(self.k12, dtype=float))
        k22 = np.atleast_2d(np.asarray(self.k22, dtype=float))
        d = k11.shape[0]
        for name, blk in (("k11", k11), ("k12", k12), ("k22", k22)):
            if blk.shape != (d, d):
                raise DimensionMismatch(f"{name} must be {d}x{d}, got {blk.shape}")
        for name, blk in (("k11", k11), ("k22", k22)):
            if np.max(np.abs(blk - blk.T), initial=0.0) > 1e-14:
                raise ValueError(f"{name} must be symmetric")
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

    def evaluate(self, z: np.ndarray) -> float:
        z = np.asarray(z, dtype=float)
        d = self._split(z)
        q, p = z[:d], z[d:]
        return float(
            0.5 * (q @ (self.k11 @ q)) + q @ (self.k12 @ p) + 0.5 * (p @ (self.k22 @ p))
        )

    def gradient(self, z: np.ndarray) -> np.ndarray:
        d = self._split(z)
        q, p = z[:d], z[d:]
        return np.concatenate((self.k11 @ q + self.k12 @ p, self.k12.T @ q + self.k22 @ p))

    def _split(self, z: np.ndarray) -> int:
        d = self.dim
        if z.shape != (2 * d,):
            raise DimensionMismatch(f"state must have shape ({2 * d},), got {z.shape}")
        return d

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
    z = np.asarray(z, dtype=float)
    d = inv._split(z)
    q, p = z[:d], z[d:]
    return np.concatenate((inv.k12.T @ q + inv.k22 @ p, -(inv.k11 @ q) - inv.k12 @ p))


def poisson_bracket(grad_f, grad_g, z: np.ndarray) -> float:
    """Canonical bracket ``DF^T J DG`` from two gradient callables."""
    gf = np.asarray(grad_f(z), dtype=float)
    gg = np.asarray(grad_g(z), dtype=float)
    if gf.shape != gg.shape or gf.size % 2:
        raise DimensionMismatch("gradients must have equal even length")
    d = gf.size // 2
    return float(gf[:d] @ gg[d:] - gf[d:] @ gg[:d])


def extended_hamiltonian_gradient(system: HamiltonianSystem, zeta: np.ndarray) -> np.ndarray:
    """Gradient of ``H(q, y) + H(x, p)`` with respect to ``(q, x, p, y)``."""
    q, x, p, y = blocks(np.asarray(zeta, dtype=float), system.dim)
    g1q, g1p = system.grad(q, y)
    g2q, g2p = system.grad(x, p)
    return np.concatenate((g1q, g2q, g2p, g1p))


def coupling_energy_gradient(omega: float, zeta: np.ndarray) -> np.ndarray:
    """Gradient of the copy-coupling energy ``(omega/2)(|x-q|^2 + |y-p|^2)``."""
    q, x, p, y = blocks(np.asarray(zeta, dtype=float))
    u = x - q
    v = y - p
    return omega * np.concatenate((-u, u, -v, v))


def coupling_bracket(inv: QuadraticInvariant, zeta: np.ndarray, omega: float) -> float:
    """Closed form of the bracket of the lifted quadratic with the coupling
    energy: ``(omega/2) * (v^T k12 v - u^T k12 u + u^T (k22 - k11) v)`` with
    ``u = x - q`` and ``v = y - p``.

    It vanishes for every state exactly when ``k12`` is antisymmetric and
    ``k22 == k11``, which is the precise condition for the copy-coupling
    rotation to conserve the lifted quadratic.
    """
    q, x, p, y = blocks(np.asarray(zeta, dtype=float), inv.dim)
    u = x - q
    v = y - p
    return float(
        0.5 * omega * (v @ (inv.k12 @ v) - u @ (inv.k12 @ u) + u @ ((inv.k22 - inv.k11) @ v))
    )


def coupling_preserves_quadratic(inv: QuadraticInvariant, tol: float = 1e-12) -> bool:
    """True iff the copy-coupling rotation conserves the lifted quadratic."""
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
    return bool(
        np.max(np.abs(inv.k12 + inv.k12.T), initial=0.0) <= tol
        and np.max(np.abs(inv.k22 + inv.k11), initial=0.0) <= tol
    )


def symplecticity_defect(map_fn, point: np.ndarray, fd_step: float | None = None) -> float:
    """Max-norm of ``J^T W J - W`` for the finite-difference Jacobian of a map.

    ``W`` is the canonical structure matrix of the point's space: for a
    vector of length ``2m`` the positions are the first ``m`` entries.  For
    doubled-space points (length ``4d``) this is exactly the doubled
    structure matrix.
    """
    point = np.asarray(point, dtype=float)
    n = point.size
    if n % 2:
        raise DimensionMismatch("point must live in an even-dimensional space")
    if fd_step is None:
        fd_step = float(np.finfo(float).eps ** (1.0 / 3.0) * max(1.0, np.max(np.abs(point))))
    jac = np.empty((n, n))
    for j in range(n):
        zp = point.copy()
        zm = point.copy()
        zp[j] += fd_step
        zm[j] -= fd_step
        jac[:, j] = (np.asarray(map_fn(zp)) - np.asarray(map_fn(zm))) / (2.0 * fd_step)
    m = n // 2
    w = np.zeros((n, n))
    w[:m, m:] = np.eye(m)
    w[m:, :m] = -np.eye(m)
    return float(np.max(np.abs(jac.T @ w @ jac - w)))


def drift_series(states, invariants) -> dict:
    """Relative drift of each invariant along a recorded trajectory.

    ``states`` is a sequence of original-space vectors; ``invariants`` is a
    sequence of ``(name, evaluator)`` pairs where the evaluator is either an
    invariant object or a plain callable.  Drift is relative to the initial
    value, with a tiny floor so exactly-zero initial values degrade to
    absolute error instead of dividing by zero.
    """
    states = [np.asarray(z, dtype=float) for z in states]
    if not states:
        raise ValueError("trajectory must contain at least one state")
    out = {}
    for name, inv in invariants:
        fn = inv.evaluate if hasattr(inv, "evaluate") else inv
        values = np.array([fn(z) for z in states])
        scale = max(abs(values[0]), DRIFT_FLOOR)
        out[name] = np.abs(values - values[0]) / scale
    return out


# ---------------------------------------------------------------------------
# Named invariants of the built-in systems, keyed for CLI selection.


def nls_mass(d: int) -> QuadraticInvariant:
    """Total mass ``sum_i (q_i^2 + p_i^2)`` of the quartic lattice."""
    eye = 2.0 * np.eye(d)
    return QuadraticInvariant(eye, np.zeros((d, d)), eye)


def testcase_L() -> LinearInvariant:
    """Conserved linear function ``(2 q1 - 3 p1) / 10`` of the test system."""
    return LinearInvariant(np.array([0.2, 0.0, -0.3, 0.0]))


def testcase_Q() -> QuadraticInvariant:
    """Conserved quadratic ``(q2^2 + 2 p2^2) / 4`` of the test system."""
    return QuadraticInvariant(np.diag([0.0, 0.5]), np.zeros((2, 2)), np.diag([0.0, 1.0]))


def vortex_linear_impulse_x(circulations) -> LinearInvariant:
    """First linear impulse component ``sum_i G_i X_i`` in canonical form."""
    g = np.asarray(circulations, dtype=float)
    return LinearInvariant(np.concatenate((np.sqrt(np.abs(g)) * np.sign(g), np.zeros(g.size))))


def vortex_linear_impulse_y(circulations) -> LinearInvariant:
    """Second linear impulse component ``sum_i G_i Y_i`` in canonical form."""
    g = np.asarray(circulations, dtype=float)
    return LinearInvariant(np.concatenate((np.zeros(g.size), np.sqrt(np.abs(g)))))


def vortex_angular_impulse(circulations) -> QuadraticInvariant:
    """Angular impulse ``sum_i G_i |X_i|^2 = sum_i sgn(G_i)(q_i^2 + p_i^2)``."""
    g = np.asarray(circulations, dtype=float)
    sigma = 2.0 * np.diag(np.sign(g))
    return QuadraticInvariant(sigma, np.zeros((g.size, g.size)), sigma)
