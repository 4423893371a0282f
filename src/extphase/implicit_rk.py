"""Gauss-Legendre collocation steps on the original phase space.

The 1-, 2-, and 3-stage Gauss methods (orders 2, 4, 6) are the symmetric,
symplectic Runge-Kutta baselines.  Stage derivatives are solved by plain
fixed-point sweeps starting from zero, which converges for step sizes small
enough that ``dt * L < 1`` with ``L`` a Lipschitz bound of the vector
field.  Each sweep evaluates all its stage points as canonical rows in one
:meth:`~extphase.hamiltonians.HamiltonianSystem.fields` call, which costs
one gradient evaluation per stage.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import floats, read_point
from .errors import ConfigError
from .hamiltonians import HamiltonianSystem
from .projection import SolverConfig, iterate

__all__ = ["ButcherTableau", "gl_step", "gl_tableau"]


@dataclass(frozen=True)
class ButcherTableau:
    """Stage matrix, weights, and nodes of a Runge-Kutta method."""

    a: np.ndarray
    b: np.ndarray
    c: np.ndarray

    def __post_init__(self):
        a, b, c = floats(self.a), floats(self.b), floats(self.c)
        s = b.size
        if a.shape != (s, s) or c.shape != (s,):
            raise ConfigError("tableau blocks have inconsistent shapes")
        if not all(np.isfinite(blk).all() for blk in (a, b, c)):
            raise ConfigError("tableau entries must be finite")
        if abs(b.sum() - 1.0) > 1e-15:
            raise ConfigError("weights must sum to 1")
        # b_i a_ij + b_j a_ji - b_i b_j = 0 characterises symplectic RK methods
        m = b[:, None] * a + (b[:, None] * a).T - np.outer(b, b)
        if np.max(np.abs(m)) > 1e-14:
            raise ConfigError("tableau violates the symplecticity condition")
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "c", c)

    @property
    def stages(self) -> int:
        return self.b.size


def gl_tableau(order: int) -> ButcherTableau:
    """Gauss collocation data for order 2, 4, or 6 (1, 2, or 3 stages)."""
    if order == 2:
        return ButcherTableau(a=[[0.5]], b=[1.0], c=[0.5])
    if order == 4:
        r = np.sqrt(3.0) / 6.0
        return ButcherTableau(
            a=[[0.25, 0.25 - r], [0.25 + r, 0.25]],
            b=[0.5, 0.5],
            c=[0.5 - r, 0.5 + r],
        )
    if order == 6:
        r = np.sqrt(15.0)
        return ButcherTableau(
            a=[
                [5.0 / 36.0, 2.0 / 9.0 - r / 15.0, 5.0 / 36.0 - r / 30.0],
                [5.0 / 36.0 + r / 24.0, 2.0 / 9.0, 5.0 / 36.0 - r / 24.0],
                [5.0 / 36.0 + r / 30.0, 2.0 / 9.0 + r / 15.0, 5.0 / 36.0],
            ],
            b=[5.0 / 18.0, 4.0 / 9.0, 5.0 / 18.0],
            c=[0.5 - r / 10.0, 0.5, 0.5 + r / 10.0],
        )
    raise ConfigError(f"Gauss-Legendre order must be 2, 4, or 6, got {order}")


def gl_step(
    system: HamiltonianSystem,
    dt: float,
    z: np.ndarray,
    tableau: ButcherTableau,
    cfg: SolverConfig,
):
    """One Gauss-Legendre step solved by fixed-point sweeps.

    Sweeps update all stage derivatives ``k_i <- F(z + dt * sum_j a_ij k_j)``
    from the previous sweep's values, starting at ``k_i = 0``, until the
    max-norm change falls to ``cfg.tol``; the projection's loop
    (:func:`extphase.projection.iterate`) runs them.  A sweep evaluates its
    ``stages`` points in one ``fields`` call on their ``(stages, 2, d)``
    rows, charged one gradient evaluation per point.  Returns
    ``(z_next, stats)`` with ``stats.iterations`` the sweep count; the step
    costs ``stages * sweeps`` gradient evaluations.
    """
    z, _ = read_point(z, 2, system.dim)  # the layout check, once per step
    shape = (tableau.stages, 2, system.dim)  # the stage points' canonical rows
    h = np.array(dt, dtype=float)  # 0-d: a ufunc takes it faster than a float, at the same bits

    def sweep(k):
        k_next = system.fields((z + h * (tableau.a @ k)).reshape(shape)).reshape(k.shape)
        change = k_next - k
        return change, float(np.maximum.reduce(np.abs(change), axis=None)), k_next

    k0 = np.zeros((tableau.stages, z.size))
    _, k, stats = iterate(sweep, lambda _k, _change, k_next: k_next, k0, cfg,
                          "fixed-point stage", "change")
    return z + h * (tableau.b @ k), stats
