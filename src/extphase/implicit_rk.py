"""Gauss-Legendre collocation steps on the original phase space.

The 1-, 2-, and 3-stage Gauss methods (orders 2, 4, 6) are the symmetric,
symplectic Runge-Kutta baselines.  Stage derivatives are solved by plain
fixed-point sweeps starting from zero, which converges for step sizes small
enough that ``dt * L < 1`` with ``L`` a Lipschitz bound of the vector
field; each sweep costs one gradient evaluation per stage.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NonConvergence, UnsupportedOrder
from .hamiltonians import HamiltonianSystem
from .projection import SolverConfig, StepStats

__all__ = ["ButcherTableau", "gl_step", "gl_tableau"]


@dataclass(frozen=True)
class ButcherTableau:
    """Stage matrix, weights, and nodes of a Runge-Kutta method."""

    a: np.ndarray
    b: np.ndarray
    c: np.ndarray

    def __post_init__(self):
        a = np.asarray(self.a, dtype=float)
        b = np.asarray(self.b, dtype=float)
        c = np.asarray(self.c, dtype=float)
        s = b.size
        if a.shape != (s, s) or c.shape != (s,):
            raise ValueError("tableau blocks have inconsistent shapes")
        if abs(b.sum() - 1.0) > 1e-15:
            raise ValueError("weights must sum to 1")
        # b_i a_ij + b_j a_ji - b_i b_j = 0 characterises symplectic RK methods
        m = b[:, None] * a + (b[:, None] * a).T - np.outer(b, b)
        if np.max(np.abs(m)) > 1e-14:
            raise ValueError("tableau violates the symplecticity condition")
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
    raise UnsupportedOrder(f"Gauss-Legendre order must be 2, 4, or 6, got {order}")


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
    max-norm change falls to ``cfg.tol``.  Returns ``(z_next, stats)`` with
    ``stats.iterations`` the sweep count; the step costs ``stages * sweeps``
    gradient evaluations.
    """
    z = np.asarray(z, dtype=float)
    s = tableau.stages
    k = np.zeros((s, z.size))
    k_next = np.empty_like(k)
    sweeps = 0
    while True:
        try:
            with np.errstate(over="ignore", invalid="ignore"):
                offsets = dt * (tableau.a @ k)
                for i in range(s):
                    k_next[i] = system.vector_field(z + offsets[i])
                change = float(np.max(np.abs(k_next - k)))
        except OverflowError:
            change = np.inf
        sweeps += 1
        k, k_next = k_next, k  # buffer swap; k_next is fully rewritten next sweep
        if not np.isfinite(change):
            raise NonConvergence(
                "fixed-point stage values are no longer finite; reduce the step size",
                best=k,
                final_residual=change,
                iterations=sweeps,
            )
        if change <= cfg.tol:
            break
        if sweeps >= cfg.max_iter:
            raise NonConvergence(
                f"fixed-point stage solve stalled at change {change:.3e} after "
                f"{sweeps} sweeps (tol {cfg.tol:.1e}); reduce the step size",
                best=k,
                final_residual=change,
                iterations=sweeps,
            )
    z_next = z + dt * (tableau.b @ k)
    stats = StepStats(sweeps, change)
    return z_next, stats
