"""Symmetric projection of a doubled-space step back onto the diagonal.

One projected step from ``z_n``: embed to ``zeta_n = (q, q, p, p)``, find a
multiplier ``mu`` such that shifting by ``A^T mu`` before *and* after the
inner doubled-space step lands back on the diagonal, then read off the
``(q, p)`` block.  Eliminating the end state, ``mu`` solves

    f(mu) = A Phi(zeta_n + A^T mu) + 2 mu = 0,

a dense nonlinear system of size ``2d`` solved here either by a simplified
Newton iteration with the constant Jacobian approximation ``Df ~= 4 I``
(one inner-step evaluation per iteration) or by Broyden's rank-one update
of the inverse Jacobian seeded with ``I/4``.

The projected step is symmetric, symplectic on the original phase space,
and preserves every linear and quadratic first integral of the underlying
system up to the solve tolerance.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .core import apply_A, apply_AT, defect_norm, embed, restrict
from .errors import ConfigError, NonConvergence
from .hamiltonians import HamiltonianSystem
from .splitting import ExtendedStep

__all__ = ["SolverConfig", "StepStats", "residual", "semiexplicit_step", "solve_mu"]

SOLVER_METHODS = ("simplified_newton", "broyden")

# Abort when the residual grows by this factor over its initial value.
DIVERGENCE_FACTOR = 1e4


@dataclass(frozen=True)
class SolverConfig:
    """Tolerance and iteration policy for the inner nonlinear solves."""

    tol: float = 1e-12
    max_iter: int = 50
    method: str = "simplified_newton"
    warm_start: bool = False

    def __post_init__(self):
        if not (self.tol > 0.0 and self.tol >= 1e-16):
            raise ConfigError("tol must be positive and no smaller than 1e-16")
        if self.max_iter < 1:
            raise ConfigError("max_iter must be at least 1")
        if self.method not in SOLVER_METHODS:
            raise ConfigError(f"solver must be one of {SOLVER_METHODS}")


@dataclass
class StepStats:
    """Telemetry of one step.

    ``iterations`` counts residual evaluations (projection) or fixed-point
    sweeps (stage solves), and is 0 for an explicit step.  Each of them
    costs the same number of gradient evaluations, so a step's cost is
    ``iterations`` times that per-pass cost (one pass for an explicit
    step); the harness meters it with its own counter.
    """

    iterations: int
    final_residual: float
    mu: np.ndarray | None = field(default=None, repr=False)
    defect_norm: float = 0.0


def residual(
    system: HamiltonianSystem,
    extended_step: ExtendedStep,
    dt: float,
    zeta_n: np.ndarray,
    mu: np.ndarray,
):
    """Projection residual ``A Phi(zeta_n + A^T mu) + 2 mu``.

    Returns ``(r, image)`` with ``image = Phi(zeta_n + A^T mu)``, the
    inner-step output; exactly one inner-step evaluation.
    """
    image = extended_step(system, dt, zeta_n + apply_AT(mu))
    return apply_A(image) + 2.0 * mu, image


def solve_mu(
    system: HamiltonianSystem,
    extended_step: ExtendedStep,
    dt: float,
    zeta_n: np.ndarray,
    cfg: SolverConfig,
    mu0: np.ndarray | None = None,
):
    """Solve ``f(mu) = 0`` for the projection multiplier.

    Returns ``(mu, image, stats)`` where ``image = Phi(zeta_n + A^T mu)`` is
    the inner-step output already computed at the accepted ``mu`` (so the
    caller never pays an extra step evaluation) and ``stats`` carries the
    iteration/cost accounting.

    Raises :class:`NonConvergence` when the iteration cap is hit or the
    residual grows by more than ``1e4`` over its initial size.
    """
    d2 = zeta_n.size // 2
    mu = np.zeros(d2) if mu0 is None else np.array(mu0, dtype=float)

    inv_jac = None  # Broyden inverse-Jacobian state, allocated on first use
    prev_r = None
    prev_mu = None
    best_mu = mu
    best_norm = np.inf
    r0_norm = None
    iterations = 0

    def failure(message):
        return NonConvergence(
            message, best=best_mu, final_residual=best_norm, iterations=iterations
        )

    while True:
        try:
            with np.errstate(over="ignore", invalid="ignore"):
                r, image = residual(system, extended_step, dt, zeta_n, mu)
            r_norm = float(np.max(np.abs(r)))
        except OverflowError:
            r_norm = np.inf
        iterations += 1
        if not np.isfinite(r_norm):
            raise failure("projection residual is no longer finite; reduce the step size")
        if r_norm < best_norm:
            best_norm = r_norm
            best_mu = mu.copy()
        if r0_norm is None:
            r0_norm = max(r_norm, 1e-300)
        if r_norm <= cfg.tol:
            stats = StepStats(iterations, r_norm, mu=mu.copy())
            return mu, image, stats
        if r_norm > DIVERGENCE_FACTOR * r0_norm:
            raise failure(f"projection solve diverged: residual {r_norm:.3e} from {r0_norm:.3e}")
        if iterations >= cfg.max_iter:
            raise failure(
                f"projection solve stalled at residual {r_norm:.3e} after "
                f"{iterations} iterations (tol {cfg.tol:.1e})"
            )
        if cfg.method == "simplified_newton":
            mu = mu - 0.25 * r
        else:
            if inv_jac is None:
                inv_jac = np.eye(d2) / 4.0
            else:
                s = mu - prev_mu
                delta = r - prev_r
                hy = inv_jac @ delta
                denom = float(s @ hy)
                if denom != 0.0:
                    inv_jac += np.outer(s - hy, s @ inv_jac) / denom
            prev_mu = mu
            prev_r = r
            mu = mu - inv_jac @ r


def semiexplicit_step(
    system: HamiltonianSystem,
    extended_step: ExtendedStep,
    dt: float,
    z_n: np.ndarray,
    cfg: SolverConfig,
    mu0: np.ndarray | None = None,
):
    """One symmetrically projected step ``z_n -> z_{n+1}``.

    Any symmetric doubled-space step works as the inner map, including the
    4th- and 6th-order palindromic compositions.  ``mu0`` warm-starts the
    solve (the accepted multiplier is returned in ``stats.mu``); the default
    cold start is the reproducible configuration.

    Returns ``(z_next, stats)``.
    """
    zeta_n = embed(z_n)
    mu, image, stats = solve_mu(system, extended_step, dt, zeta_n, cfg, mu0=mu0)
    zeta_next = image + apply_AT(mu)
    stats.defect_norm = defect_norm(zeta_next)
    z_next = restrict(zeta_next, tol=cfg.tol)
    return z_next, stats
