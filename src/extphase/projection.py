"""Symmetric projection of a doubled-space step back onto the diagonal.

One projected step from ``z_n``: embed to ``zeta_n = (q, q, p, p)``, find a
multiplier ``mu`` such that shifting by ``A^T mu`` before *and* after the
inner doubled-space step lands back on the diagonal, then read off the
``(q, p)`` block.  Eliminating the end state, ``mu`` solves

    f(mu) = A Phi(zeta_n + A^T mu) + 2 mu = 0,

a dense nonlinear system of size ``2d`` solved here by a simplified Newton
iteration with the constant Jacobian approximation ``Df ~= 4 I`` (one
inner-step evaluation per iteration).  It iterates on the shift ``A^T mu``
and the residual ``A^T f``, whose first copies are ``mu`` and ``f``, both
held as the ``(4, d)`` rows of a doubled point.

The projected step is symmetric, symplectic on the original phase space,
and preserves every linear and quadratic first integral of the underlying
system up to the solve tolerance.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .core import apply_AT, block_length, embed, read_point, restrict_copies, scalar
from .errors import ConfigError, NonConvergence, _check_fields
from .hamiltonians import HamiltonianSystem
from .splitting import ExtendedStep

__all__ = ["SolverConfig", "StepStats", "semiexplicit_step", "solve_mu"]

# Abort when the residual grows by this factor over its initial value.
DIVERGENCE_FACTOR = 1e4

# A residual no longer falling within this fraction of max(1, |out|) is round-off.
ROUND_OFF = 1e3 * np.finfo(float).eps

# Room in the final diagonal check for the shift's rounding, about one ulp of
# |zeta_next|, which a tol near 1e-16 lacks.
SHIFT_ROUNDING = 4.0 * np.finfo(float).eps

# Newton's step with the Jacobian 4I; 0-d, which a ufunc takes faster than a float.
QUARTER = np.array(0.25)

# The rows (x, q, y, p) of a doubled point's rows (q, x, p, y): its copies swapped.
SWAP = np.array([1, 0, 3, 2])


@dataclass(frozen=True)
class SolverConfig:
    """Tolerance and iteration policy for the inner nonlinear solves."""

    tol: float = 1e-12
    max_iter: int = 100

    def __post_init__(self):
        _check_fields(self)
        if not (math.isfinite(self.tol) and self.tol >= 1e-16):
            raise ConfigError("tol must be finite and no smaller than 1e-16")
        if self.max_iter < 1:
            raise ConfigError("max_iter must be at least 1")


@dataclass
class StepStats:
    """Telemetry of one step.

    ``iterations`` counts residual evaluations (projection) or fixed-point
    sweeps (stage solves), and is 0 for an explicit step.  Each of them
    costs the same number of gradient evaluations, so a step's cost is
    ``iterations`` times that per-pass cost (one pass for an explicit
    step); the harness meters it with its own counter.  A projection solve
    also sets ``mu``, its accepted multiplier, and ``shift``, ``A^T mu`` as
    the ``(4, d)`` rows of a doubled point, which the projected step's finish reads.
    """

    iterations: int
    final_residual: float
    defect_norm: float = 0.0
    mu: np.ndarray | None = field(default=None, init=False, repr=False)
    shift: np.ndarray | None = field(default=None, init=False, repr=False, compare=False)


def iterate(evaluate, advance, x0, cfg: SolverConfig, subject: str, measure: str):
    """The one solve loop: evaluate, test, advance, until the residual is small.

    ``evaluate(x)`` returns ``(r, norm, out)``: the residual at ``x``, its
    sup norm ``max|r|`` as a float, and what the caller keeps from that
    pass; ``advance(x, r, out)`` returns the next iterate.  Iterates are
    rebound, never written in place, so the one with the smallest residual
    is kept without a copy.  Returns ``(x, out, stats)`` at the first pass
    with ``norm <= cfg.tol``, or the first at round-off: a norm no smaller
    than the previous one and at most ``ROUND_OFF * max(1, max|out|)``.

    Raises :class:`NonConvergence`, carrying the smallest-residual iterate
    and its residual, when the residual is no longer finite (a math range
    or domain error counts as such), grows by ``DIVERGENCE_FACTOR`` over its
    first value, or the solve reaches ``cfg.max_iter`` passes.
    ``subject`` and ``measure`` name the solve and its residual in the
    message.  Overflow and invalid operations are silent for the whole
    solve: a residual that is no longer finite ends it as above.
    """
    x, best, best_norm, first, last, passes = x0, x0, math.inf, None, math.inf, 0

    def failure(message):
        return NonConvergence(message, best=best, final_residual=best_norm, iterations=passes)

    with np.errstate(over="ignore", invalid="ignore"):
        while True:
            try:
                r, norm, out = evaluate(x)
            except (ArithmeticError, ValueError):  # math's range and domain errors
                norm = math.inf
            passes += 1
            if not math.isfinite(norm):
                raise failure(f"{subject} {measure} is no longer finite; reduce the step size")
            if norm < best_norm:
                best, best_norm = x, norm
            if first is None:
                first = max(norm, 1e-300)
            if norm <= cfg.tol or (norm >= last and norm <= ROUND_OFF * max(
                    1.0, float(np.maximum.reduce(np.abs(out), axis=None)))):
                return x, out, StepStats(passes, norm)
            if norm > DIVERGENCE_FACTOR * first:
                raise failure(f"{subject} solve diverged: {measure} {norm:.3e} from {first:.3e}")
            if passes >= cfg.max_iter:
                raise failure(
                    f"{subject} solve stalled at {measure} {norm:.3e} after "
                    f"{passes} iterations (tol {cfg.tol:.1e})"
                )
            x, last = advance(x, r, out), norm


@functools.cache
def cold_start(d: int) -> np.ndarray:
    """``A^T 0`` as the solve's ``(4, d)`` rows, signs and all: the start of
    every cold solve of size ``d``, one read-only array shared by them all."""
    start = np.zeros((4, d))
    start[1::2] = -0.0  # the second copy is -mu
    start.flags.writeable = False
    return start


def solve_mu(
    system: HamiltonianSystem,
    extended_step: ExtendedStep,
    dt: float,
    zeta_n: np.ndarray,
    cfg: SolverConfig,
    mu0: np.ndarray | None = None,
):
    """Solve ``f(mu) = A Phi(zeta_n + A^T mu) + 2 mu = 0`` for the projection
    multiplier, one inner-step evaluation per iteration.

    Returns ``(mu, image, stats)`` where ``image = Phi(zeta_n + A^T mu)`` is
    the inner-step output already computed at the accepted ``mu`` (so the
    caller never pays an extra step evaluation) and ``stats`` carries the
    iteration/cost accounting and the accepted shift ``A^T mu`` (read-only
    when it is the shared :func:`cold_start`).  Failures raise as
    :func:`iterate` says.

    Every pass writes its shifted point ``zeta_n + A^T mu`` into one buffer
    of the solve and hands it to the inner step, which may write into it and
    return it or return a fresh array, but must not keep it across calls.
    An image of another length than ``zeta_n`` raises
    :class:`DimensionMismatch`.  Every multiplier and residual is fresh.
    """
    dt = scalar(dt, "dt")
    zeta_n, d = read_point(zeta_n, 4)  # the layout check, once per solve
    shape = (4, d)  # A^T mu as the rows (mu1, -mu1, mu2, -mu2), and A^T r alike
    if mu0 is None:
        start = cold_start(d)
    else:
        mu, _ = read_point(mu0, 2, d)  # a warm start is (mu1, mu2), one entry per constraint
        start = apply_AT(mu).reshape(shape)
    point = np.empty(4 * d)
    rows, zeta = point.reshape(shape), zeta_n.reshape(shape)

    def evaluate(shift):
        np.add(zeta, shift, out=rows)  # zeta_n + A^T mu
        image = extended_step(system, dt, point)
        block_length(image, 4, d)  # another length raises
        four = image.reshape(shape)
        r = four - four.take(SWAP, axis=0)  # A^T A image, fresh on every pass
        r += shift + shift  # A^T 2 mu bit for bit, with no float operand
        # r holds each entry's negation too, as rounding is sign-symmetric, so
        # max(r) is max|r|; abs makes an all-zero residual's norm +0.0
        return r, abs(float(np.maximum.reduce(r, axis=None))), image

    try:  # Newton's step, the shift less r/4
        shift, image, stats = iterate(evaluate, lambda s, r, _image: s - QUARTER * r, start,
                                      cfg, "projection", "residual")
    except NonConvergence as failure:  # its best iterate is a shift: hand back its mu
        failure.best = failure.best[::2].flatten()
        raise
    stats.mu, stats.shift = shift[::2].flatten(), shift
    return stats.mu, image, stats


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
    4th- and 6th-order palindromic compositions, under :func:`solve_mu`'s
    contract.  ``mu0`` warm-starts the solve (the accepted multiplier is
    returned in ``stats.mu``); the default cold start is the reproducible
    configuration.  Returns ``(z_next, stats)``, both fresh.
    """
    zeta_n = embed(z_n)  # the layout check, once per step
    _, image, stats = solve_mu(system, extended_step, dt, zeta_n, cfg, mu0=mu0)
    bound = max(cfg.tol, stats.final_residual) + SHIFT_ROUNDING  # a round-off stop is above tol
    z_next, stats.defect_norm = restrict_copies(image, bound, stats.shift)
    return z_next, stats
