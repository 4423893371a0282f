"""Built-in Hamiltonian systems with analytic gradients and eval counting.

Each system exposes ``energy(q, p)`` and the joint gradient pair
``grad(q, p) -> (D1H, D2H)``.  One ``grad`` call is the unit in which all
integrator costs are accounted (one "vector-field evaluation"); energy
evaluations are diagnostics and are never counted.
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, DimensionMismatch, VortexCollision

__all__ = [
    "CountingSystem", "EvalCounter", "HamiltonianSystem", "NlsLattice", "PointVortexSystem",
    "TestcaseSystem", "VortexConfig", "canonical_from_planar", "check_gradient", "make_nls",
    "make_testcase", "make_vortices", "planar_from_canonical",
]

# Planar separation below which the vortex log potential is considered singular.
COLLISION_GUARD = 1e-12


@dataclass
class EvalCounter:
    """Counts joint gradient evaluations for one integration run."""

    n_grad: int = 0

    def tick(self) -> None:
        self.n_grad += 1


class HamiltonianSystem(ABC):
    """A canonical Hamiltonian system on ``R^d x R^d`` with analytic gradients."""

    dim: int

    @abstractmethod
    def energy(self, q: np.ndarray, p: np.ndarray) -> float:
        """Value of the Hamiltonian; not counted as a vector-field evaluation."""

    @abstractmethod
    def grad(self, q: np.ndarray, p: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Joint gradient ``(D1H, D2H)``; one vector-field evaluation."""

    def energy_z(self, z: np.ndarray) -> float:
        d = self.dim
        return self.energy(z[:d], z[d:])

    def vector_field(self, z: np.ndarray) -> np.ndarray:
        """Canonical right-hand side ``(D2H, -D1H)`` at ``z = (q, p)``."""
        d = self.dim
        gq, gp = self.grad(z[:d], z[d:])
        out = np.empty(2 * d)
        out[:d] = gp
        out[d:] = -gq
        return out

    def with_counter(self, counter: EvalCounter) -> "CountingSystem":
        return CountingSystem(self, counter)


class CountingSystem(HamiltonianSystem):
    """Wrapper charging every joint gradient call to an :class:`EvalCounter`.

    Wrappers chain: stacking a second counter on an already-counting system
    charges both, so a caller can meter one part of a run while the run
    keeps its global tally.
    """

    def __init__(self, base: HamiltonianSystem, counter: EvalCounter):
        self.base = base
        self.counter = counter
        self.dim = base.dim

    def energy(self, q, p) -> float:
        return self.base.energy(q, p)

    def grad(self, q, p):
        self.counter.tick()
        return self.base.grad(q, p)


class TestcaseSystem(HamiltonianSystem):
    """Two-degree-of-freedom system ``H = exp(f(q1,p1)) * sin(g(q2,p2))``.

    ``f(x, y) = (2x - 3y)/10`` is a conserved linear function and
    ``g(x, y) = (x^2 + 2y^2)/4`` a conserved quadratic one, so trajectories
    are a line in the ``(q1, p1)`` plane and an ellipse in ``(q2, p2)``.
    """

    dim = 2

    def energy(self, q, p) -> float:
        return math.exp(0.2 * q[0] - 0.3 * p[0]) * math.sin(0.25 * (q[1] ** 2 + 2.0 * p[1] ** 2))

    def grad(self, q, p):
        e = math.exp(0.2 * q[0] - 0.3 * p[0])
        g = 0.25 * (q[1] ** 2 + 2.0 * p[1] ** 2)
        es = e * math.sin(g)
        ec = e * math.cos(g)
        gq = np.array((0.2 * es, ec * 0.5 * q[1]))
        gp = np.array((-0.3 * es, ec * p[1]))
        return gq, gp


class NlsLattice(HamiltonianSystem):
    """Quartic lattice with nearest-neighbour coupling (discrete NLS-type).

    ``H = 1/4 sum_i (q_i^2 + p_i^2)^2
         - sum_{i>=2} [(q_{i-1}^2 - p_{i-1}^2)(q_i^2 - p_i^2)
                       + 4 q_{i-1} p_{i-1} q_i p_i]``

    The coupling sum runs from the second site, taken literally, so ``d = 1``
    degenerates to the single quartic oscillator.  Invariant under the global
    rotation ``(q, p) -> (cq - sp, sq + cp)``, hence the total mass
    ``sum_i (q_i^2 + p_i^2)`` is conserved.
    """

    def __init__(self, d: int):
        if d < 1:
            raise DimensionMismatch("lattice needs at least one site")
        self.dim = int(d)

    def energy(self, q, p) -> float:
        n2 = q * q + p * p
        e = 0.25 * float(np.dot(n2, n2))
        if self.dim > 1:
            a = q[:-1] * q[:-1] - p[:-1] * p[:-1]
            b = q[1:] * q[1:] - p[1:] * p[1:]
            e -= float(np.dot(a, b) + 4.0 * np.dot(q[:-1] * p[:-1], q[1:] * p[1:]))
        return e

    def grad(self, q, p):
        n2 = q * q + p * p
        gq = q * n2
        gp = p * n2
        if self.dim > 1:
            s = q * q - p * p  # s_i = q_i^2 - p_i^2
            w = q * p
            # site j coupled to the right neighbour (term with left index j)
            gq[:-1] -= 2.0 * q[:-1] * s[1:] + 4.0 * p[:-1] * w[1:]
            gp[:-1] -= -2.0 * p[:-1] * s[1:] + 4.0 * q[:-1] * w[1:]
            # site j coupled to the left neighbour (term with right index j)
            gq[1:] -= 2.0 * q[1:] * s[:-1] + 4.0 * p[1:] * w[:-1]
            gp[1:] -= -2.0 * p[1:] * s[:-1] + 4.0 * q[1:] * w[:-1]
        return gq, gp


@dataclass(frozen=True)
class VortexConfig:
    """Circulations and initial planar positions of N point vortices."""

    circulations: np.ndarray
    initial_positions: np.ndarray = field(default=None)

    def __post_init__(self):
        gammas = np.asarray(self.circulations, dtype=float)
        if gammas.ndim != 1 or gammas.size == 0:
            raise DimensionMismatch("circulations must be a non-empty vector")
        if np.any(gammas == 0.0) or not np.isfinite(gammas).all():
            raise ConfigError("all circulations must be finite and nonzero")
        object.__setattr__(self, "circulations", gammas)
        if self.initial_positions is not None:
            pos = np.asarray(self.initial_positions, dtype=float)
            if pos.shape != (gammas.size, 2):
                raise DimensionMismatch("initial positions must have shape (N, 2)")
            diff = pos[:, None, :] - pos[None, :, :]
            dist2 = (diff**2).sum(axis=-1)
            np.fill_diagonal(dist2, np.inf)
            if dist2.min() <= COLLISION_GUARD**2:
                raise VortexCollision("initial vortex positions coincide")
            object.__setattr__(self, "initial_positions", pos)

    @property
    def n(self) -> int:
        return self.circulations.size


class PointVortexSystem(HamiltonianSystem):
    """N planar point vortices in canonical coordinates.

    The planar variables ``(X_i, Y_i)`` relate to the canonical ones through
    ``q_i = sqrt(|G_i|) X_i`` and ``p_i = sqrt(|G_i|) sgn(G_i) Y_i`` with
    circulations ``G_i``, which turns the vortex equations into canonical
    Hamilton equations for
    ``H = -(1/4 pi) sum_{i<j} G_i G_j log |X_i - X_j|^2``.
    """

    def __init__(self, config: VortexConfig):
        self.config = config
        self.dim = config.n
        g = config.circulations
        self._sqrt = np.sqrt(np.abs(g))
        self._sign = np.sign(g)
        self._gamma = g
        self._pair_weights = np.triu(np.outer(g, g), 1)  # G_i G_j for i < j

    def _planar(self, q, p):
        x = q / self._sqrt
        y = p / (self._sqrt * self._sign)
        return x, y

    def _pair_geometry(self, q, p):
        x, y = self._planar(q, p)
        dx = x[:, None] - x[None, :]
        dy = y[:, None] - y[None, :]
        r2 = dx * dx + dy * dy
        np.fill_diagonal(r2, np.inf)
        if r2.min() < COLLISION_GUARD**2:
            raise VortexCollision(
                f"vortices closer than {COLLISION_GUARD:g} in planar coordinates"
            )
        return dx, dy, r2

    def energy(self, q, p) -> float:
        _, _, r2 = self._pair_geometry(q, p)  # a fresh array, free to overwrite
        np.fill_diagonal(r2, 1.0)  # log(1) = 0 under the zero-diagonal weights
        return float(-(self._pair_weights * np.log(r2)).sum() / (4.0 * math.pi))

    def grad(self, q, p):
        dx, dy, r2 = self._pair_geometry(q, p)
        g = self._gamma
        inv = 1.0 / r2  # diagonal is 1/inf = 0
        # planar gradient of H: dH/dX_i = -(G_i / 2 pi) sum_j G_j dx_ij / r_ij^2
        coef = -1.0 / (2.0 * math.pi)
        gx = coef * g * ((inv * dx) @ g)
        gy = coef * g * ((inv * dy) @ g)
        # chain rule through the canonical scaling
        return gx / self._sqrt, gy / (self._sqrt * self._sign)


def make_testcase() -> TestcaseSystem:
    return TestcaseSystem()


def make_nls(d: int) -> NlsLattice:
    return NlsLattice(d)


def make_vortices(config: VortexConfig) -> PointVortexSystem:
    return PointVortexSystem(config)


def canonical_from_planar(config: VortexConfig, positions) -> np.ndarray:
    """Map planar vortex positions (N, 2) to the canonical state ``(q, p)``."""
    pos = np.asarray(positions, dtype=float)
    if pos.shape != (config.n, 2):
        raise DimensionMismatch("positions must have shape (N, 2)")
    s = np.sqrt(np.abs(config.circulations))
    q = s * pos[:, 0]
    p = s * np.sign(config.circulations) * pos[:, 1]
    return np.concatenate((q, p))


def planar_from_canonical(config: VortexConfig, z) -> np.ndarray:
    """Inverse of :func:`canonical_from_planar`; returns positions (N, 2)."""
    z = np.asarray(z, dtype=float)
    n = config.n
    if z.shape != (2 * n,):
        raise DimensionMismatch("state must have length 2*N")
    s = np.sqrt(np.abs(config.circulations))
    out = np.empty((n, 2))
    out[:, 0] = z[:n] / s
    out[:, 1] = z[n:] / (s * np.sign(config.circulations))
    return out


def check_gradient(system: HamiltonianSystem, z: np.ndarray, h: float = 1e-5) -> float:
    """Error of the analytic gradient against central differences of the energy.

    Returns ``|analytic - numeric|_inf`` relative to the gradient magnitude
    (max-norm, floored at 1), so the verdict is not drowned by difference
    noise on individual near-zero components.
    """
    z = np.asarray(z, dtype=float)
    d = system.dim
    gq, gp = system.grad(z[:d], z[d:])
    analytic = np.concatenate((gq, gp))
    numeric = np.empty(2 * d)
    for i in range(2 * d):
        zp = z.copy()
        zm = z.copy()
        zp[i] += h
        zm[i] -= h
        numeric[i] = (system.energy_z(zp) - system.energy_z(zm)) / (2.0 * h)
    scale = max(np.max(np.abs(analytic)), np.max(np.abs(numeric)), 1.0)
    return float(np.max(np.abs(analytic - numeric)) / scale)
