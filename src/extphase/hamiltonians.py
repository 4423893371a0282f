"""Built-in Hamiltonian systems with analytic gradients and eval counting.

A system is two row kernels on canonical rows ``(..., 2, d)`` = ``(q, p)``:
``fields(rows)``, the field ``(D2H, -D1H)`` in the same shape, and
``energies(rows)``, the values of the Hamiltonian.  A user writes
``grad(q, p) -> (D1H, D2H)`` and ``energy(q, p)`` at one point and inherits
kernels that call them once per row; the built-in systems override the
kernels, and their ``grad`` and ``energy`` are the one-row cases, bit for
bit.  One row's field is the unit of all integrator costs (one
"vector-field evaluation"), as ``CountingSystem`` charges it; energies are
diagnostics and are never counted.
"""

from __future__ import annotations

import math
import numbers
from abc import ABC, abstractmethod
from dataclasses import dataclass, field

import numpy as np

from .core import floats, halves, join
from .errors import ConfigError, DimensionMismatch, VortexCollision

__all__ = [
    "CountingSystem", "EvalCounter", "HamiltonianSystem", "NlsLattice", "PointVortexSystem",
    "TestcaseSystem", "VortexConfig", "canonical_from_planar", "check_gradient", "make_nls",
    "make_testcase", "make_vortices", "planar_from_canonical",
]

# Planar separation below which the vortex log potential is considered singular.
COLLISION_GUARD = 1e-12


def _evaluate(fn, *args) -> float:
    """``fn(*args)``, or inf (nan) where ``fn`` leaves the range (domain) of
    ``math``'s functions: the rule for a diagnostic that must not raise."""
    try:
        return fn(*args)
    except ArithmeticError:
        return math.inf
    except ValueError:
        return math.nan


@dataclass
class EvalCounter:
    """Counts joint gradient evaluations, one per point, for one integration run."""

    n_grad: int = 0

    def tick(self, points: int = 1) -> None:
        self.n_grad += points


class HamiltonianSystem(ABC):
    """A canonical Hamiltonian system on ``R^d x R^d`` with analytic gradients."""

    dim: int

    @abstractmethod
    def energy(self, q: np.ndarray, p: np.ndarray) -> float:
        """Value of the Hamiltonian; not counted as a vector-field evaluation."""

    @abstractmethod
    def grad(self, q: np.ndarray, p: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Joint gradient ``(D1H, D2H)``; one vector-field evaluation."""

    def fields(self, rows: np.ndarray) -> np.ndarray:
        """Canonical fields ``(D2H, -D1H)`` at canonical rows ``(..., 2, d)``
        = ``(q, p)``, fresh and in the same shape; one vector-field
        evaluation per row.

        This default calls :meth:`grad` once per row; a system with its own
        kernel overrides it, and its ``grad`` is then the one-row case.
        """
        out = np.empty(rows.shape)
        shape = (-1, 2, rows.shape[-1])
        for row, into in zip(rows.reshape(shape), out.reshape(shape)):
            gq, into[0] = self.grad(row[0], row[1])
            np.negative(gq, out=into[1])
        return out

    def energies(self, rows: np.ndarray) -> np.ndarray:
        """Values of the Hamiltonian at canonical rows ``(..., 2, d)``, in
        the shape ``rows.shape[:-2]``; diagnostics, never counted.

        This default calls :meth:`energy` once per row and reads a row that
        leaves the range of ``math``'s functions as inf and one outside their
        domain as nan; a system whose kernel broadcasts over a leading axis
        overrides it with one call.
        """
        values = [_evaluate(self.energy, q, p) for q, p in rows.reshape(-1, 2, rows.shape[-1])]
        return np.array(values, dtype=float).reshape(rows.shape[:-2])

    def with_counter(self, counter: EvalCounter) -> "CountingSystem":
        return CountingSystem(self, counter)


class CountingSystem(HamiltonianSystem):
    """Wrapper charging every joint gradient point to an :class:`EvalCounter`.

    Wrappers chain: stacking a second counter on an already-counting system
    charges both, so a caller can meter one part of a run while the run
    keeps its global tally.  Rows are forwarded whole, so a stack reaches
    the base system's own kernel in one call.
    """

    def __init__(self, base: HamiltonianSystem, counter: EvalCounter):
        self.base = base
        self.counter = counter
        self.dim = base.dim
        self._row = 2 * base.dim  # entries per canonical row

    def energy(self, q, p) -> float:
        return self.base.energy(q, p)

    def energies(self, rows):
        return self.base.energies(rows)

    def grad(self, q, p):
        self.counter.tick()
        return self.base.grad(q, p)

    def fields(self, rows):
        self.counter.n_grad += rows.size // self._row  # tick's charge, without its call
        return self.base.fields(rows)


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


def _row_dots(u, v):
    """Dot products of the rows of ``u`` and ``v`` along the last axis.

    Each is ``np.dot`` of the two rows bit for bit: a ``(1, d) @ (d, 1)``
    product takes the same dot kernel, one row at a time, where a reduction
    of ``u * v`` or an einsum sums in another order.
    """
    return (u[..., None, :] @ v[..., :, None])[..., 0, 0]


class _RowKernelSystem(HamiltonianSystem):
    """A system that overrides both row kernels; its :meth:`energy` and
    :meth:`grad` are their one-row cases, bit for bit."""

    def energy(self, q, p) -> float:
        return float(self.energies(np.stack((q, p))))

    def grad(self, q, p):
        rows = self.fields(np.stack((q, p)))
        return -rows[1], rows[0]


class NlsLattice(_RowKernelSystem):
    """Quartic lattice with nearest-neighbour coupling (discrete NLS-type).

    ``H = 1/4 sum_i (q_i^2 + p_i^2)^2
         - sum_{i>=2} [(q_{i-1}^2 - p_{i-1}^2)(q_i^2 - p_i^2)
                       + 4 q_{i-1} p_{i-1} q_i p_i]``

    The coupling sum runs from the second site, taken literally, so ``d = 1``
    degenerates to the single quartic oscillator.  Invariant under the global
    rotation ``(q, p) -> (cq - sp, sq + cp)``, hence the total mass
    ``sum_i (q_i^2 + p_i^2)`` is conserved.

    :meth:`fields` loops once over the sites on Python floats, taking each
    site's right neighbour, then its left, and rounds as the array formula
    does; a stack takes it once per row.
    :meth:`energies` indexes sites along the last axis of the rows, so
    :meth:`energy` is its one-row case.
    """

    def __init__(self, d: int):
        if not isinstance(d, numbers.Integral) or isinstance(d, bool) or d < 1:
            raise DimensionMismatch(f"lattice needs a whole number of sites, at least 1: {d!r}")
        self.dim = int(d)

    def energies(self, rows):
        qs, ps = rows[..., 0, :], rows[..., 1, :]
        n2 = qs * qs + ps * ps
        e = 0.25 * _row_dots(n2, n2)
        if self.dim > 1:
            q, p, q_next, p_next = qs[..., :-1], ps[..., :-1], qs[..., 1:], ps[..., 1:]
            a = q * q - p * p
            b = q_next * q_next - p_next * p_next
            e -= _row_dots(a, b) + 4.0 * _row_dots(q * p, q_next * p_next)
        return e

    def fields(self, rows):
        if rows.ndim > 2:  # a stack takes the site loop once per row
            shape = (-1, 2, rows.shape[-1])
            return np.array([self.fields(row) for row in rows.reshape(shape)]).reshape(rows.shape)
        q, p = rows.tolist()
        sw = [(qi * qi - pi * pi, qi * pi) for qi, pi in zip(q, p)]  # (q_i^2 - p_i^2, q_i p_i)
        flat, minus_gq = [], []
        for qi, pi, right, left in zip(q, p, sw[1:] + [None], [None] + sw):
            n2 = qi * qi + pi * pi
            gq, gp = qi * n2, pi * n2
            if right:  # the right neighbour first, so a middle site rounds as (g - right) - left
                s, w = right
                gq -= 2.0 * qi * s + 4.0 * pi * w
                gp -= -2.0 * pi * s + 4.0 * qi * w
            if left:
                s, w = left
                gq -= 2.0 * qi * s + 4.0 * pi * w
                gp -= -2.0 * pi * s + 4.0 * qi * w
            flat.append(gp)
            minus_gq.append(-gq)
        flat += minus_gq  # the field (D2H, -D1H), flat
        return np.array(flat).reshape(rows.shape)


@dataclass(frozen=True)
class VortexConfig:
    """Circulations and initial planar positions of N point vortices."""

    circulations: np.ndarray
    initial_positions: np.ndarray = field(default=None)

    def __post_init__(self):
        gammas = floats(self.circulations)
        if gammas.ndim != 1 or gammas.size == 0:
            raise DimensionMismatch("circulations must be a non-empty vector")
        if np.any(gammas == 0.0) or not np.isfinite(gammas).all():
            raise ConfigError("all circulations must be finite and nonzero")
        object.__setattr__(self, "circulations", gammas)
        if self.initial_positions is not None:
            pos = _planar_positions(self.initial_positions, gammas.size)
            if not np.isfinite(pos).all():  # the collision check skips a nan pair
                raise ConfigError("initial positions must be finite")
            _pair_geometry(pos.T)  # the collision check
            object.__setattr__(self, "initial_positions", pos)

    @property
    def n(self) -> int:
        return self.circulations.size


def _planar_positions(positions, n: int) -> np.ndarray:
    """``positions`` as an ``(n, 2)`` float array; the one shape rule for
    planar vortex positions."""
    try:
        pos = floats(positions)
    except DimensionMismatch:  # ragged rows, named by the shape rule
        pos = None
    if pos is None or pos.shape != (n, 2):
        raise DimensionMismatch("initial positions must have shape (N, 2)")
    return pos


def _canonical_scaling(circulations) -> tuple[np.ndarray, np.ndarray]:
    """``(sqrt|G|, sqrt|G| sgn G)``, the scalings ``q = sqrt|G| X``, ``p = sqrt|G| sgn(G) Y``."""
    s = np.sqrt(np.abs(circulations))
    return s, s * np.sign(circulations)


def _pair_geometry(rows):
    """Pair differences ``(..., 2, N, N)`` and squared distances
    ``(..., N, N)`` (inf diagonal) of planar rows ``(..., 2, N)`` = ``(X, Y)``,
    for one configuration or a stack of them; the one collision check,
    applied to every pair of every configuration.  A stack with no pairs,
    empty or of one vortex, cannot collide."""
    n = rows.shape[-1]
    diffs = rows[..., None] - rows[..., None, :]
    squares = diffs * diffs
    r2 = squares[..., 0, :, :] + squares[..., 1, :, :]
    pairs = r2.reshape(-1, n * n)  # one row per configuration
    pairs[:, :: n + 1] = np.inf
    worst = pairs.min(initial=math.inf)
    if worst != worst:  # a nan coordinate must not hide a coincident pair, here or elsewhere
        worst = np.fmin.reduce(pairs.ravel())
    if worst < COLLISION_GUARD**2:
        raise VortexCollision(f"vortices closer than {COLLISION_GUARD:g} in planar coordinates")
    return diffs, r2


class PointVortexSystem(_RowKernelSystem):
    """N planar point vortices in canonical coordinates.

    The planar variables ``(X_i, Y_i)`` relate to the canonical ones through
    ``q_i = sqrt(|G_i|) X_i`` and ``p_i = sqrt(|G_i|) sgn(G_i) Y_i`` with
    circulations ``G_i``, which turns the vortex equations into canonical
    Hamilton equations for
    ``H = -(1/4 pi) sum_{i<j} G_i G_j log |X_i - X_j|^2``.

    :meth:`fields` works on both planes of canonical rows at once and
    divides the swapped planar gradient into the field; :meth:`energies`
    reads them likewise, and :meth:`energy` is its one-row case.
    """

    def __init__(self, config: VortexConfig):
        self.config = config
        self.dim = config.n
        g = config.circulations
        self._gamma = g
        sqrt, signed_sqrt = _canonical_scaling(g)
        self._scales = np.stack((sqrt, signed_sqrt))  # canonical rows over these are planar
        # the field (D2H, -D1H) is the swapped planar gradient over these
        self._field_scales = np.stack((signed_sqrt, -sqrt))
        self._grad_weights = -1.0 / (2.0 * math.pi) * g
        self._pair_weights = np.triu(np.outer(g, g), 1)  # G_i G_j for i < j

    def energies(self, rows):
        _, r2 = _pair_geometry(rows / self._scales)  # r2 is fresh
        n = self.dim
        r2.reshape(-1, n * n)[:, :: n + 1] = 1.0  # log(1) = 0 under the zero-diagonal weights
        return -(self._pair_weights * np.log(r2)).sum(axis=(-2, -1)) / (4.0 * math.pi)

    def fields(self, rows):
        diffs, r2 = _pair_geometry(rows / self._scales)  # fresh arrays, free to overwrite
        diffs *= (1.0 / r2)[..., None, :, :]  # diagonal is 1/inf = 0
        # dH/dX_i = -(G_i / 2 pi) sum_j G_j dx_ij / r_ij^2, and likewise in Y; the
        # stacked matmul keeps each plane's gemv bits, where a flattened one would not
        planar = diffs @ self._gamma
        planar *= self._grad_weights
        return planar[..., ::-1, :] / self._field_scales


def make_testcase() -> TestcaseSystem:
    return TestcaseSystem()


def make_nls(d: int) -> NlsLattice:
    return NlsLattice(d)


def make_vortices(config: VortexConfig) -> PointVortexSystem:
    return PointVortexSystem(config)


def canonical_from_planar(config: VortexConfig, positions) -> np.ndarray:
    """Map planar vortex positions (N, 2) to the canonical state ``(q, p)``."""
    pos = _planar_positions(positions, config.n)
    s, signed = _canonical_scaling(config.circulations)
    return join(s * pos[:, 0], signed * pos[:, 1])


def planar_from_canonical(config: VortexConfig, z) -> np.ndarray:
    """Inverse of :func:`canonical_from_planar`; returns positions (N, 2)."""
    q, p = halves(z, config.n)
    s, signed = _canonical_scaling(config.circulations)
    return np.column_stack((q / s, p / signed))


def _central_differences(fn, z: np.ndarray, h: float) -> np.ndarray:
    """``(fn(z + h e_j) - fn(z - h e_j)) / (2h)`` for each coordinate ``j``, stacked
    along the first axis: the gradient of a scalar ``fn``, the transposed
    Jacobian of a map."""
    rows = []
    for j in range(z.size):
        zp = z.copy()
        zm = z.copy()
        zp[j] += h
        zm[j] -= h
        rows.append((np.asarray(fn(zp)) - np.asarray(fn(zm))) / (2.0 * h))
    return np.array(rows)


def check_gradient(system: HamiltonianSystem, z: np.ndarray) -> float:
    """Error of the analytic gradient against central differences of the
    energy, taken with the step ``1e-5``.

    Returns ``|analytic - numeric|_inf`` relative to the gradient magnitude
    (max-norm, floored at 1), so the verdict is not drowned by difference
    noise on individual near-zero components.
    """
    z = floats(z)
    analytic = join(*system.grad(*halves(z, system.dim)))
    numeric = _central_differences(lambda y: system.energy(*halves(y, system.dim)), z, 1e-5)
    scale = max(np.max(np.abs(analytic)), np.max(np.abs(numeric)), 1.0)
    return float(np.max(np.abs(analytic - numeric)) / scale)
