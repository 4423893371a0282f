"""Explicit integrators on the doubled phase space.

The doubled system splits into two exactly solvable pieces: flow ``A``
freezes ``(q, y)`` and pushes ``(x, p)`` along the Hamiltonian vector field
taken at ``(q, y)``, and flow ``B`` does the mirror image.  Each pair is a
``(2, d)`` canonical row view of the point (``core.FLOWS``), so a flow is
one :meth:`~extphase.hamiltonians.HamiltonianSystem.fields` call, scaled
in place, and one in-place add.  Their Strang composition is a
second-order, symmetric, symplectic step on the doubled space.  An
optional copy-coupling rotation (flow ``C``) damps the mismatch between the
two copies; inserting it in the middle of the palindrome gives the coupled
variant of the step.

Higher orders come from palindromic compositions of the base step; each
substep pays its full gradient cost (no fusion across substep boundaries),
so per-step costs are exactly 3 (plain Strang step) or 4 (coupled step)
gradient evaluations times the number of substeps.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .core import COPIES, FLOWS, floats, row_pairs, scalar
from .errors import ConfigError, _check_fields
from .hamiltonians import HamiltonianSystem

__all__ = [
    "COMPOSITIONS", "CompositionScheme", "TaoParams", "composed_step", "coupling_flow",
    "flow_a", "flow_b", "pihajoki_step", "tao_step",
]

# One step of an integrator on the doubled space: (system, dt, zeta) -> zeta'.
ExtendedStep = Callable[[HamiltonianSystem, float, np.ndarray], np.ndarray]
HALF = np.array(0.5)  # coupling_flow's 1/2, 0-d


@dataclass(frozen=True)
class TaoParams:
    """Coupling strength for the copy-coupling rotation.

    ``omega = 0`` is allowed as a degenerate testing configuration in which
    the coupled step collapses to the plain Strang step.
    """

    omega: float = 10.0

    def __post_init__(self):
        _check_fields(self)
        if not (math.isfinite(self.omega) and self.omega >= 0.0):
            raise ConfigError("omega must be finite and non-negative")


@dataclass(frozen=True)
class CompositionScheme:
    """Palindromic substep fractions for a symmetric composition."""

    coefficients: tuple

    def __post_init__(self):
        coeffs = floats(self.coefficients)
        if coeffs.ndim != 1 or not np.isfinite(coeffs).all():
            raise ConfigError("composition coefficients must be a sequence of finite numbers")
        coeffs = tuple(coeffs.tolist())
        if coeffs != coeffs[::-1]:
            raise ConfigError("composition coefficients must be palindromic")
        if abs(sum(coeffs) - 1.0) > 1e-14:
            raise ConfigError("composition coefficients must sum to 1")
        object.__setattr__(self, "coefficients", coeffs)

    def __len__(self) -> int:
        return len(self.coefficients)


def _triple_jump() -> tuple:
    g1 = 1.0 / (2.0 - 2.0 ** (1.0 / 3.0))
    return (g1, 1.0 - 2.0 * g1, g1)


def _suzuki() -> tuple:
    g = 1.0 / (4.0 - 4.0 ** (1.0 / 3.0))
    return (g, g, 1.0 - 4.0 * g, g, g)


def _yoshida6() -> tuple:
    # 6th-order palindromic solution (set A)
    w1 = -1.17767998417887
    w2 = 0.235573213359357
    w3 = 0.784513610477560
    w0 = 1.0 - 2.0 * (w1 + w2 + w3)
    return (w3, w2, w1, w0, w1, w2, w3)


_SINGLE = CompositionScheme((1.0,))
_TRIPLE_JUMP = CompositionScheme(_triple_jump())
_YOSHIDA = CompositionScheme(_yoshida6())

# The substep schedule of each (order, composition) a doubled-space run
# accepts: the identity, two 4th-order ones and one 6th-order one, where a
# composition of None is the order's default.
COMPOSITIONS = {
    (2, None): _SINGLE, (2, "single"): _SINGLE,
    (4, None): _TRIPLE_JUMP, (4, "triple_jump"): _TRIPLE_JUMP,
    (4, "suzuki"): CompositionScheme(_suzuki()),
    (6, None): _YOSHIDA, (6, "yoshida"): _YOSHIDA,
}


def _push(rows: np.ndarray, t: float, field: np.ndarray) -> None:
    """Add ``t * field`` into ``rows``, scaling the fresh ``field`` in place,
    which rounds as the product ``t * field`` does."""
    field *= t
    rows += field


def flow_a(system: HamiltonianSystem, t: float, zeta: np.ndarray) -> np.ndarray:
    """Exact flow freezing ``(q, y)``: pushes ``(x, p)`` for time ``t``.

    One gradient evaluation, taken at the frozen copy ``(q, y)``.
    """
    t = scalar(t, "t")
    out = floats(zeta).copy()
    qy, xp = row_pairs(out, FLOWS, system.dim)
    _push(xp, t, system.fields(qy))
    return out


def flow_b(system: HamiltonianSystem, t: float, zeta: np.ndarray) -> np.ndarray:
    """Exact flow freezing ``(x, p)``: pushes ``(q, y)`` for time ``t``."""
    t = scalar(t, "t")
    out = floats(zeta).copy()
    qy, xp = row_pairs(out, FLOWS, system.dim)
    _push(qy, t, system.fields(xp))
    return out


def pihajoki_step(system: HamiltonianSystem, dt: float, zeta: np.ndarray) -> np.ndarray:
    """Strang step ``A(dt/2) B(dt) A(dt/2)`` on the doubled space.

    Second order, symmetric, symplectic on the doubled space; exactly three
    gradient evaluations.  The flows act in place on one copy of ``zeta``.
    """
    dt = scalar(dt, "dt")
    h = np.array(0.5 * dt)  # 0-d: a ufunc takes it faster than a float, at the same bits
    out = floats(zeta).copy()
    qy, xp = row_pairs(out, FLOWS, system.dim)
    _push(xp, h, system.fields(qy))  # A(dt/2)
    _push(qy, np.array(dt), system.fields(xp))  # B(dt), 0-d as h
    _push(xp, h, system.fields(qy))  # A(dt/2)
    return out


def _rotation_angle(omega: float, t: float) -> float:
    """The angle ``2*omega*t`` of the coupling rotation; :class:`ConfigError` if it overflows."""
    angle = 2.0 * omega * t
    if math.isinf(angle):
        raise ConfigError("omega is too large: the coupling rotation angle overflows")
    return angle


def coupling_flow(omega: float, t: float, zeta: np.ndarray) -> np.ndarray:
    """Exact flow of the copy-coupling energy ``(omega/2)(|x-q|^2 + |y-p|^2)``.

    Rotates the copy differences ``(q - x, p - y)`` by the angle
    ``2*omega*t`` while fixing the copy sums; costs no gradient evaluations.
    Returns a fresh array: the rotation acts in place on one copy of ``zeta``.
    """
    angle = _rotation_angle(scalar(omega, "omega"), scalar(t, "t"))
    out = floats(zeta).copy()
    first, second = row_pairs(out, COPIES)
    if angle == 0.0:
        return out
    c, s = np.array(math.cos(angle)), math.sin(angle)  # 0-d c, as h in pihajoki_step
    total = first + second
    diff = first - second  # (u, v)
    # (c u + s v, c v - s u); adding -s u rounds exactly as subtracting s u
    diff_r = c * diff
    diff_r += np.array(((s,), (-s,))) * diff[::-1]
    np.add(total, diff_r, out=first)
    np.subtract(total, diff_r, out=second)
    out *= HALF
    return out


def tao_step(
    system: HamiltonianSystem, dt: float, zeta: np.ndarray, params: TaoParams
) -> np.ndarray:
    """Coupled Strang step ``A(dt/2) B(dt/2) C(dt) B(dt/2) A(dt/2)``.

    Four gradient evaluations.  With ``omega == 0`` the rotation is the
    identity and the two half ``B`` flows fuse, so the step delegates to
    :func:`pihajoki_step` and reproduces it bit for bit (at three gradient
    evaluations).
    """
    dt = scalar(dt, "dt")
    if params.omega == 0.0:
        return pihajoki_step(system, dt, zeta)
    h = np.array(0.5 * dt)  # 0-d, as in pihajoki_step
    out = floats(zeta).copy()
    qy, xp = row_pairs(out, FLOWS, system.dim)
    _push(xp, h, system.fields(qy))  # A(dt/2)
    _push(qy, h, system.fields(xp))  # B(dt/2)
    out = coupling_flow(params.omega, dt, out)  # C(dt), into a fresh array
    qy, xp = row_pairs(out, FLOWS, system.dim)
    _push(qy, h, system.fields(xp))  # B(dt/2)
    _push(xp, h, system.fields(qy))  # A(dt/2)
    return out


def composed_step(base: ExtendedStep, scheme: CompositionScheme) -> ExtendedStep:
    """Bind a composition schedule around a doubled-space step."""
    if len(scheme) == 1 and scheme.coefficients[0] == 1.0:
        return base

    def step(system: HamiltonianSystem, dt: float, zeta: np.ndarray) -> np.ndarray:
        dt = scalar(dt, "dt")
        for gamma in scheme.coefficients:
            zeta = base(system, gamma * dt, zeta)
        return zeta

    return step
