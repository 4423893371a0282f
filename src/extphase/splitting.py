"""Explicit integrators on the doubled phase space.

The doubled system splits into two exactly solvable pieces: flow ``A``
freezes the first copy ``(q, y)`` and pushes the second copy ``(x, p)``
along the frozen copy's Hamiltonian vector field, and flow ``B`` does the
mirror image.  Their Strang composition is a second-order, symmetric,
symplectic step on the doubled space.  An optional copy-coupling rotation
(flow ``C``) damps the mismatch between the two copies; inserting it in the
middle of the palindrome gives the coupled variant of the step.

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

from .core import blocks
from .errors import ConfigError
from .hamiltonians import HamiltonianSystem

__all__ = [
    "CompositionScheme", "TaoParams", "composed_step", "composition_scheme", "coupling_flow",
    "flow_a", "flow_b", "pihajoki_step", "tao_step",
]

# One step of an integrator on the doubled space: (system, dt, zeta) -> zeta'.
ExtendedStep = Callable[[HamiltonianSystem, float, np.ndarray], np.ndarray]

COMPOSITION_LABELS = ("single", "triple_jump_4", "suzuki_4", "yoshida_6")


@dataclass(frozen=True)
class TaoParams:
    """Coupling strength for the copy-coupling rotation.

    ``omega = 0`` is allowed as a degenerate testing configuration in which
    the coupled step collapses to the plain Strang step.
    """

    omega: float = 10.0

    def __post_init__(self):
        if not (math.isfinite(self.omega) and self.omega >= 0.0):
            raise ConfigError("omega must be finite and non-negative")


@dataclass(frozen=True)
class CompositionScheme:
    """Palindromic substep fractions for a symmetric composition."""

    label: str
    coefficients: tuple

    def __post_init__(self):
        coeffs = tuple(float(c) for c in self.coefficients)
        if coeffs != coeffs[::-1]:
            raise ValueError("composition coefficients must be palindromic")
        if abs(sum(coeffs) - 1.0) > 1e-14:
            raise ValueError("composition coefficients must sum to 1")
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


def composition_scheme(label: str) -> CompositionScheme:
    """Named substep schedules: identity, two 4th-order ones, one 6th-order."""
    if label == "single":
        return CompositionScheme("single", (1.0,))
    if label == "triple_jump_4":
        return CompositionScheme("triple_jump_4", _triple_jump())
    if label == "suzuki_4":
        return CompositionScheme("suzuki_4", _suzuki())
    if label == "yoshida_6":
        return CompositionScheme("yoshida_6", _yoshida6())
    raise ValueError(f"unknown composition label {label!r}, expected one of {COMPOSITION_LABELS}")


def _drift(system: HamiltonianSystem, t: float, q, p, x, y) -> None:
    """Push ``(x, y)`` in place for time ``t`` along the Hamiltonian vector
    field taken at the frozen ``(q, p)``; one gradient evaluation."""
    gq, gp = system.grad(q, p)
    x += t * gp
    y -= t * gq


def _copy(system: HamiltonianSystem, zeta: np.ndarray):
    """A fresh float copy of ``zeta`` and its ``(q, x, p, y)`` row views."""
    out = np.array(zeta, dtype=float)
    return out, blocks(out, system.dim)


def flow_a(system: HamiltonianSystem, t: float, zeta: np.ndarray) -> np.ndarray:
    """Exact flow freezing ``(q, y)``: pushes ``(x, p)`` for time ``t``.

    One gradient evaluation, taken at the frozen copy ``(q, y)``.
    """
    out, (q, x, p, y) = _copy(system, zeta)
    _drift(system, t, q, y, x, p)
    return out


def flow_b(system: HamiltonianSystem, t: float, zeta: np.ndarray) -> np.ndarray:
    """Exact flow freezing ``(x, p)``: pushes ``(q, y)`` for time ``t``."""
    out, (q, x, p, y) = _copy(system, zeta)
    _drift(system, t, x, p, q, y)
    return out


def pihajoki_step(system: HamiltonianSystem, dt: float, zeta: np.ndarray) -> np.ndarray:
    """Strang step ``A(dt/2) B(dt) A(dt/2)`` on the doubled space.

    Second order, symmetric, symplectic on the doubled space; exactly three
    gradient evaluations.  The flows act in place on one copy of ``zeta``.
    """
    h = 0.5 * dt
    out, (q, x, p, y) = _copy(system, zeta)
    _drift(system, h, q, y, x, p)  # A(dt/2)
    _drift(system, dt, x, p, q, y)  # B(dt)
    _drift(system, h, q, y, x, p)  # A(dt/2)
    return out


def coupling_flow(omega: float, t: float, zeta: np.ndarray) -> np.ndarray:
    """Exact flow of the copy-coupling energy ``(omega/2)(|x-q|^2 + |y-p|^2)``.

    Rotates the copy differences ``(q - x, p - y)`` by the angle
    ``2*omega*t`` while fixing the copy sums; costs no gradient evaluations.
    """
    zeta = np.asarray(zeta, dtype=float)
    q, x, p, y = blocks(zeta)
    angle = 2.0 * omega * t
    if angle == 0.0:
        return zeta.copy()
    c = math.cos(angle)
    s = math.sin(angle)
    sq = q + x
    sp = p + y
    u = q - x
    v = p - y
    ur = c * u + s * v
    vr = c * v - s * u
    return np.concatenate((0.5 * (sq + ur), 0.5 * (sq - ur), 0.5 * (sp + vr), 0.5 * (sp - vr)))


def tao_step(
    system: HamiltonianSystem, dt: float, zeta: np.ndarray, params: TaoParams
) -> np.ndarray:
    """Coupled Strang step ``A(dt/2) B(dt/2) C(dt) B(dt/2) A(dt/2)``.

    Four gradient evaluations.  With ``omega == 0`` the rotation is the
    identity and the two half ``B`` flows fuse, so the step delegates to
    :func:`pihajoki_step` and reproduces it bit for bit (at three gradient
    evaluations).
    """
    if params.omega == 0.0:
        return pihajoki_step(system, dt, zeta)
    h = 0.5 * dt
    out, (q, x, p, y) = _copy(system, zeta)
    _drift(system, h, q, y, x, p)  # A(dt/2)
    _drift(system, h, x, p, q, y)  # B(dt/2)
    out = coupling_flow(params.omega, dt, out)  # C(dt), into a fresh array
    q, x, p, y = blocks(out)
    _drift(system, h, x, p, q, y)  # B(dt/2)
    _drift(system, h, q, y, x, p)  # A(dt/2)
    return out


def composed_step(base: ExtendedStep, scheme: CompositionScheme) -> ExtendedStep:
    """Bind a composition schedule around a doubled-space step."""
    if len(scheme) == 1 and scheme.coefficients[0] == 1.0:
        return base

    def step(system: HamiltonianSystem, dt: float, zeta: np.ndarray) -> np.ndarray:
        for gamma in scheme.coefficients:
            zeta = base(system, gamma * dt, zeta)
        return zeta

    return step
