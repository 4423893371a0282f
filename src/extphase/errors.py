"""Exception types shared across the package, and the one type rule of configuration fields.

Every configuration the package refuses, a Gauss order too, is a :class:`ConfigError` (exit 4)."""

import numbers
from dataclasses import fields

__all__ = [
    "ConfigError", "DimensionMismatch", "ExtPhaseError", "NonConvergence", "NotOnDiagonal",
    "VortexCollision",
]


class ExtPhaseError(Exception):
    """Base class for all errors raised by this package."""


class DimensionMismatch(ExtPhaseError):
    """Operands refer to phase spaces of different dimension."""


class NotOnDiagonal(ExtPhaseError):
    """An extended-space point is too far from the diagonal subspace."""


class NonConvergence(ExtPhaseError):
    """An iterative solve hit its iteration cap or diverged.

    Attributes
    ----------
    best : ndarray or None
        Iterate with the smallest residual seen so far.
    final_residual : float
        Max-norm of the residual at `best`.
    iterations : int
        Number of residual evaluations (or sweeps) performed.
    """

    def __init__(self, message, best=None, final_residual=float("inf"), iterations=0):
        super().__init__(message)
        self.best = best
        self.final_residual = final_residual
        self.iterations = iterations


class VortexCollision(ExtPhaseError):
    """Two point vortices came closer than the singularity guard allows."""


class ConfigError(ExtPhaseError, ValueError):
    """Invalid experiment, solver or coupling configuration."""


def _real(value) -> bool:
    """Whether ``value`` is a number a float holds, inf and nan included; a bool is not."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        return False
    try:
        float(value)  # an integer past float range overflows; a NumPy float32 does not warn
    except OverflowError:
        return False
    return True


_TYPES = {"str": str, "int": numbers.Integral, "bool": bool, "tuple": tuple}  # float fields: _real


def _check_fields(config) -> None:
    """Raise :class:`ConfigError` unless each field of the dataclass ``config``
    holds its annotated type: ``float``, ``int``, ``str``, ``bool`` or
    ``tuple``, optionally ``| None``; a bool is only a ``bool``."""
    for f in fields(config):
        value = getattr(config, f.name)
        kind, _, optional = f.type.partition(" | ")
        ok = _real(value) if kind == "float" else isinstance(value, _TYPES[kind]) and (
            isinstance(value, bool) == (kind == "bool"))
        if not (ok or value is None and optional):
            raise ConfigError(f"{f.name} must be {f.type}, not {value!r}")
