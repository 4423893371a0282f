"""Exception types shared across the package."""

__all__ = [
    "ConfigError", "DimensionMismatch", "ExtPhaseError", "NonConvergence", "NotOnDiagonal",
    "UnsupportedOrder", "VortexCollision",
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


class UnsupportedOrder(ExtPhaseError):
    """Requested integrator order is not provided."""


class ConfigError(ExtPhaseError, ValueError):
    """Invalid experiment, solver or coupling configuration."""
