"""Structure-preserving integrators for non-separable Hamiltonian systems.

The package provides explicit integrators on a doubled phase space, a
semiexplicit variant that symmetrically projects every step back onto the
diagonal (and thereby conserves all linear and quadratic first integrals up
to the solve tolerance), Gauss-Legendre collocation baselines, and an
invariant-verification harness with a CLI.
"""

from . import core, errors, hamiltonians, harness, implicit_rk, invariants, projection, splitting
from .core import *
from .errors import *
from .hamiltonians import *
from .harness import *
from .implicit_rk import *
from .invariants import *
from .projection import *
from .splitting import *

__version__ = "0.1.0"

# the public API: each module's explicit list, no module objects
__all__ = [
    *core.__all__,
    *errors.__all__,
    *hamiltonians.__all__,
    *harness.__all__,
    *implicit_rk.__all__,
    *invariants.__all__,
    *projection.__all__,
    *splitting.__all__,
]
