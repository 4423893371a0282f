"""Structure-preserving integrators for non-separable Hamiltonian systems.

The package provides explicit integrators on a doubled phase space, a
semiexplicit variant that symmetrically projects every step back onto the
diagonal (and thereby conserves all linear and quadratic first integrals up
to the solve tolerance), Gauss-Legendre collocation baselines, and an
invariant-verification harness with a CLI.
"""

from .core import (
    DIAGONAL_TOL,
    apply_A,
    apply_AT,
    defect_norm,
    embed,
    restrict,
)
from .errors import (
    ConfigError,
    DimensionMismatch,
    ExtPhaseError,
    NonConvergence,
    NotOnDiagonal,
    UnsupportedOrder,
    VortexCollision,
)
from .hamiltonians import (
    CountingSystem,
    EvalCounter,
    HamiltonianSystem,
    NlsLattice,
    PointVortexSystem,
    TestcaseSystem,
    VortexConfig,
    canonical_from_planar,
    check_gradient,
    make_nls,
    make_testcase,
    make_vortices,
    planar_from_canonical,
)
from .harness import (
    PRESETS,
    ExperimentSpec,
    TrajectoryRecord,
    benchmark,
    build_system,
    convergence_study,
    emit_csv,
    emit_svg,
    final_state,
    load_config,
    load_csv,
    make_spec,
    preset,
    run_experiment,
)
from .implicit_rk import ButcherTableau, gl_step, gl_tableau
from .invariants import (
    LinearInvariant,
    QuadraticInvariant,
    coupling_bracket,
    coupling_preserves_quadratic,
    drift_series,
    eval_extended_linear,
    eval_extended_quadratic,
    eval_linear,
    eval_quadratic,
    extended_hamiltonian_gradient,
    extended_poisson_bracket,
    infinitesimal_generator,
    lift_linear,
    lift_quadratic,
    nls_mass,
    poisson_bracket,
    symplecticity_defect,
    tao_compatibility,
    testcase_L,
    testcase_Q,
    vortex_angular_impulse,
    vortex_linear_impulse_x,
    vortex_linear_impulse_y,
)
from .projection import SolverConfig, StepStats, residual, semiexplicit_step, solve_mu
from .splitting import (
    CompositionScheme,
    TaoParams,
    composed_step,
    composition_scheme,
    coupling_flow,
    flow_a,
    flow_b,
    pihajoki_step,
    tao_step,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
