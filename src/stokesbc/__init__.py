"""Halfspace Stokes boundary-symbol toolbox.

A library (plus ``stokesbc`` CLI) for the shifted Stokes resolvent problem
on the upper halfspace under the nine tangential/normal boundary-condition
pairs: closed-form boundary-symbol inverses, reflection-kernel solution
operators with trace identities, an elliptic-parabolic splitting solver,
kinetic-energy balance functionals with an empirical boundary-condition
classifier, and a desk-scale nonlinear Navier-Stokes time march — each
closed-form object cross-checked against independent brute-force oracles.
"""

from .elliptic import (
    dirichlet_extend_mode,
    divergence_pressure_mode,
    helmholtz_project_mode,
    neumann_extend_mode,
    solve_elliptic_mode,
    weyl_project_mode,
)
from .energy import (
    ClassificationReport,
    CompatibilityReport,
    EnergyReport,
    boundary_power,
    check_compatibility,
    classify_bc,
    convective_flux,
    dissipation,
    energy_balance_residual,
    kinetic_energy,
)
from .errors import (
    AuditError,
    ConfigError,
    InvalidModeError,
    ProfileError,
    QuadratureBudgetError,
    SingularModeError,
    StokesbcError,
    UnsupportedCaseError,
    ZeroModeError,
)
from .halfspace import (
    GridSpec,
    ModeSolution,
    SampledField,
    SplittingSolution,
    canonical_json,
    field_manifest,
    forward_data,
    read_field_csv,
    read_manifest,
    solve_mode,
    splitting_solve_mode,
    synthesize_field,
    write_field_csv,
    write_manifest,
)
from .navier_stokes import (
    IterationReport,
    NsState,
    NsStepper,
    SimulationResult,
    nonlinearity,
    run_simulation,
    stream_function_field,
)
from .parabolic import (
    FdOracleSolution,
    KernelApplication,
    KernelSpec,
    VerificationReport,
    apply_kernel,
    eval_kernel,
    kernel_weight,
    oracle_fd_solve,
    parabolic_solve_mode,
    verify_trace_relations,
)
from .profiles import (
    ExpTerm,
    ScalarModeProfile,
    VectorModeProfile,
    helmholtz_solve_mode,
)
from .quadrature import QuadratureCfg, adaptive_integrate
from .symbols import (
    BcSpec,
    FluidConstants,
    ModeBatch,
    ModeParams,
    boundary_symbol,
    boundary_symbol_factors,
    closed_form_inverse,
    derive_mode,
    generic_inverse,
    solve_coefficients,
    trace_multiplier,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # errors
    "StokesbcError",
    "InvalidModeError",
    "ZeroModeError",
    "SingularModeError",
    "UnsupportedCaseError",
    "ProfileError",
    "QuadratureBudgetError",
    "ConfigError",
    "AuditError",
    # symbols
    "FluidConstants",
    "ModeParams",
    "ModeBatch",
    "BcSpec",
    "derive_mode",
    "boundary_symbol",
    "boundary_symbol_factors",
    "closed_form_inverse",
    "generic_inverse",
    "trace_multiplier",
    "solve_coefficients",
    # profiles
    "ExpTerm",
    "ScalarModeProfile",
    "VectorModeProfile",
    "helmholtz_solve_mode",
    # quadrature
    "QuadratureCfg",
    "adaptive_integrate",
    # elliptic
    "dirichlet_extend_mode",
    "neumann_extend_mode",
    "solve_elliptic_mode",
    "weyl_project_mode",
    "helmholtz_project_mode",
    "divergence_pressure_mode",
    # parabolic
    "KernelSpec",
    "KernelApplication",
    "FdOracleSolution",
    "VerificationReport",
    "kernel_weight",
    "eval_kernel",
    "apply_kernel",
    "parabolic_solve_mode",
    "oracle_fd_solve",
    "verify_trace_relations",
    # halfspace
    "ModeSolution",
    "solve_mode",
    "SplittingSolution",
    "splitting_solve_mode",
    "forward_data",
    "GridSpec",
    "SampledField",
    "synthesize_field",
    "write_field_csv",
    "read_field_csv",
    "canonical_json",
    "field_manifest",
    "write_manifest",
    "read_manifest",
    # energy
    "kinetic_energy",
    "dissipation",
    "boundary_power",
    "convective_flux",
    "energy_balance_residual",
    "EnergyReport",
    "classify_bc",
    "ClassificationReport",
    "check_compatibility",
    "CompatibilityReport",
    # navier-stokes
    "NsStepper",
    "NsState",
    "IterationReport",
    "stream_function_field",
    "nonlinearity",
    "run_simulation",
    "SimulationResult",
]
