"""Halfspace Stokes boundary-symbol toolbox.

A library (plus ``stokesbc`` CLI) for the shifted Stokes resolvent problem
on the upper halfspace under the nine tangential/normal boundary-condition
pairs: closed-form boundary-symbol inverses, reflection-kernel solution
operators with trace identities, an elliptic-parabolic splitting solver,
kinetic-energy balance functionals with an empirical boundary-condition
classifier, and a desk-scale nonlinear Navier-Stokes time march — each
closed-form object cross-checked against independent brute-force oracles.

The exported names load lazily: ``import stokesbc`` imports no submodule
(and so no numpy), and ``stokesbc.solve_mode`` imports ``stokesbc.halfspace``
on first access.  The CLI relies on this to set its BLAS thread default
before numpy loads (see ``stokesbc.cli``).
"""

from importlib import import_module

__version__ = "0.1.0"

#: exported name -> the submodule that defines it
_EXPORTS: dict[str, str] = {
    name: module
    for module, names in {
        "errors": (
            "StokesbcError",
            "InvalidModeError",
            "ZeroModeError",
            "SingularModeError",
            "UnsupportedCaseError",
            "ProfileError",
            "QuadratureBudgetError",
            "ConfigError",
            "AuditError",
            "canonical_json",
        ),
        "symbols": (
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
        ),
        "profiles": (
            "ExpTerm",
            "ScalarModeProfile",
            "VectorModeProfile",
            "helmholtz_solve_mode",
        ),
        "quadrature": ("QuadratureCfg", "adaptive_integrate"),
        "elliptic": (
            "dirichlet_extend_mode",
            "neumann_extend_mode",
            "solve_elliptic_mode",
            "weyl_project_mode",
            "helmholtz_project_mode",
            "divergence_pressure_mode",
        ),
        "parabolic": (
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
        ),
        "halfspace": (
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
            "field_manifest",
            "write_manifest",
            "read_manifest",
        ),
        "energy": (
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
        ),
        "navier_stokes": (
            "NsStepper",
            "NsState",
            "IterationReport",
            "stream_function_field",
            "nonlinearity",
            "run_simulation",
            "SimulationResult",
        ),
    }.items()
    for name in names
}

__all__ = list(_EXPORTS)


def __getattr__(name: str):
    # a name outside the table raises, so ``from stokesbc import cli`` falls
    # back to importing the submodule stokesbc.cli
    try:
        module = _EXPORTS[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    return getattr(import_module(f".{module}", __name__), name)


def __dir__() -> list[str]:
    return [*globals(), *__all__]
