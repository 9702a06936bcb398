"""Simulation and verification toolkit for 1-to-2 phase-covariant cloning of qudits.

Build the cloning machine, run it by brute force, evaluate the closed-form
fidelities, re-derive the optimum numerically, and audit every claimed
invariant. See :mod:`phaseclone.cli` for the command-line front end.
"""

from .audit import AuditReport, CheckResult, run_audit
from .cloner import (
    CloningMachine,
    FidelityReport,
    VerificationError,
    build_machine,
    clone_state,
    fidelity_closed_form,
    fidelity_report,
    optimal_fidelity,
    optimal_params,
    reduced_clone,
    shrink_factor,
    simulate_fidelity,
    uqcm_fidelity,
)
from .linalg import (
    EQ_TOL,
    PSD_TOL,
    DensityMatrix,
    DimensionError,
    fidelity_pure,
    frobenius_distance,
    partial_trace,
)
from .optimize import SweepTable, maximize_fidelity, sweep_alpha
from .states import (
    UnsupportedDimensionError,
    is_prime,
    mub_basis,
    phase_state,
    random_phase_vector,
)

__version__ = "0.18.4"

__all__ = [
    "AuditReport",
    "CheckResult",
    "CloningMachine",
    "DensityMatrix",
    "DimensionError",
    "EQ_TOL",
    "FidelityReport",
    "PSD_TOL",
    "SweepTable",
    "UnsupportedDimensionError",
    "VerificationError",
    "build_machine",
    "clone_state",
    "fidelity_closed_form",
    "fidelity_pure",
    "fidelity_report",
    "frobenius_distance",
    "is_prime",
    "maximize_fidelity",
    "mub_basis",
    "optimal_fidelity",
    "optimal_params",
    "partial_trace",
    "phase_state",
    "random_phase_vector",
    "reduced_clone",
    "run_audit",
    "shrink_factor",
    "simulate_fidelity",
    "sweep_alpha",
    "uqcm_fidelity",
]
