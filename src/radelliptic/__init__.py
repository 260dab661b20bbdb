"""Radial Dirichlet solver and certification suite for degenerate elliptic equations."""

from .analysis import (HolderEstimate, SignInterval, c1_bound_check,
                       c1_modulus_report, check_viscosity, epsilon_aA,
                       gamma_exponent, holder_exponent, sign_intervals,
                       verify_flux_inequalities)
from .eigen import EigenResult, EigenSign, principal_eigenvalue
from .errors import RadellipticError
from .grid import (DiscreteRadialFunction, Domain, DomainKind, Grading,
                   RadialGrid)
from .operators import OperatorSpec, Variant
from .report import VerificationReport
from .solver import Solution, SourceFunction, solve_dirichlet

__version__ = "0.1.0"

# the assembly kernel is numpy; the name is kept for run metadata
KERNEL_BACKEND = "python"

__all__ = [
    "KERNEL_BACKEND",
    "RadellipticError",
    "HolderEstimate",
    "SignInterval",
    "c1_bound_check",
    "c1_modulus_report",
    "check_viscosity",
    "epsilon_aA",
    "gamma_exponent",
    "holder_exponent",
    "sign_intervals",
    "verify_flux_inequalities",
    "EigenResult",
    "EigenSign",
    "principal_eigenvalue",
    "DiscreteRadialFunction",
    "Domain",
    "DomainKind",
    "Grading",
    "RadialGrid",
    "OperatorSpec",
    "Variant",
    "VerificationReport",
    "Solution",
    "SourceFunction",
    "solve_dirichlet",
    "__version__",
]
