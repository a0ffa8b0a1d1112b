"""Verification laboratory for entire solutions of the SU(n+1) Toda system."""

from .cartan import cartan_apply
from .solution import (
    ComplexPoly,
    PositivityError,
    SolutionParams,
    load_params,
    normalize_lambdas,
    sample_params,
)

__all__ = [
    "cartan_apply",
    "ComplexPoly",
    "PositivityError",
    "SolutionParams",
    "load_params",
    "normalize_lambdas",
    "sample_params",
]

__version__ = "0.1.0"
