"""Numerical diagnostics for exponential tilting of real probability measures.

The package evaluates the family of exponentially tilted laws generated by a
base probability measure on the real line and a collection of residual
functionals (median gap, sign-kernel integral, convolution fixed-point
defect, mean-median gap, symmetry scores) that vanish simultaneously exactly
when the base measure is the standard normal law.
"""

from .convolution import (
    ConvolutionSetup,
    IterationTrace,
    WindowTooNarrowError,
    convolve,
    iterate_fixed_point,
    kernel,
    kernel_laplace,
)
from .measures import (
    BaseMeasure,
    Gaussian,
    GaussianMixture,
    GridFunction,
    MEASURE_FAMILIES,
    MeasureError,
    MeasureSpec,
    NegativeDensityError,
    NotNormalizableError,
    PerturbedCosine,
    PerturbedQuadratic,
    RatioOverflowError,
    Tabulated,
    TailViolationError,
    build_measure,
    closed_form_log_partition,
    sample_to_grid,
)
from .medianlaw import (
    DIAGNOSTIC_NAMES,
    DiagnosticReport,
    UnknownDiagnosticError,
    convolution_residual,
    lipschitz_bound,
    mean_median_gap,
    median_gap,
    monotonicity_check,
    scan,
    sign_kernel_residual,
)
from .numerics import NonFiniteIntegrandError
from .symmetry import (
    QuadraticFit,
    SymmetryReport,
    asymmetry_score,
    default_offsets,
    fit_quadratic_log_partition,
    midpoint_residual,
)
from .tilting import T_MAX, TiltGrid, TiltedView, half_line_mgf, log_partition, tilt, tilt_grid

__version__ = "0.1.0"

__all__ = [
    "BaseMeasure",
    "ConvolutionSetup",
    "DIAGNOSTIC_NAMES",
    "DiagnosticReport",
    "Gaussian",
    "GaussianMixture",
    "GridFunction",
    "IterationTrace",
    "MEASURE_FAMILIES",
    "MeasureError",
    "MeasureSpec",
    "NegativeDensityError",
    "NonFiniteIntegrandError",
    "NotNormalizableError",
    "PerturbedCosine",
    "PerturbedQuadratic",
    "QuadraticFit",
    "RatioOverflowError",
    "SymmetryReport",
    "T_MAX",
    "Tabulated",
    "TailViolationError",
    "TiltGrid",
    "TiltedView",
    "UnknownDiagnosticError",
    "WindowTooNarrowError",
    "asymmetry_score",
    "build_measure",
    "closed_form_log_partition",
    "convolution_residual",
    "convolve",
    "default_offsets",
    "fit_quadratic_log_partition",
    "half_line_mgf",
    "iterate_fixed_point",
    "kernel",
    "kernel_laplace",
    "lipschitz_bound",
    "log_partition",
    "mean_median_gap",
    "median_gap",
    "midpoint_residual",
    "monotonicity_check",
    "sample_to_grid",
    "scan",
    "sign_kernel_residual",
    "tilt",
    "tilt_grid",
]
