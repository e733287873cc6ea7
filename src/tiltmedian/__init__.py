"""Numerical diagnostics for exponential tilting of real probability measures.

The package evaluates the family of exponentially tilted laws generated by a
base probability measure on the real line and a collection of residual
functionals (median gap, sign-kernel integral, convolution fixed-point
defect, mean-median gap, symmetry scores) that vanish simultaneously exactly
when the base measure is the standard normal law.

Each module's ``__all__`` decides what it exports; this package re-exports
all of them, plus ``NonFiniteIntegrandError`` from ``numerics``.
"""

from . import convolution, measures, medianlaw, symmetry, tilting
from .convolution import *  # noqa: F401,F403
from .measures import *  # noqa: F401,F403
from .medianlaw import *  # noqa: F401,F403
from .numerics import NonFiniteIntegrandError
from .symmetry import *  # noqa: F401,F403
from .tilting import *  # noqa: F401,F403

__version__ = "0.1.0"

__all__ = sorted(
    {"NonFiniteIntegrandError"}.union(
        *(module.__all__ for module in (convolution, measures, medianlaw, symmetry, tilting))
    )
)
