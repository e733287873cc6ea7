"""Residual functionals built from the tilted-median property.

Each diagnostic measures, in a different analytic form, how far a base
measure is from having its tilt parameter sit exactly at the median of every
tilted law.  All of them vanish identically when the base is the standard
normal; for the perturbed catalog entries they are visibly nonzero at
ordinary grid resolution.

- ``median_gap``: tilted median minus the tilt parameter.
- ``sign_kernel_residual``: signed Gaussian-kernel integral against the
  density ratio; zero for all t exactly when the median property holds.
- ``convolution_residual``: pointwise defect of the density ratio as a fixed
  point of smoothing by the kernel ``|y| * exp(-y^2/2) / 2``.
- ``mean_median_gap``: tilted median minus tilted mean, a purely exploratory
  companion diagnostic.
- ``symmetry`` (``scan`` only): largest pointwise asymmetry of the tilted
  density about its mean, see ``symmetry.asymmetry_score``.
- ``lipschitz_bound``: an explicit local Lipschitz constant for the
  distribution function of the base measure.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .measures import BaseMeasure, LOG_SQRT_2PI
from .numerics import DEFAULT_QUADRATURE, QuadratureConfig, integrate
from .symmetry import _asymmetry_grid, default_offsets
from .tilting import T_MAX, tilt_grid

__all__ = [
    "DIAGNOSTIC_NAMES",
    "DiagnosticReport",
    "UnknownDiagnosticError",
    "convolution_residual",
    "lipschitz_bound",
    "mean_median_gap",
    "median_gap",
    "monotonicity_check",
    "scan",
    "sign_kernel_residual",
]

DIAGNOSTIC_NAMES = ("median_gap", "sign_kernel", "deriva", "mean_median", "symmetry")


class UnknownDiagnosticError(ValueError):
    """Requested diagnostic name is not in the fixed set."""


@dataclass(frozen=True)
class DiagnosticReport:
    """Residual values of one diagnostic over a tilt grid.

    ``max_abs_residual`` and ``argmax_t`` summarize the largest residual; an
    empty grid reports zero residual at t = 0 by convention.
    """

    name: str
    t_grid: tuple[float, ...]
    residuals: tuple[float, ...]
    error_estimates: tuple[float, ...]
    max_abs_residual: float
    argmax_t: float

    def __post_init__(self) -> None:
        if not (len(self.t_grid) == len(self.residuals) == len(self.error_estimates)):
            raise ValueError("grid, residuals and error estimates must share one length")
        if any(err < 0 for err in self.error_estimates):
            raise ValueError("error estimates must be nonnegative")


_Evaluator = Callable[
    [BaseMeasure, np.ndarray, QuadratureConfig], tuple[Sequence[float], Sequence[float]]
]


def _median_gap(m: BaseMeasure, ts: np.ndarray, cfg: QuadratureConfig):
    grid = tilt_grid(m, ts, cfg)
    return grid.median - ts, grid.median_error


def _mean_median(m: BaseMeasure, ts: np.ndarray, cfg: QuadratureConfig):
    grid = tilt_grid(m, ts, cfg)
    return grid.median - grid.mean, grid.median_error + grid.mean_error


def _symmetry(m: BaseMeasure, ts: np.ndarray, cfg: QuadratureConfig):
    # the score gets no error estimate: 0 is reported
    return _asymmetry_grid(m, ts, default_offsets(), cfg)[1], np.zeros(ts.size)


def _sign_kernel(m: BaseMeasure, t: float, cfg: QuadratureConfig) -> tuple[float, float]:
    halfwidth = m.window_halfwidth(t, cfg.truncation_halfwidth)

    def integrand(x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        return np.exp(-0.5 * (t - x) ** 2 - LOG_SQRT_2PI + m.log_g(x))

    # t may lie outside the window; the side beyond it then contributes 0
    value = 0.0
    error = 0.0
    if t > -halfwidth:
        lower = integrate(integrand, (-halfwidth, min(t, halfwidth)), cfg)
        value += lower.value
        error += lower.abs_error_estimate
    if t < halfwidth:
        upper = integrate(integrand, (max(t, -halfwidth), halfwidth), cfg)
        value -= upper.value
        error += upper.abs_error_estimate
    return value, error


def _convolution(m: BaseMeasure, t: float, cfg: QuadratureConfig) -> tuple[float, float]:
    halfwidth = m.window_halfwidth(t, cfg.truncation_halfwidth)

    def integrand(x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        gap = np.abs(t - x)
        with np.errstate(divide="ignore"):
            log_kernel = np.log(0.5 * gap) - 0.5 * gap**2
        return np.exp(log_kernel + m.log_g(x))

    smoothed = integrate(integrand, (-halfwidth, halfwidth), cfg)
    point = float(m.g(np.array([t]))[0])
    return point - smoothed.value, smoothed.abs_error_estimate


def _pointwise(
    evaluate: Callable[[BaseMeasure, float, QuadratureConfig], tuple[float, float]]
) -> _Evaluator:
    """Lift a one-tilt evaluator to a grid evaluator."""

    def over_grid(m: BaseMeasure, ts: np.ndarray, cfg: QuadratureConfig):
        pairs = [evaluate(m, float(t), cfg) for t in ts]
        return [value for value, _ in pairs], [err for _, err in pairs]

    return over_grid


# each evaluator maps a tilt grid to (residuals, error estimates); the
# median-based ones and symmetry take the whole grid through one tilt-grid
# engine pass
_EVALUATORS: dict[str, _Evaluator] = {
    "median_gap": _median_gap,
    "sign_kernel": _pointwise(_sign_kernel),
    "deriva": _pointwise(_convolution),
    "mean_median": _mean_median,
    "symmetry": _symmetry,
}


def median_gap(m: BaseMeasure, t: float, cfg: QuadratureConfig = DEFAULT_QUADRATURE) -> float:
    """Tilted median minus the tilt parameter; identically zero only for N(0,1)."""
    return float(_median_gap(m, np.array([float(t)]), cfg)[0][0])


def sign_kernel_residual(
    m: BaseMeasure, t: float, cfg: QuadratureConfig = DEFAULT_QUADRATURE
) -> float:
    """Integral of sign(t-x) * phi(t-x) against the density ratio."""
    return _sign_kernel(m, t, cfg)[0]


def convolution_residual(
    m: BaseMeasure, t: float, cfg: QuadratureConfig = DEFAULT_QUADRATURE
) -> float:
    """Density ratio at t minus its smoothing by the kernel |y|e^{-y^2/2}/2.

    Bounded ratios that are fixed points of this smoothing are constant, and
    the only constant admissible for a probability is 1, so this residual
    vanishing everywhere singles out the standard normal base.
    """
    return _convolution(m, t, cfg)[0]


def mean_median_gap(
    m: BaseMeasure, t: float, cfg: QuadratureConfig = DEFAULT_QUADRATURE
) -> float:
    """Tilted median minus tilted mean; zero for every Gaussian base."""
    return float(_mean_median(m, np.array([float(t)]), cfg)[0][0])


def lipschitz_bound(
    m: BaseMeasure,
    halfwidth: float,
    cfg: QuadratureConfig = DEFAULT_QUADRATURE,
    slope_grid_points: int = 101,
) -> float:
    """A constant c such that the base measure of (s, t) is at most c*(t-s).

    Valid for all -A <= s < t <= A with A = ``halfwidth``:
    c = e^{A^2} * ( max_{|u|<=A} |dL/du| / 2 + integral of |x| e^{A|x|} dP )
    where L is the Laplace transform; the slope maximum is taken over a
    uniform grid of u values, with dL/du = L(u) * (mean of the tilt-u law).
    """
    if not 0 < halfwidth <= T_MAX:
        raise ValueError(f"halfwidth must lie in (0, {T_MAX}]")
    grid = tilt_grid(m, np.linspace(-halfwidth, halfwidth, slope_grid_points), cfg, median=False)
    slopes = np.exp(grid.log_partition) * grid.mean
    max_slope = float(np.max(np.abs(slopes), initial=0.0))
    window = m.window_halfwidth(halfwidth, cfg.truncation_halfwidth)
    weighted_abs = integrate(
        lambda x: np.exp(
            halfwidth * np.abs(np.asarray(x, dtype=float))
            + m.log_pdf(x)
            + _log_abs(np.asarray(x, dtype=float))
        ),
        (-window, window),
        cfg,
    ).value
    return math.exp(halfwidth**2) * (0.5 * max_slope + weighted_abs)


def _log_abs(x: np.ndarray) -> np.ndarray:
    with np.errstate(divide="ignore"):
        return np.log(np.abs(x))


def monotonicity_check(
    m: BaseMeasure,
    x_grid: Sequence[float],
    cfg: QuadratureConfig = DEFAULT_QUADRATURE,
    mass_floor: float = 1e-12,
) -> list[tuple[float, float]]:
    """Flag adjacent grid intervals carrying base mass below ``mass_floor``.

    An empty list certifies that the distribution function is strictly
    increasing at the resolution of the supplied grid.
    """
    xs = np.asarray(x_grid, dtype=float)
    if xs.size < 2:
        raise ValueError("need at least two grid points")
    if not np.all(np.diff(xs) > 0):
        raise ValueError("grid must be strictly increasing")
    flagged: list[tuple[float, float]] = []
    for lo, hi in zip(xs[:-1], xs[1:]):
        mass = integrate(m.pdf, (float(lo), float(hi)), cfg).value
        if mass < mass_floor:
            flagged.append((float(lo), float(hi)))
    return flagged


def scan(
    m: BaseMeasure,
    which: str,
    t_grid: Sequence[float],
    cfg: QuadratureConfig = DEFAULT_QUADRATURE,
) -> DiagnosticReport:
    """Evaluate one named diagnostic over a tilt grid."""
    try:
        evaluator = _EVALUATORS[which]
    except KeyError:
        raise UnknownDiagnosticError(
            f"unknown diagnostic {which!r}; expected one of {DIAGNOSTIC_NAMES}"
        ) from None
    ts = [float(t) for t in t_grid]
    values, errs = evaluator(m, np.array(ts), cfg)
    residuals = [float(v) for v in values]
    errors = [float(e) for e in errs]
    if ts:
        idx = int(np.argmax(np.abs(residuals)))
        max_abs = abs(residuals[idx])
        argmax_t = ts[idx]
    else:
        max_abs = 0.0
        argmax_t = 0.0
    return DiagnosticReport(
        name=which,
        t_grid=tuple(ts),
        residuals=tuple(residuals),
        error_estimates=tuple(errors),
        max_abs_residual=max_abs,
        argmax_t=argmax_t,
    )
