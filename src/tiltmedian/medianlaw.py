"""Residual functionals built from the tilted-median property.

Each diagnostic measures, in a different analytic form, how far a base
measure is from having its tilt parameter sit exactly at the median of every
tilted law.  All of them vanish identically when the base is the standard
normal; for the perturbed catalog entries they are visibly nonzero at
ordinary grid resolution.  Each is an evaluator of one pass of
``tilting.tilt_grid`` over a tilt grid, the sign-kernel and convolution
residuals through its half-line sums F_t(t) and E_t[X; X <= t] at x = t;
several diagnostics over one grid share that pass, and the single-t
functions read the measure's kept one-tilt state.

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
  distribution function of the base measure; it and ``monotonicity_check``
  read the engine's half-line sums at x other than t.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .measures import BaseMeasure
from .numerics import scaled_exp
from .symmetry import _asymmetry_scores, _default_offsets
from .tilting import T_MAX, TiltGrid, _half_line, _tilt_row, tilt_grid

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

# base mass below which monotonicity_check flags an interval
_MASS_FLOOR = 1e-12


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


_Evaluator = Callable[[BaseMeasure, TiltGrid], tuple[Sequence[float], Sequence[float]]]


def _median_gap(m: BaseMeasure, grid: TiltGrid):
    return grid.median - grid.t_grid, grid.median_error


def _mean_median(m: BaseMeasure, grid: TiltGrid):
    return grid.median - grid.mean, grid.median_error + grid.mean_error


def _symmetry(m: BaseMeasure, grid: TiltGrid):
    # the score gets no error estimate: 0 is reported
    return _asymmetry_scores(m, grid, _default_offsets()), np.zeros(grid.t_grid.size)


def _sign_kernel(m: BaseMeasure, grid: TiltGrid):
    # phi(t - x) g(x) = e^{-t^2/2} e^{tx} f(x), split at x = t
    log_scale = grid.log_partition - 0.5 * grid.t_grid**2
    return (
        scaled_exp(log_scale, 2.0 * grid.cdf_at_t - 1.0),
        scaled_exp(log_scale, 2.0 * grid.cdf_at_t_error),
    )


def _convolution(m: BaseMeasure, grid: TiltGrid):
    # q(t - x) g(x) = sqrt(pi/2) e^{-t^2/2} |t - x| e^{tx} f(x), and
    # E_t|X - t| = mean - t + 2 (t F_t(t) - E_t[X; X <= t])
    ts = grid.t_grid
    log_scale, factor = grid.log_partition - 0.5 * ts**2, math.sqrt(0.5 * math.pi)
    spread = grid.mean - ts + 2.0 * (ts * grid.cdf_at_t - grid.lower_moment_at_t)
    error = grid.mean_error + 2.0 * (
        np.abs(ts) * grid.cdf_at_t_error + grid.lower_moment_at_t_error
    )
    return m.g(ts) - scaled_exp(log_scale, spread, factor), scaled_exp(log_scale, error, factor)


# each evaluator maps one engine pass over a tilt grid to (residuals, error estimates)
_EVALUATORS: dict[str, _Evaluator] = {
    "median_gap": _median_gap,
    "sign_kernel": _sign_kernel,
    "deriva": _convolution,
    "mean_median": _mean_median,
    "symmetry": _symmetry,
}
DIAGNOSTIC_NAMES = tuple(_EVALUATORS)
# the evaluators that read the median, so their pass must solve for it
_NEEDS_MEDIAN = frozenset({"median_gap", "mean_median"})
# the evaluators that read the half-line sums at x = t
_NEEDS_AT_T = frozenset({"sign_kernel", "deriva"})


def _at_tilt(which: str, m: BaseMeasure, t: float) -> float:
    """One diagnostic at a single tilt, from the measure's kept one-tilt state,
    which forms the median and the sums at x = t only for the evaluators that
    read them."""
    row = _tilt_row(m, t, median=which in _NEEDS_MEDIAN, at_t=which in _NEEDS_AT_T)
    return float(_EVALUATORS[which](m, row)[0][0])


def median_gap(m: BaseMeasure, t: float) -> float:
    """Tilted median minus the tilt parameter; identically zero only for N(0,1)."""
    return _at_tilt("median_gap", m, t)


def sign_kernel_residual(m: BaseMeasure, t: float) -> float:
    """Integral of sign(t-x) * phi(t-x) against the density ratio."""
    return _at_tilt("sign_kernel", m, t)


def convolution_residual(m: BaseMeasure, t: float) -> float:
    """Density ratio at t minus its smoothing by the kernel |y|e^{-y^2/2}/2.

    Bounded ratios that are fixed points of this smoothing are constant, and
    the only constant admissible for a probability is 1, so this residual
    vanishing everywhere singles out the standard normal base.
    """
    return _at_tilt("deriva", m, t)


def mean_median_gap(m: BaseMeasure, t: float) -> float:
    """Tilted median minus tilted mean; zero for every Gaussian base."""
    return _at_tilt("mean_median", m, t)


def lipschitz_bound(m: BaseMeasure, halfwidth: float) -> float:
    """A constant c such that the base measure of (s, t) is at most c*(t-s).

    Valid for all -A <= s < t <= A with A = ``halfwidth``:
    c = e^{A^2} * ( max_{|u|<=A} |dL/du| / 2 + integral of |x| e^{A|x|} dP )
    where L is the Laplace transform.  L is convex, so dL/du = L(u) * (mean
    of the tilt-u law) increases and |dL/du| peaks at u = -A or u = A.  The
    |x| integral splits at 0 into half-line sums of the same two tilts:
    L(A) (mean_A - E_A[X; X <= 0]) - L(-A) E_{-A}[X; X <= 0].
    A constant beyond the float64 range, L(A) included, is inf: a valid, if
    vacuous, bound.
    """
    if not 0 < halfwidth <= T_MAX:
        raise ValueError(f"halfwidth must lie in (0, {T_MAX}]")
    max_slope = weighted_abs = 0.0
    for a, above in ((halfwidth, 1.0), (-halfwidth, 0.0)):
        row = _tilt_row(m, a)
        scale, mean = float(scaled_exp(row.log_partition[0])), float(row.mean[0])
        below = float(_half_line(m, a, [0.0])[2][0])
        max_slope = max(max_slope, abs(scale * mean))
        weighted_abs += scale * (above * mean - below)
    return math.exp(halfwidth**2) * (0.5 * max_slope + weighted_abs)


def monotonicity_check(m: BaseMeasure, x_grid: Sequence[float]) -> list[tuple[float, float]]:
    """Flag adjacent grid intervals carrying base mass below ``_MASS_FLOOR`` (1e-12).

    An empty list certifies that the distribution function is strictly
    increasing at the resolution of the supplied grid.  The masses are L(0)
    times the differences of F_0 at the grid points, from one engine pass.
    """
    xs = np.asarray(x_grid, dtype=float)
    if xs.size < 2:
        raise ValueError("need at least two grid points")
    if not np.all(np.diff(xs) > 0):
        raise ValueError("grid must be strictly increasing")
    # a mass that could not be computed (nan) is flagged too
    low = np.flatnonzero(~(_interval_masses(m, xs) >= _MASS_FLOOR))
    return [(float(xs[k]), float(xs[k + 1])) for k in low]


def _interval_masses(m: BaseMeasure, xs: np.ndarray) -> np.ndarray:
    """Base mass of each interval between adjacent points of ``xs``: L(0) dF_0."""
    cdf = _half_line(m, 0.0, xs)[0]
    return math.exp(_tilt_row(m, 0.0).log_partition[0]) * np.diff(cdf)


def scan(m: BaseMeasure, which: str, t_grid: Sequence[float]) -> DiagnosticReport:
    """Evaluate one named diagnostic over a tilt grid."""
    return _scan_reports(m, (which,), t_grid)[0]


def _scan_reports(
    m: BaseMeasure, names: Sequence[str], t_grid: Sequence[float]
) -> list[DiagnosticReport]:
    """Evaluate several named diagnostics over a tilt grid from one engine pass."""
    for which in names:
        if which not in _EVALUATORS:
            raise UnknownDiagnosticError(
                f"unknown diagnostic {which!r}; expected one of {DIAGNOSTIC_NAMES}"
            )
    ts = [float(t) for t in t_grid]
    grid = tilt_grid(m, ts, median=not _NEEDS_MEDIAN.isdisjoint(names))
    return [_report(which, ts, *_EVALUATORS[which](m, grid)) for which in names]


def _report(
    which: str, ts: list[float], values: Sequence[float], errs: Sequence[float]
) -> DiagnosticReport:
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
