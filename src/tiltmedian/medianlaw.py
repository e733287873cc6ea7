"""Residual functionals built from the tilted-median property.

Each diagnostic measures, in a different analytic form, how far a base
measure is from having its tilt parameter sit exactly at the median of every
tilted law.  All of them vanish identically when the base is the standard
normal; for the perturbed catalog entries they are visibly nonzero at
ordinary grid resolution.  Each is an evaluator of the measure's kept
engine pass over a tilt grid (see ``tilting``), the sign-kernel and
convolution residuals through its half-line sums F_t(t) and
E_t[X; X <= t] at x = t.  Consecutive scans on one grid share one pass
(the ``tilting`` module docstring says what a pass forms and when); the
single-t functions read the row of t of the kept pass, a grid's if it holds
t, and take that row of the evaluator's result.

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
from .tilting import T_MAX, _TiltPass, _tilt_grid, _tilt_state

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


_Evaluator = Callable[[BaseMeasure, _TiltPass], tuple[Sequence[float], Sequence[float]]]


def _median_gap(m: BaseMeasure, state: _TiltPass):
    median, error = state.medians
    return median - state.ts, error


def _mean_median(m: BaseMeasure, state: _TiltPass):
    median, error = state.medians
    return median - state.mean, error + state.mean_error


def _symmetry(m: BaseMeasure, state: _TiltPass):
    # the score gets no error estimate: 0 is reported
    return _asymmetry_scores(m, state, _default_offsets(), slice(None)), np.zeros(state.ts.size)


def _sign_kernel(m: BaseMeasure, state: _TiltPass):
    # phi(t - x) g(x) = e^{-t^2/2} e^{tx} f(x), split at x = t
    cdf, cdf_error, _, _ = state.at_t
    log_scale = state.log_partition - 0.5 * state.ts**2
    return scaled_exp(log_scale, 2.0 * cdf - 1.0), scaled_exp(log_scale, 2.0 * cdf_error)


def _convolution(m: BaseMeasure, state: _TiltPass):
    # q(t - x) g(x) = sqrt(pi/2) e^{-t^2/2} |t - x| e^{tx} f(x), and
    # E_t|X - t| = mean - t + 2 (t F_t(t) - E_t[X; X <= t])
    ts, (cdf, cdf_error, lower, lower_error) = state.ts, state.at_t
    log_scale, factor = state.log_partition - 0.5 * ts**2, math.sqrt(0.5 * math.pi)
    spread = state.mean - ts + 2.0 * (ts * cdf - lower)
    error = state.mean_error + 2.0 * (np.abs(ts) * cdf_error + lower_error)
    return m.g(ts) - scaled_exp(log_scale, spread, factor), scaled_exp(log_scale, error, factor)


# each evaluator maps one engine pass over a tilt grid to (residuals, error
# estimates), forming the medians or the sums at x = t only if it reads them
_EVALUATORS: dict[str, _Evaluator] = {
    "median_gap": _median_gap,
    "sign_kernel": _sign_kernel,
    "deriva": _convolution,
    "mean_median": _mean_median,
    "symmetry": _symmetry,
}
DIAGNOSTIC_NAMES = tuple(_EVALUATORS)


def _at_tilt(which: str, m: BaseMeasure, t: float) -> float:
    """One diagnostic at a single tilt, from the row of t of the measure's kept pass."""
    state, row = _tilt_state(m, t)
    return float(_EVALUATORS[which](m, state)[0][row])


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
        state, row = _tilt_state(m, a)
        scale, mean = float(scaled_exp(state.log_partition[row])), float(state.mean[row])
        below = float(state.half_line([0.0], row)[2][0])
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
    state, row = _tilt_state(m, 0.0)
    return math.exp(state.log_partition[row]) * np.diff(state.half_line(xs, row)[0])


def scan(m: BaseMeasure, which: str, t_grid: Sequence[float]) -> DiagnosticReport:
    """Evaluate one named diagnostic over a tilt grid, from the measure's kept pass."""
    if which not in _EVALUATORS:
        raise UnknownDiagnosticError(
            f"unknown diagnostic {which!r}; expected one of {DIAGNOSTIC_NAMES}"
        )
    state = _tilt_grid(m, t_grid)
    return _report(which, state.ts.tolist(), *_EVALUATORS[which](m, state))


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
