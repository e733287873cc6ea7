"""Symmetry diagnostics for the tilted family, in dimension one.

A base measure whose every tilt is symmetric about its mean is normal; the
chain runs through the midpoint identity for the tilted mean (symmetry
forces 2*m(t) = m(t+s) + m(t-s), so m is affine) and ends with the log
Laplace transform being a quadratic polynomial.  The three operations here
probe the three links of that chain numerically.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .measures import BaseMeasure
from .tilting import _check_grid, _check_tilt, _TiltPass, _tilt_grid, _tilt_state

__all__ = [
    "QuadraticFit",
    "SymmetryReport",
    "asymmetry_score",
    "default_offsets",
    "fit_quadratic_log_partition",
    "midpoint_residual",
]


@dataclass(frozen=True)
class SymmetryReport:
    """Largest pointwise density mismatch about the tilted mean."""

    t: float
    center: float
    asymmetry_score: float
    offsets_tested: int

    def __post_init__(self) -> None:
        if self.asymmetry_score < 0:
            raise ValueError("asymmetry_score must be nonnegative")


@functools.cache
def _default_offsets() -> np.ndarray:
    """The default offsets, kept read-only.  They are formed on first use, not at
    import: a first ``np.geomspace`` call adds about 0.4 MB to a process's RSS."""
    offsets = np.geomspace(0.05, 6.0, 50)
    offsets.flags.writeable = False
    return offsets


def default_offsets() -> np.ndarray:
    """50 log-spaced offsets covering both near-center and tail asymmetry."""
    return _default_offsets().copy()


def asymmetry_score(
    m: BaseMeasure, t: float, offsets: Sequence[float] | None = None
) -> SymmetryReport:
    """Max over offsets u of |pdf(center+u) - pdf(center-u)| for the tilt-t law.

    The center is the tilted mean, read from the row of t of the measure's
    kept pass: a grid's, when the kept grid holds t, so after a scan the
    scores on its grid run no engine pass.  A row's mean is within
    16 eps max(1, |mean|) of a one-tilt pass's.
    """
    if offsets is None:
        offs = _default_offsets()
    else:
        offs = np.asarray(offsets, dtype=float)
        if offs.ndim != 1 or offs.size == 0 or not np.all(np.isfinite(offs) & (offs > 0)):
            raise ValueError("offsets must be a nonempty 1-d sequence of finite positive values")
    state, row = _tilt_state(m, t)
    return SymmetryReport(
        t=float(t),
        center=float(state.mean[row]),
        asymmetry_score=float(_asymmetry_scores(m, state, offs, slice(row, row + 1))[0]),
        offsets_tested=int(offs.size),
    )


def _asymmetry_scores(
    m: BaseMeasure, state: _TiltPass, offs: np.ndarray, rows: slice
) -> np.ndarray:
    """Asymmetry score of the tilts ``rows`` of an engine pass, about their tilted means.

    ``offs`` are finite and positive: the default offsets, or offsets that
    ``asymmetry_score`` checked.  The score reads the tilted density at the
    offsets, which is defined past the truncation window too, so offsets may
    reach beyond it.
    """
    t, log_l, centers = (array[rows, None] for array in (state.ts, state.log_partition, state.mean))
    if not np.all(np.isfinite(log_l)):
        raise ValueError("log_partition must be finite")
    # the tilted density at centers + offs and centers - offs, from one log_pdf call
    x = centers + np.concatenate([offs, -offs])
    density = np.exp(t * x + m.log_pdf(x) - log_l)
    return np.max(np.abs(density[:, : offs.size] - density[:, offs.size :]), axis=1)


def midpoint_residual(m: BaseMeasure, t: float, s: float) -> float:
    """m(t+s) + m(t-s) - 2*m(t) for the tilted mean; zero iff the mean is locally affine."""
    _check_tilt(t)
    if not math.isfinite(s):
        raise ValueError(f"offset s must be finite, got {s!r}")
    if s == 0.0:
        return 0.0
    mean_up, mean_down, mean_mid = _tilt_grid(m, [t + s, t - s, t]).mean
    return float(mean_up + mean_down - 2.0 * mean_mid)


@dataclass(frozen=True)
class QuadraticFit:
    """Least-squares quadratic for the log Laplace transform."""

    constant: float
    linear: float
    quadratic: float
    max_residual: float


def fit_quadratic_log_partition(m: BaseMeasure, t_grid: Sequence[float]) -> QuadraticFit:
    """Fit constant + linear*t + quadratic*t^2 to the log Laplace transform.

    Uses the normal equations on the degree-2 Vandermonde design; the grids
    used here are short enough that conditioning is harmless.  For a normal
    base the fit is exact and the coefficients recover the mean and half the
    variance.  The grid is checked whole before the engine runs, so a
    rejected grid leaves the measure's kept pass in place.
    """
    ts = _check_grid(t_grid)
    if ts.size < 5:
        raise ValueError("need at least five grid points for a stable quadratic fit")
    # a set, not np.unique, whose first call imports numpy.ma (1.1 MB)
    distinct = len(set(ts.tolist()))
    if distinct < 3:
        # fewer distinct tilts leave the three coefficients underdetermined
        raise ValueError(f"t_grid must hold at least three distinct tilts, got {distinct}")
    values = _tilt_grid(m, ts).log_partition
    design = np.column_stack([np.ones_like(ts), ts, ts**2])
    gram = design.T @ design
    coeffs = np.linalg.solve(gram, design.T @ values)
    residuals = design @ coeffs - values
    return QuadraticFit(
        constant=float(coeffs[0]),
        linear=float(coeffs[1]),
        quadratic=float(coeffs[2]),
        max_residual=float(np.max(np.abs(residuals))),
    )
