"""Symmetry diagnostics for the tilted family, in dimension one.

A base measure whose every tilt is symmetric about its mean is normal; the
chain runs through the midpoint identity for the tilted mean (symmetry
forces 2*m(t) = m(t+s) + m(t-s), so m is affine) and ends with the log
Laplace transform being a quadratic polynomial.  The three operations here
probe the three links of that chain numerically.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .measures import BaseMeasure
from .numerics import DEFAULT_QUADRATURE, QuadratureConfig
from .tilting import TiltGrid, _tilt_row, tilt_grid

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


def default_offsets() -> np.ndarray:
    """50 log-spaced offsets covering both near-center and tail asymmetry."""
    return np.geomspace(0.05, 6.0, 50)


def asymmetry_score(
    m: BaseMeasure,
    t: float,
    offsets: Sequence[float] | None = None,
    cfg: QuadratureConfig = DEFAULT_QUADRATURE,
) -> SymmetryReport:
    """Max over offsets u of |pdf(center+u) - pdf(center-u)| for the tilt-t law."""
    offs = default_offsets() if offsets is None else np.asarray(offsets, dtype=float)
    row = _tilt_row(m, t, cfg)
    return SymmetryReport(
        t=float(t),
        center=float(row.mean[0]),
        asymmetry_score=float(_asymmetry_scores(m, row, offs, cfg)[0]),
        offsets_tested=int(offs.size),
    )


def _asymmetry_scores(
    m: BaseMeasure, grid: TiltGrid, offs: np.ndarray, cfg: QuadratureConfig
) -> np.ndarray:
    """Asymmetry score of every tilt of an engine pass, about its tilted mean."""
    if offs.size == 0 or np.any(offs <= 0):
        raise ValueError("offsets must be positive")
    if not np.all(np.isfinite(grid.log_partition)):
        raise ValueError("log_partition must be finite")
    ts = grid.t_grid
    halfwidths = np.array([m.window_halfwidth(t, cfg.truncation_halfwidth) for t in ts])
    # slack covers quadrature fuzz on the center when an offset lands
    # exactly on the truncation edge
    if np.any(np.abs(grid.mean) + float(offs.max()) > halfwidths + 1e-9):
        raise ValueError("offsets reach beyond the truncation window")
    t, log_l, centers = ts[:, None], grid.log_partition[:, None], grid.mean[:, None]

    def tilted_pdf(x: np.ndarray) -> np.ndarray:
        return np.exp(t * x + m.log_pdf(x) - log_l)

    return np.max(np.abs(tilted_pdf(centers + offs) - tilted_pdf(centers - offs)), axis=1)


def midpoint_residual(
    m: BaseMeasure, t: float, s: float, cfg: QuadratureConfig = DEFAULT_QUADRATURE
) -> float:
    """m(t+s) + m(t-s) - 2*m(t) for the tilted mean; zero iff the mean is locally affine."""
    if s == 0.0:
        return 0.0
    mean_up, mean_down, mean_mid = tilt_grid(m, [t + s, t - s, t], cfg, median=False).mean
    return float(mean_up + mean_down - 2.0 * mean_mid)


@dataclass(frozen=True)
class QuadraticFit:
    """Least-squares quadratic for the log Laplace transform."""

    constant: float
    linear: float
    quadratic: float
    max_residual: float


def fit_quadratic_log_partition(
    m: BaseMeasure,
    t_grid: Sequence[float],
    cfg: QuadratureConfig = DEFAULT_QUADRATURE,
) -> QuadraticFit:
    """Fit constant + linear*t + quadratic*t^2 to the log Laplace transform.

    Uses the normal equations on the degree-2 Vandermonde design; the grids
    used here are short enough that conditioning is harmless.  For a normal
    base the fit is exact and the coefficients recover the mean and half the
    variance.
    """
    ts = np.asarray(t_grid, dtype=float)
    if ts.size < 5:
        raise ValueError("need at least five grid points for a stable quadratic fit")
    values = tilt_grid(m, ts, cfg, median=False).log_partition
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
