"""Quadrature primitives for Gaussian-dominated integrands.

The integration scheme is adaptive Gauss-Kronrod 15(7): the working window is
cut into panels of at most ~2 units, each panel gets a 15-point Kronrod
estimate with the embedded 7-point Gauss rule supplying the error estimate,
and the panel with the largest error is bisected until the requested
tolerance is met.  Integrands must accept a numpy array of abscissae and
return an array of the same shape.

The same 15(7) rule is also exposed panel-wise (``anchored_edges``,
``panel_nodes``, ``kronrod_sums``) for the tilt-grid engine in ``tilting``,
which serves every tilted-law integral; ``integrate`` is left to the engine's
unresolved panels and to the unit-mass checks in ``measures``.

All improper integrals elsewhere in the package are truncated to a finite
window before reaching this module; the truncation halfwidth carried by
``QuadratureConfig`` is the base halfwidth those callers use.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

__all__ = [
    "NonFiniteIntegrandError",
    "QuadratureConfig",
    "QuadratureResult",
    "DEFAULT_QUADRATURE",
    "DEFAULT_X_TOL",
    "FIXED_PANEL_WIDTH",
    "anchored_edges",
    "integrate",
    "kronrod_sums",
    "panel_nodes",
]

DEFAULT_X_TOL = 1e-10

# Gauss-Kronrod 15(7) abscissae and weights on [-1, 1], positive half.
_XGK = (
    0.991455371120813,
    0.949107912342759,
    0.864864423359769,
    0.741531185599394,
    0.586087235467691,
    0.405845151377397,
    0.207784955007898,
    0.0,
)
_WGK = (
    0.022935322010529,
    0.063092092629979,
    0.104790010322250,
    0.140653259715525,
    0.169004726639267,
    0.190350578064785,
    0.204432940075298,
    0.209482141084728,
)
_WG = (
    0.129484966168870,
    0.279705391489277,
    0.381830050505119,
    0.417959183673469,
)

_NODES = np.array([-x for x in _XGK[:-1]] + [0.0] + [x for x in reversed(_XGK[:-1])])
_KRONROD_W = np.array(list(_WGK[:-1]) + [_WGK[-1]] + list(reversed(_WGK[:-1])))
_GAUSS_W = np.zeros(15)
_GAUSS_W[[1, 3, 5, 7, 9, 11, 13]] = [
    _WG[0], _WG[1], _WG[2], _WG[3], _WG[2], _WG[1], _WG[0],
]

_PANEL_WIDTH = 2.0
_MAX_INITIAL_PANELS = 128
# width of the non-adaptive panels: narrow enough that the 15-point rule is
# exact to rounding for integrands with unit-or-larger length scale
FIXED_PANEL_WIDTH = 0.5
_MAX_FIXED_PANELS = 4096
# relative floor of a panel error estimate, so no panel ever claims exactness
ROUNDING_FLOOR = 1.2e-16


class NonFiniteIntegrandError(ValueError):
    """The integrand produced nan or +/-inf inside the window."""


@dataclass(frozen=True)
class QuadratureConfig:
    """Tolerances and the base truncation halfwidth for window construction."""

    truncation_halfwidth: float = 12.0
    rel_tol: float = 1e-10
    abs_tol: float = 1e-12
    max_subdivisions: int = 2000

    def __post_init__(self) -> None:
        if not self.truncation_halfwidth > 0:
            raise ValueError("truncation_halfwidth must be positive")
        if not 0.0 < self.rel_tol < 1.0:
            raise ValueError("rel_tol must lie in (0, 1)")
        if not self.abs_tol > 0:
            raise ValueError("abs_tol must be positive")
        if self.max_subdivisions < 0:
            raise ValueError("max_subdivisions must be nonnegative")


DEFAULT_QUADRATURE = QuadratureConfig()


@dataclass(frozen=True)
class QuadratureResult:
    value: float
    abs_error_estimate: float
    evaluations: int
    tolerance_met: bool = True

    def __post_init__(self) -> None:
        if self.abs_error_estimate < 0:
            raise ValueError("abs_error_estimate must be nonnegative")
        if self.evaluations < 1:
            raise ValueError("evaluations must be at least 1")


def _initial_edges(
    a: float, b: float, stride: float = _PANEL_WIDTH, max_panels: int = _MAX_INITIAL_PANELS
) -> list[float]:
    """Panel edges: absolute multiples of the stride inside (a, b), doubling the
    stride until at most ``max_panels`` panels remain."""
    while (b - a) / stride > max_panels - 2:
        stride *= 2.0
    first = math.floor(a / stride) + 1
    last = math.ceil(b / stride) - 1
    return [a] + [k * stride for k in range(first, last + 1)] + [b]


def anchored_edges(a: float, b: float) -> np.ndarray:
    """Edges of fixed panels on [a, b]: a, the multiples of the panel width inside, b.

    Anchoring interior edges to fixed coordinates keeps the panel layout
    identical when a window endpoint moves, so integrals probed by finite
    differences vary smoothly and results for one tilt do not depend on the
    window of the others it is computed with, up to the last bit.
    """
    a, b = float(a), float(b)
    if not a < b:
        raise ValueError(f"window must satisfy a < b, got [{a}, {b}]")
    return np.array(_initial_edges(a, b, FIXED_PANEL_WIDTH, _MAX_FIXED_PANELS))


def panel_nodes(lo, hi) -> tuple[np.ndarray, np.ndarray]:
    """Kronrod abscissae (shape ``lo.shape + (15,)``) and half-widths of panels [lo, hi]."""
    lo = np.asarray(lo, dtype=float)
    hi = np.asarray(hi, dtype=float)
    half = 0.5 * (hi - lo)
    return (0.5 * (lo + hi))[..., None] + half[..., None] * _NODES, half


def kronrod_sums(values: np.ndarray, half) -> tuple[np.ndarray, np.ndarray]:
    """Kronrod and embedded Gauss panel integrals from values on ``panel_nodes``."""
    return half * (values @ _KRONROD_W), half * (values @ _GAUSS_W)


def _panel(f: Callable, a: float, b: float) -> tuple[float, float]:
    """Kronrod value and |Kronrod - Gauss| error bound on one panel."""
    xs, _ = panel_nodes(a, b)
    ys = np.asarray(f(xs), dtype=float)
    if not np.all(np.isfinite(ys)):
        bad = xs[~np.isfinite(ys)][0]
        raise NonFiniteIntegrandError(f"integrand is not finite at x={bad!r}")
    kronrod, gauss = (float(v) for v in kronrod_sums(ys, 0.5 * (b - a)))
    err = max(abs(kronrod - gauss), ROUNDING_FLOOR * abs(kronrod))
    return kronrod, err


def integrate(
    f: Callable[[np.ndarray], np.ndarray],
    window: tuple[float, float],
    cfg: QuadratureConfig = DEFAULT_QUADRATURE,
) -> QuadratureResult:
    """Integrate ``f`` over ``window`` adaptively.

    Refinement stops once the summed panel error estimate drops below
    ``max(abs_tol, rel_tol * |value|)`` or ``max_subdivisions`` bisections
    have been spent; the latter is reported via ``tolerance_met=False``
    rather than raised.
    """
    a, b = float(window[0]), float(window[1])
    if not a < b:
        raise ValueError(f"window must satisfy a < b, got [{a}, {b}]")

    edges = _initial_edges(a, b)
    heap: list[tuple[float, int, float, float, float, float]] = []
    counter = 0
    total = 0.0
    total_err = 0.0
    evaluations = 0
    for lo, hi in zip(edges[:-1], edges[1:]):
        val, err = _panel(f, lo, hi)
        evaluations += 15
        total += val
        total_err += err
        heapq.heappush(heap, (-err, counter, lo, hi, val, err))
        counter += 1

    splits = 0
    while True:
        if total_err <= max(cfg.abs_tol, cfg.rel_tol * abs(total)):
            # panel errors can span many orders of magnitude, and then the
            # running total drifts (even below zero): re-add it before stopping
            total_err = math.fsum(item[5] for item in heap)
            if total_err <= max(cfg.abs_tol, cfg.rel_tol * abs(total)):
                break
        if splits >= cfg.max_subdivisions:
            return QuadratureResult(total, total_err, evaluations, tolerance_met=False)
        neg_err, _, lo, hi, val, err = heapq.heappop(heap)
        mid = 0.5 * (lo + hi)
        if mid <= lo or mid >= hi:
            # panel at floating-point resolution; keep its estimate as-is
            heapq.heappush(heap, (0.0, counter, lo, hi, val, err))
            counter += 1
            splits += 1
            continue
        left_val, left_err = _panel(f, lo, mid)
        right_val, right_err = _panel(f, mid, hi)
        evaluations += 30
        total += left_val + right_val - val
        total_err += left_err + right_err - err
        heapq.heappush(heap, (-left_err, counter, lo, mid, left_val, left_err))
        heapq.heappush(heap, (-right_err, counter + 1, mid, hi, right_val, right_err))
        counter += 2
        splits += 1

    return QuadratureResult(total, total_err, evaluations, tolerance_met=True)
