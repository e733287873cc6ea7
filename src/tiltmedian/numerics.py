"""Quadrature primitives for Gaussian-dominated integrands.

The rule is Gauss-Kronrod 15(7), applied panel-wise: ``anchored_edges`` lays
out panels of width ``FIXED_PANEL_WIDTH`` at fixed coordinates,
``panel_nodes`` gives each panel's 15 Kronrod abscissae and ``kronrod_sums``
its Kronrod estimate together with the embedded 7-point Gauss estimate, whose
difference is the panel's error estimate (``_error``, floored at the
rounding of the sum).  ``_panel_sums`` forms every full-panel sum of the
tilted integrand e^{tx} f(x) from those: the probe of the panel lattice in
``lattice`` and each pass of the tilt-grid engine in ``tilting`` call it.
``_LEGENDRE_TAIL`` maps a panel's 15 node values to the last three Legendre
coefficients of their interpolant: the lattice's resolution test.

The quadrature settings are fixed constants: a panel is resolved at an error
of ``max(ABS_TOL, REL_TOL * |value|)``, and improper integrals are truncated
to windows of base halfwidth ``TRUNCATION_HALFWIDTH`` scale units.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = [
    "ABS_TOL",
    "NonFiniteIntegrandError",
    "FIXED_PANEL_WIDTH",
    "REL_TOL",
    "TRUNCATION_HALFWIDTH",
    "anchored_edges",
    "kronrod_sums",
    "panel_nodes",
]

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


def _legendre_tail() -> np.ndarray:
    """The rows that map a panel's 15 node values to the Legendre coefficients
    c_12, c_13 and c_14 of their degree-14 interpolant on [-1, 1].

    The Legendre polynomials at the nodes come from the three-term recurrence
    (k + 1) P_{k+1} = (2k + 1) x P_k - k P_{k-1}; their 15 x 15 matrix is
    well conditioned (condition number 6.4), so its inverse is formed
    directly.  The 7-point Gauss rule is exact through degree 13 and the
    Kronrod rule integrates the interpolant, so Kronrod - Gauss sees c_14
    alone; these rows see the last three coefficients.
    """
    vander = np.ones((15, 15))
    vander[:, 1] = _NODES
    for k in range(1, 14):
        vander[:, k + 1] = ((2 * k + 1) * _NODES * vander[:, k] - k * vander[:, k - 1]) / (k + 1)
    return np.linalg.inv(vander)[12:]


_LEGENDRE_TAIL = _legendre_tail()

# width of the anchored panels: narrow enough that the 15-point rule is
# exact to rounding for integrands with unit-or-larger length scale
FIXED_PANEL_WIDTH = 0.5
_MAX_FIXED_PANELS = 4096
# relative floor of a panel error estimate, so no panel ever claims exactness
ROUNDING_FLOOR = 1.2e-16
_EPS = np.finfo(float).eps
# base halfwidth of every truncation window, in units of the measure's scale
TRUNCATION_HALFWIDTH = 12.0
# an engine panel is resolved at error <= max(ABS_TOL, REL_TOL * |value|)
REL_TOL = 1e-10
ABS_TOL = 1e-12


class NonFiniteIntegrandError(ValueError):
    """The log-integrand is nan or +inf at a quadrature node."""


def anchored_edges(a: float, b: float) -> np.ndarray:
    """Edges of fixed panels on [a, b]: a, the multiples of the stride inside, b.

    The stride is the panel width, doubled until at most ``_MAX_FIXED_PANELS``
    panels remain.  The interior edges sit at fixed coordinates, whatever the
    window: a panel lattice (see ``lattice``) is this grid over the window at
    ``T_MAX``, with a measure's breakpoints inserted, before any bisection.
    That window is laid out once per measure, so no endpoint moves between
    passes.
    """
    a, b = float(a), float(b)
    if not a < b:
        raise ValueError(f"window must satisfy a < b, got [{a}, {b}]")
    stride = FIXED_PANEL_WIDTH
    while (b - a) / stride > _MAX_FIXED_PANELS - 2:
        stride *= 2.0
    first = math.floor(a / stride) + 1
    last = math.ceil(b / stride) - 1
    return np.array([a] + [k * stride for k in range(first, last + 1)] + [b])


def panel_nodes(lo, hi) -> tuple[np.ndarray, np.ndarray]:
    """Kronrod abscissae (shape ``lo.shape + (15,)``) and half-widths of panels [lo, hi]."""
    lo = np.asarray(lo, dtype=float)
    hi = np.asarray(hi, dtype=float)
    half = 0.5 * (hi - lo)
    return (0.5 * (lo + hi))[..., None] + half[..., None] * _NODES, half


def kronrod_sums(values: np.ndarray, half) -> tuple[np.ndarray, np.ndarray]:
    """Kronrod and embedded Gauss panel integrals from values on ``panel_nodes``.

    The last axis of ``values`` holds a panel's 15 node values; leading axes
    may stack several integrands over the same panels, as the engine stacks
    each tilt's mass and moment for one call over both.
    """
    return half * (values @ _KRONROD_W), half * (values @ _GAUSS_W)


def _error(kronrod: np.ndarray, gauss: np.ndarray) -> np.ndarray:
    """|Kronrod - Gauss|, floored so that no panel claims exactness."""
    return np.maximum(np.abs(kronrod - gauss), ROUNDING_FLOOR * np.abs(kronrod))


def _panel_sums(ts, xs, half, log_pdf, out: np.ndarray, floor=-math.inf):
    """Each tilt's shift and the node values of its tilted mass and moment.

    The shift is the largest of t*x + log_pdf over the nodes ``xs`` of the
    panels, or ``floor`` where that is larger, and 0 where neither is finite
    (a tilt whose integrand vanishes on every node).  The node values, of
    shape (2, tilts) + ``xs.shape``, are exp(t*x + log_pdf - shift), the
    mass, stacked on x times that, the moment; their Kronrod panel sums and
    errors, in those shifted units, go to ``out``, shape (4, tilts, panels).
    The node values are returned with the shift, for the caller to reuse.
    """
    # one work array, written in place, keeps the memory flat: the mass node
    # values stacked on the moment's, for one Kronrod call over both
    work = np.empty((2, ts.size) + xs.shape)
    mass, moment = work
    np.multiply(ts[:, None, None], xs, out=mass)
    mass += log_pdf
    shift = np.maximum(mass.max(axis=(1, 2)), floor)
    shift = np.where(np.isfinite(shift), shift, 0.0)
    mass -= shift[:, None, None]
    np.exp(mass, out=mass)
    np.multiply(mass, xs, out=moment)
    kronrod, gauss = kronrod_sums(work, half)
    out[:2] = kronrod
    out[2:] = _error(kronrod, gauss)
    return shift, work


def _check_log_values(xs: np.ndarray, values: np.ndarray) -> None:
    bad = np.isnan(values) | np.isposinf(values)
    if np.any(bad):
        raise NonFiniteIntegrandError(f"log-integrand is nan or +inf at x={xs[bad][0]!r}")


def scaled_exp(log_scale, q=1.0, factor: float = 1.0) -> np.ndarray:
    """(factor * exp(log_scale)) * q elementwise, for factor > 0, without overflow warnings.

    Where factor * exp(log_scale) is finite this is that plain product; where
    it passes the float64 range the product is formed in log domain, as
    sign(q) exp(log_scale + log(factor) + log|q|), so an entry is +-inf only
    where the product itself passes that range.
    """
    log_scale, q = np.broadcast_arrays(np.asarray(log_scale, float), np.asarray(q, float))
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        scale = factor * np.exp(log_scale)
        logged = np.exp(log_scale + math.log(factor) + np.log(np.abs(q)))
        return np.where(np.isposinf(scale), np.sign(q) * logged, scale * q)
