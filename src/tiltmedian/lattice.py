"""The panel lattice of a base measure and its node table.

Every integral of the package is a sum of Gauss-Kronrod 15(7) panels of one
lattice per measure, which ``tilting``'s engine slices for each pass.  The
lattice is built once, on first use, from the base log-density alone, and
covers the truncation window of every tilt up to ``T_MAX``; the node table,
the one lattice cache kept on the measure, holds the lattice edges, the
Kronrod nodes and half-widths of every lattice panel and the checked base
log-density at those nodes.
"""

from __future__ import annotations

import math

import numpy as np

from .measures import BaseMeasure
from .numerics import (
    ABS_TOL,
    FIXED_PANEL_WIDTH,
    REL_TOL,
    _EPS,
    _check_log_values,
    _error,
    anchored_edges,
    kronrod_sums,
    panel_nodes,
)

__all__ = ["T_MAX"]

# the working tilt range: |t| <= T_MAX
T_MAX = 8.0
# a lattice panel is resolved when it passes at each of these tilts
_LATTICE_TILTS = (-T_MAX, 0.0, T_MAX)
# panels are not bisected below this width, and a lattice takes at most this
# many bisections: a round that would pass the budget is not made
_MIN_PANEL_WIDTH = 1e-10
_MAX_BISECTIONS = 4096


def _node_table(measure: BaseMeasure) -> tuple[np.ndarray, ...]:
    """The lattice edges, the Kronrod nodes and half-widths of its panels and the
    checked base log-density at those nodes, built on first use and kept on the
    measure.  Every pass slices the node arrays, so they are read-only."""
    table = measure._node_table
    if table is None:
        table = _build_node_table(measure, _lattice(measure))
        object.__setattr__(measure, "_node_table", table)
    return table


def _build_node_table(measure: BaseMeasure, edges: np.ndarray) -> tuple[np.ndarray, ...]:
    xs, half = panel_nodes(edges[:-1], edges[1:])
    log_pdf = np.asarray(measure.log_pdf(xs), dtype=float)
    _check_log_values(xs, log_pdf)
    for array in (xs, half, log_pdf):
        array.flags.writeable = False
    return edges, xs, half, log_pdf


def _lattice(measure: BaseMeasure) -> np.ndarray:
    """The measure's panel edges, which its node table keeps.

    They cover the window of every tilt up to ``T_MAX``: the anchored grid
    over the window at ``T_MAX``, with the measure's breakpoints inserted.
    A panel is bisected while, at a tilt of ``_LATTICE_TILTS``, the
    |Kronrod - Gauss| difference of its mass or first moment, in units where
    that tilt's largest node value is 1, exceeds ``max(ABS_TOL, REL_TOL *
    |Kronrod|)`` and the rounding of its node values, and the panel is wider
    than ``_MIN_PANEL_WIDTH``.  (Far out, as for N(0, 40^2) at t = 8, log_pdf
    holds 0.5 x^2 only to eps, and no bisection would gain.)  No round takes
    the bisections past ``_MAX_BISECTIONS``; error estimates carry the rest.
    """
    reach = FIXED_PANEL_WIDTH * math.ceil(measure.window_halfwidth(T_MAX) / FIXED_PANEL_WIDTH)
    inside = [x for x in measure.breakpoints if -reach < x < reach]
    # np.sort rather than np.unique, which loads more code on first use
    edges = np.sort(np.concatenate([anchored_edges(-reach, reach), inside]))
    edges = edges[np.concatenate([[True], np.diff(edges) > 0])]
    lo, hi = edges[:-1], edges[1:]
    shift = np.full(len(_LATTICE_TILTS), -np.inf)
    added, budget = [], _MAX_BISECTIONS
    while lo.size:
        xs, half = panel_nodes(lo, hi)
        log_pdf = np.asarray(measure.log_pdf(xs), dtype=float)
        _check_log_values(xs, log_pdf)
        missed = np.zeros(lo.size, dtype=bool)
        for k, t in enumerate(_LATTICE_TILTS):
            # a larger shift only shrinks the differences of panels already passed
            values = t * xs + log_pdf
            shift[k] = max(shift[k], values.max())
            values -= shift[k] if np.isfinite(shift[k]) else 0.0
            np.exp(values, out=values)
            # a node value is off by eps times the size of its exponent's terms:
            # t x and the two 0.5 x^2 of log_pdf, one of them inside log_g
            noise = _EPS * (np.abs(t * xs) + xs * xs)
            for integrand in (values, values * xs):
                kronrod, gauss = kronrod_sums(integrand, half)
                floor = kronrod_sums(np.abs(integrand) * noise, half)[0]
                tol = np.maximum(np.maximum(ABS_TOL, REL_TOL * np.abs(kronrod)), floor)
                missed |= _error(kronrod, gauss) > tol
        missed &= hi - lo > _MIN_PANEL_WIDTH
        budget -= np.count_nonzero(missed)
        if budget < 0:
            break
        mid = 0.5 * (lo[missed] + hi[missed])
        added.append(mid)
        lo, hi = np.concatenate([lo[missed], mid]), np.concatenate([mid, hi[missed]])
    return np.sort(np.concatenate([edges] + added))
