"""The panel lattice of a base measure and its node table.

Every integral of the package is a sum of Gauss-Kronrod 15(7) panels of one
lattice per measure, which ``tilting``'s engine slices for each pass.  The
lattice is built once, on first use, from the base log-density alone, and
covers the truncation window of every tilt up to ``T_MAX``.  Its bisection
probes the panels with ``numerics._panel_sums``, the kernel of every engine
pass, tests the Legendre tail of each panel's node values, and keeps the
Kronrod nodes and half-widths of each panel it passes with the checked base
log-density there.  Sorted, those arrays and the lattice edges are the node
table, the one lattice cache kept on the measure, so the base log-density
is evaluated once per node.  Every measure's table comes from that one
bisection: a normalized table starts it from its raw table's edges.
"""

from __future__ import annotations

import math

import numpy as np

from .measures import BaseMeasure, MeasureError
from .numerics import (
    ABS_TOL,
    FIXED_PANEL_WIDTH,
    REL_TOL,
    _EPS,
    _LEGENDRE_TAIL,
    _check_log_values,
    _panel_sums,
    anchored_edges,
    panel_nodes,
)

__all__ = ["T_MAX"]

# the working tilt range: |t| <= T_MAX
T_MAX = 8.0
# a lattice panel is resolved when it passes at each of these tilts
_LATTICE_TILTS = np.array([-T_MAX, 0.0, T_MAX])
# panels are not bisected below this width, and a lattice takes at most this
# many bisections: a round that would pass the budget is not made
_MIN_PANEL_WIDTH = 1e-10
_MAX_BISECTIONS = 4096


def _node_table(measure: BaseMeasure) -> tuple[np.ndarray, ...]:
    """The lattice edges, the Kronrod nodes and half-widths of its panels and the
    checked base log-density at those nodes, built on first use by ``_lattice``
    and kept on the measure, whose field no other function writes.  Every
    pass slices the table, so its arrays are read-only."""
    table = measure._node_table
    if table is None:
        table = _lattice(measure)
        for array in table:
            array.flags.writeable = False
        object.__setattr__(measure, "_node_table", table)
    return table


@np.errstate(over="ignore", invalid="ignore")
def _lattice(measure: BaseMeasure) -> tuple[np.ndarray, ...]:
    """The measure's node table, from the bisection of its panel lattice.

    The lattice covers the window of every tilt up to ``T_MAX``: the
    anchored grid over the window at ``T_MAX``, with the measure's
    breakpoints inserted.  A panel is bisected while, at a tilt of
    ``_LATTICE_TILTS``, the Legendre tail of its mass or first moment,
    2 half (|c_12| + |c_13| + |c_14|) from ``numerics._LEGENDRE_TAIL``, in
    units where that tilt's largest node value so far is 1, exceeds
    ``max(ABS_TOL, REL_TOL * |Kronrod|)`` and the rounding of its node
    values carried through the absolute tail rows, and the panel is wider
    than ``_MIN_PANEL_WIDTH``.  The |Kronrod - Gauss| difference is the c_14
    term alone, which a panel holding many periods of cos(w x) can make
    small by accident; the tail cannot alias that way.  (Far out, as for
    N(0, 40^2) at t = 8, log_pdf holds 0.5 x^2 only to eps, and no
    bisection would gain.)  No round takes the bisections past
    ``_MAX_BISECTIONS``; error estimates carry the rest.  The nodes,
    half-widths and log-density of each round's panels are kept where the
    panel passes, and the table is those arrays sorted by left edge.
    Far-out nodes may overflow x^2, and the rounding of their node values
    with it: neither is a failure, so neither warns.  A window at ``T_MAX``
    past the float64 range is a ``MeasureError``.
    """
    try:
        reach = FIXED_PANEL_WIDTH * math.ceil(measure.window_halfwidth(T_MAX) / FIXED_PANEL_WIDTH)
    except OverflowError as exc:  # window_scale**2, or ceil of an infinite ratio
        raise MeasureError(
            f"the truncation window at t = {T_MAX} (offset {measure.window_offset!r}, "
            f"scale {measure.window_scale!r}) passes the float64 range"
        ) from exc
    inside = [x for x in measure.breakpoints if -reach < x < reach]
    # np.sort rather than np.unique, which loads more code on first use
    edges = np.sort(np.concatenate([anchored_edges(-reach, reach), inside]))
    edges = edges[np.concatenate([[True], np.diff(edges) > 0])]
    lo, hi = edges[:-1], edges[1:]
    shift, passed, budget = -math.inf, [], _MAX_BISECTIONS
    while lo.size:
        xs, half = panel_nodes(lo, hi)
        log_pdf = np.asarray(measure.log_pdf(xs), dtype=float)
        _check_log_values(xs, log_pdf)
        sums = np.empty((4, _LATTICE_TILTS.size, lo.size))
        # a larger shift only shrinks the tails of panels already passed
        shift, values = _panel_sums(_LATTICE_TILTS, xs, half, log_pdf, sums, floor=shift)
        tail = np.abs(values @ _LEGENDRE_TAIL.T).sum(axis=-1) * (2.0 * half)
        # a node value is off by eps times the size of its exponent's terms:
        # t x and the two 0.5 x^2 of log_pdf, one of them inside log_g
        noise = np.multiply(_LATTICE_TILTS[:, None, None], xs)
        np.abs(noise, out=noise)
        noise += xs * xs
        values = np.abs(values, out=values)
        values *= noise
        rounding = (values @ np.abs(_LEGENDRE_TAIL).sum(axis=0)) * (2.0 * _EPS * half)
        tol = np.maximum(np.maximum(ABS_TOL, REL_TOL * np.abs(sums[:2])), rounding)
        missed = (tail > tol).any(axis=(0, 1)) & (hi - lo > _MIN_PANEL_WIDTH)
        budget -= np.count_nonzero(missed)
        missed &= budget >= 0
        passed.append([array[~missed] for array in (lo, hi, xs, half, log_pdf)])
        mid = 0.5 * (lo[missed] + hi[missed])
        lo, hi = np.concatenate([lo[missed], mid]), np.concatenate([mid, hi[missed]])
    lo, hi, xs, half, log_pdf = (np.concatenate(arrays) for arrays in zip(*passed))
    # by right edge too: a panel too narrow to split at its midpoint leaves an
    # empty one at the same left edge
    order = np.lexsort((hi, lo))
    return np.append(lo[order], hi[order[-1]]), xs[order], half[order], log_pdf[order]
