"""Exponential tilting of a base measure and the induced family of laws.

Tilting by t reweights the base density by exp(t*x) and renormalizes by the
Laplace transform.  The log of that transform (the log-partition) is
computed in log domain so the family stays evaluable across the working
range of tilt parameters; the tilted mean is computed by direct quadrature
rather than by differentiating the log-partition, which keeps the identity
between the two a testable property instead of a definition.

Every tilted quantity comes from one engine pass, ``_TiltPass``, on one
panel lattice per measure, built once from the base log-density and kept on
the measure in its node table, with the Kronrod nodes of every lattice panel
and the checked base log-density there, evaluated once per node (see
``lattice``).  A pass over a tilt grid slices the panels that cover its
widest window out of that table, and ``numerics._panel_sums``, the kernel
the lattice's probe shares, makes each tilt one shift, one exponential and
one Kronrod call over its mass and moment node values, stacked in one work
array.  The panel sums go into one table over the grid, which gives log L(t)
and the tilted mean.  The constructor then turns that table in place into
running tables at the panel edges, which give with one partial panel the
half-line sums F_t(x) and E_t[X; X <= x] at any x, x = t included, and the
median: a safeguarded Newton solve on partial panels where the mass table
crosses 1/2, run until its step reaches the rounding of x and reported with
the error it reached.  A grid's medians and its sums at x = t are solved
once over all its tilts: ``_CHUNK_ELEMENTS`` bounds only the work array of
the panel sums.

A pass is complete when it is built.  It holds its tilts, log L, the mean
and its error, and the running tables, all read-only arrays, and a map from
each tilt to its first row, the one lookup of a one-tilt request.  After
that it changes only when its medians or its sums at x = t are first read:
each is formed then and kept by one assignment.  They stay lazy because
each costs about as much as the pass, and the quadratic fit, the midpoint
residual, the ``symmetry`` scan, ``tilt``, ``log_partition`` and
``asymmetry_score`` read neither.  Threads racing on a first read at worst
form the same values twice.  Every error estimate is a sum of panel
|Kronrod - Gauss| differences.

Windows and tolerances are the fixed constants of ``numerics``.  The base
measure keeps the pass of its most recent request, single tilt or grid,
keyed on its tilts, so every quantity of those tilts, the distribution
function at any x included, comes from one set of panel tables whatever the
order of requests: consecutive diagnostics on one grid share one pass, a
one-tilt request at a tilt the kept pass holds reads that tilt's row of it,
and every reader, ``tilt_grid``, the diagnostics of ``medianlaw`` and
``symmetry``, ``TiltedView`` and ``half_line_mgf``, reads the pass itself.
A row's values are within 16 eps max(1, |value|) of a one-tilt pass's (see
``tilt_grid``), and a one-tilt median or sum at x = t read from a grid
solves them for the whole grid, once.  A request on tilts the kept pass
does not hold replaces it, and the old pass is released before the new one
is formed; until then it holds its running tables, 8.2 MB after a 97-tilt
scan of N(0, 20^2).  Its tilts and every array it hands out are read-only.
The kept pass holds the base log-density as a callable on ``log_g``, not the
measure, so a measure is freed as soon as its last reference goes.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .lattice import T_MAX, _node_table
from .measures import BaseMeasure, _log_density
from .numerics import (
    _EPS, _check_log_values, _error, _panel_sums, kronrod_sums, panel_nodes, scaled_exp,
)

__all__ = [
    "T_MAX",
    "TiltGrid",
    "TiltedView",
    "half_line_mgf",
    "log_partition",
    "tilt",
    "tilt_grid",
]

# Elements of one (tilts, panels, 15) work array: the panel sums of a grid
# are formed in chunks of this many node values, so the work array stays
# bounded whatever the grid size.
_CHUNK_ELEMENTS = 1 << 13
# Newton iterations before giving up; bisection alone needs ~50 to go from a
# 0.5-wide panel to the rounding of x.
_MAX_NEWTON_STEPS = 100


def _check_tilt(t: float) -> float:
    t = float(t)
    if not abs(t) <= T_MAX:
        raise ValueError(f"tilt parameter {t!r} outside the working range [-{T_MAX}, {T_MAX}]")
    return t


@dataclass(frozen=True)
class TiltGrid:
    """Tilted-law summaries over a grid of tilts, one entry per tilt.

    ``cdf_at_t`` is F_t(t) and ``lower_moment_at_t`` is E_t[X; X <= t].  The
    ``*_error`` fields are propagated quadrature error estimates.  The arrays
    are read-only: they are the kept pass's, which later requests on the
    same tilts read.
    """

    t_grid: np.ndarray
    log_partition: np.ndarray
    mean: np.ndarray
    mean_error: np.ndarray
    cdf_at_t: np.ndarray
    cdf_at_t_error: np.ndarray
    lower_moment_at_t: np.ndarray
    lower_moment_at_t_error: np.ndarray
    median: np.ndarray
    median_error: np.ndarray


def tilt_grid(measure: BaseMeasure, t_grid: Sequence[float]) -> TiltGrid:
    """log L, mean, F_t(t), E_t[X; X <= t] and the median of each tilt-t law.

    The panels are the measure's lattice panels that cover the union of the
    per-tilt truncation windows, and the medians and the sums at x = t take
    their partial panels in one call over every tilt, whose rounding can
    depend on how many rows share it.  So the other tilts of the call move a
    tilt's results by rounding only: log L, the mean, the median, F_t(t) and
    E_t[X; X <= t] stay within 16 eps max(1, |value|) of a one-tilt call on
    the catalog measures (at most 2.7 eps measured); the error estimates,
    which count the panels, may move more.  Each median is solved to the
    rounding of x; its ``median_error`` is the solve's last move plus the CDF
    table's error over the density there, floored at the rounding of x, or
    half the width of a flat stretch at 1/2, whose midpoint is then the
    median.  The call reads the measure's kept pass (see ``BaseMeasure``), so
    a later request on equal tilts, 0.0 and -0.0 alike, runs no second pass
    and gets the same arrays, whose ``t_grid`` keeps the zero of the request
    that formed the pass.  A one-tilt grid is a one-tilt request: it gets
    one-element views of the row of t when the kept pass holds t among
    other tilts.  The arrays of the result are read-only, and every field
    is one: a grid always carries its medians.
    """
    ts = np.array(t_grid, dtype=float)
    if ts.shape == (1,):
        kept, row = _tilt_state(measure, ts[0])
    else:
        kept, row = _tilt_grid(measure, ts), None
    fields = (kept.ts, kept.log_partition, kept.mean, kept.mean_error) + kept.at_t + kept.medians
    if row is not None and kept.ts.size > 1:
        fields = tuple(f[row : row + 1] for f in fields)
    return TiltGrid(*fields)


def _check_grid(t_grid: Sequence[float]) -> np.ndarray:
    """``t_grid`` as a new array, checked: 1-d, every tilt in the working range."""
    ts = np.array(t_grid, dtype=float)
    if ts.ndim != 1:
        raise ValueError(f"t_grid must be a 1-d sequence of tilts, got shape {ts.shape}")
    outside = ~(np.abs(ts) <= T_MAX)
    if outside.any():
        # the first tilt out of range (or nan), in grid order
        _check_tilt(ts[outside.argmax()])
    return ts


def _tilt_grid(measure: BaseMeasure, t_grid: Sequence[float]) -> _TiltPass:
    """The measure's kept pass over ``t_grid``, formed on a miss."""
    ts = _check_grid(t_grid)
    state = measure._tilt_state
    # equal tilts share a pass, 0.0 and -0.0 alike, as in ``_tilt_state``
    if state is None or not np.array_equal(state.ts, ts):
        del state  # the old pass goes before the new one is formed
        state = _keep(measure, ts)
    return state


class _TiltPass:
    """Panel sums of exp(t*x + log_pdf(x) - shift(t)) over a grid of tilts.

    Values are in shifted units: each tilt's largest node value is 1.  The
    panels are the lattice panels that cover every tilt's window, the widest
    of which is the window of the largest |t|.  Only the (tilts, panels, 15)
    work array is formed in chunks, of at most ``_CHUNK_ELEMENTS`` node
    values, by ``numerics._panel_sums``, the kernel the lattice's probe
    shares; each chunk writes its tilts' shift into an array over the grid,
    and the panel sums of its mass, moment and their errors into one
    (4, tilts, panels + 1) table over the grid, whose first column is 0.
    The constructor takes the totals, log L and the mean from that table
    as ``log_partition``, ``mean`` and ``mean_error``, then turns the table
    in place into ``below``, the running tables of the sums over the panels
    below every edge, and maps each tilt to its first row in ``row_of``
    (0.0 and -0.0 share a key).  ``medians`` and ``at_t`` are the only
    state formed later (see the module docstring); the median solve and the
    sums at x = t each take their partial panels in one call per step over
    every tilt.  The pass evaluates the base log-density off the node table
    through ``log_pdf``, a callable on the measure's ``log_g`` that holds
    no reference to the measure.  It takes ``ts`` as its own and makes it
    read-only, as it does every array it hands out: a kept pass is keyed on
    ``ts`` and read by every request on those tilts or on one of them.
    """

    def __init__(self, measure: BaseMeasure, ts: np.ndarray) -> None:
        # the lattice first: it rejects a window past the float64 range
        lattice, xs, half, log_pdf = _node_table(measure)
        reach = measure.window_halfwidth(np.abs(ts).max(initial=0.0))
        first = lattice.searchsorted(-reach, side="right") - 1
        last = lattice.searchsorted(reach, side="left")
        self.edges, panels = lattice[first : last + 1], slice(first, last)
        xs, half, log_pdf = xs[panels], half[panels], log_pdf[panels]
        ts.flags.writeable = False
        self.ts = ts
        self.log_pdf = functools.partial(_log_density, measure.log_g)
        self.shift = np.empty(ts.size)
        table = np.zeros((4, ts.size, self.edges.size))
        step = max(1, _CHUNK_ELEMENTS // xs.size)
        for start in range(0, ts.size, step):
            rows = slice(start, start + step)
            self.shift[rows] = _panel_sums(ts[rows], xs, half, log_pdf, table[:, rows, 1:])[0]
        sums = table[..., 1:]
        self.mass, self.moment, self.mass_err, self.moment_err = sums.sum(axis=2)
        sums.cumsum(axis=-1, out=sums)
        (self.below,) = _read_only(table)
        self.row_of: dict[float, int] = {}
        for row, t in enumerate(ts.tolist()):
            self.row_of.setdefault(t, row)
        with np.errstate(divide="ignore", invalid="ignore"):
            mean = self.moment / self.mass
            self.log_partition, self.mean, self.mean_error = _read_only(
                self.shift + np.log(self.mass),
                mean,
                (self.moment_err + np.abs(mean) * self.mass_err) / self.mass,
            )
        self._kept_medians = self._kept_at_t = None

    @property
    def medians(self) -> tuple[np.ndarray, np.ndarray]:
        """The median of each tilt and its error, read-only, solved on first read."""
        if self._kept_medians is None:
            self._kept_medians = _read_only(*self._medians())
        return self._kept_medians

    @property
    def at_t(self) -> tuple[np.ndarray, ...]:
        """F_t(t), its error, E_t[X; X <= t] and its error for each tilt, in
        ``half_line``'s order, read-only, formed on first read."""
        if self._kept_at_t is None:
            self._kept_at_t = _read_only(*self.half_line(self.ts, np.arange(self.ts.size)))
        return self._kept_at_t

    def _locate(self, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """x clipped to the panels, which hold all but the truncated tails, and
        the panel that holds it."""
        x = np.minimum(np.maximum(x, self.edges[0]), self.edges[-1])
        return x, np.minimum(self.edges.searchsorted(x, side="right") - 1, self.edges.size - 2)

    def _partial(self, rows, panel: np.ndarray, x: np.ndarray):
        """Mass and first moment from each panel's left edge to x, their errors and
        the weight at x, in shifted units."""
        nodes, half = panel_nodes(self.edges[panel], x)
        nodes = np.concatenate([nodes, x[:, None]], axis=1)
        log_values = self.ts[rows, None] * nodes + self.log_pdf(nodes)
        _check_log_values(nodes, log_values)
        values = np.exp(log_values - self.shift[rows, None])
        # the mass node values stacked on the moment's, for one Kronrod call
        kronrod, gauss = kronrod_sums(np.array((values, values * nodes))[:, :, :15], half)
        (mass_k, moment_k), (mass_err, moment_err) = kronrod, _error(kronrod, gauss)
        return mass_k, moment_k, mass_err, moment_err, values[:, 15]

    @np.errstate(divide="ignore", invalid="ignore")
    def half_line(self, x, rows) -> tuple[np.ndarray, ...]:
        """F_t(x), its error, E_t[X; X <= x] and its error at each x, for the tilt
        of its row in ``rows`` (one row for every x, or one row for them all):
        the four running sums below x plus one partial panel.  F's error counts the whole mass
        error (it bounds the error F and log L share) and the rounding of a
        running sum, as the median's table does."""
        x, panel = self._locate(x)
        sums = zip(self.below[:, rows, panel], self._partial(rows, panel, x))
        mass, moment, mass_err, moment_err = (table + part for table, part in sums)
        total, total_err = self.mass[rows], self.mass_err[rows]
        lower_moment = moment / total
        return (
            mass / total,
            (mass_err + total_err) / total + (self.edges.size - 1) * _EPS,
            lower_moment,
            (moment_err + np.abs(lower_moment) * total_err) / total,
        )

    @np.errstate(divide="ignore", invalid="ignore")
    def _medians(self) -> tuple[np.ndarray, np.ndarray]:
        """Median of each tilted law and its error estimate.

        The error of the CDF table is its quadrature error plus the rounding
        of a running sum over the panels.  Table edges within that error of
        1/2 form a plateau whose midpoint is the median, with half the width
        between the edges just outside it as its error; otherwise Newton
        runs in the panel where the table crosses 1/2, and the median error is
        the solve's last move plus ``cdf_err / pdf(median)``, at least the
        rounding of the median, ``4 eps max(1, |x|)``.
        """
        n_panels = self.edges.size - 1
        # distribution function at every panel edge
        cdf = self.below[0] / self.mass[:, None]
        # F = C / S at 1/2 is off by at most (dC + dS / 2) / S
        cdf_err = 1.5 * self.mass_err / self.mass + n_panels * _EPS
        # |F - 1/2| <= cdf_err, through one temporary the size of the table
        flat = cdf - 0.5
        flat = np.abs(flat, out=flat) <= cdf_err[:, None]
        medians = np.full(self.ts.size, np.nan)
        errors = np.full(self.ts.size, np.inf)
        plateau = flat.sum(axis=1) >= 2
        for row in np.nonzero(plateau)[0]:
            first, last = np.nonzero(flat[row])[0][[0, -1]]
            medians[row] = 0.5 * (self.edges[first] + self.edges[last])
            # the plateau's true ends lie within one panel of the flagged edges
            outer = self.edges[max(first - 1, 0)], self.edges[min(last + 1, n_panels)]
            errors[row] = 0.5 * (outer[1] - outer[0])
        rows = np.nonzero(~plateau & (self.mass > 0))[0]
        if rows.size:
            panel = np.minimum(np.sum(cdf < 0.5, axis=1)[rows] - 1, n_panels - 1)
            x, density, move = self._newton(rows, panel, cdf[rows, panel], cdf[rows, panel + 1])
            medians[rows] = x
            rounding = 4.0 * _EPS * np.maximum(1.0, np.abs(x))
            errors[rows] = np.maximum(move + cdf_err[rows] / density, rounding)
        return medians, errors

    def _newton(
        self, rows: np.ndarray, panel: np.ndarray, cdf_lo: np.ndarray, cdf_hi: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Safeguarded Newton for cdf(x) = 1/2 inside one panel per row.

        ``cdf_lo`` and ``cdf_hi`` are the table values at the panel's edges.
        A step leaving the current bracket becomes a bisection.  A row stops
        when cdf(x) is exactly 1/2, when its step is within the rounding of x,
        ``4 eps max(1, |x|)``, or when its bracket is no wider than twice that.
        Returns the roots, the tilted density there and each row's last move:
        the length of the last step, or the bracket width if the bracket ended
        the solve.
        """
        lo = self.edges[panel].copy()
        hi = self.edges[panel + 1].copy()
        # secant start; the root may sit on a panel edge, so the bracket is closed
        x = np.clip(lo + (0.5 - cdf_lo) / (cdf_hi - cdf_lo) * (hi - lo), lo, hi)
        mass = self.mass[rows]
        move = hi - lo
        active = np.arange(rows.size)
        for _ in range(_MAX_NEWTON_STEPS):
            if active.size == 0:
                break
            partial, _, _, _, weight = self._partial(rows[active], panel[active], x[active])
            cdf = cdf_lo[active] + partial / mass[active]
            xa = x[active]
            below = cdf < 0.5
            lo[active] = np.where(below, xa, lo[active])
            hi[active] = np.where(below, hi[active], xa)
            with np.errstate(divide="ignore", invalid="ignore"):
                step = (cdf - 0.5) / (weight / mass[active])
            proposal = xa - step
            rounding = 4.0 * _EPS * np.maximum(1.0, np.abs(xa))
            # an overshoot within rounding is a root on the bracket end
            inside = (proposal >= lo[active] - rounding) & (proposal <= hi[active] + rounding)
            proposal = np.where(
                inside,
                np.clip(proposal, lo[active], hi[active]),
                0.5 * (lo[active] + hi[active]),
            )
            exact = cdf == 0.5
            moved = np.abs(proposal - xa)
            converged = inside & (moved <= rounding)
            width = hi[active] - lo[active]
            move[active] = np.where(exact, 0.0, np.where(converged, moved, width))
            x[active] = np.where(exact, xa, proposal)
            active = active[~(exact | converged | (width <= 2.0 * rounding))]
        # density at the returned root (the last Newton step moved x)
        density = np.exp(self.ts[rows] * x + self.log_pdf(x) - self.shift[rows]) / mass
        return x, density, move


def _read_only(*arrays: np.ndarray) -> tuple[np.ndarray, ...]:
    """The arrays, made read-only in place."""
    for array in arrays:
        array.flags.writeable = False
    return arrays


def _keep(measure: BaseMeasure, ts: np.ndarray) -> _TiltPass:
    """A new pass over ``ts``, kept on the measure in place of its last one.

    The old pass is released before the new one is formed, so the two are
    never held at once, unless a caller still holds the old one itself.
    """
    object.__setattr__(measure, "_tilt_state", None)
    state = _TiltPass(measure, ts)
    object.__setattr__(measure, "_tilt_state", state)
    return state


def _tilt_state(measure: BaseMeasure, t: float) -> tuple[_TiltPass, int]:
    """The measure's kept pass and its first row of the single tilt t, read
    off ``row_of``: a new one-tilt pass, kept, unless the kept pass holds t.

    Single-t requests read the row of their fields or ``half_line(x, row)``;
    a one-tilt ``tilt_grid`` at t shares it.  A row of a grid holds the
    grid's values, within 16 eps max(1, |value|) of a one-tilt pass's, and
    its medians or sums at x = t, read for one tilt, are formed for every
    tilt of the grid.  The pass holds a log-density callable, not the
    measure, so keeping it forms no reference cycle.  It is read once: a
    caller racing another one at worst runs the pass again.
    """
    t = _check_tilt(t)
    state = measure._tilt_state
    # 0.0 and -0.0 share a row: no result depends on the sign of a zero tilt
    row = None if state is None else state.row_of.get(t)
    if row is not None:
        return state, row
    del state  # the old pass goes before the new one is formed
    return _keep(measure, np.array([t])), 0


def log_partition(measure: BaseMeasure, t: float) -> float:
    """log of the Laplace transform of the base measure at t."""
    state, row = _tilt_state(measure, t)
    return float(state.log_partition[row])


def tilt(measure: BaseMeasure, t: float) -> TiltedView:
    """Construct the tilt-t member of the family generated by ``measure``."""
    return TiltedView(base=measure, t=_check_tilt(t), log_partition=log_partition(measure, t))


@dataclass(frozen=True)
class TiltedView:
    """One member of the tilted family, with its normalizer cached.

    ``mean()``, ``median()`` and ``cdf()`` read the row of t of the base
    measure's kept pass (see the ``tilting`` module docstring for what a
    pass forms and when): after :func:`tilt`, or any other request on t, a
    grid holding t included, they run no second engine pass.  The median
    is solved to the rounding of x; ``tilt_grid`` gives its error estimate.
    """

    base: BaseMeasure
    t: float
    log_partition: float

    def __post_init__(self) -> None:
        if not math.isfinite(self.log_partition):
            raise ValueError("log_partition must be finite")

    def window_halfwidth(self) -> float:
        return self.base.window_halfwidth(self.t)

    def log_pdf(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        return self.t * x + self.base.log_pdf(x) - self.log_partition

    def pdf(self, x) -> np.ndarray:
        return np.exp(self.log_pdf(x))

    def cdf(self, x: float) -> float:
        """Distribution function F_t(x) from the row of t of the kept pass, clamped to [0, 1]."""
        x = float(x)
        if math.isnan(x):
            raise ValueError("cdf is undefined at nan")
        state, row = _tilt_state(self.base, self.t)
        value = float(state.half_line([x], row)[0][0])
        return min(1.0, max(0.0, value))

    def mean(self) -> float:
        state, row = _tilt_state(self.base, self.t)
        return float(state.mean[row])

    def median(self) -> float:
        """Solve cdf(x) = 1/2; a flat stretch at 1/2 resolves to its midpoint."""
        state, row = _tilt_state(self.base, self.t)
        return float(state.medians[0][row])


def half_line_mgf(measure: BaseMeasure, t: float) -> tuple[float, float]:
    """Moment generating integral restricted to the half line ending at t.

    Returns ``(value, derivative)`` where the value is the integral of
    exp(t*x) against the base density over (-inf, t] and the derivative is
    the exact t-derivative: exp(t^2) times the density at t, plus the
    integral of x*exp(t*x) against the density over the same half line.
    The derivative formula follows from the quantile transform of the
    distribution function; tests cross-check it against finite differences.
    Both are L(t) times a tilted-law quantity, formed by ``scaled_exp``, so
    L(t) may exceed the float64 range; a result that does is inf.
    """
    state, row = _tilt_state(measure, t)
    cdf, _, lower_moment, _ = state.at_t
    log_l, boundary = state.log_partition[row], scaled_exp(t * t + measure.log_pdf(t))
    value, lower = scaled_exp(log_l, [cdf[row], lower_moment[row]])
    return float(value), float(boundary + lower)
