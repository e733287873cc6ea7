"""Exponential tilting of a base measure and the induced family of laws.

Tilting by t reweights the base density by exp(t*x) and renormalizes by the
Laplace transform.  The log of that transform (the log-partition) is
computed in log domain so the family stays evaluable across the working
range of tilt parameters; the tilted mean is computed by direct quadrature
rather than by differentiating the log-partition, which keeps the identity
between the two a testable property instead of a definition.

Every tilted quantity comes from one engine, :func:`tilt_grid`, on one panel
lattice per measure, built once from the base log-density and kept on the
measure (see ``_lattice``), together with its node table: the Kronrod nodes
of every lattice panel and the checked base log-density there, evaluated once
per measure (see ``_node_table``).  A pass over a tilt grid slices the panels
that cover its window out of that table, and each tilt is one shift, one
exponential and a few panel sums on those values.  The panel sums give
log L(t), the tilted mean and running tables at the panel edges; one partial
panel on top of them gives the half-line sums F_t(x) and E_t[X; X <= x] at
x = t or any x, and the median is a safeguarded Newton solve on partial
panels where the table crosses 1/2, run until its step reaches the rounding
of x and reported with the error it reached.  Every error estimate is a sum
of panel |Kronrod - Gauss| differences.

Windows and tolerances are the fixed constants of ``numerics``.  A single-tilt
request keeps its pass on the base measure, keyed on t alone, so every
quantity of that tilt, the distribution function at any x included, comes
from one set of panel tables whatever the order of requests.  That pass forms
log L(t) and the mean; the median and the half-line sums at x = t are formed
when first read.  The kept pass holds no reference to its measure, which its
methods take as an argument, so a measure is freed as soon as its last
reference goes.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .measures import BaseMeasure
from .numerics import (
    ABS_TOL,
    FIXED_PANEL_WIDTH,
    REL_TOL,
    ROUNDING_FLOOR,
    NonFiniteIntegrandError,
    anchored_edges,
    kronrod_sums,
    panel_nodes,
    scaled_exp,
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

T_MAX = 8.0

# Elements of one (tilts, panels, 15) work array: tilts are processed in
# chunks of this many node values so memory stays flat in the grid size.
_CHUNK_ELEMENTS = 1 << 13
# the TiltGrid fields of the half-line sums at x = t, in ``half_line``'s order
_AT_T_FIELDS = ("cdf_at_t", "cdf_at_t_error", "lower_moment_at_t", "lower_moment_at_t_error")
# Newton iterations before giving up; bisection alone needs ~50 to go from a
# 0.5-wide panel to the rounding of x.
_MAX_NEWTON_STEPS = 100
_EPS = np.finfo(float).eps
# a lattice panel is resolved when it passes at each of these tilts
_LATTICE_TILTS = (-T_MAX, 0.0, T_MAX)
# panels are not bisected below this width, and a lattice takes at most this
# many bisections: a round that would pass the budget is not made
_MIN_PANEL_WIDTH = 1e-10
_MAX_BISECTIONS = 4096


def _check_tilt(t: float) -> float:
    t = float(t)
    if not abs(t) <= T_MAX:
        raise ValueError(f"tilt parameter {t!r} outside the working range [-{T_MAX}, {T_MAX}]")
    return t


@dataclass(frozen=True)
class TiltGrid:
    """Tilted-law summaries over a grid of tilts, one entry per tilt.

    ``cdf_at_t`` is F_t(t) and ``lower_moment_at_t`` is E_t[X; X <= t].  The
    ``*_error`` fields are propagated quadrature error estimates; the median
    fields are None when medians were not requested.  ``tilt_grid`` fills
    every other field; the engine's kept one-tilt rows hold None in the fields
    of the sums at x = t too until they are read.
    """

    t_grid: np.ndarray
    log_partition: np.ndarray
    mean: np.ndarray
    mean_error: np.ndarray
    cdf_at_t: np.ndarray | None = None
    cdf_at_t_error: np.ndarray | None = None
    lower_moment_at_t: np.ndarray | None = None
    lower_moment_at_t_error: np.ndarray | None = None
    median: np.ndarray | None = None
    median_error: np.ndarray | None = None


def tilt_grid(measure: BaseMeasure, t_grid: Sequence[float], *, median: bool = True) -> TiltGrid:
    """log L, mean, F_t(t), E_t[X; X <= t] and optionally the median of each tilt-t law.

    The panels are the measure's lattice panels that cover the union of the
    per-tilt truncation windows, so a tilt's result does not depend on which
    other tilts share the call, up to the last bit.  Each median is solved to
    the rounding of x; its ``median_error`` is the solve's last move plus the
    CDF table's error over the density there, floored at the rounding of x,
    or half the width of a flat stretch at 1/2, whose midpoint is then the
    median.
    """
    ts = np.array([_check_tilt(t) for t in t_grid], dtype=float)
    names = [field.name for field in dataclasses.fields(TiltGrid)[1:]]
    wanted = [name for name in names if median or not name.startswith("median")]
    grid = TiltGrid(ts, **{name: np.empty(ts.size) for name in wanted})
    log_pdf = measure.log_pdf
    for where, chunk in _chunks(measure, ts):
        columns = chunk.moments() | chunk.at_t(log_pdf)
        if median:
            columns["median"], columns["median_error"] = chunk._medians(log_pdf)
        for name, values in columns.items():
            getattr(grid, name)[where] = values
    return grid


def _chunks(measure: BaseMeasure, ts: np.ndarray):
    """The engine's panel pass over ``ts``: yields (slice of ts, its _TiltChunk)."""
    if ts.size == 0:
        return
    reach = max(measure.window_halfwidth(t) for t in ts)
    lattice, xs, half, log_pdf = _node_table(measure)
    first = np.searchsorted(lattice, -reach, side="right") - 1
    last = np.searchsorted(lattice, reach, side="left")
    edges, panels = lattice[first : last + 1], slice(first, last)
    xs, half, log_pdf = xs[panels], half[panels], log_pdf[panels]
    chunk = max(1, _CHUNK_ELEMENTS // xs.size)
    for start in range(0, ts.size, chunk):
        where = slice(start, start + chunk)
        yield where, _TiltChunk(edges, xs, half, log_pdf, ts[where])


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
    """The measure's panel edges, built on first use and kept on the measure.

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
    edges = measure._lattice
    if edges is not None:
        return edges
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
    edges = np.sort(np.concatenate([edges] + added))
    object.__setattr__(measure, "_lattice", edges)
    return edges


def _check_log_values(xs: np.ndarray, values: np.ndarray) -> None:
    bad = np.isnan(values) | np.isposinf(values)
    if np.any(bad):
        raise NonFiniteIntegrandError(f"log-integrand is nan or +inf at x={xs[bad][0]!r}")


def _error(kronrod: np.ndarray, gauss: np.ndarray) -> np.ndarray:
    """|Kronrod - Gauss|, floored so that no panel claims exactness."""
    return np.maximum(np.abs(kronrod - gauss), ROUNDING_FLOOR * np.abs(kronrod))


class _TiltChunk:
    """Panel sums of exp(t*x + log_pdf(x) - shift(t)) for a chunk of tilts.

    Values are in shifted units: each tilt's largest node value is 1.  The
    chunk keeps no reference to its measure: the methods that evaluate the
    base log-density off the node table take it as ``log_pdf``.
    """

    def __init__(self, edges, xs, half, log_pdf, ts) -> None:
        self.edges = edges
        self.ts = ts
        # one work array, updated in place, keeps the chunk's memory flat
        work = ts[:, None, None] * xs
        work += log_pdf
        shift = work.max(axis=(1, 2))
        # a tilt whose integrand vanishes on every node has log L = -inf
        self.shift = np.where(np.isfinite(shift), shift, 0.0)
        work -= self.shift[:, None, None]
        np.exp(work, out=work)
        mass_k, mass_g = kronrod_sums(work, half)
        work *= xs
        moment_k, moment_g = kronrod_sums(work, half)
        mass_err, moment_err = _error(mass_k, mass_g), _error(moment_k, moment_g)
        tables = (mass_k, moment_k, mass_err, moment_err)
        self.mass, self.moment, self.mass_err, self.moment_err = np.sum(tables, axis=2)
        # sums over the panels below every edge, shared by the median and x = t
        self.below = np.zeros((4, ts.size, edges.size))
        np.cumsum(tables, axis=2, out=self.below[:, :, 1:])

    def _partial(self, log_pdf, rows: np.ndarray, panel: np.ndarray, x: np.ndarray):
        """Mass and first moment from each panel's left edge to x, their errors and
        the weight at x, in shifted units."""
        nodes, half = panel_nodes(self.edges[panel], x)
        nodes = np.concatenate([nodes, x[:, None]], axis=1)
        log_values = self.ts[rows, None] * nodes + log_pdf(nodes)
        _check_log_values(nodes, log_values)
        values = np.exp(log_values - self.shift[rows, None])
        mass_k, mass_g = kronrod_sums(values[:, :15], half)
        moment_k, moment_g = kronrod_sums(values[:, :15] * nodes[:, :15], half)
        return mass_k, moment_k, _error(mass_k, mass_g), _error(moment_k, moment_g), values[:, 15]

    def moments(self) -> dict[str, np.ndarray]:
        """The ``TiltGrid`` fields of log L, the mean and its error, for this chunk's tilts."""
        with np.errstate(divide="ignore", invalid="ignore"):
            mean = self.moment / self.mass
            return {
                "log_partition": self.shift + np.log(self.mass),
                "mean": mean,
                "mean_error": (self.moment_err + np.abs(mean) * self.mass_err) / self.mass,
            }

    def at_t(self, log_pdf) -> dict[str, np.ndarray]:
        """The ``TiltGrid`` fields of the half-line sums at x = t, for this chunk's tilts."""
        values = self.half_line(log_pdf, np.arange(self.ts.size), self.ts)
        return dict(zip(_AT_T_FIELDS, values))

    @np.errstate(divide="ignore", invalid="ignore")
    def half_line(self, log_pdf, rows: np.ndarray, x: np.ndarray) -> tuple[np.ndarray, ...]:
        """F_t(x), its error, E_t[X; X <= x] and its error for the tilt of each row.

        The sums come from the panels below x and one partial panel; x is
        clipped to the panels, which hold all but the truncated tails.  F's
        error counts the whole mass error (it bounds the error F and log L
        share) and the rounding of a running sum, as the median's table does.
        """
        n_panels = self.edges.size - 1
        x = np.clip(x, self.edges[0], self.edges[-1])
        panel = np.minimum(np.searchsorted(self.edges, x, side="right") - 1, n_panels - 1)
        mass, moment, mass_err, moment_err = (
            table[rows, panel] + part
            for table, part in zip(self.below, self._partial(log_pdf, rows, panel, x))
        )
        total, total_err = self.mass[rows], self.mass_err[rows]
        lower_moment = moment / total
        return (
            mass / total,
            (mass_err + total_err) / total + n_panels * _EPS,
            lower_moment,
            (moment_err + np.abs(lower_moment) * total_err) / total,
        )

    @np.errstate(divide="ignore", invalid="ignore")
    def _medians(self, log_pdf) -> tuple[np.ndarray, np.ndarray]:
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
        flat = np.abs(cdf - 0.5) <= cdf_err[:, None]
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
            panel = np.minimum(np.sum(cdf[rows] < 0.5, axis=1) - 1, n_panels - 1)
            x, density, move = self._newton(
                log_pdf, rows, panel, cdf[rows, panel], cdf[rows, panel + 1]
            )
            medians[rows] = x
            rounding = 4.0 * _EPS * np.maximum(1.0, np.abs(x))
            errors[rows] = np.maximum(move + cdf_err[rows] / density, rounding)
        return medians, errors

    def _newton(
        self, log_pdf, rows: np.ndarray, panel: np.ndarray, cdf_lo: np.ndarray, cdf_hi: np.ndarray
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
            partial, _, _, _, weight = self._partial(
                log_pdf, rows[active], panel[active], x[active]
            )
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
        density = np.exp(self.ts[rows] * x + log_pdf(x) - self.shift[rows]) / mass
        return x, density, move


class _TiltState:
    """The engine pass of one tilt, kept so later requests at the same tilt reuse it.

    It holds the pass's ``_TiltChunk`` (panel tables, shift and mass) and the
    row it filled with log L, the mean and its error; the median and the
    half-line sums at x = t are formed on those tables when first asked for,
    and a new row carries them.  Each result equals the matching entry of a
    fresh ``tilt_grid(measure, [t])``.
    """

    def __init__(self, measure: BaseMeasure, t: float) -> None:
        self.t = t
        ts = np.array([t])
        ((_, self.chunk),) = _chunks(measure, ts)
        self.row = TiltGrid(ts, **self.chunk.moments())

    def read(self, measure: BaseMeasure, *, median: bool, at_t: bool) -> TiltGrid:
        """The kept row, with the median and the sums at x = t if asked for."""
        row, filled = self.row, {}
        if median and row.median is None:
            filled["median"], filled["median_error"] = self.chunk._medians(measure.log_pdf)
        if at_t and row.cdf_at_t is None:
            filled.update(self.chunk.at_t(measure.log_pdf))
        # the row is replaced, never written: a caller racing another one at
        # worst forms the same values twice, and no reader sees an unfilled one
        if filled:
            row = self.row = dataclasses.replace(row, **filled)
        return row


def _tilt_state(measure: BaseMeasure, t: float) -> _TiltState:
    """The measure's kept state at t; a new pass replaces a state at another t.

    The state is read once: a caller racing another one at worst runs the pass again.
    """
    t = _check_tilt(t)
    state = measure._tilt_state
    # 0.0 and -0.0 share a state: no result depends on the sign of a zero tilt
    if state is None or state.t != t:
        state = _TiltState(measure, t)
        object.__setattr__(measure, "_tilt_state", state)
    return state


def _tilt_row(
    measure: BaseMeasure, t: float, *, median: bool = False, at_t: bool = False
) -> TiltGrid:
    """``tilt_grid(measure, [t], median=median)`` from the measure's kept state.

    The median fields hold None unless ``median`` and the fields of the
    half-line sums at x = t hold None unless ``at_t`` (or an earlier request
    formed them).  Callers only read the row: its arrays are shared with the
    state.
    """
    return _tilt_state(measure, t).read(measure, median=median, at_t=at_t)


def _half_line(measure: BaseMeasure, t: float, xs) -> tuple:
    """F_t(x), its error, E_t[X; X <= x] and its error at each x, from the kept state."""
    xs = np.asarray(xs, dtype=float)
    rows = np.zeros(xs.size, dtype=int)
    return _tilt_state(measure, t).chunk.half_line(measure.log_pdf, rows, xs)


def log_partition(measure: BaseMeasure, t: float) -> float:
    """log of the Laplace transform of the base measure at t."""
    return float(_tilt_row(measure, t).log_partition[0])


def tilt(measure: BaseMeasure, t: float) -> TiltedView:
    """Construct the tilt-t member of the family generated by ``measure``."""
    t = _check_tilt(t)
    log_l = float(_tilt_row(measure, t).log_partition[0])
    return TiltedView(base=measure, t=t, log_partition=log_l)


@dataclass(frozen=True)
class TiltedView:
    """One member of the tilted family, with its normalizer cached.

    ``mean()``, ``median()`` and ``cdf()`` read the base measure's kept
    one-tilt state (see ``BaseMeasure``): after :func:`tilt`, or any other
    one-tilt request at the same t, they run no second engine pass;
    the median is solved on the kept panel tables once, to the rounding of
    x (``tilt_grid`` gives its error estimate).
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
        """Distribution function F_t(x) from the kept one-tilt state, clamped to [0, 1]."""
        x = float(x)
        if math.isnan(x):
            raise ValueError("cdf is undefined at nan")
        value = float(_half_line(self.base, self.t, [x])[0][0])
        return min(1.0, max(0.0, value))

    def mean(self) -> float:
        return float(_tilt_row(self.base, self.t).mean[0])

    def median(self) -> float:
        """Solve cdf(x) = 1/2; a flat stretch at 1/2 resolves to its midpoint."""
        return float(_tilt_row(self.base, self.t, median=True).median[0])


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
    row = _tilt_row(measure, t, at_t=True)
    log_l, boundary = row.log_partition[0], scaled_exp(t * t + measure.log_pdf(t))
    value, lower = scaled_exp(log_l, [row.cdf_at_t[0], row.lower_moment_at_t[0]])
    return float(value), float(boundary + lower)
