"""Exponential tilting of a base measure and the induced family of laws.

Tilting by t reweights the base density by exp(t*x) and renormalizes by the
Laplace transform.  The log of that transform (the log-partition) is
computed in log domain so the family stays evaluable across the working
range of tilt parameters; the tilted mean is computed by direct quadrature
rather than by differentiating the log-partition, which keeps the identity
between the two a testable property instead of a definition.

Every tilted quantity comes from one engine, :func:`tilt_grid`: the base
log-density is evaluated once on the Kronrod nodes of fixed panels anchored
at multiples of ``FIXED_PANEL_WIDTH``, and each tilt of a grid is one shift,
one exponential and a few panel sums on those values.  The panel sums give
log L(t), the tilted mean and running tables at the panel edges; one partial
panel on top of them gives the half-line sums F_t(x) and E_t[X; X <= x] at
x = t or any x, and the median is a safeguarded Newton solve on partial panels
where the table crosses 1/2.  A panel whose Kronrod-Gauss difference misses
the tolerance, whole or partial, is integrated adaptively instead.

A single-tilt request keeps its pass on the base measure, one (t, cfg) at a
time, so every quantity of that tilt, the distribution function at any x
included, comes from one set of panel tables whatever the order of requests.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .measures import BaseMeasure
from .numerics import (
    DEFAULT_QUADRATURE,
    DEFAULT_X_TOL,
    FIXED_PANEL_WIDTH,
    ROUNDING_FLOOR,
    NonFiniteIntegrandError,
    QuadratureConfig,
    anchored_edges,
    integrate,
    kronrod_sums,
    panel_nodes,
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
# Newton iterations before giving up; bisection alone needs ~33 to go from a
# 0.5-wide panel to 1e-10.
_MAX_NEWTON_STEPS = 100
_EPS = np.finfo(float).eps


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
    fields are None when medians were not requested.
    """

    t_grid: np.ndarray
    log_partition: np.ndarray
    mean: np.ndarray
    mean_error: np.ndarray
    cdf_at_t: np.ndarray
    cdf_at_t_error: np.ndarray
    lower_moment_at_t: np.ndarray
    lower_moment_at_t_error: np.ndarray
    median: np.ndarray | None = None
    median_error: np.ndarray | None = None


def tilt_grid(
    measure: BaseMeasure,
    t_grid: Sequence[float],
    cfg: QuadratureConfig = DEFAULT_QUADRATURE,
    *,
    median: bool = True,
    x_tol: float = DEFAULT_X_TOL,
) -> TiltGrid:
    """log L, mean, F_t(t), E_t[X; X <= t] and optionally the median of each tilt-t law.

    The panels cover the union of the per-tilt truncation windows, rounded
    out to the anchored panel grid, so a tilt's result does not depend on
    which other tilts share the call, up to the last bit.
    """
    ts = np.array([_check_tilt(t) for t in t_grid], dtype=float)
    _check_x_tol(x_tol)
    grid = _empty_grid(ts, median)
    for where, chunk in _chunks(measure, ts, cfg):
        chunk.fill(grid, where)
        if median:
            grid.median[where], grid.median_error[where] = chunk._medians(x_tol)
    return grid


def _check_x_tol(x_tol: float) -> None:
    if x_tol <= 0:
        raise ValueError("x_tol must be positive")


def _empty_grid(ts: np.ndarray, median: bool) -> TiltGrid:
    names = [field.name for field in dataclasses.fields(TiltGrid)[1:]]
    wanted = [name for name in names if median or not name.startswith("median")]
    return TiltGrid(ts, **{name: np.empty(ts.size) for name in wanted})


def _chunks(measure: BaseMeasure, ts: np.ndarray, cfg: QuadratureConfig):
    """The engine's panel pass over ``ts``: yields (slice of ts, its _TiltChunk)."""
    if ts.size == 0:
        return
    reach = max(measure.window_halfwidth(t, cfg.truncation_halfwidth) for t in ts)
    reach = FIXED_PANEL_WIDTH * math.ceil(reach / FIXED_PANEL_WIDTH)
    edges = anchored_edges(-reach, reach)
    xs, half = panel_nodes(edges[:-1], edges[1:])
    log_pdf = np.asarray(measure.log_pdf(xs), dtype=float)
    _check_log_values(xs, log_pdf)
    chunk = max(1, _CHUNK_ELEMENTS // xs.size)
    for start in range(0, ts.size, chunk):
        where = slice(start, start + chunk)
        yield where, _TiltChunk(measure, cfg, edges, xs, half, log_pdf, ts[where])


def _check_log_values(xs: np.ndarray, values: np.ndarray) -> None:
    bad = np.isnan(values) | np.isposinf(values)
    if np.any(bad):
        raise NonFiniteIntegrandError(f"log-integrand is nan or +inf at x={xs[bad][0]!r}")


def _error(kronrod: np.ndarray, gauss: np.ndarray) -> np.ndarray:
    """|Kronrod - Gauss|, floored so that no panel claims exactness."""
    return np.maximum(np.abs(kronrod - gauss), ROUNDING_FLOOR * np.abs(kronrod))


class _TiltChunk:
    """Panel sums of exp(t*x + log_pdf(x) - shift(t)) for a chunk of tilts.

    Values are in shifted units: each tilt's largest node value is 1.
    """

    def __init__(self, measure, cfg, edges, xs, half, log_pdf, ts) -> None:
        self.measure = measure
        self.cfg = cfg
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
        self.refined = (mass_err > np.maximum(cfg.abs_tol, cfg.rel_tol * np.abs(mass_k))) | (
            moment_err > np.maximum(cfg.abs_tol, cfg.rel_tol * np.abs(moment_k))
        )
        tables = (mass_k, moment_k, mass_err, moment_err)
        rows, panels = np.nonzero(self.refined)
        if rows.size:
            for table, whole in zip(tables, self._partial(rows, panels, edges[panels + 1])):
                table[rows, panels] = whole
        self.mass = mass_k.sum(axis=1)
        self.mass_err = mass_err.sum(axis=1)
        self.moment = moment_k.sum(axis=1)
        self.moment_err = moment_err.sum(axis=1)
        # sums over the panels below every edge, shared by the median and x = t
        self.below = np.zeros((4, ts.size, edges.size))
        np.cumsum(tables, axis=2, out=self.below[:, :, 1:])

    def _partial(self, rows: np.ndarray, panel: np.ndarray, x: np.ndarray):
        """Mass and first moment from each panel's left edge to x, their errors and
        the weight at x, in shifted units; a refined panel takes the adaptive rule."""
        lo = self.edges[panel]
        nodes, half = panel_nodes(lo, x)
        nodes = np.concatenate([nodes, x[:, None]], axis=1)
        log_values = self.ts[rows, None] * nodes + self.measure.log_pdf(nodes)
        _check_log_values(nodes, log_values)
        values = np.exp(log_values - self.shift[rows, None])
        mass_k, mass_g = kronrod_sums(values[:, :15], half)
        moment_k, moment_g = kronrod_sums(values[:, :15] * nodes[:, :15], half)
        mass_err, moment_err = _error(mass_k, mass_g), _error(moment_k, moment_g)
        for k in np.nonzero(self.refined[rows, panel] & (x > lo))[0]:
            weight = self._weight(rows[k])
            window = (float(lo[k]), float(x[k]))
            # x * weight can vanish where an unresolved weight peaks, which
            # stops refinement early; x - c stays within [width, 2 width]
            c = 2.0 * window[0] - window[1]
            mass = integrate(weight, window, self.cfg)
            moment = integrate(lambda u: (u - c) * weight(u), window, self.cfg)
            mass_k[k], mass_err[k] = mass.value, mass.abs_error_estimate
            moment_k[k] = moment.value + c * mass.value
            moment_err[k] = moment.abs_error_estimate + abs(c) * mass.abs_error_estimate
        return mass_k, moment_k, mass_err, moment_err, values[:, 15]

    def _weight(self, row: int):
        t, shift, log_pdf = float(self.ts[row]), float(self.shift[row]), self.measure.log_pdf

        def weight(x: np.ndarray) -> np.ndarray:
            values = t * x + log_pdf(x) - shift
            _check_log_values(x, values)
            return np.exp(values)

        return weight

    def fill(self, grid: TiltGrid, where: slice) -> None:
        """Every field of ``grid`` but the median, for this chunk's tilts."""
        with np.errstate(divide="ignore", invalid="ignore"):
            mean = self.moment / self.mass
            grid.log_partition[where] = self.shift + np.log(self.mass)
            grid.mean[where] = mean
            grid.mean_error[where] = (self.moment_err + np.abs(mean) * self.mass_err) / self.mass
            at_t = self.half_line(np.arange(self.ts.size), self.ts)
            grid.cdf_at_t[where], grid.cdf_at_t_error[where] = at_t[:2]
            grid.lower_moment_at_t[where], grid.lower_moment_at_t_error[where] = at_t[2:]

    @np.errstate(divide="ignore", invalid="ignore")
    def half_line(self, rows: np.ndarray, x: np.ndarray) -> tuple[np.ndarray, ...]:
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
            for table, part in zip(self.below, self._partial(rows, panel, x))
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
    def _medians(self, x_tol: float) -> tuple[np.ndarray, np.ndarray]:
        """Median of each tilted law and its error estimate.

        The error of the CDF table is its quadrature error plus the rounding
        of a running sum over the panels.  Table edges within that error of
        1/2 form a plateau whose midpoint is the median; otherwise Newton
        runs in the panel where the table crosses 1/2, and the median error is
        ``x_tol + cdf_err / pdf(median)``.
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
            errors[row] = x_tol + 0.5 * (outer[1] - outer[0])
        rows = np.nonzero(~plateau & (self.mass > 0))[0]
        if rows.size:
            panel = np.minimum(np.sum(cdf[rows] < 0.5, axis=1) - 1, n_panels - 1)
            x, density = self._newton(
                rows, panel, cdf[rows, panel], cdf[rows, panel + 1], x_tol
            )
            medians[rows] = x
            errors[rows] = x_tol + cdf_err[rows] / density
        return medians, errors

    def _newton(
        self,
        rows: np.ndarray,
        panel: np.ndarray,
        cdf_lo: np.ndarray,
        cdf_hi: np.ndarray,
        x_tol: float,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Safeguarded Newton for cdf(x) = 1/2 inside one panel per row.

        ``cdf_lo`` and ``cdf_hi`` are the table values at the panel's edges.
        Returns the roots and the tilted density there.  A step leaving the
        current bracket becomes a bisection.
        """
        lo = self.edges[panel].copy()
        hi = self.edges[panel + 1].copy()
        # secant start; the root may sit on a panel edge, so the bracket is closed
        x = np.clip(lo + (0.5 - cdf_lo) / (cdf_hi - cdf_lo) * (hi - lo), lo, hi)
        mass = self.mass[rows]
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
            # an overshoot within x_tol is rounding at a root on the bracket end
            inside = (proposal >= lo[active] - x_tol) & (proposal <= hi[active] + x_tol)
            proposal = np.where(
                inside,
                np.clip(proposal, lo[active], hi[active]),
                0.5 * (lo[active] + hi[active]),
            )
            done = (cdf == 0.5) | (
                inside & (np.abs(proposal - xa) <= x_tol)
            ) | (hi[active] - lo[active] <= 2.0 * x_tol)
            x[active] = np.where(cdf == 0.5, xa, proposal)
            active = active[~done]
        # density at the returned root (the last Newton step moved x)
        return x, np.exp(self.ts[rows] * x + self.measure.log_pdf(x) - self.shift[rows]) / mass


class _TiltState:
    """The engine pass of one tilt, kept so later requests at the same tilt reuse it.

    It holds the pass's ``_TiltChunk`` (panel tables, shift and mass) and the
    row it filled without the median; a median is solved on those tables
    when first asked for, once per ``x_tol``.  Each result equals the
    matching entry of a fresh ``tilt_grid(measure, [t], cfg)``.
    """

    def __init__(self, measure: BaseMeasure, t: float, cfg: QuadratureConfig) -> None:
        self.key = (t, cfg)
        ts = np.array([t])
        self.row = _empty_grid(ts, median=False)
        ((where, self.chunk),) = _chunks(measure, ts, cfg)
        self.chunk.fill(self.row, where)
        self._with_median: dict[float, TiltGrid] = {}

    def with_median(self, x_tol: float) -> TiltGrid:
        _check_x_tol(x_tol)
        row = self._with_median.get(x_tol)
        if row is None:
            median, error = self.chunk._medians(x_tol)
            row = dataclasses.replace(self.row, median=median, median_error=error)
            self._with_median[x_tol] = row
        return row


def _tilt_state(measure: BaseMeasure, t: float, cfg: QuadratureConfig) -> _TiltState:
    """The measure's kept state at (t, cfg); a new pass replaces a state at another (t, cfg).

    The state is read once: a caller racing another one at worst runs the pass again.
    """
    t = _check_tilt(t)
    state = measure._tilt_state
    # 0.0 and -0.0 share a state: no result depends on the sign of a zero tilt
    if state is None or state.key != (t, cfg):
        state = _TiltState(measure, t, cfg)
        object.__setattr__(measure, "_tilt_state", state)
    return state


def _tilt_row(
    measure: BaseMeasure,
    t: float,
    cfg: QuadratureConfig,
    *,
    median: bool = False,
    x_tol: float = DEFAULT_X_TOL,
) -> TiltGrid:
    """``tilt_grid(measure, [t], cfg, median=median, x_tol=x_tol)`` from the measure's kept state.

    Callers only read the row: its arrays are shared with the state.
    """
    state = _tilt_state(measure, t, cfg)
    return state.with_median(x_tol) if median else state.row


def _half_line(measure: BaseMeasure, t: float, xs, cfg: QuadratureConfig) -> tuple:
    """F_t(x), its error, E_t[X; X <= x] and its error at each x, from the kept state."""
    xs = np.asarray(xs, dtype=float)
    return _tilt_state(measure, t, cfg).chunk.half_line(np.zeros(xs.size, dtype=int), xs)


def log_partition(
    measure: BaseMeasure, t: float, cfg: QuadratureConfig = DEFAULT_QUADRATURE
) -> float:
    """log of the Laplace transform of the base measure at t."""
    return float(_tilt_row(measure, t, cfg).log_partition[0])


def tilt(
    measure: BaseMeasure, t: float, cfg: QuadratureConfig = DEFAULT_QUADRATURE
) -> TiltedView:
    """Construct the tilt-t member of the family generated by ``measure``."""
    t = _check_tilt(t)
    log_l = float(_tilt_row(measure, t, cfg).log_partition[0])
    return TiltedView(base=measure, t=t, log_partition=log_l, cfg=cfg)


@dataclass(frozen=True)
class TiltedView:
    """One member of the tilted family, with its normalizer cached.

    ``mean()``, ``median()`` and ``cdf()`` read the base measure's kept
    one-tilt state (see ``BaseMeasure``): after :func:`tilt`, or any other
    one-tilt request at the same (t, cfg), they run no second engine pass;
    the median is solved on the kept panel tables, once per ``x_tol``.
    """

    base: BaseMeasure
    t: float
    log_partition: float
    cfg: QuadratureConfig = DEFAULT_QUADRATURE

    def __post_init__(self) -> None:
        if not math.isfinite(self.log_partition):
            raise ValueError("log_partition must be finite")

    def window_halfwidth(self) -> float:
        return self.base.window_halfwidth(self.t, self.cfg.truncation_halfwidth)

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
        value = float(_half_line(self.base, self.t, [x], self.cfg)[0][0])
        return min(1.0, max(0.0, value))

    def mean(self) -> float:
        return float(_tilt_row(self.base, self.t, self.cfg).mean[0])

    def median(self, x_tol: float = DEFAULT_X_TOL) -> float:
        """Solve cdf(x) = 1/2; a flat stretch at 1/2 resolves to its midpoint."""
        return float(_tilt_row(self.base, self.t, self.cfg, median=True, x_tol=x_tol).median[0])


def half_line_mgf(
    measure: BaseMeasure, t: float, cfg: QuadratureConfig = DEFAULT_QUADRATURE
) -> tuple[float, float]:
    """Moment generating integral restricted to the half line ending at t.

    Returns ``(value, derivative)`` where the value is the integral of
    exp(t*x) against the base density over (-inf, t] and the derivative is
    the exact t-derivative: exp(t^2) times the density at t, plus the
    integral of x*exp(t*x) against the density over the same half line.
    The derivative formula follows from the quantile transform of the
    distribution function; tests cross-check it against finite differences.
    """
    row = _tilt_row(measure, t, cfg)
    full = math.exp(row.log_partition[0])
    boundary = math.exp(t * t + float(measure.log_pdf(np.array([t]))[0]))
    return full * row.cdf_at_t[0], boundary + full * row.lower_moment_at_t[0]
