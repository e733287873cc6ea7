"""Base probability measures written as a density ratio against the standard normal.

Every measure handled by this package has a density ``f(x) = g(x) * phi(x)``
where ``phi`` is the standard normal density and ``g`` is a nonnegative
factor stored in log domain (``-inf`` marking zeros of ``g``).  The catalog
covers four closed-form families plus densities tabulated in a text file;
all of them keep the two-sided Laplace transform finite for every real
argument, which is the standing assumption behind exponential tilting.

Each family is defined once, as a spec dataclass that carries its literal
name on the command line (its arguments are the dataclass fields), the
builder of its ``log_g`` and truncation window, and its closed-form log
Laplace transform.  ``MEASURE_FAMILIES`` lists them.  The two normal
families list their ``(log weight, mu, sigma)`` components, and one builder
and one closed form serve both.  Windows use the fixed constants of
``numerics``, so a spec alone determines its measure.  The builder also
lists the points where the tilt-grid engine's panel lattice must have an
edge: the knots of a table (for the normalized table, the edges of the raw
table's lattice), and a grid over each normal component too narrow for the
anchored panels.  Nonnegativity is checked exactly on the parameters
(``PerturbedCosine`` needs ``eps <= 1``, tables need values ``>= 0``); the
unit-mass check and the normalization of tables read log L(0) from the
engine.
"""

from __future__ import annotations

import dataclasses
import functools
import math
from dataclasses import dataclass
from typing import Any, Callable, ClassVar, Union

import numpy as np

from .numerics import FIXED_PANEL_WIDTH, TRUNCATION_HALFWIDTH, scaled_exp

__all__ = [
    "BaseMeasure",
    "Gaussian",
    "GaussianMixture",
    "GridFunction",
    "MEASURE_FAMILIES",
    "MeasureError",
    "MeasureSpec",
    "NegativeDensityError",
    "NotNormalizableError",
    "PerturbedCosine",
    "PerturbedQuadratic",
    "RatioOverflowError",
    "Tabulated",
    "TailViolationError",
    "build_measure",
    "closed_form_log_partition",
    "sample_to_grid",
]

LOG_SQRT_2PI = 0.5 * math.log(2.0 * math.pi)

_NORMALIZATION_TOL = 1e-10


class MeasureError(Exception):
    """Base class for measure construction failures."""


class NotNormalizableError(MeasureError):
    """The density does not integrate to one (or integrates to zero)."""


class NegativeDensityError(MeasureError):
    """The density ratio takes negative values."""


class TailViolationError(MeasureError):
    """Tabulated data grows super-Gaussianly toward the table edge."""


class RatioOverflowError(ValueError):
    """The density ratio g exceeds the float64 range on a sampling grid, or is
    nan there because its evaluation overflowed."""


@dataclass(frozen=True)
class BaseMeasure:
    """A validated base measure with density ``exp(log_g(x)) * phi(x)``.

    Integrals against the tilt-t reweighting are truncated to ``[-h, h]`` with
    ``h = window_offset + TRUNCATION_HALFWIDTH * window_scale + window_scale**2 * |t|``:
    the window grows with |t| because tilting by t recenters a density with a
    Gaussian envelope of sd ``window_scale`` by that sd squared per unit of t.

    ``breakpoints`` are points where the engine's panel lattice has an edge:
    kinks of the density, a grid over a peak too narrow for the anchored
    panels, or, for a normalized table, the edges of its raw table's
    lattice, from which its own bisection starts.

    The measure has two engine fields, built on first use.  The node table
    holds the panel lattice's edges, the Kronrod nodes of every panel and
    ``log_pdf`` there, so the engine evaluates the base log-density on those
    nodes once per measure, not once per pass; ``lattice._node_table`` is
    the one function that writes it.  The kept pass is the engine
    pass of the most recent request, single tilt or grid (``tilting.tilt``,
    ``log_partition``, the single-t diagnostics, ``tilt_grid``, ``scan``,
    the quadratic fit and the midpoint residual), keyed on its tilts, so
    further requests on the same tilts share that one panel pass:
    consecutive diagnostics on one grid run one pass, and a single-t
    request at a tilt of the kept grid reads that tilt's row.  Every reader
    takes the pass itself; the ``tilting`` module docstring says what a
    pass forms and when.  Only one pass is kept: a request on tilts it does
    not hold releases it before forming its own, and until then it holds
    its running tables (8.2 MB after a 97-tilt scan of
    ``Gaussian(0, 20)``).  Neither field takes part in ``==``, ``hash`` or
    ``repr``.
    """

    spec: MeasureSpec
    log_g: Callable[[np.ndarray], np.ndarray]
    window_offset: float = 0.0
    window_scale: float = 1.0
    breakpoints: tuple[float, ...] = ()
    _node_table: Any = dataclasses.field(default=None, init=False, compare=False, repr=False)
    _tilt_state: Any = dataclasses.field(default=None, init=False, compare=False, repr=False)

    def g(self, x) -> np.ndarray:
        return np.exp(self.log_g(np.asarray(x, dtype=float)))

    def log_pdf(self, x) -> np.ndarray:
        return _log_density(self.log_g, x)

    def pdf(self, x) -> np.ndarray:
        return np.exp(self.log_pdf(x))

    def window_halfwidth(self, t: float = 0.0) -> float:
        """Truncation halfwidth for integrals against the tilt-t reweighting."""
        scale = self.window_scale
        return self.window_offset + TRUNCATION_HALFWIDTH * scale + scale**2 * abs(t)


def _log_density(log_g: Callable[[np.ndarray], np.ndarray], x) -> np.ndarray:
    """The log-density ``log_g(x) - x^2 / 2 - log sqrt(2 pi)`` of the ratio ``log_g``."""
    x = np.asarray(x, dtype=float)
    return log_g(x) - 0.5 * x**2 - LOG_SQRT_2PI


def _peak_breakpoints(mu: float, sigma: float) -> tuple[float, ...]:
    """mu + k sigma for |k| <= TRUNCATION_HALFWIDTH, for a normal component whose
    sigma is below the anchored panel width; nothing for a wider one."""
    if sigma >= FIXED_PANEL_WIDTH:
        return ()
    reach = int(TRUNCATION_HALFWIDTH)
    return tuple(mu + k * sigma for k in range(-reach, reach + 1))


def _check_finite(spec) -> None:
    """Reject nan and infinite parameters before anything is built from them."""
    for field in dataclasses.fields(spec):
        if not math.isfinite(getattr(spec, field.name)):
            raise ValueError(f"{field.name} must be finite")


class _NormalComponents:
    """A family whose density is a mixture of normal components, which
    ``_components`` lists as ``(log weight, mu, sigma)``.

    The window takes the largest |mu| and the largest sigma of the components.
    """

    def _build(self) -> BaseMeasure:
        parts = self._components()
        log_sigmas = [math.log(sigma) for _, _, sigma in parts]

        def log_g(x: np.ndarray) -> np.ndarray:
            x = np.asarray(x, dtype=float)
            # log sum_i w_i phi((x - mu_i) / sigma_i) / sigma_i + x^2 / 2: exactly 0 for N(0, 1)
            terms = (
                log_w - 0.5 * ((x - mu) / sigma) ** 2 - log_sigma
                for (log_w, mu, sigma), log_sigma in zip(parts, log_sigmas)
            )
            return functools.reduce(np.logaddexp, terms) + 0.5 * x**2

        return BaseMeasure(
            self,
            log_g,
            window_offset=max(abs(mu) for _, mu, _ in parts),
            window_scale=max(sigma for _, _, sigma in parts),
            breakpoints=sum((_peak_breakpoints(mu, sigma) for _, mu, sigma in parts), ()),
        )

    def closed_form_log_partition(self, t: float) -> float:
        parts = self._components()
        terms = (log_w + mu * t + 0.5 * (sigma * t) ** 2 for log_w, mu, sigma in parts)
        return float(functools.reduce(np.logaddexp, terms))


@dataclass(frozen=True)
class Gaussian(_NormalComponents):
    """Normal law N(mu, sigma^2)."""

    literal: ClassVar[str] = "gaussian"
    mu: float
    sigma: float

    def __post_init__(self) -> None:
        _check_finite(self)
        if not self.sigma > 0:
            raise ValueError("sigma must be positive")

    def _components(self) -> tuple[tuple[float, float, float], ...]:
        return ((0.0, self.mu, self.sigma),)


@dataclass(frozen=True)
class PerturbedCosine:
    """Density ratio proportional to 1 + eps*cos(x)."""

    literal: ClassVar[str] = "perturbed_cosine"
    eps: float

    def __post_init__(self) -> None:
        _check_finite(self)
        if self.eps < 0:
            raise ValueError("eps must be nonnegative")

    def _build(self) -> BaseMeasure:
        # 1 + eps*cos(x) >= 0 for every x exactly when eps <= 1
        if self.eps > 1:
            raise NegativeDensityError(
                f"density ratio 1 + eps*cos(x) is negative at x = pi for eps = {self.eps!r} > 1"
            )
        eps, log_norm = self.eps, math.log1p(self.eps * math.exp(-0.5))

        def log_g(x: np.ndarray) -> np.ndarray:
            x = np.asarray(x, dtype=float)
            with np.errstate(divide="ignore"):  # log 0 = -inf at the zeros of eps = 1
                return np.log(1.0 + eps * np.cos(x)) - log_norm

        return BaseMeasure(self, log_g)

    def closed_form_log_partition(self, t: float) -> float:
        scaled = self.eps * math.exp(-0.5)
        return 0.5 * t * t + math.log1p(scaled * math.cos(t)) - math.log1p(scaled)


@dataclass(frozen=True)
class PerturbedQuadratic:
    """Density ratio proportional to 1 + eps*x^2."""

    literal: ClassVar[str] = "perturbed_quadratic"
    eps: float

    def __post_init__(self) -> None:
        _check_finite(self)
        if self.eps < 0:
            raise ValueError("eps must be nonnegative")

    def _build(self) -> BaseMeasure:
        eps, log_norm = self.eps, math.log1p(self.eps)

        def log_g(x: np.ndarray) -> np.ndarray:
            x = np.asarray(x, dtype=float)
            return np.log1p(eps * x**2) - log_norm

        return BaseMeasure(self, log_g)

    def closed_form_log_partition(self, t: float) -> float:
        return 0.5 * t * t + math.log1p(self.eps * (1.0 + t * t)) - math.log1p(self.eps)


@dataclass(frozen=True)
class GaussianMixture(_NormalComponents):
    """Two-component normal mixture: weight on the first component."""

    literal: ClassVar[str] = "gaussian_mixture"
    weight: float
    mu1: float
    sigma1: float
    mu2: float
    sigma2: float

    def __post_init__(self) -> None:
        _check_finite(self)
        if not 0.0 <= self.weight <= 1.0:
            raise ValueError("weight must lie in [0, 1]")
        if not (self.sigma1 > 0 and self.sigma2 > 0):
            raise ValueError("component sigmas must be positive")

    def _components(self) -> tuple[tuple[float, float, float], ...]:
        log_w1 = math.log(self.weight) if self.weight > 0 else -math.inf
        log_w2 = math.log1p(-self.weight) if self.weight < 1 else -math.inf
        return ((log_w1, self.mu1, self.sigma1), (log_w2, self.mu2, self.sigma2))


@dataclass(frozen=True)
class Tabulated:
    """Density ratio tabulated in a two-column text file.

    Format: one ``x value`` pair per whitespace-separated line, strictly
    increasing x, nonnegative values; lines starting with '#' are ignored.
    The ratio is interpolated linearly inside the tabulated range, set to
    zero outside it, and renormalized so the density integrates to one.
    Integrals are truncated to the table range whatever the tilt.  The raw
    ratio's lattice, on the knots, gives the mass; the normalized measure's
    lattice is bisected from the raw lattice's edges, like any other.  A
    constant factor moves no lattice test, so its first round passes the raw
    lattice's panels: all of them on every table measured.
    """

    literal: ClassVar[str] = "tabulated"
    path: str

    def _build(self) -> BaseMeasure:
        xs, gs = _load_table(self.path)
        if np.any(gs < 0):
            bad = xs[gs < 0][0]
            raise NegativeDensityError(f"tabulated ratio negative at x={bad!r}")
        _check_table_tails(xs, gs)
        halfwidth = float(max(abs(xs[0]), abs(xs[-1])))

        def log_g(x: np.ndarray, ratio: np.ndarray = gs) -> np.ndarray:
            vals = np.interp(np.asarray(x, dtype=float), xs, ratio, left=0.0, right=0.0)
            with np.errstate(divide="ignore"):
                return np.log(vals)

        # tilting imports this module
        from .tilting import log_partition

        raw = BaseMeasure(
            self, log_g, window_offset=halfwidth, window_scale=0.0,
            breakpoints=tuple(xs.tolist()),
        )
        mass = float(scaled_exp(log_partition(raw, 0.0)))
        if not mass > 1e-300:
            raise NotNormalizableError("tabulated density has zero total mass")
        # the lattice tests in units of each tilt's largest node value, so a
        # constant factor moves no test: bisected from the raw lattice's edges,
        # the normalized table passes the raw table's panels in its first round
        ratio = functools.partial(log_g, ratio=gs / mass)
        return dataclasses.replace(raw, log_g=ratio, breakpoints=tuple(raw._node_table[0].tolist()))

    def closed_form_log_partition(self, t: float) -> None:
        return None


MEASURE_FAMILIES = (Gaussian, PerturbedCosine, PerturbedQuadratic, GaussianMixture, Tabulated)
MeasureSpec = Union[MEASURE_FAMILIES]


@dataclass(frozen=True)
class GridFunction:
    """Uniform-grid samples of a real function with a tracked valid window.

    Entries outside ``[window_lo, window_hi]`` carry no information (they are
    nan-filled after window-shrinking operations); entries inside must be
    finite.  ``x_min`` must be finite, ``step`` positive and finite, and the
    window bounds integers; anything else raises ``ValueError`` naming the
    field.
    """

    x_min: float
    step: float
    values: np.ndarray
    window_lo: int
    window_hi: int

    def __post_init__(self) -> None:
        values = np.array(self.values, dtype=float)
        values.flags.writeable = False
        object.__setattr__(self, "values", values)
        if not math.isfinite(self.x_min):
            raise ValueError(f"x_min must be finite, got {self.x_min!r}")
        if not 0 < self.step < math.inf:
            raise ValueError(f"step must be positive and finite, got {self.step!r}")
        if values.ndim != 1 or values.size == 0:
            raise ValueError("values must be a nonempty 1-d sequence")
        for name in ("window_lo", "window_hi"):
            if not isinstance(getattr(self, name), (int, np.integer)):
                raise ValueError(f"{name} must be an integer, got {getattr(self, name)!r}")
        if not (0 <= self.window_lo <= self.window_hi < values.size):
            raise ValueError(
                f"valid window [{self.window_lo}, {self.window_hi}] out of bounds "
                f"for {values.size} values"
            )
        if not np.all(np.isfinite(values[self.window_lo : self.window_hi + 1])):
            raise ValueError("values inside the valid window must be finite")

    def window_x(self) -> np.ndarray:
        return self.x_min + self.step * np.arange(self.window_lo, self.window_hi + 1)

    def window_values(self) -> np.ndarray:
        return self.values[self.window_lo : self.window_hi + 1]


def _load_table(path: str) -> tuple[np.ndarray, np.ndarray]:
    xs: list[float] = []
    gs: list[float] = []
    try:
        with open(path, "r", encoding="utf-8") as handle:
            for lineno, line in enumerate(handle, start=1):
                stripped = line.strip()
                if not stripped or stripped.startswith("#"):
                    continue
                parts = stripped.split()
                if len(parts) != 2:
                    raise MeasureError(
                        f"{path}:{lineno}: expected two columns, got {len(parts)}"
                    )
                try:
                    xs.append(float(parts[0]))
                    gs.append(float(parts[1]))
                except ValueError as exc:
                    raise MeasureError(f"{path}:{lineno}: {exc}") from exc
    except OSError as exc:
        raise MeasureError(f"cannot read tabulated density {path}: {exc}") from exc
    if len(xs) < 2:
        raise MeasureError(f"{path}: need at least two tabulated points")
    x_arr = np.array(xs)
    g_arr = np.array(gs)
    # a nan x would fail the ordering test too: finiteness is checked first
    if not np.all(np.isfinite(x_arr)) or not np.all(np.isfinite(g_arr)):
        raise MeasureError(f"{path}: entries must be finite")
    if not np.all(np.diff(x_arr) > 0):
        raise MeasureError(f"{path}: x column must be strictly increasing")
    return x_arr, g_arr


@np.errstate(over="ignore")
def _check_table_tails(xs: np.ndarray, gs: np.ndarray) -> None:
    """Reject tables whose density rises toward an edge beyond |x| = 2.

    A tabulated ratio that grows faster than the Gaussian envelope decays
    would make the tilted-integral assumption vacuous outside the table, so
    the density g*phi must be falling across the two outermost intervals on
    each side.  Past |x| ~ 1e154, x^2 overflows, and log_f is -inf there, as
    the density is.
    """
    if xs.size < 3:
        return
    log_f = np.where(gs > 0, np.log(np.where(gs > 0, gs, 1.0)), -np.inf) - 0.5 * xs**2
    if xs[0] <= -2.0 and log_f[0] > log_f[1] > log_f[2]:
        raise TailViolationError(
            f"density rises toward the left table edge x={xs[0]!r}"
        )
    if xs[-1] >= 2.0 and log_f[-1] > log_f[-2] > log_f[-3]:
        raise TailViolationError(
            f"density rises toward the right table edge x={xs[-1]!r}"
        )


def build_measure(spec: MeasureSpec) -> BaseMeasure:
    """Construct and validate a ``BaseMeasure`` from its declarative spec.

    Each family's builder rejects parameters that make the density ratio
    negative; validation then checks the full density for unit mass, as L(0)
    from the tilt-grid engine.  Tabulated input is renormalized before the
    mass check and additionally screened for super-Gaussian growth at the
    table edges.
    """
    _check_family(spec)
    measure = spec._build()
    _validate(measure)
    return measure


def _check_family(spec: MeasureSpec) -> None:
    if type(spec) not in MEASURE_FAMILIES:
        raise TypeError(f"unknown measure spec {spec!r}")


def _validate(measure: BaseMeasure) -> None:
    from .tilting import log_partition  # tilting imports this module

    mass = float(scaled_exp(log_partition(measure, 0.0)))
    if abs(mass - 1.0) > _NORMALIZATION_TOL:
        raise NotNormalizableError(
            f"density integrates to {mass!r}, expected 1 within {_NORMALIZATION_TOL}"
        )


def closed_form_log_partition(spec: MeasureSpec, t: float) -> float | None:
    """Exact log Laplace transform for catalog families, None for tabulated."""
    _check_family(spec)
    return spec.closed_form_log_partition(float(t))


def sample_to_grid(measure: BaseMeasure, x_min: float, x_max: float, n: int) -> GridFunction:
    """Sample the density ratio g (not the density itself) on a uniform grid.

    Raises :class:`RatioOverflowError` where g exceeds the float64 range,
    or is nan because its evaluation overflowed.
    Bounds that are not increasing and finite, with a finite span, are
    rejected before any sample is taken.
    """
    if not (x_min < x_max and math.isfinite(float(x_max) - float(x_min))):
        raise ValueError(f"x bounds [{x_min}, {x_max}] must be increasing, with a finite span")
    if n < 2:
        raise ValueError("need at least two grid points")
    xs = np.linspace(x_min, x_max, n)
    # far out, x^2 overflows and log g is inf - inf: g is nan there, not +inf
    with np.errstate(over="ignore", invalid="ignore"):
        values = measure.g(xs)
        overflow = np.flatnonzero(~(values < np.inf))
        if overflow.size:
            x = float(xs[overflow[0]])
            raise RatioOverflowError(
                f"density ratio of {measure.spec!r} overflows float64 at x={x!r} "
                f"(log g = {float(measure.log_g(np.array([x]))[0])!r})"
            )
    return GridFunction(
        x_min=float(x_min),
        step=float(xs[1] - xs[0]),
        values=values,
        window_lo=0,
        window_hi=n - 1,
    )
