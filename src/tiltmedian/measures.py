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
Laplace transform.  ``MEASURE_FAMILIES`` lists them.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from typing import Any, Callable, ClassVar, Union

import numpy as np

from .numerics import DEFAULT_QUADRATURE, QuadratureConfig, integrate

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
_DENSITY_SCAN_POINTS = 4001


class MeasureError(Exception):
    """Base class for measure construction failures."""


class NotNormalizableError(MeasureError):
    """The density does not integrate to one (or integrates to zero)."""


class NegativeDensityError(MeasureError):
    """The density ratio takes negative values."""


class TailViolationError(MeasureError):
    """Tabulated data grows super-Gaussianly toward the table edge."""


class RatioOverflowError(ValueError):
    """The density ratio g exceeds the float64 range on a sampling grid."""


@dataclass(frozen=True)
class BaseMeasure:
    """A validated base measure with density ``exp(log_g(x)) * phi(x)``.

    Integrals against the tilt-t reweighting are truncated to ``[-h, h]``
    with ``h = window_offset + base * window_scale + tilt_gain * |t|``: the
    window grows with |t| because tilting by t recenters a
    Gaussian-enveloped density by (envelope sd)^2 per unit of t.

    The measure keeps the engine state of its most recent one-tilt request
    (``tilting.tilt``, ``log_partition``, the single-t diagnostics), so
    further requests at the same tilt and quadrature settings share that
    one panel pass.  Only one state is kept; it takes no part in ``==``,
    ``hash`` or ``repr``.
    """

    spec: MeasureSpec
    log_g: Callable[[np.ndarray], np.ndarray]
    window_offset: float = 0.0
    window_scale: float = 1.0
    tilt_gain: float = 1.0
    _tilt_state: Any = dataclasses.field(default=None, init=False, compare=False, repr=False)

    def g(self, x) -> np.ndarray:
        return np.exp(self.log_g(np.asarray(x, dtype=float)))

    def log_pdf(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        return self.log_g(x) - 0.5 * x**2 - LOG_SQRT_2PI

    def pdf(self, x) -> np.ndarray:
        return np.exp(self.log_pdf(x))

    def window_halfwidth(self, t: float = 0.0, base: float = 12.0) -> float:
        """Truncation halfwidth for integrals against the tilt-t reweighting."""
        return self.window_offset + base * self.window_scale + self.tilt_gain * abs(t)


def _check_finite(spec) -> None:
    """Reject nan and infinite parameters before anything is built from them."""
    for field in dataclasses.fields(spec):
        if not math.isfinite(getattr(spec, field.name)):
            raise ValueError(f"{field.name} must be finite")


@dataclass(frozen=True)
class Gaussian:
    """Normal law N(mu, sigma^2)."""

    literal: ClassVar[str] = "gaussian"
    mu: float
    sigma: float

    def __post_init__(self) -> None:
        _check_finite(self)
        if not self.sigma > 0:
            raise ValueError("sigma must be positive")

    def _build(self, cfg: QuadratureConfig) -> BaseMeasure:
        mu, sigma, log_sigma = self.mu, self.sigma, math.log(self.sigma)

        def log_g(x: np.ndarray) -> np.ndarray:
            x = np.asarray(x, dtype=float)
            return 0.5 * x**2 - 0.5 * ((x - mu) / sigma) ** 2 - log_sigma

        return BaseMeasure(
            self, log_g, window_offset=abs(mu), window_scale=sigma, tilt_gain=sigma**2
        )

    def closed_form_log_partition(self, t: float) -> float:
        return self.mu * t + 0.5 * (self.sigma * t) ** 2


@dataclass(frozen=True)
class PerturbedCosine:
    """Density ratio proportional to 1 + eps*cos(x)."""

    literal: ClassVar[str] = "perturbed_cosine"
    eps: float

    def __post_init__(self) -> None:
        _check_finite(self)
        if self.eps < 0:
            raise ValueError("eps must be nonnegative")

    def _build(self, cfg: QuadratureConfig) -> BaseMeasure:
        eps, log_norm = self.eps, math.log1p(self.eps * math.exp(-0.5))

        def log_g(x: np.ndarray) -> np.ndarray:
            x = np.asarray(x, dtype=float)
            # log of a negative ratio yields nan, which construction-time
            # validation turns into NegativeDensityError
            with np.errstate(divide="ignore", invalid="ignore"):
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

    def _build(self, cfg: QuadratureConfig) -> BaseMeasure:
        eps, log_norm = self.eps, math.log1p(self.eps)

        def log_g(x: np.ndarray) -> np.ndarray:
            x = np.asarray(x, dtype=float)
            return np.log1p(eps * x**2) - log_norm

        return BaseMeasure(self, log_g)

    def closed_form_log_partition(self, t: float) -> float:
        return 0.5 * t * t + math.log1p(self.eps * (1.0 + t * t)) - math.log1p(self.eps)


@dataclass(frozen=True)
class GaussianMixture:
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

    def _log_weights(self) -> tuple[float, float]:
        log_w1 = math.log(self.weight) if self.weight > 0 else -math.inf
        log_w2 = math.log1p(-self.weight) if self.weight < 1 else -math.inf
        return log_w1, log_w2

    def _build(self, cfg: QuadratureConfig) -> BaseMeasure:
        log_w1, log_w2 = self._log_weights()

        def log_g(x: np.ndarray) -> np.ndarray:
            x = np.asarray(x, dtype=float)
            a = log_w1 - 0.5 * ((x - self.mu1) / self.sigma1) ** 2 - math.log(self.sigma1)
            b = log_w2 - 0.5 * ((x - self.mu2) / self.sigma2) ** 2 - math.log(self.sigma2)
            return np.logaddexp(a, b) + 0.5 * x**2

        sigma = max(self.sigma1, self.sigma2)
        return BaseMeasure(
            self,
            log_g,
            window_offset=max(abs(self.mu1), abs(self.mu2)),
            window_scale=sigma,
            tilt_gain=sigma**2,
        )

    def closed_form_log_partition(self, t: float) -> float:
        log_w1, log_w2 = self._log_weights()
        a = log_w1 + self.mu1 * t + 0.5 * (self.sigma1 * t) ** 2
        b = log_w2 + self.mu2 * t + 0.5 * (self.sigma2 * t) ** 2
        return float(np.logaddexp(a, b))


@dataclass(frozen=True)
class Tabulated:
    """Density ratio tabulated in a two-column text file.

    Format: one ``x value`` pair per whitespace-separated line, strictly
    increasing x, nonnegative values; lines starting with '#' are ignored.
    The ratio is interpolated linearly inside the tabulated range, set to
    zero outside it, and renormalized so the density integrates to one.
    Integrals are truncated to the table range whatever the tilt.
    """

    literal: ClassVar[str] = "tabulated"
    path: str

    def _build(self, cfg: QuadratureConfig) -> BaseMeasure:
        xs, gs = _load_table(self.path)
        if np.any(gs < 0):
            bad = xs[gs < 0][0]
            raise NegativeDensityError(f"tabulated ratio negative at x={bad!r}")
        _check_table_tails(xs, gs)
        mass = integrate(
            lambda x: np.interp(x, xs, gs, left=0.0, right=0.0)
            * np.exp(-0.5 * np.asarray(x, dtype=float) ** 2 - LOG_SQRT_2PI),
            (float(xs[0]), float(xs[-1])),
            cfg,
        ).value
        if not mass > 1e-300:
            raise NotNormalizableError("tabulated density has zero total mass")
        ratio = gs / mass

        def log_g(x: np.ndarray) -> np.ndarray:
            x = np.asarray(x, dtype=float)
            vals = np.interp(x, xs, ratio, left=0.0, right=0.0)
            with np.errstate(divide="ignore"):
                return np.log(vals)

        halfwidth = float(max(abs(xs[0]), abs(xs[-1])))
        return BaseMeasure(
            self, log_g, window_offset=halfwidth, window_scale=0.0, tilt_gain=0.0
        )

    def closed_form_log_partition(self, t: float) -> None:
        return None


MEASURE_FAMILIES = (Gaussian, PerturbedCosine, PerturbedQuadratic, GaussianMixture, Tabulated)
MeasureSpec = Union[MEASURE_FAMILIES]


@dataclass(frozen=True)
class GridFunction:
    """Uniform-grid samples of a real function with a tracked valid window.

    Entries outside ``[window_lo, window_hi]`` carry no information (they are
    nan-filled after window-shrinking operations); entries inside must be
    finite.
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
        if not self.step > 0:
            raise ValueError("step must be positive")
        if values.ndim != 1 or values.size == 0:
            raise ValueError("values must be a nonempty 1-d sequence")
        if not (0 <= self.window_lo <= self.window_hi < values.size):
            raise ValueError(
                f"valid window [{self.window_lo}, {self.window_hi}] out of bounds "
                f"for {values.size} values"
            )
        if not np.all(np.isfinite(values[self.window_lo : self.window_hi + 1])):
            raise ValueError("values inside the valid window must be finite")

    def x(self) -> np.ndarray:
        return self.x_min + self.step * np.arange(self.values.size)

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
    if not np.all(np.diff(x_arr) > 0):
        raise MeasureError(f"{path}: x column must be strictly increasing")
    if not np.all(np.isfinite(x_arr)) or not np.all(np.isfinite(g_arr)):
        raise MeasureError(f"{path}: entries must be finite")
    return x_arr, g_arr


def _check_table_tails(xs: np.ndarray, gs: np.ndarray) -> None:
    """Reject tables whose density rises toward an edge beyond |x| = 2.

    A tabulated ratio that grows faster than the Gaussian envelope decays
    would make the tilted-integral assumption vacuous outside the table, so
    the density g*phi must be falling across the two outermost intervals on
    each side.
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


def build_measure(spec: MeasureSpec, cfg: QuadratureConfig = DEFAULT_QUADRATURE) -> BaseMeasure:
    """Construct and validate a ``BaseMeasure`` from its declarative spec.

    Validation checks the density ratio for negative values on a dense scan
    grid and the full density for unit mass by quadrature.  Tabulated input
    is renormalized before the mass check and additionally screened for
    super-Gaussian growth at the table edges.
    """
    _check_family(spec)
    measure = spec._build(cfg)
    _validate(measure, cfg)
    return measure


def _check_family(spec: MeasureSpec) -> None:
    if type(spec) not in MEASURE_FAMILIES:
        raise TypeError(f"unknown measure spec {spec!r}")


def _validate(measure: BaseMeasure, cfg: QuadratureConfig) -> None:
    halfwidth = measure.window_halfwidth(0.0, cfg.truncation_halfwidth)
    scan = np.linspace(-halfwidth, halfwidth, _DENSITY_SCAN_POINTS)
    with np.errstate(over="ignore"):
        g_values = measure.g(scan)
    if np.any(np.isnan(g_values)):
        bad = scan[np.isnan(g_values)][0]
        raise NegativeDensityError(f"density ratio negative near x={bad!r}")
    mass = integrate(measure.pdf, (-halfwidth, halfwidth), cfg)
    if abs(mass.value - 1.0) > _NORMALIZATION_TOL:
        raise NotNormalizableError(
            f"density integrates to {mass.value!r}, expected 1 within {_NORMALIZATION_TOL}"
        )


def closed_form_log_partition(spec: MeasureSpec, t: float) -> float | None:
    """Exact log Laplace transform for catalog families, None for tabulated."""
    _check_family(spec)
    return spec.closed_form_log_partition(float(t))


def sample_to_grid(measure: BaseMeasure, x_min: float, x_max: float, n: int) -> GridFunction:
    """Sample the density ratio g (not the density itself) on a uniform grid.

    Raises :class:`RatioOverflowError` where g exceeds the float64 range.
    """
    if not x_min < x_max:
        raise ValueError("x_min must be less than x_max")
    if n < 2:
        raise ValueError("need at least two grid points")
    xs = np.linspace(x_min, x_max, n)
    with np.errstate(over="ignore"):
        values = measure.g(xs)
    overflow = np.flatnonzero(np.isposinf(values))
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
