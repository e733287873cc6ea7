"""Calibration of the error estimates: |value - exact| <= estimate, point by point.

The exact values come from ``bench/reference.py``, the closed forms of the
catalog families, which is loaded from its file and not changed.  Two grids:

- 20 specs of the four closed-form families at 25 tilts in [-6, 6];
- 18 Gaussians, sigma in {1e-3, 0.01, 0.3, 2, 10, 40} and mu in {-5, 0, 3},
  at 33 tilts in [-8, 8].

A Gaussian's tilted law is N(mu + sigma^2 t, sigma^2), so its median is
mu + sigma^2 t and F_t(t) is Phi((t - mu - sigma^2 t) / sigma), formed here
with t - mu first: the reference forms the tilted mean first, and at
mu = -5, sigma = 1e-3, t = -5 that rounding alone reads as a miss of 1.66
times the estimate.  Every other value is the reference's.

Each case checks the ``TiltGrid`` fields mean, median and F_t(t), or one of
the four residuals of the median property, at every tilt of its grid.  A
residual e^{log L(t) - t^2/2} (...) past the float64 range is checked to be
the same infinity.  A miss is pinned as a strict xfail with its ratio; no
estimate is widened and no point dropped.
"""

from __future__ import annotations

import dataclasses
import functools
import importlib.util
import math
from pathlib import Path

import numpy as np
import pytest
from scipy import special

import tiltmedian as tm

_PATH = Path(__file__).resolve().parents[1] / "bench" / "reference.py"
_SPEC = importlib.util.spec_from_file_location("calibration_reference", _PATH)
reference = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(reference)

T_25 = np.linspace(-6.0, 6.0, 25)
T_33 = np.linspace(-8.0, 8.0, 33)
RESIDUALS = ("median_gap", "mean_median", "sign_kernel", "deriva")

CLOSED_FORMS = (
    tm.Gaussian(0.0, 1.0),
    tm.Gaussian(0.5, 0.7),
    tm.Gaussian(-1.0, 1.2),
    tm.Gaussian(2.0, 0.5),
    tm.Gaussian(0.3, 0.1),
    tm.PerturbedCosine(0.1),
    tm.PerturbedCosine(0.5),
    tm.PerturbedCosine(0.9),
    tm.PerturbedCosine(1.0),
    tm.PerturbedQuadratic(0.01),
    tm.PerturbedQuadratic(0.5),
    tm.PerturbedQuadratic(1.0),
    tm.PerturbedQuadratic(2.0),
    tm.PerturbedQuadratic(5.0),
    tm.GaussianMixture(0.5, -1.0, 0.5, 1.0, 1.5),
    tm.GaussianMixture(0.3, -2.0, 0.7, 1.0, 0.6),
    tm.GaussianMixture(0.5, -1.0, 1.0, 1.0, 1.0),
    tm.GaussianMixture(0.8, 0.0, 0.5, 0.5, 1.0),
    tm.GaussianMixture(0.2, -3.0, 0.3, 3.0, 0.3),
    tm.GaussianMixture(0.6, -0.5, 0.9, 1.5, 0.8),
)
GAUSSIANS = tuple(
    tm.Gaussian(mu, sigma) for sigma in (1e-3, 0.01, 0.3, 2.0, 10.0, 40.0) for mu in (-5.0, 0.0, 3.0)
)

# Past misses of the sweep, by case id.  The sign-kernel estimate is F_t(t)'s
# error times e^{log L - t^2/2}, with no part for the error of log L, which
# carries the eps x^2 that log_pdf loses at the tilted peak (ROADMAP item 4).
# Where F_t(t) is 0, as at mu = -5, sigma = 1e-3 and t <= -5.5, that error
# is the residual's: it misses by up to 1.45 times.
MISSES = {
    "Gaussian(mu=-5.0, sigma=0.001)-sign_kernel": (
        "sign_kernel misses its estimate by up to 1.45x at t in [-8, -5.5]: the "
        "estimate has no part for the error of log L (ROADMAP items 1(a) and 4)"
    ),
}


def _law(spec):
    return reference.law(spec.literal, [getattr(spec, f.name) for f in dataclasses.fields(spec)])


def _scaled(log_scale: float, q: float) -> float:
    """q e^{log_scale}, an infinity of q's sign past the float64 range."""
    try:
        return q * math.exp(log_scale)
    except OverflowError:
        return math.copysign(math.inf, q) if q else 0.0


@functools.cache
def _measure_and_exact(spec, ts: tuple[float, ...]):
    """The measure, and its closed-form mean, median, F_t(t) and residuals at
    each tilt, from the reference, or for a Gaussian from its tilted law."""
    law, rows = _law(spec), []
    for t in ts:
        if isinstance(spec, tm.Gaussian):
            mu, sigma = spec.mu, spec.sigma
            cdf = float(special.ndtr(((t - mu) - sigma**2 * t) / sigma))
            median, gap = mu + sigma**2 * t, (mu - t) + sigma**2 * t
        else:
            cdf, median = law.cdf(t, t), reference.median(law, t)
            gap = median - t
        mean, log_scale = law.mean(t), law.log_L(t) - 0.5 * t * t
        smoothed = _scaled(log_scale, reference.SQRT_PI_OVER_2 * law.abs_dev(t))
        sign_kernel = _scaled(log_scale, 2.0 * cdf - 1.0)
        rows.append((mean, median, cdf, gap, median - mean, sign_kernel, float(law.g(t)) - smoothed))
    names = ("mean", "median", "cdf_at_t") + RESIDUALS
    return tm.build_measure(spec), dict(zip(names, np.array(rows).T))


def _cases():
    for specs, ts in ((CLOSED_FORMS, T_25), (GAUSSIANS, T_33)):
        for spec in specs:
            for which in ("fields",) + RESIDUALS:
                case = f"{spec!r}-{which}"
                marks = [pytest.mark.xfail(strict=True, reason=MISSES[case])] if case in MISSES else []
                yield pytest.param(spec, ts, which, id=case, marks=marks)


def _assert_within(name: str, ts, value, exact, error) -> None:
    value, exact, error = (np.asarray(a, dtype=float) for a in (value, exact, error))
    overflow = np.isinf(exact)
    assert np.array_equal(value[overflow], exact[overflow]), (name, ts[overflow])
    with np.errstate(invalid="ignore"):
        # a nan on either side is a miss too
        missed = ~overflow & ~(np.abs(value - exact) <= error)
        ratio = np.abs(value - exact) / error
    assert not missed.any(), (name, ts[missed], ratio[missed])


@pytest.mark.parametrize("spec,ts,which", _cases())
def test_values_lie_within_their_error_estimates(spec, ts, which):
    measure, exact = _measure_and_exact(spec, tuple(ts.tolist()))
    if which == "fields":
        grid = tm.tilt_grid(measure, ts)
        for name in ("mean", "median", "cdf_at_t"):
            value, error = getattr(grid, name), getattr(grid, f"{name}_error")
            _assert_within(name, ts, value, exact[name], error)
    else:
        report = tm.scan(measure, which, ts)
        _assert_within(which, ts, report.residuals, exact[which], report.error_estimates)


# Valid measures the engine rejects today: its window is centred at 0 and laid
# out on at most 4096 anchored panels, and log_pdf loses eps x^2 far out
# (ROADMAP item 4).  Each should build, with log L within 1e-10 max(1, |log L|)
# of the closed form and the mean and median within their estimates.
WIDE = "ROADMAP item 4: a valid wide or far-off Gaussian raises NotNormalizableError"


@pytest.mark.xfail(strict=True, raises=tm.NotNormalizableError, reason=WIDE)
@pytest.mark.parametrize(
    "spec",
    [
        tm.Gaussian(1e6, 1.0),
        tm.Gaussian(0.0, 1e4),
        tm.GaussianMixture(0.5, -1e4, 1.0, 1e4, 1.0),
    ],
    ids=repr,
)
def test_wide_gaussians_build_and_match_their_closed_forms(spec):
    measure = tm.build_measure(spec)
    law = _law(spec)
    grid = tm.tilt_grid(measure, T_25)
    log_l = np.array([law.log_L(t) for t in T_25.tolist()])
    assert np.all(np.abs(grid.log_partition - log_l) <= 1e-10 * np.maximum(1.0, np.abs(log_l)))
    mean = np.array([law.mean(t) for t in T_25.tolist()])
    median = np.array([reference.median(law, t) for t in T_25.tolist()])
    _assert_within("mean", T_25, grid.mean, mean, grid.mean_error)
    _assert_within("median", T_25, grid.median, median, grid.median_error)
