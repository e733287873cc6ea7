"""Property tests of the tilt-grid engine on Gaussian bases, where every
tilted quantity has a closed form: P = N(mu, sigma^2) tilts to
N(mu + sigma^2 t, sigma^2) and log L(t) = mu t + sigma^2 t^2 / 2.

Below sigma = 0.5 the panel lattice has edges at mu + k sigma, |k| <= 12, so
the drawn ranges cover both the plain 0.5-wide lattice and lattices built
around a narrow peak, down to sigma = 1e-5 for the median's error.

The sign-kernel and convolution residuals are checked against their closed
forms too, error estimates included, and each median lies within its reported
error, here and for ``PerturbedQuadratic``, whose tilted CDF has a closed form.

Also: measure literals round-trip through ``parse_measure``, reflecting a
base measure (g(x) -> g(-x)) maps each residual at t to the residual at -t,
and on any base the convolution residual is sqrt(pi/2) times the slope of the
sign-kernel residual.
"""

from __future__ import annotations

import dataclasses
import functools
import math
import tempfile
from pathlib import Path

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

import tiltmedian as tm
from tiltmedian.cli import parse_measure

MUS = st.floats(min_value=-1.0, max_value=1.0)
SIGMAS = st.floats(min_value=0.02, max_value=1.5)
TILTS = st.floats(min_value=-6.0, max_value=6.0)

# reproducible examples, no example database written next to the tests
PROPERTY = settings(max_examples=40, deadline=None, derandomize=True, database=None)


@functools.lru_cache(maxsize=None)
def gaussian(mu: float, sigma: float) -> tm.BaseMeasure:
    return tm.build_measure(tm.Gaussian(mu, sigma))


@PROPERTY
@given(mu=MUS, sigma=SIGMAS, t=TILTS)
def test_median_gap_closed_form(mu, sigma, t):
    report = tm.scan(gaussian(mu, sigma), "median_gap", [t])
    assert abs(report.residuals[0] - (mu + sigma**2 * t - t)) <= 1e-8


@PROPERTY
@given(mu=MUS, sigma=st.floats(min_value=0.05, max_value=1.25), t=TILTS)
def test_median_within_its_error(mu, sigma, t):
    grid = tm.tilt_grid(gaussian(mu, sigma), [t])
    assert abs(grid.median[0] - (mu + sigma**2 * t)) <= grid.median_error[0]


@PROPERTY
@given(mu=MUS, log_sigma=st.floats(min_value=-5.0, max_value=math.log10(0.05)), t=TILTS)
def test_narrow_median_within_its_error(mu, log_sigma, t):
    sigma = 10.0**log_sigma
    grid = tm.tilt_grid(gaussian(mu, sigma), [t])
    assert abs(grid.median[0] - (mu + sigma**2 * t)) <= grid.median_error[0]


def quadratic_tilted_cdf(x: float, eps: float, t: float) -> float:
    """F_t(x) for the ratio 1 + eps x^2: the tilt is phi(x - t) (1 + eps x^2) up to a constant."""
    z = x - t
    cdf = 0.5 * math.erfc(-z / math.sqrt(2.0))
    pdf = math.exp(-0.5 * z * z) / math.sqrt(2.0 * math.pi)
    return (cdf + eps * ((t * t + 1.0) * cdf - (z + 2.0 * t) * pdf)) / (1.0 + eps * (1.0 + t * t))


@PROPERTY
@given(eps=st.floats(min_value=1e-6, max_value=2.0), t=TILTS)
def test_perturbed_quadratic_median_within_its_error(eps, t):
    # bisect the closed-form CDF down to adjacent floats
    lo, hi = t - 4.0, t + 4.0
    while True:
        mid = 0.5 * (lo + hi)
        if mid in (lo, hi):
            break
        lo, hi = (mid, hi) if quadratic_tilted_cdf(mid, eps, t) < 0.5 else (lo, mid)
    grid = tm.tilt_grid(tm.build_measure(tm.PerturbedQuadratic(eps)), [t])
    assert abs(grid.median[0] - lo) <= grid.median_error[0]


@PROPERTY
@given(mu=MUS, sigma=SIGMAS, t=TILTS)
def test_log_partition_and_mean_closed_forms(mu, sigma, t):
    measure = gaussian(mu, sigma)
    assert abs(tm.log_partition(measure, t) - (mu * t + 0.5 * sigma**2 * t * t)) <= 1e-8
    assert abs(tm.tilt(measure, t).mean() - (mu + sigma**2 * t)) <= 1e-8


@PROPERTY
@given(mu=MUS, sigma=SIGMAS, t=TILTS)
def test_batched_scan_matches_single_median(mu, sigma, t):
    measure = gaussian(mu, sigma)
    grid = [-6.0, -0.5 * t, t, 3.0, 6.0]
    report = tm.scan(measure, "median_gap", grid)
    single = tm.tilt(measure, t).median()
    assert abs(report.residuals[2] + t - single) <= 1e-12
    assert np.all(np.isfinite(report.error_estimates))


@PROPERTY
@given(mu=MUS, sigma=SIGMAS, t=TILTS)
def test_half_line_residuals_closed_forms(mu, sigma, t):
    # tilt t of N(mu, sigma^2) is N(mu + sigma^2 t, sigma^2); d is its mean minus t
    d = mu + sigma**2 * t - t
    z = d / (sigma * math.sqrt(2.0))
    scale = math.exp(mu * t + 0.5 * sigma**2 * t * t - 0.5 * t * t)
    abs_dev = sigma * math.sqrt(2.0 / math.pi) * math.exp(-z * z) + d * math.erf(z)
    g = math.exp(0.5 * t * t - 0.5 * ((t - mu) / sigma) ** 2) / sigma
    expected = {
        # 2 F_t(t) - 1 with F_t(t) = erfc(z) / 2
        "sign_kernel": -scale * math.erf(z),
        "deriva": g - math.sqrt(0.5 * math.pi) * scale * abs_dev,
    }
    measure = gaussian(mu, sigma)
    for name, ref in expected.items():
        report = tm.scan(measure, name, [t])
        gap = abs(report.residuals[0] - ref)
        assert gap <= 1e-8 * max(1.0, abs(ref)), name
        assert gap <= report.error_estimates[0] + 1e-13 * max(1.0, abs(ref)), name


FINITE = st.floats(allow_nan=False, allow_infinity=False)
POSITIVE = st.floats(min_value=0.0, exclude_min=True, allow_infinity=False)
NONNEGATIVE = st.floats(min_value=0.0, allow_infinity=False)
UNIT = st.floats(min_value=0.0, max_value=1.0)
# file paths are taken whole, so commas and parentheses must survive
PATHS = st.text(alphabet="abz09_-./,()", min_size=1)
SPECS = {
    tm.Gaussian: st.builds(tm.Gaussian, FINITE, POSITIVE),
    tm.PerturbedCosine: st.builds(tm.PerturbedCosine, NONNEGATIVE),
    tm.PerturbedQuadratic: st.builds(tm.PerturbedQuadratic, NONNEGATIVE),
    tm.GaussianMixture: st.builds(tm.GaussianMixture, UNIT, FINITE, POSITIVE, FINITE, POSITIVE),
    tm.Tabulated: st.builds(tm.Tabulated, PATHS),
}


@PROPERTY
@given(spec=st.sampled_from(tm.MEASURE_FAMILIES).flatmap(lambda family: SPECS[family]))
def test_parse_measure_round_trips(spec):
    args = [getattr(spec, field.name) for field in dataclasses.fields(spec)]
    text = f"{spec.literal}({','.join(a if isinstance(a, str) else repr(a) for a in args)})"
    assert parse_measure(text) == spec


@functools.lru_cache(maxsize=None)
def identity_measures() -> tuple[tm.BaseMeasure, ...]:
    """The test catalog, N(0.3, 0.8^2) and a tabulated ratio whose kinks sit
    at |x| = 5.5, out of reach of the difference stencils below."""
    specs = [
        tm.Gaussian(0.0, 1.0),
        tm.PerturbedCosine(0.5),
        tm.PerturbedQuadratic(1.0),
        tm.GaussianMixture(0.5, -1.0, 1.0, 1.0, 1.0),
        tm.Gaussian(0.3, 0.8),
    ]
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "ratio.txt"
        path.write_text("-7 0.2\n-5.5 0.5\n5.5 1.6\n7 1.2\n")
        # the table is read once, when the measure is built
        return tuple(tm.build_measure(spec) for spec in specs + [tm.Tabulated(str(path))])


@PROPERTY
@given(index=st.integers(min_value=0, max_value=5), t=st.floats(min_value=-5.0, max_value=5.0))
def test_convolution_residual_is_sign_kernel_slope(index, t):
    # deriva(t) = sqrt(pi/2) d/dt sign_kernel(t), for any ratio: differentiating
    # sign(y) phi(y) gives 2 phi(0) delta(y) - |y| phi(y)
    measure = identity_measures()[index]
    h = 1e-3
    s = tm.scan(measure, "sign_kernel", [t - h, t + h, t - h / 2, t + h / 2]).residuals
    slope = (4.0 * (s[3] - s[2]) / h - (s[1] - s[0]) / (2.0 * h)) / 3.0
    residual = tm.convolution_residual(measure, t)
    assert abs(residual - math.sqrt(0.5 * math.pi) * slope) <= 1e-8 * max(1.0, abs(residual))


# residual at t of the reflected measure = sign * residual at -t of the original
REFLECTION_SIGNS = {
    "median_gap": -1.0,
    "sign_kernel": -1.0,
    "mean_median": -1.0,
    "deriva": 1.0,
    "symmetry": 1.0,
}
NORMAL_SPECS = st.one_of(
    st.builds(tm.Gaussian, MUS, SIGMAS),
    st.builds(
        tm.GaussianMixture,
        st.floats(min_value=0.1, max_value=0.9),
        MUS,
        SIGMAS,
        MUS,
        SIGMAS,
    ),
)


@PROPERTY
@given(spec=NORMAL_SPECS, t=TILTS)
def test_reflection_maps_residuals(spec, t):
    mus = [f.name for f in dataclasses.fields(spec) if f.name.startswith("mu")]
    mirror = dataclasses.replace(spec, **{name: -getattr(spec, name) for name in mus})
    measure, mirrored = tm.build_measure(spec), tm.build_measure(mirror)
    for name, sign in REFLECTION_SIGNS.items():
        residual = tm.scan(measure, name, [-t]).residuals[0]
        reflected = tm.scan(mirrored, name, [t]).residuals[0]
        assert abs(reflected - sign * residual) <= 1e-10 * max(1.0, abs(residual)), name


# one-tilt requests, each answered from the measure's kept state when it matches
ONE_TILT_CALLS = {
    "tilt_median": lambda m, t: (tm.tilt(m, t).log_partition, tm.tilt(m, t).median()),
    "mean": lambda m, t: tm.TiltedView(base=m, t=t, log_partition=0.0).mean(),
    "cdf": lambda m, t: tm.TiltedView(base=m, t=t, log_partition=0.0).cdf(0.3),
    "log_partition": tm.log_partition,
    "sign_kernel": tm.sign_kernel_residual,
    "convolution": tm.convolution_residual,
    "median_gap": tm.median_gap,
    "mean_median_gap": tm.mean_median_gap,
    "half_line_mgf": tm.half_line_mgf,
    "asymmetry": tm.asymmetry_score,
    # the two end tilts +-max(|t|, 0.5), each read without its sums at x = t
    "lipschitz": lambda m, t: tm.lipschitz_bound(m, max(abs(t), 0.5)),
}


@PROPERTY
@given(
    spec=NORMAL_SPECS,
    calls=st.lists(
        st.tuples(
            st.sampled_from(sorted(ONE_TILT_CALLS)), st.sampled_from([-2.5, -0.0, 0.0, 1.0])
        ),
        min_size=1,
        max_size=8,
    ),
)
def test_one_tilt_results_do_not_depend_on_call_order(spec, calls):
    measure = tm.build_measure(spec)
    for name, t in calls:
        got = ONE_TILT_CALLS[name](measure, t)
        fresh = ONE_TILT_CALLS[name](tm.build_measure(spec), t)
        # repr tells every float bit apart, the sign of zero included
        assert repr(got) == repr(fresh), (name, t)
