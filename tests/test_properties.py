"""Property tests of the tilt-grid engine on Gaussian bases, where every
tilted quantity has a closed form: P = N(mu, sigma^2) tilts to
N(mu + sigma^2 t, sigma^2) and log L(t) = mu t + sigma^2 t^2 / 2.

Below sigma of about 0.1 the fixed 0.5-wide panels miss the quadrature
tolerance near the peak, so the drawn range covers both the fixed-panel
path and the per-panel adaptive fallback.
"""

from __future__ import annotations

import functools

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

import tiltmedian as tm

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
