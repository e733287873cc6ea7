from __future__ import annotations

import math

import numpy as np
import pytest

import oracles
from tiltmedian import (
    NonFiniteIntegrandError,
    QuadratureResult,
    integrate,
)

SQRT_2PI = math.sqrt(2.0 * math.pi)


def phi(x):
    return np.exp(-0.5 * np.asarray(x, dtype=float) ** 2) / SQRT_2PI


def test_normal_density_integrates_to_one():
    result = integrate(phi, (-10.0, 10.0))
    assert abs(result.value - 1.0) <= 1e-12
    assert result.tolerance_met
    assert result.evaluations >= 15


def test_odd_integrand_vanishes():
    result = integrate(lambda x: x * phi(x), (-10.0, 10.0))
    assert abs(result.value) <= 1e-12


def test_second_moment_matches_dense_oracle():
    xs = np.linspace(-12.0, 12.0, oracles.DENSE_N)
    reference = oracles.trapezoid(xs**2 * oracles.phi(xs), xs)
    result = integrate(lambda x: x**2 * phi(x), (-12.0, 12.0))
    assert abs(result.value - reference) <= 1e-10
    assert abs(result.value - 1.0) <= 1e-10


@pytest.mark.parametrize(
    "f,window,truth",
    [
        (phi, (-10.0, 10.0), 1.0),
        (lambda x: x**2 * phi(x), (-12.0, 12.0), 1.0),
        (lambda x: np.cos(x) * phi(x), (-12.0, 12.0), math.exp(-0.5)),
    ],
)
def test_error_estimate_brackets_truth(f, window, truth):
    result = integrate(f, window)
    assert abs(result.value - truth) <= 10.0 * result.abs_error_estimate


def test_window_splitting_invariance():
    rng = np.random.default_rng(7)
    f = lambda x: np.exp(0.3 * x) * phi(x)
    whole = integrate(f, (-9.0, 9.0))
    for _ in range(5):
        cut = float(rng.uniform(-8.0, 8.0))
        left = integrate(f, (-9.0, cut))
        right = integrate(f, (cut, 9.0))
        combined_err = whole.abs_error_estimate + left.abs_error_estimate + right.abs_error_estimate
        assert abs(whole.value - (left.value + right.value)) <= combined_err + 1e-14


def test_nonfinite_integrand_raises():
    def bad(x):
        x = np.asarray(x, dtype=float)
        return np.where(x > 0.5, np.inf, 1.0)

    with pytest.raises(NonFiniteIntegrandError):
        integrate(bad, (0.0, 1.0))


def test_tolerance_not_met_flag():
    # 2000 bisections cannot resolve some 16000 oscillations
    result = integrate(lambda x: np.cos(1e5 * np.asarray(x)), (0.0, 1.0))
    assert not result.tolerance_met
    # the error estimate still covers the value's true error
    truth = math.sin(1e5) / 1e5
    assert abs(result.value - truth) <= result.abs_error_estimate


def test_invalid_window_rejected():
    with pytest.raises(ValueError):
        integrate(phi, (1.0, 1.0))


def test_result_validation():
    with pytest.raises(ValueError):
        QuadratureResult(value=1.0, abs_error_estimate=-1.0, evaluations=15)
    with pytest.raises(ValueError):
        QuadratureResult(value=1.0, abs_error_estimate=0.0, evaluations=0)
