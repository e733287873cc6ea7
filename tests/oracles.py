"""Brute-force reference implementations used to pin expected test values.

Everything here is deliberately naive: dense uniform grids, trapezoid sums,
cumulative-sum CDF inversion, central finite differences.  Nothing in this
module imports the library under test, so values computed here are
independent cross-checks of the package's panel quadrature.  ``quad`` is
scipy's QUADPACK, the reference quadrature for integrals the tests need to
full precision.
"""

from __future__ import annotations

import math

import numpy as np
from scipy import integrate

SQRT_2PI = math.sqrt(2.0 * math.pi)
DENSE_N = 1_000_001


def phi(x):
    """Standard normal density."""
    return np.exp(-0.5 * np.asarray(x, dtype=float) ** 2) / SQRT_2PI


def trapezoid(y, x):
    return float(np.trapezoid(y, x))


def quad(f, a: float, b: float) -> float:
    """Integral of ``f`` over [a, b] by adaptive QUADPACK (scipy), to near rounding."""
    value, _ = integrate.quad(lambda x: float(f(x)), a, b, epsabs=1e-15, epsrel=1e-13, limit=200)
    return value


# ---------------------------------------------------------------------------
# Density-ratio factors g for the measure catalog, written out from scratch.
# Each base density is g(x) * phi(x).


def g_gaussian(x, mu, sigma):
    x = np.asarray(x, dtype=float)
    return np.exp(0.5 * x**2 - 0.5 * ((x - mu) / sigma) ** 2) / sigma


def g_perturbed_cosine(x, eps):
    return (1.0 + eps * np.cos(np.asarray(x, dtype=float))) / (
        1.0 + eps * math.exp(-0.5)
    )


def g_perturbed_quadratic(x, eps):
    return (1.0 + eps * np.asarray(x, dtype=float) ** 2) / (1.0 + eps)


def g_mixture(x, p, mu1, s1, mu2, s2):
    x = np.asarray(x, dtype=float)
    f = p * np.exp(-0.5 * ((x - mu1) / s1) ** 2) / (s1 * SQRT_2PI)
    f += (1.0 - p) * np.exp(-0.5 * ((x - mu2) / s2) ** 2) / (s2 * SQRT_2PI)
    return f / phi(x)


def smoothing_kernel(y):
    y = np.asarray(y, dtype=float)
    return 0.5 * np.abs(y) * np.exp(-0.5 * y**2)


# ---------------------------------------------------------------------------
# Dense tilted-distribution table: pdf is proportional to exp(t*x)*g(x)*phi(x).


class DenseTilt:
    """Tilted distribution tabulated on a dense uniform grid."""

    def __init__(self, g_fn, t, lo, hi, n=DENSE_N):
        self.t = float(t)
        self.x = np.linspace(lo, hi, n)
        self.h = self.x[1] - self.x[0]
        raw = np.exp(t * self.x) * g_fn(self.x) * phi(self.x)
        self.mass = trapezoid(raw, self.x)
        self.pdf = raw / self.mass

    def mean(self):
        return trapezoid(self.x * self.pdf, self.x)

    def median(self, level=0.5):
        # cumulative trapezoid, then linear interpolation at the crossing
        increments = 0.5 * (self.pdf[1:] + self.pdf[:-1]) * self.h
        cdf = np.concatenate([[0.0], np.cumsum(increments)])
        cdf /= cdf[-1]
        i = int(np.searchsorted(cdf, level))
        frac = (level - cdf[i - 1]) / (cdf[i] - cdf[i - 1])
        return float(self.x[i - 1] + frac * self.h)

    def pdf_at(self, points, g_fn):
        points = np.asarray(points, dtype=float)
        return np.exp(self.t * points) * g_fn(points) * phi(points) / self.mass


def tilt_window(t, halfwidth=13.0):
    return (t - halfwidth, t + halfwidth)


def median_gap(g_fn, t, lo=None, hi=None, n=DENSE_N):
    if lo is None:
        lo, hi = tilt_window(t)
    return DenseTilt(g_fn, t, lo, hi, n).median() - t


def mean_median_gap(g_fn, t, lo=None, hi=None, n=DENSE_N):
    if lo is None:
        lo, hi = tilt_window(t)
    tilted = DenseTilt(g_fn, t, lo, hi, n)
    return tilted.median() - tilted.mean()


def sign_kernel(g_fn, t, lo=None, hi=None, n=DENSE_N):
    if lo is None:
        lo, hi = tilt_window(t)
    x = np.linspace(lo, hi, n)
    integrand = np.sign(t - x) * phi(t - x) * g_fn(x)
    return trapezoid(integrand, x)


def convolution_residual(g_fn, t, lo=None, hi=None, n=DENSE_N):
    if lo is None:
        lo, hi = tilt_window(t)
    x = np.linspace(lo, hi, n)
    conv = trapezoid(smoothing_kernel(t - x) * g_fn(x), x)
    return float(g_fn(np.array([t]))[0] - conv)


def lipschitz_constant(g_fn, halfwidth, lo=-14.0, hi=14.0, n=DENSE_N, u_points=101):
    """e^{A^2} * (max |d/du of the Laplace transform| / 2 + E|X| e^{A|X|})."""
    x = np.linspace(lo, hi, n)
    f = g_fn(x) * phi(x)
    max_slope = 0.0
    for u in np.linspace(-halfwidth, halfwidth, u_points):
        max_slope = max(max_slope, abs(trapezoid(x * np.exp(u * x) * f, x)))
    weighted_abs = trapezoid(np.abs(x) * np.exp(halfwidth * np.abs(x)) * f, x)
    return math.exp(halfwidth**2) * (0.5 * max_slope + weighted_abs)
