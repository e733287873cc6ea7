"""The closed forms of ``reference`` against scipy quadrature of their own densities.

Run with ``python3 -m pytest bench``.
"""

import math

import numpy as np
import pytest
from scipy import integrate

import reference as R

LAWS = {
    "gaussian": ("gaussian", (0.3, 0.7)),
    "mixture": ("gaussian_mixture", (0.5, -1.0, 0.5, 1.0, 1.5)),
    "quadratic": ("perturbed_quadratic", (1.0,)),
    "cosine": ("perturbed_cosine", (0.5,)),
}
TILTS = (-2.0, 0.0, 1.5)


def quad(f, lo=-40.0, hi=40.0):
    edges = np.linspace(lo, hi, 81)
    return math.fsum(integrate.quad(f, a, b, epsabs=1e-14, epsrel=1e-12, limit=200)[0]
                     for a, b in zip(edges[:-1], edges[1:]))


@pytest.fixture(params=sorted(LAWS))
def law(request):
    return R.law(*LAWS[request.param])


def tilted(law, t):
    """Tilted density built from the base density and quadrature only."""
    log_mass = math.log(quad(lambda x: math.exp(t * x) * float(law.pdf(0.0, x))))
    return lambda x: math.exp(t * x - log_mass) * float(law.pdf(0.0, x)), log_mass


def test_base_density_has_unit_mass(law):
    assert quad(lambda x: float(law.pdf(0.0, x))) == pytest.approx(1.0, abs=1e-12)


def test_ratio_times_phi_is_the_density(law):
    xs = np.array([-2.5, -0.3, 0.0, 1.1, 3.0])
    phi = np.exp(-0.5 * xs**2) / math.sqrt(2 * math.pi)
    np.testing.assert_allclose(law.g(xs) * phi, law.pdf(0.0, xs), rtol=1e-13)


@pytest.mark.parametrize("t", TILTS)
def test_log_partition_mean_and_pdf(law, t):
    density, log_mass = tilted(law, t)
    assert law.log_L(t) == pytest.approx(log_mass, abs=1e-11)
    assert law.mean(t) == pytest.approx(quad(lambda x: x * density(x)), abs=1e-11)
    for x in (-1.0, 0.4, 2.0):
        assert float(law.pdf(t, x)) == pytest.approx(density(x), rel=1e-10, abs=1e-15)


@pytest.mark.parametrize("t", TILTS)
def test_cdf_and_median(law, t):
    density, _ = tilted(law, t)
    for x in (t - 1.5, t, t + 0.7):
        assert law.cdf(t, x) == pytest.approx(quad(density, -40.0, x), abs=1e-11)
    assert law.cdf(t, R.median(law, t)) == pytest.approx(0.5, abs=1e-14)


@pytest.mark.parametrize("t", TILTS)
def test_kernel_residuals(law, t):
    sign = quad(lambda x: math.copysign(1.0, t - x) * math.exp(-0.5 * (t - x) ** 2)
                / math.sqrt(2 * math.pi) * float(law.g(x)))
    assert R.sign_kernel(law, t) == pytest.approx(sign, abs=1e-11)
    smoothed = quad(lambda x: 0.5 * abs(t - x) * math.exp(-0.5 * (t - x) ** 2) * float(law.g(x)))
    assert R.convolution(law, t) == pytest.approx(float(law.g(t)) - smoothed, abs=1e-10)


def test_asymmetry_is_zero_for_a_gaussian():
    gaussian = R.law("gaussian", (0.3, 0.7))
    assert R.asymmetry(gaussian, 1.2, np.geomspace(0.05, 6, 50)) < 1e-15


def test_lipschitz_moment_and_slopes(law):
    a = 2.0
    moment = quad(lambda x: abs(x) * math.exp(a * abs(x)) * float(law.pdf(0.0, x)))
    slopes = [abs(quad(lambda x, u=u: x * math.exp(u * x) * float(law.pdf(0.0, x))))
              for u in np.linspace(-a, a, 5)]
    assert R.lipschitz(law, a, slope_points=5) == pytest.approx(
        math.exp(a * a) * (0.5 * max(slopes) + moment), rel=1e-10)


def test_standard_normal_residuals_vanish():
    standard = R.law("gaussian", (0.0, 1.0))
    for t in (-3.0, 0.5, 4.0):
        assert R.median(standard, t) == pytest.approx(t, abs=1e-13)
        assert abs(R.sign_kernel(standard, t)) < 1e-13
        assert abs(R.convolution(standard, t)) < 1e-13


def test_kernel_moments_behind_the_choquet_traces():
    def kernel(y):
        return 0.5 * abs(y) * math.exp(-0.5 * y * y)

    assert quad(lambda y: kernel(y) * math.cos(y)) == pytest.approx(R.COSINE_DECAY, abs=1e-13)
    assert quad(lambda y: kernel(y) * y * y) == pytest.approx(2.0, abs=1e-12)
    h = R.kernel_halfwidth(0.01, 1e-10)
    assert kernel(h) <= 1e-10 < kernel(h - 0.01)


def smooth(values, step, steps):
    """Direct discrete smoothing: trapezoid kernel weights of unit mass, valid part only."""
    k = round(R.kernel_halfwidth(step) / step)
    y = step * np.arange(-k, k + 1)
    w = 0.5 * np.abs(y) * np.exp(-0.5 * y * y)
    w[[0, -1]] *= 0.5
    w /= w.sum()
    oscillations = []
    for _ in range(steps):
        values = np.convolve(values, w, mode="valid")
        oscillations.append(values.max() - values.min())
    return oscillations


def test_choquet_closed_forms_match_direct_smoothing():
    step, steps = 0.01, 3
    xs = np.linspace(-60.0, 60.0, 12001)
    quadratic = R.law("perturbed_quadratic", (0.7,))
    assert smooth(quadratic.g(xs), step, steps) == pytest.approx(
        R.quadratic_oscillations(0.7, steps), rel=1e-12)
    cosine = smooth(R.law("perturbed_cosine", (0.5,)).g(xs), step, steps)
    for before, after in zip(cosine, cosine[1:]):
        assert after / before == pytest.approx(R.COSINE_DECAY, abs=1e-4)
