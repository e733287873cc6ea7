"""Closed forms for the tilted catalog families, written apart from tiltmedian.

This module does not import ``tiltmedian``. It rebuilds every quantity the
benchmark checks from the families' densities f(x) = g(x) * phi(x):

- Gaussians and two-component mixtures: a tilted mixture is again a mixture
  (weights times e^{mu t + sigma^2 t^2 / 2}, means shifted by sigma^2 t), so
  its CDF is a weighted sum of ``ndtr``.
- ``perturbed_quadratic(eps)``: the tilt-t law is phi(x - t) (1 + eps x^2)
  over 1 + eps (1 + t^2); its CDF follows from the truncated moments of phi.
- ``perturbed_cosine(eps)``: the cosine term integrates to the real part of
  e^{it - 1/2} Phi(z - i), evaluated with the complex ``erfc``.

From these come the median (``brentq`` on the CDF), the sign-kernel and
convolution residuals, the asymmetry score, the local Lipschitz constant and
the oscillation traces of the discrete Choquet iteration.
"""

from __future__ import annotations

import math

import numpy as np
from scipy import integrate, optimize, special

SQRT_2_OVER_PI = math.sqrt(2.0 / math.pi)
SQRT_PI_OVER_2 = math.sqrt(math.pi / 2.0)

# E_q[cos Y] for the kernel q(y) = |y| e^{-y^2/2} / 2: 1 - sqrt(2) F(1/sqrt(2)),
# with F Dawson's function.  One smoothing step multiplies a cosine by D.
COSINE_DECAY = 1.0 - math.sqrt(2.0) * float(special.dawsn(1.0 / math.sqrt(2.0)))


def _phi(z):
    return np.exp(-0.5 * np.square(z)) / math.sqrt(2.0 * math.pi)


class Mixture:
    """Gaussian mixture sum_i w_i N(mu_i, sigma_i^2); one component is a Gaussian."""

    def __init__(self, components):
        self.weights = np.array([c[0] for c in components], dtype=float)
        self.mus = np.array([c[1] for c in components], dtype=float)
        self.sigmas = np.array([c[2] for c in components], dtype=float)
        keep = self.weights > 0
        self.weights, self.mus, self.sigmas = (
            self.weights[keep], self.mus[keep], self.sigmas[keep])

    def _terms(self, t):
        return np.log(self.weights) + self.mus * t + 0.5 * (self.sigmas * t) ** 2

    def log_L(self, t):
        return float(special.logsumexp(self._terms(t)))

    def _tilted(self, t):
        terms = self._terms(t)
        return np.exp(terms - special.logsumexp(terms)), self.mus + self.sigmas**2 * t

    def mean(self, t):
        w, m = self._tilted(t)
        return float(w @ m)

    def cdf(self, t, x):
        w, m = self._tilted(t)
        return float(w @ special.ndtr((x - m) / self.sigmas))

    def pdf(self, t, x):
        w, m = self._tilted(t)
        x = np.asarray(x, dtype=float)[..., None]
        return (w * _phi((x - m) / self.sigmas) / self.sigmas).sum(axis=-1)

    def g(self, x):
        x = np.asarray(x, dtype=float)[..., None]
        log_parts = (np.log(self.weights) - np.log(self.sigmas)
                     - 0.5 * ((x - self.mus) / self.sigmas) ** 2)
        return np.exp(special.logsumexp(log_parts, axis=-1) + 0.5 * x[..., 0] ** 2)

    def abs_dev(self, t):
        """E_t |X - t|, from E|d + sZ| = 2 s phi(d/s) + d (2 Phi(d/s) - 1)."""
        w, m = self._tilted(t)
        d = (m - t) / self.sigmas
        return float(w @ (self.sigmas * (2.0 * _phi(d) + d * (2.0 * special.ndtr(d) - 1.0))))

    def bracket(self, t):
        _, m = self._tilted(t)
        return float(np.min(m - 40 * self.sigmas)), float(np.max(m + 40 * self.sigmas))


class Quadratic:
    """Density ratio (1 + eps x^2) / (1 + eps)."""

    def __init__(self, eps):
        self.eps = float(eps)

    def _norm(self, t):
        return 1.0 + self.eps * (1.0 + t * t)

    def log_L(self, t):
        return 0.5 * t * t + math.log1p(self.eps * (1.0 + t * t)) - math.log1p(self.eps)

    def mean(self, t):
        return t + 2.0 * self.eps * t / self._norm(t)

    def cdf(self, t, x):
        # int_{-inf}^{z} phi(y) (1 + eps (y + t)^2) dy with z = x - t
        z = x - t
        return float((self._norm(t) * special.ndtr(z) - self.eps * (x + t) * _phi(z))
                     / self._norm(t))

    def pdf(self, t, x):
        x = np.asarray(x, dtype=float)
        return _phi(x - t) * (1.0 + self.eps * x**2) / self._norm(t)

    def g(self, x):
        x = np.asarray(x, dtype=float)
        return (1.0 + self.eps * x**2) / (1.0 + self.eps)

    def abs_dev(self, t):
        # E|Z| = sqrt(2/pi), E|Z|^3 = 2 sqrt(2/pi), E|Z| Z = 0
        return SQRT_2_OVER_PI * (1.0 + self.eps * (2.0 + t * t)) / self._norm(t)

    def bracket(self, t):
        return t - 40.0, t + 40.0


class Cosine:
    """Density ratio (1 + eps cos x) / (1 + eps e^{-1/2})."""

    def __init__(self, eps):
        self.eps = float(eps)
        self.c = self.eps * math.exp(-0.5)

    def _norm(self, t):
        return 1.0 + self.c * math.cos(t)

    def log_L(self, t):
        return 0.5 * t * t + math.log1p(self.c * math.cos(t)) - math.log1p(self.c)

    def mean(self, t):
        return t - self.c * math.sin(t) / self._norm(t)

    def cdf(self, t, x):
        z = x - t
        # int_{-inf}^{z} phi(y) e^{iy} dy = e^{-1/2} Phi(z - i)
        shifted = 0.5 * special.erfc(-(z - 1j) / math.sqrt(2.0))
        wave = (np.exp(1j * t - 0.5) * shifted).real
        return float((special.ndtr(z) + self.eps * wave) / self._norm(t))

    def pdf(self, t, x):
        x = np.asarray(x, dtype=float)
        return _phi(x - t) * (1.0 + self.eps * np.cos(x)) / self._norm(t)

    def g(self, x):
        x = np.asarray(x, dtype=float)
        return (1.0 + self.eps * np.cos(x)) / (1.0 + self.c)

    def abs_dev(self, t):
        # E|Z| cos(Z + t) = cos(t) sqrt(2/pi) D
        return SQRT_2_OVER_PI * (1.0 + self.eps * COSINE_DECAY * math.cos(t)) / self._norm(t)

    def bracket(self, t):
        return t - 40.0, t + 40.0


def law(family: str, params) -> Mixture | Quadratic | Cosine:
    """Reference law for a catalog family and its parameters."""
    if family == "gaussian":
        mu, sigma = params
        return Mixture([(1.0, mu, sigma)])
    if family == "gaussian_mixture":
        weight, mu1, sigma1, mu2, sigma2 = params
        return Mixture([(weight, mu1, sigma1), (1.0 - weight, mu2, sigma2)])
    if family == "perturbed_quadratic":
        return Quadratic(*params)
    if family == "perturbed_cosine":
        return Cosine(*params)
    raise ValueError(f"unknown family {family!r}")


def median(ref, t: float) -> float:
    lo, hi = ref.bracket(t)
    return optimize.brentq(lambda x: ref.cdf(t, x) - 0.5, lo, hi, xtol=1e-14, rtol=1e-15)


def sign_kernel(ref, t: float) -> float:
    """int sign(t - x) phi(t - x) g(x) dx = e^{-t^2/2} L(t) (2 F_t(t) - 1)."""
    return math.exp(ref.log_L(t) - 0.5 * t * t) * (2.0 * ref.cdf(t, t) - 1.0)


def convolution(ref, t: float) -> float:
    """g(t) - int q(t - x) g(x) dx = g(t) - sqrt(pi/2) e^{-t^2/2} L(t) E_t|X - t|."""
    smoothed = SQRT_PI_OVER_2 * math.exp(ref.log_L(t) - 0.5 * t * t) * ref.abs_dev(t)
    return float(ref.g(t)) - smoothed


def asymmetry(ref, t: float, offsets) -> float:
    """max_u |p_t(m + u) - p_t(m - u)| about the tilted mean m."""
    center = ref.mean(t)
    offsets = np.asarray(offsets, dtype=float)
    return float(np.max(np.abs(ref.pdf(t, center + offsets) - ref.pdf(t, center - offsets))))


def quadratic_fit(ref, t_grid):
    """Least-squares (constant, linear, quadratic) fit of log L and its max residual."""
    ts = np.asarray(t_grid, dtype=float)
    values = np.array([ref.log_L(float(t)) for t in ts])
    design = np.column_stack([np.ones_like(ts), ts, ts**2])
    coeffs, *_ = np.linalg.lstsq(design, values, rcond=None)
    return tuple(float(c) for c in coeffs), float(np.max(np.abs(design @ coeffs - values)))


def lipschitz(ref, halfwidth: float, slope_points: int = 101) -> float:
    """e^{A^2} (max_{|u|<=A} |L'(u)| / 2 + E|X| e^{A|X|}), slopes on a uniform u grid.

    L'(u) = L(u) * mean(u) is exact; the weighted absolute moment comes from
    scipy quadrature of the closed-form density.
    """
    slopes = [abs(math.exp(ref.log_L(u)) * ref.mean(u))
              for u in np.linspace(-halfwidth, halfwidth, slope_points)]

    def weighted(x):
        return abs(x) * math.exp(halfwidth * abs(x)) * float(ref.pdf(0.0, x))

    # unit-width pieces out to |x| = 60, where e^{A|x|} p(x) is far below rounding
    edges = np.arange(-60.0, 61.0, 1.0)
    moment = math.fsum(
        integrate.quad(weighted, lo, hi, epsabs=1e-15, epsrel=1e-12, limit=200)[0]
        for lo, hi in zip(edges[:-1], edges[1:]))
    return math.exp(halfwidth**2) * (0.5 * max(slopes) + moment)


def max_pdf(ref, halfwidth: float, points: int = 20001) -> float:
    """Largest base density value on [-A, A], on a fine grid."""
    return float(np.max(ref.pdf(0.0, np.linspace(-halfwidth, halfwidth, points))))


def kernel_halfwidth(step: float = 0.01, tol: float = 1e-10) -> float:
    """Whole grid steps from the kernel's centre to where q falls below ``tol`` for good."""
    radius = optimize.brentq(lambda y: 0.5 * y * math.exp(-0.5 * y * y) - tol, 1.0, 40.0,
                             xtol=1e-14)
    return math.ceil(radius / step) * step


def choquet_windows(steps: int, x_halfwidth: float = 60.0, step: float = 0.01):
    """Right edge of the valid window after each smoothing step."""
    h = kernel_halfwidth(step)
    return [x_halfwidth - k * h for k in range(1, steps + 1)]


def quadratic_oscillations(eps: float, steps: int, x_halfwidth: float = 60.0,
                           step: float = 0.01):
    """Oscillation eps W_k^2 / (1 + eps) of the smoothed quadratic ratio.

    Smoothing adds the constant eps E_q[Y^2] = 2 eps everywhere, so max - min
    over [-W_k, W_k] keeps the shape of the initial ratio.
    """
    return [eps * w * w / (1.0 + eps) for w in choquet_windows(steps, x_halfwidth, step)]
