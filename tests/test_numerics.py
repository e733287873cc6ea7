"""The panel rule of ``numerics``: Gauss-Kronrod 15(7) on anchored panels.

``panel_integral`` sums the Kronrod estimates of ``f`` over the anchored
panels of a window, with the summed |Kronrod - Gauss| differences (floored as
the tilt-grid engine floors them) as its error estimate: the sums the engine
takes on each panel of its lattice.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

import oracles
from tiltmedian.numerics import (
    ABS_TOL,
    ROUNDING_FLOOR,
    _GAUSS_W,
    _KRONROD_W,
    _LEGENDRE_TAIL,
    _NODES,
    anchored_edges,
    kronrod_sums,
    panel_nodes,
    scaled_exp,
)

SQRT_2PI = math.sqrt(2.0 * math.pi)


def phi(x):
    return np.exp(-0.5 * np.asarray(x, dtype=float) ** 2) / SQRT_2PI


def panel_integral(f, window) -> tuple[float, float]:
    edges = anchored_edges(*window)
    xs, half = panel_nodes(edges[:-1], edges[1:])
    kronrod, gauss = kronrod_sums(f(xs), half)
    error = np.maximum(np.abs(kronrod - gauss), ROUNDING_FLOOR * np.abs(kronrod))
    return float(kronrod.sum()), float(error.sum())


def test_normal_density_integrates_to_one():
    value, error = panel_integral(phi, (-10.0, 10.0))
    assert abs(value - 1.0) <= 1e-12
    assert error <= ABS_TOL


def test_odd_integrand_vanishes():
    value, _ = panel_integral(lambda x: x * phi(x), (-10.0, 10.0))
    assert abs(value) <= 1e-12


def test_second_moment_matches_dense_oracle():
    xs = np.linspace(-12.0, 12.0, oracles.DENSE_N)
    reference = oracles.trapezoid(xs**2 * oracles.phi(xs), xs)
    value, _ = panel_integral(lambda x: x**2 * phi(x), (-12.0, 12.0))
    assert abs(value - reference) <= 1e-10
    assert abs(value - 1.0) <= 1e-10


@pytest.mark.parametrize(
    "f,window,truth",
    [
        (phi, (-10.0, 10.0), 1.0),
        (lambda x: x**2 * phi(x), (-12.0, 12.0), 1.0),
        (lambda x: np.cos(x) * phi(x), (-12.0, 12.0), math.exp(-0.5)),
    ],
)
def test_error_estimate_brackets_truth(f, window, truth):
    value, error = panel_integral(f, window)
    assert abs(value - truth) <= 10.0 * error


def test_window_splitting_invariance():
    # interior edges are anchored, so a cut only splits the panel it falls in
    rng = np.random.default_rng(7)
    f = lambda x: np.exp(0.3 * x) * phi(x)
    whole = panel_integral(f, (-9.0, 9.0))
    for _ in range(5):
        cut = float(rng.uniform(-8.0, 8.0))
        left = panel_integral(f, (-9.0, cut))
        right = panel_integral(f, (cut, 9.0))
        combined_err = whole[1] + left[1] + right[1]
        assert abs(whole[0] - (left[0] + right[0])) <= combined_err + 1e-14


def test_invalid_window_rejected():
    with pytest.raises(ValueError):
        anchored_edges(1.0, 1.0)


def test_anchored_edges_double_the_stride_of_wide_windows():
    edges = anchored_edges(-3440.0, 3440.0)
    assert edges[0] == -3440.0 and edges[-1] == 3440.0
    assert np.all(np.diff(edges) == 2.0)
    assert np.array_equal(anchored_edges(-1.2, 0.7), [-1.2, -1.0, -0.5, 0.0, 0.5, 0.7])


def test_scaled_exp_keeps_finite_products_and_overflows_only_beyond_range():
    log_scale = np.array([-800.0, 0.5, 700.0, 720.0, 720.0, 720.0, 750.0])
    q = np.array([2.0, -3.0, 1e-3, -1e-12, 0.0, 1e20, -1.0])
    got = scaled_exp(log_scale, q, 1.25)
    # entries whose scale is finite are the plain product, bit for bit
    finite = np.isfinite(1.25 * np.exp(log_scale[:3]))
    assert finite.all() and np.array_equal(got[:3], (1.25 * np.exp(log_scale[:3])) * q[:3])
    # the others are formed in log domain: inf only where the product passes float64
    expected = -math.exp(720.0 + math.log(1.25) - 12.0 * math.log(10.0))
    assert abs(got[3] - expected) <= 1e-12 * abs(expected)
    assert got[4] == 0.0
    assert got[5] == math.inf and got[6] == -math.inf
    assert float(scaled_exp(1.0)) == float(np.exp(1.0))


def test_legendre_tail_rows_and_the_kronrod_gauss_difference():
    # the package forms the rows by the three-term recurrence; numpy's
    # Legendre module is the independent check, and only the test loads it
    from numpy.polynomial import legendre

    vander = legendre.legvander(_NODES, 14)
    assert np.max(np.abs(_LEGENDRE_TAIL - np.linalg.inv(vander)[12:])) <= 1e-14
    # Gauss 7 is exact through degree 13 and Kronrod 15 integrates the
    # degree-14 interpolant, so their difference is the c_14 term alone:
    # -c_14 times the Gauss sum of P_14 (weights rounded to 15 digits)
    values = np.random.default_rng(28).standard_normal((1000, 15))
    c_14 = values @ _LEGENDRE_TAIL[2]
    difference = values @ (_KRONROD_W - _GAUSS_W)
    assert np.max(np.abs(difference + c_14 * (_GAUSS_W @ vander[:, 14]))) <= 1e-13
    # a polynomial of degree 11 has no tail
    coefficients = np.random.default_rng(29).standard_normal(12)
    assert np.max(np.abs(_LEGENDRE_TAIL @ legendre.legval(_NODES, coefficients))) <= 1e-14
