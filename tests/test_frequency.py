"""Exact oracles across frequency for the ratio g = (1 + eps cos(w x)) / (1 + eps e^{-w^2/2}).

Both residuals are linear in g, so they have closed forms for every eps, with
D Dawson's function:

- ``sign_kernel``(t) = c S(w) sin(w t), with S(w) = (2 / sqrt(pi)) D(w / sqrt(2));
- ``deriva``(t) = c (1 - qhat(w)) cos(w t), with qhat(w) = 1 - sqrt(2) w D(w / sqrt(2));
- c = eps / (1 + eps e^{-w^2/2}).

qhat is the kernel's Fourier multiplier, so one Choquet step multiplies
cos(w x) by qhat(w), up to the discretisation of the kernel.  The family is
built by hand: the catalog's ``PerturbedCosine`` is the case w = 1.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import dawsn

import tiltmedian as tm
from tiltmedian.tilting import _lattice

GRID_49 = np.linspace(-6.0, 6.0, 49)


def cosine_ratio(eps: float, omega: float) -> tm.BaseMeasure:
    log_norm = math.log1p(eps * math.exp(-0.5 * omega * omega))

    def log_g(x):
        return np.log1p(eps * np.cos(omega * np.asarray(x, dtype=float))) - log_norm

    return tm.BaseMeasure(spec=tm.PerturbedCosine(eps), log_g=log_g)


def multiplier(omega: float) -> float:
    """qhat(w), the kernel's Fourier multiplier."""
    return 1.0 - math.sqrt(2.0) * omega * dawsn(omega / math.sqrt(2.0))


def assert_residuals_match_closed_forms(eps: float, omega: float) -> None:
    measure = cosine_ratio(eps, omega)
    c = eps / (1.0 + eps * math.exp(-0.5 * omega * omega))
    exact = {
        "sign_kernel": c * 2.0 / math.sqrt(math.pi) * dawsn(omega / math.sqrt(2.0))
        * np.sin(omega * GRID_49),
        "deriva": c * (1.0 - multiplier(omega)) * np.cos(omega * GRID_49),
    }
    for name, values in exact.items():
        report = tm.scan(measure, name, GRID_49)
        error = np.abs(np.array(report.residuals) - values)
        assert np.all(error <= np.array(report.error_estimates)), (name, eps, omega)


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(
    log_eps=st.floats(min_value=-8.0, max_value=math.log10(0.9)),
    omega=st.floats(min_value=0.1, max_value=120.0),
)
def test_residuals_match_closed_forms_across_frequency(log_eps, omega):
    assert_residuals_match_closed_forms(10.0**log_eps, omega)


@pytest.mark.parametrize("eps,omega", [(1e-6, 80.0), (1e-4, 120.0)])
def test_high_frequency_error_estimates_are_honest(eps, omega):
    # a 0.5-wide panel aliases cos(80 x): its |Kronrod - Gauss| difference
    # understated the true error until the lattice resolved such panels
    assert_residuals_match_closed_forms(eps, omega)


def test_lattice_grows_slowly_with_frequency():
    panels = {omega: _lattice(cosine_ratio(0.5, omega)).size - 1 for omega in (1.0, 10.0)}
    assert panels[10.0] <= 3 * panels[1.0], panels


@pytest.mark.parametrize("omega", [0.5, 1.0, 2.0, 5.0])
def test_choquet_step_multiplies_cosine_by_its_multiplier(omega):
    setup = tm.ConvolutionSetup()
    steps = setup.kernel_steps()
    offsets = setup.step * np.arange(-steps, steps + 1)
    # the discrete weights' multiplier, and its distance to the kernel's at step 0.01
    d = float(np.sum(setup.weights() * np.cos(omega * offsets)))
    assert abs(d - multiplier(omega)) <= 3e-5
    xs = np.linspace(-60.0, 60.0, 12001)
    grid = tm.GridFunction(
        x_min=-60.0, step=0.01, values=1.0 + 0.5 * np.cos(omega * xs), window_lo=0, window_hi=12000
    )
    for _ in range(4):
        smoothed = tm.convolve(grid, setup)
        previous = grid.values[smoothed.window_lo : smoothed.window_hi + 1]
        assert np.max(np.abs(smoothed.window_values() - (1.0 + d * (previous - 1.0)))) <= 1e-13
        grid = smoothed
