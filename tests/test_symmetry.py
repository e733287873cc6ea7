from __future__ import annotations

import dataclasses
import math

import numpy as np
import pytest

import oracles
import tiltmedian as tm

# dense-grid pointwise density oracle at the default offsets
QUADRATIC_ONE_ASYMMETRY_T1 = 0.09077269378978409
# tilted mean of the unit symmetric mixture is t + tanh(t), so the residual
# at (t, s) = (0.5, 1) is tanh(1.5) - 3 tanh(0.5); dense-grid oracle agrees
SYMMETRIC_MIXTURE_MIDPOINT = -0.48120321813516154


def test_gaussian_tilts_are_symmetric():
    measure = tm.build_measure(tm.Gaussian(1.0, 2.0))
    report = tm.asymmetry_score(measure, 0.7)
    assert report.asymmetry_score <= 1e-10
    assert report.offsets_tested == 50
    assert abs(report.center - (1.0 + 4.0 * 0.7)) <= 1e-8


def test_even_ratio_symmetric_at_zero(quadratic_one):
    report = tm.asymmetry_score(quadratic_one, 0.0)
    assert report.asymmetry_score <= 1e-10


def test_quadratic_ratio_asymmetric_when_tilted(quadratic_one):
    tilted = oracles.DenseTilt(lambda x: oracles.g_perturbed_quadratic(x, 1.0), 1.0, -12.0, 14.0)
    center = tilted.mean()
    offsets = np.geomspace(0.05, 6.0, 50)
    recomputed = float(
        np.max(
            np.abs(
                tilted.pdf_at(center + offsets, lambda x: oracles.g_perturbed_quadratic(x, 1.0))
                - tilted.pdf_at(center - offsets, lambda x: oracles.g_perturbed_quadratic(x, 1.0))
            )
        )
    )
    assert abs(recomputed - QUADRATIC_ONE_ASYMMETRY_T1) <= 1e-9
    report = tm.asymmetry_score(quadratic_one, 1.0)
    assert abs(report.asymmetry_score - QUADRATIC_ONE_ASYMMETRY_T1) <= 1e-6
    assert report.asymmetry_score > 1e-4
    # the tilted mean has the closed value 5/3 here
    assert abs(report.center - 5.0 / 3.0) <= 1e-9


def test_asymmetry_offsets_validation(std_gaussian):
    with pytest.raises(ValueError):
        tm.asymmetry_score(std_gaussian, 0.0, offsets=[0.0, 1.0])
    with pytest.raises(ValueError):
        tm.asymmetry_score(std_gaussian, 0.0, offsets=[])
    # a non-finite offset would make the score nan
    with pytest.raises(ValueError):
        tm.asymmetry_score(std_gaussian, 0.5, offsets=[np.inf])
    with pytest.raises(ValueError):
        tm.asymmetry_score(std_gaussian, 0.5, offsets=[1.0, np.nan])
    # the score is a closed-form density difference, so offsets past the
    # truncation window are allowed
    assert tm.asymmetry_score(std_gaussian, 0.0, offsets=[50.0]).asymmetry_score < 1e-12


def test_midpoint_residual_gaussian():
    measure = tm.build_measure(tm.Gaussian(-0.5, 1.5))
    for t in (-1.0, 0.0, 2.0):
        for s in (0.5, 1.0, 2.0):
            assert abs(tm.midpoint_residual(measure, t, s)) <= 1e-7


def test_midpoint_residual_zero_shift(cosine_half):
    assert tm.midpoint_residual(cosine_half, 1.3, 0.0) == 0.0


def test_midpoint_residual_checks_its_arguments_before_a_zero_shift(cosine_half):
    for t, s in ((100.0, 0.0), (math.nan, 0.0), (100.0, 0.1), (0.5, math.nan), (0.5, math.inf)):
        with pytest.raises(ValueError):
            tm.midpoint_residual(cosine_half, t, s)


def test_midpoint_residual_mixture_matches_oracle(symmetric_mixture):
    closed = math.tanh(1.5) - 3.0 * math.tanh(0.5)
    assert abs(closed - SYMMETRIC_MIXTURE_MIDPOINT) <= 1e-12
    value = tm.midpoint_residual(symmetric_mixture, 0.5, 1.0)
    assert abs(value - SYMMETRIC_MIXTURE_MIDPOINT) <= 1e-6


def test_fit_recovers_gaussian_coefficients():
    grid = np.linspace(-4.0, 4.0, 21)
    for mu in (0.0, 1.0, -2.0):
        for sigma in (0.5, 1.0, 2.0):
            measure = tm.build_measure(tm.Gaussian(mu, sigma))
            fit = tm.fit_quadratic_log_partition(measure, grid)
            assert fit.max_residual <= 1e-8, (mu, sigma)
            assert abs(fit.linear - mu) <= 1e-6
            assert abs(fit.quadratic - 0.5 * sigma**2) <= 1e-6


def test_fit_standard_gaussian(std_gaussian):
    fit = tm.fit_quadratic_log_partition(std_gaussian, np.linspace(-4.0, 4.0, 21))
    assert abs(fit.constant) <= 1e-8
    assert abs(fit.linear) <= 1e-8
    assert abs(fit.quadratic - 0.5) <= 1e-8


def test_fit_flags_cosine_ratio(cosine_half):
    fit = tm.fit_quadratic_log_partition(cosine_half, np.linspace(-4.0, 4.0, 21))
    assert fit.max_residual > 1e-3


def test_fit_stable_under_refinement(std_gaussian):
    coarse = tm.fit_quadratic_log_partition(std_gaussian, np.linspace(-4.0, 4.0, 21))
    fine = tm.fit_quadratic_log_partition(std_gaussian, np.linspace(-4.0, 4.0, 41))
    assert abs(coarse.constant - fine.constant) <= 1e-6
    assert abs(coarse.linear - fine.linear) <= 1e-6
    assert abs(coarse.quadratic - fine.quadratic) <= 1e-6


def test_fit_needs_five_points(std_gaussian):
    with pytest.raises(ValueError):
        tm.fit_quadratic_log_partition(std_gaussian, np.linspace(-1.0, 1.0, 4))


def test_fit_needs_three_distinct_tilts(std_gaussian):
    # fewer distinct tilts cannot determine three coefficients
    for t_grid in ([1.0, 1.0, 2.0, 2.0, 2.0], [1.0] * 5, [0.0, -0.0, 1.0, 1.0, 0.0]):
        with pytest.raises(ValueError, match="^t_grid must hold at least three distinct tilts"):
            tm.fit_quadratic_log_partition(std_gaussian, t_grid)
    fit = tm.fit_quadratic_log_partition(std_gaussian, [1.0, 1.0, 2.0, 3.0, 3.0])
    assert abs(fit.quadratic - 0.5) <= 1e-8


def test_a_rejected_fit_leaves_the_kept_pass(std_gaussian):
    # the whole grid is checked before the engine runs, so a rejected fit
    # keeps the grid whose rows later one-tilt requests read
    measure = dataclasses.replace(std_gaussian)
    tm.tilt_grid(measure, np.linspace(-4.0, 4.0, 21))
    kept = measure._tilt_state
    for t_grid in (
        [1.0, 1.0, 2.0, 2.0, 2.0],
        [0.0, 1.0, 2.0, 3.0],
        [0.0, 1.0, 2.0, 3.0, math.nan],
        [0.0, 1.0, 2.0, 3.0, 9.0],
        np.zeros((5, 2)),
    ):
        with pytest.raises(ValueError):
            tm.fit_quadratic_log_partition(measure, t_grid)
        assert measure._tilt_state is kept, t_grid


def test_symmetry_implies_quadratic_fit(catalog):
    # the forward chain: symmetric tilts force an affine mean and a quadratic
    # log transform, so any measure passing the sweep must also fit
    sweep = np.linspace(-3.0, 3.0, 7)
    for measure in catalog:
        max_score = max(tm.asymmetry_score(measure, float(t)).asymmetry_score for t in sweep)
        if max_score <= 1e-8:
            fit = tm.fit_quadratic_log_partition(measure, np.linspace(-4.0, 4.0, 21))
            assert fit.max_residual <= 1e-6, measure.spec


def test_asymmetric_tilts_detected_for_all_non_gaussian(catalog, std_gaussian):
    for measure in catalog:
        if measure is std_gaussian:
            continue
        scores = [tm.asymmetry_score(measure, float(t)).asymmetry_score for t in (-2.0, 1.0, 3.0)]
        assert max(scores) > 1e-4, measure.spec


def test_default_offsets_are_a_fresh_copy(cosine_half):
    offsets = tm.default_offsets()
    assert offsets.flags.writeable
    assert np.array_equal(offsets, np.geomspace(0.05, 6.0, 50))
    before = tm.asymmetry_score(cosine_half, 1.0)
    offsets[:] = 1.0
    assert tm.asymmetry_score(cosine_half, 1.0) == before
    assert before.offsets_tested == 50
    assert np.array_equal(tm.default_offsets(), np.geomspace(0.05, 6.0, 50))
