from __future__ import annotations

import dataclasses
import gc
import json
import math
import sys
import threading
import weakref

import numpy as np
import pytest

import oracles
import tiltmedian as tm
import tiltmedian.cli

SQRT_2PI = math.sqrt(2.0 * math.pi)

# dense-grid CDF-inversion oracle, 10^6-point trapezoid
COSINE_HALF_MEDIAN_T1 = 0.7662495069378671


def test_log_partition_standard_gaussian(std_gaussian):
    assert abs(tm.log_partition(std_gaussian, 3.0) - 4.5) <= 1e-8


def test_log_partition_zero_tilt(catalog):
    for measure in catalog:
        assert abs(tm.log_partition(measure, 0.0)) <= 1e-10


def test_log_partition_quadratic_value(quadratic_one):
    expected = 0.5 + math.log(3.0) - math.log(2.0)
    assert abs(tm.log_partition(quadratic_one, 1.0) - expected) <= 1e-8


def test_log_partition_matches_closed_forms():
    specs = [
        tm.Gaussian(0.0, 1.0),
        tm.Gaussian(-2.0, 2.0),
        tm.Gaussian(1.0, 0.5),
        tm.PerturbedCosine(0.5),
        tm.PerturbedQuadratic(1.0),
        tm.GaussianMixture(0.5, -1.0, 1.0, 1.0, 1.0),
        tm.GaussianMixture(0.25, -1.0, 0.5, 2.0, 1.5),
    ]
    for spec in specs:
        measure = tm.build_measure(spec)
        for t in np.linspace(-6.0, 6.0, 13):
            expected = tm.closed_form_log_partition(spec, float(t))
            assert abs(tm.log_partition(measure, float(t)) - expected) <= 1e-8, (spec, t)


def test_tilt_rejects_out_of_range(std_gaussian):
    with pytest.raises(ValueError):
        tm.tilt(std_gaussian, 8.5)
    with pytest.raises(ValueError):
        tm.log_partition(std_gaussian, -9.0)


def test_tilted_view_requires_finite_normalizer(std_gaussian):
    with pytest.raises(ValueError):
        tm.TiltedView(base=std_gaussian, t=0.0, log_partition=math.inf)


def test_one_tilt_requests_share_one_engine_pass(catalog, engine_calls):
    for measure in catalog:
        for t in (-2.5, 0.0, 1.5):
            engine_calls.clear()
            view = tm.tilt(measure, t)
            got = (
                view.log_partition,
                view.mean(),
                view.median(),
                tm.sign_kernel_residual(measure, t),
                tm.convolution_residual(measure, t),
            )
            # a view built by hand reads the same kept state
            bare = tm.TiltedView(base=measure, t=t, log_partition=view.log_partition)
            assert (bare.median(), bare.mean(), bare.median()) == (got[2], got[1], got[2])
            assert bare == view
            # one pass, whose sums at x = t both residuals share
            counts = (engine_calls["passes"], engine_calls["tilt_grid"], engine_calls["at_t"])
            assert counts == (1, 0, 1)
            # a fresh pass gives the same bits
            row = tm.tilt_grid(measure, [t])
            expected = (
                float(row.log_partition[0]),
                float(row.mean[0]),
                float(row.median[0]),
                tm.scan(measure, "sign_kernel", [t]).residuals[0],
                tm.scan(measure, "deriva", [t]).residuals[0],
            )
            assert got == expected
            # another tilt is a new pass
            engine_calls.clear()
            assert tm.log_partition(measure, t + 0.25) == float(
                tm.tilt_grid(measure, [t + 0.25]).log_partition[0]
            )
            assert (engine_calls["passes"], engine_calls["tilt_grid"]) == (2, 1)


def test_kept_state_under_concurrent_callers(cosine_half):
    # threads racing on one measure's kept state may recompute it, never mix rows
    measure = tm.build_measure(tm.PerturbedCosine(0.5))
    calls = [(f, t) for t in (-1.0, 0.5, 2.0) for f in (tm.median_gap, tm.convolution_residual)]
    expected = [f(cosine_half, t) for f, t in calls]
    mismatches = []

    def worker(offset: int) -> None:
        for k in range(300):
            index = (offset + k) % len(calls)
            f, t = calls[index]
            if f(measure, t) != expected[index]:
                mismatches.append((f.__name__, t))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=worker, args=(i,)) for i in range(6)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert mismatches == []


CATALOG_SPECS = (
    tm.Gaussian(0.0, 1.0),
    tm.PerturbedCosine(0.5),
    tm.PerturbedQuadratic(1.0),
    tm.GaussianMixture(0.5, -1.0, 0.5, 1.0, 1.5),
)


def test_reads_that_skip_the_sums_at_t_form_none(engine_calls):
    for spec in CATALOG_SPECS:
        engine_calls.clear()
        measure = tm.build_measure(spec)
        tm.log_partition(measure, 1.0)
        view = tm.tilt(measure, -2.0)
        view.mean()
        tm.asymmetry_score(measure, 0.5)
        # no partial panel at all: one pass each for t = 0 (the unit-mass check), 1, -2, 0.5
        assert engine_calls == {"passes": 4, "node_tables": 1}, spec
        # Newton's partial panels, in a new pass: asymmetry_score replaced the one at -2
        view.median()
        # two passes; the Lipschitz |x| integral splits at x = 0, not at x = +-A
        tm.lipschitz_bound(measure, 2.0)
        assert engine_calls["at_t"] == 0, spec
        assert engine_calls["passes"] == 7, spec


def test_sums_at_t_are_one_partial_panel_on_the_kept_pass(catalog, engine_calls):
    for measure in catalog:
        for t in (-2.5, 0.0, 1.0):
            tm.tilt(measure, t)
            engine_calls.clear()
            first = tm.sign_kernel_residual(measure, t)
            assert engine_calls == {"partials": 1, "at_t": 1}
            # the convolution residual and half_line_mgf read the same sums
            tm.convolution_residual(measure, t)
            tm.half_line_mgf(measure, t)
            assert tm.sign_kernel_residual(measure, t) == first
            assert engine_calls == {"partials": 1, "at_t": 1}


def test_node_table_is_built_once_per_measure(engine_calls):
    measure = tm.build_measure(tm.PerturbedCosine(0.5))
    for t in np.linspace(-7.0, 7.0, 10):
        tm.tilt(measure, float(t)).median()
    tm.tilt_grid(measure, [-8.0, 0.0, 8.0])
    assert engine_calls["node_tables"] == 1
    assert engine_calls["passes"] == 12
    edges, xs, half, log_pdf = measure._node_table
    assert edges is measure._lattice
    assert xs.shape == (edges.size - 1, 15) and half.shape == (edges.size - 1,)
    assert np.array_equal(log_pdf, measure.log_pdf(xs))
    assert not any(array.flags.writeable for array in (xs, half, log_pdf))


def test_tabulated_measure_builds_its_own_node_table(engine_calls, tmp_path):
    # the hat ratio has mass about 1.6 before normalization, so the raw
    # measure's log_pdf is off from the normalized one's by log(1.6)
    path = tmp_path / "hat.txt"
    path.write_text("-4 0\n0 2\n4 0\n")
    measure = tm.build_measure(tm.Tabulated(str(path)))
    # one table for the raw ratio, whose mass normalizes it, and one of its own
    assert engine_calls["node_tables"] == 2
    edges, xs, _, log_pdf = measure._node_table
    assert edges is measure._lattice
    assert np.array_equal(log_pdf, measure.log_pdf(xs))
    assert abs(tm.log_partition(measure, 0.0)) <= 1e-12


def test_measures_are_freed_by_reference_counting():
    # a kept pass that pointed back at its measure would leave the measure to
    # the cyclic collector; with that collector off it must still go at del
    enabled = gc.isenabled()
    gc.disable()
    try:
        for spec in CATALOG_SPECS:
            measure = tm.build_measure(spec)
            ref = weakref.ref(measure)
            del measure
            assert ref() is None, spec
            measure = tm.build_measure(spec)
            tm.tilt(measure, 1.0).median()
            tm.sign_kernel_residual(measure, 1.0)
            ref = weakref.ref(measure)
            del measure
            assert ref() is None, spec
    finally:
        if enabled:
            gc.enable()


def test_kept_state_stays_out_of_equality(cosine_half):
    tm.tilt(cosine_half, 0.5).median()
    assert cosine_half._tilt_state is not None
    fresh = dataclasses.replace(cosine_half)
    assert fresh._tilt_state is None
    assert fresh == cosine_half
    assert hash(fresh) == hash(cosine_half)
    assert repr(fresh) == repr(cosine_half)


def test_full_report_runs_the_engine_once(engine_calls, tmp_path):
    out = tmp_path / "report.json"
    config = tm.cli.ExperimentConfig(
        measure=tm.PerturbedCosine(0.5),
        command="full-report",
        output_path=str(out),
        output_format="json",
    )
    assert tm.cli.run(config) == 0
    assert engine_calls["tilt_grid"] == 1
    payload = json.loads(out.read_text())
    for name, report in payload.items():
        expected = tm.scan(tm.build_measure(tm.PerturbedCosine(0.5)), name, config.t_grid())
        assert report["residuals"] == list(expected.residuals)
        assert report["error_estimates"] == list(expected.error_estimates)


def test_pdf_gaussian_translation(std_gaussian):
    # tilting the standard normal by t recenters it at t
    view = tm.tilt(std_gaussian, 2.0)
    assert abs(float(view.pdf(2.0)) - 1.0 / SQRT_2PI) <= 1e-10


def test_pdf_cosine_at_zero(cosine_half):
    view = tm.tilt(cosine_half, 0.0)
    expected = 1.1509551935716522 / SQRT_2PI
    assert abs(float(view.pdf(0.0)) - expected) <= 1e-10


def test_pdf_zero_where_ratio_vanishes(tmp_path):
    path = tmp_path / "hat.txt"
    path.write_text("-4 0\n0 2\n4 0\n")
    measure = tm.build_measure(tm.Tabulated(str(path)))
    view = tm.tilt(measure, 0.5)
    assert float(view.pdf(5.0)) == 0.0
    assert float(view.log_pdf(5.0)) == -math.inf


def test_cdf_median_point(std_gaussian):
    view = tm.tilt(std_gaussian, 1.7)
    assert abs(view.cdf(1.7) - 0.5) <= 1e-9


def test_cdf_left_edge(std_gaussian, cosine_half):
    for measure in (std_gaussian, cosine_half):
        view = tm.tilt(measure, 1.0)
        assert view.cdf(-view.window_halfwidth()) <= 1e-12


def test_cdf_even_density(quadratic_one):
    view = tm.tilt(quadratic_one, 0.0)
    assert abs(view.cdf(0.0) - 0.5) <= 1e-10


def test_cdf_monotone(cosine_half):
    view = tm.tilt(cosine_half, 1.0)
    values = [view.cdf(x) for x in np.linspace(-4.0, 6.0, 21)]
    for lower, upper in zip(values[:-1], values[1:]):
        assert upper >= lower - 1e-12


def test_cdf_at_t_is_the_engine_half_line_sum(catalog):
    for measure in catalog:
        for t in (-3.0, 0.0, 1.5, 4.0):
            assert tm.tilt(measure, t).cdf(t) == float(tm.tilt_grid(measure, [t]).cdf_at_t[0])


def test_cdf_rejects_nan_and_saturates_at_infinities(cosine_half):
    view = tm.tilt(cosine_half, 1.0)
    with pytest.raises(ValueError):
        view.cdf(math.nan)
    assert view.cdf(-math.inf) == 0.0
    assert abs(view.cdf(math.inf) - 1.0) <= 1e-15


def test_tilt_median_and_cdf_share_one_engine_pass(catalog, engine_calls):
    for measure in catalog:
        engine_calls.clear()
        view = tm.tilt(measure, 0.75)
        median = view.median()
        values = [view.cdf(x) for x in sorted((-2.0, 0.0, 1.0, 3.0, median))]
        assert (engine_calls["passes"], engine_calls["tilt_grid"]) == (1, 0)
        assert values == sorted(values)


def test_pdf_normalization_across_tilts(catalog):
    for measure in catalog:
        for t in (-6.0, -3.0, 0.0, 3.0, 6.0):
            view = tm.tilt(measure, t)
            halfwidth = view.window_halfwidth()
            mass = oracles.quad(view.pdf, -halfwidth, halfwidth)
            assert abs(mass - 1.0) <= 1e-8, (measure.spec, t)


def test_mean_gaussian(std_gaussian):
    assert abs(tm.tilt(std_gaussian, 2.5).mean() - 2.5) <= 1e-9


def test_mean_even_densities(cosine_half, symmetric_mixture):
    assert abs(tm.tilt(cosine_half, 0.0).mean()) <= 1e-10
    assert abs(tm.tilt(symmetric_mixture, 0.0).mean()) <= 1e-10


def test_mean_matches_log_partition_slope(catalog):
    step = 1e-5
    for measure in catalog:
        for t in (-2.0, 0.5, 3.0):
            slope = (
                tm.log_partition(measure, t + step) - tm.log_partition(measure, t - step)
            ) / (2.0 * step)
            assert abs(tm.tilt(measure, t).mean() - slope) <= 1e-6, (measure.spec, t)


def test_median_gaussian(std_gaussian):
    assert abs(tm.tilt(std_gaussian, -3.0).median() + 3.0) <= 1e-8


def test_median_even_density(quadratic_one):
    assert abs(tm.tilt(quadratic_one, 0.0).median()) <= 1e-8


def test_median_cosine_matches_dense_inversion(cosine_half):
    # guard the frozen constant against drift in the oracle itself
    recomputed = oracles.DenseTilt(
        lambda x: oracles.g_perturbed_cosine(x, 0.5), 1.0, -12.0, 14.0
    ).median()
    assert abs(recomputed - COSINE_HALF_MEDIAN_T1) <= 1e-9
    assert abs(tm.tilt(cosine_half, 1.0).median() - COSINE_HALF_MEDIAN_T1) <= 1e-6


def test_median_bracketing(catalog):
    for measure in catalog:
        view = tm.tilt(measure, 1.5)
        median = view.median()
        assert view.cdf(median - 2e-10) <= 0.5 + 1e-11
        assert view.cdf(median + 2e-10) >= 0.5 - 1e-11


def test_half_line_mgf_at_zero(std_gaussian):
    value, slope = tm.half_line_mgf(std_gaussian, 0.0)
    # both derivative terms equal 1/sqrt(2*pi) with opposite signs
    assert abs(value - 0.5) <= 1e-12
    assert abs(slope) <= 1e-12


def test_half_line_below_full_transform(catalog):
    for measure in catalog:
        for t in (-8.0, -1.0, 2.0):
            value, _ = tm.half_line_mgf(measure, t)
            assert value <= math.exp(tm.log_partition(measure, t)) + 1e-12


def test_half_line_mgf_beyond_float_range_of_l():
    # L(8) = exp(722) overflows float64, the half-line integral (~1.657e25) does not:
    # for N(0, s^2) it is exp(s^2 t^2 / 2) Phi(z), z = (1 - s^2) t / s
    s, t = 4.75, 8.0
    value, slope = tm.half_line_mgf(tm.build_measure(tm.Gaussian(0.0, s)), t)
    z = (1.0 - s * s) * t / s
    log_l = 0.5 * (s * t) ** 2
    expected = math.exp(log_l + math.log(0.5 * math.erfc(-z / math.sqrt(2.0))))
    expected_slope = s * s * t * expected + (1.0 - s * s) / s * math.exp(
        log_l - 0.5 * z * z
    ) / math.sqrt(2.0 * math.pi)
    assert abs(value / expected - 1.0) <= 1e-8
    assert abs(slope / expected_slope - 1.0) <= 1e-8


def test_half_line_derivative_matches_finite_difference(catalog):
    # Beyond |t| ~ 3.2 the truncation term of the central difference itself
    # (third derivative times step^2/6) exceeds 1e-6, so the check stops at 3.
    step = 1e-5
    for measure in catalog:
        for t in np.linspace(-3.0, 3.0, 9):
            _, slope = tm.half_line_mgf(measure, float(t))
            fd = (
                tm.half_line_mgf(measure, float(t) + step)[0]
                - tm.half_line_mgf(measure, float(t) - step)[0]
            ) / (2.0 * step)
            assert abs(slope - fd) <= 1e-6, (measure.spec, t)


def test_median_plateau_resolves_to_midpoint():
    # the CDF sits within rounding of 1/2 on roughly [-3.5, 3.5]; the exact
    # median is 0 by symmetry
    measure = tm.build_measure(tm.GaussianMixture(0.5, -6.0, 0.3, 6.0, 0.3))
    assert abs(tm.tilt(measure, 0.0).median()) <= 1e-8
    grid = tm.tilt_grid(measure, [0.0])
    # the reported error spans the plateau instead of claiming a Newton step
    assert 3.0 <= grid.median_error[0] < math.inf


def test_median_on_panel_edge(std_gaussian):
    # medians exactly on anchored panel edges converge without bisecting
    for t in (-1.0, 0.0, 0.5, 2.0):
        assert abs(tm.tilt(std_gaussian, t).median() - t) <= 1e-14


def test_tilt_grid_matches_single_tilts(catalog):
    ts = np.linspace(-6.0, 6.0, 13)
    for measure in catalog:
        grid = tm.tilt_grid(measure, ts)
        for k, t in enumerate(ts):
            view = tm.tilt(measure, float(t))
            assert abs(grid.log_partition[k] - view.log_partition) <= 1e-12
            assert abs(grid.mean[k] - view.mean()) <= 1e-12
            assert abs(grid.median[k] - view.median()) <= 1e-12


def test_tilt_grid_empty_and_without_medians(std_gaussian):
    empty = tm.tilt_grid(std_gaussian, [])
    assert empty.log_partition.size == 0 and empty.median.size == 0
    grid = tm.tilt_grid(std_gaussian, [1.0, 2.0], median=False)
    assert grid.median is None and grid.median_error is None
    assert np.all(np.abs(grid.mean - [1.0, 2.0]) <= 1e-12)
    with pytest.raises(ValueError):
        tm.tilt_grid(std_gaussian, [0.0, 9.0])


def test_tilt_grid_narrow_measure_uses_adaptive_panels():
    # sigma = 0.05 is too narrow for the fixed 0.5-wide panels: the lattice
    # has edges at mu + k sigma, |k| <= 12, and the results stay exact
    mu, sigma = 0.3, 0.05
    measure = tm.build_measure(tm.Gaussian(mu, sigma))
    ts = np.linspace(-6.0, 6.0, 9)
    grid = tm.tilt_grid(measure, ts)
    assert np.all(np.abs(grid.median - (mu + sigma**2 * ts)) <= 1e-10)
    assert np.all(np.abs(grid.mean - (mu + sigma**2 * ts)) <= 1e-10)
    assert np.all(np.abs(grid.log_partition - (mu * ts + 0.5 * sigma**2 * ts**2)) <= 1e-10)
    assert np.all(grid.median_error <= 1e-9)


def test_refined_panel_moment_error_is_honest():
    # the tail of N(0.1, 0.02^2) below 0 ends at a lattice edge at 0, where
    # the moment integrand x * weight vanishes at the tail's peak; the mean
    # error must still cover the error, and so must the half-line sums'
    mu, sigma = 0.1, 0.02
    measure = tm.build_measure(tm.Gaussian(mu, sigma))
    grid = tm.tilt_grid(measure, [0.0], median=False)
    assert abs(grid.mean[0] - mu) <= grid.mean_error[0]
    z = mu / (sigma * math.sqrt(2.0))
    lower = mu * 0.5 * math.erfc(z) - sigma * math.exp(-z * z) / math.sqrt(2.0 * math.pi)
    assert abs(grid.lower_moment_at_t[0] - lower) <= grid.lower_moment_at_t_error[0]
    assert abs(grid.cdf_at_t[0] - 0.5 * math.erfc(z)) <= grid.cdf_at_t_error[0]


def test_spike_between_panel_nodes():
    # sigma = 1e-4: the spike at 0.3 falls between the nodes of the anchored
    # panels, and the lattice resolves it on edges at mu + k sigma
    mu, sigma = 0.3, 1e-4
    measure = tm.build_measure(tm.Gaussian(mu, sigma))
    ts = np.array([0.0, 1.0, 2.0])
    grid = tm.tilt_grid(measure, ts)
    assert np.all(np.abs(grid.log_partition - (mu * ts + 0.5 * sigma**2 * ts**2)) <= 1e-8)
    assert np.all(np.abs(grid.mean - (mu + sigma**2 * ts)) <= 1e-8)
    # the median lies within its error
    assert np.all(np.abs(grid.median - (mu + sigma**2 * ts)) <= grid.median_error)
    assert np.all(grid.median_error <= 1e-12)


def test_narrow_gaussians_build_with_unit_mass():
    # spikes that every node of the anchored panels misses
    for mu, sigma in ((0.25, 1e-4), (0.3, 1e-5)):
        measure = tm.build_measure(tm.Gaussian(mu, sigma))
        assert abs(tm.log_partition(measure, 0.0)) <= 1e-12


def test_lattice_covers_every_window_where_the_stride_doubles():
    # the window of N(0, 20^2) at T_MAX needs more than 4096 panels of width
    # 0.5, so the lattice's anchored stride is 2, and each pass slices it
    sigma = 20.0
    measure = tm.build_measure(tm.Gaussian(0.0, sigma))
    ts = np.array([-8.0, -0.3, 0.0, 3.3, 8.0])
    for t in ts:
        ((_, chunk),) = tm.tilting._chunks(measure, np.array([t]))
        halfwidth = measure.window_halfwidth(t)
        assert chunk.edges[0] <= -halfwidth and chunk.edges[-1] >= halfwidth, t
    grid = tm.tilt_grid(measure, ts)
    exact = 0.5 * sigma**2 * ts**2
    assert np.all(np.abs(grid.log_partition - exact) <= 1e-10 * np.maximum(1.0, exact))
    assert np.all(np.abs(grid.median - sigma**2 * ts) <= grid.median_error)


def _anchored_lattice(measure) -> np.ndarray:
    """The anchored grid over the window at T_MAX, before any bisection."""
    width = tm.numerics.FIXED_PANEL_WIDTH
    reach = width * math.ceil(measure.window_halfwidth(tm.T_MAX) / width)
    return tm.numerics.anchored_edges(-reach, reach)


@pytest.mark.parametrize("sigma", [20.0, 40.0, 100.0])
def test_wide_gaussian_lattice_is_not_bisected_on_rounding(sigma):
    # far out (x near 8 sigma^2 at t = 8) log_pdf holds 0.5 x^2 only to eps;
    # |Kronrod - Gauss| there is rounding noise, which no bisection reduces
    measure = tm.build_measure(tm.Gaussian(0.0, sigma))
    assert np.array_equal(tm.tilting._lattice(measure), _anchored_lattice(measure))
    ts = np.array([-8.0, -1.0, 0.0, 4.0, 8.0])
    grid = tm.tilt_grid(measure, ts)
    exact = 0.5 * sigma**2 * ts**2
    assert np.all(np.abs(grid.log_partition - exact) <= 1e-10 * np.maximum(1.0, exact))
    assert np.all(np.abs(grid.mean - sigma**2 * ts) <= grid.mean_error)
    assert np.all(np.abs(grid.median - sigma**2 * ts) <= grid.median_error)


def test_lattice_bisections_stop_at_the_budget():
    # a ratio wiggling at period 6e-9: no panel wider than the minimum
    # width resolves it, so only the bisection budget ends the lattice
    def log_g(x):
        return 1e-7 * np.sin(1e9 * np.asarray(x, dtype=float))

    measure = tm.BaseMeasure(spec=tm.Gaussian(0.0, 1.0), log_g=log_g)
    panels = tm.tilting._lattice(measure).size - 1
    assert panels <= _anchored_lattice(measure).size - 1 + tm.tilting._MAX_BISECTIONS
    # the true median is 0 to about 1e-16; the panels left carry the miss
    grid = tm.tilt_grid(measure, [0.0])
    assert abs(grid.median[0]) <= grid.median_error[0] <= 1e-6


def test_log_partition_nonfinite_and_vanishing_integrands():
    def measure(log_g):
        return tm.BaseMeasure(spec=tm.Gaussian(0.0, 1.0), log_g=log_g)

    for bad in (math.nan, math.inf):
        with pytest.raises(tm.NonFiniteIntegrandError):
            tm.log_partition(measure(lambda x: np.where(x > 1.0, bad, 0.0)), 0.5)
    # a density ratio that is zero everywhere has log L = -inf, not an error
    assert tm.log_partition(measure(lambda x: np.full_like(x, -np.inf)), 0.5) == -math.inf
