from __future__ import annotations

import dataclasses
import math
import sys

import numpy as np
import pytest

import oracles
import tiltmedian as tm
import tiltmedian.cli

# dense-grid (10^6-point trapezoid) oracle references
COSINE_HALF_MEDIAN_GAP_T1 = -0.2337504930621329
QUADRATIC_ONE_SIGN_KERNEL_T1 = -0.7978845607579182  # closed form: -sqrt(2/pi)
COSINE_HALF_DERIVA_T0 = 0.2780625105925222
NARROW_MIXTURE_GAP_T1 = 0.09604441556654253
GAUSSIAN_LIPSCHITZ_A1 = 11.951010743549277


def test_median_gap_standard_gaussian(std_gaussian):
    for t in (-6.0, -1.25, 0.0, 2.5, 6.0):
        assert abs(tm.median_gap(std_gaussian, t)) <= 1e-8


def test_median_gap_shifted_gaussian():
    shifted = tm.build_measure(tm.Gaussian(0.5, 1.0))
    assert abs(tm.median_gap(shifted, 0.0) - 0.5) <= 1e-8


def test_median_gap_cosine_matches_oracle(cosine_half):
    recomputed = oracles.median_gap(lambda x: oracles.g_perturbed_cosine(x, 0.5), 1.0)
    assert abs(recomputed - COSINE_HALF_MEDIAN_GAP_T1) <= 1e-9
    value = tm.median_gap(cosine_half, 1.0)
    assert abs(value - COSINE_HALF_MEDIAN_GAP_T1) <= 1e-6
    assert abs(value) > 1e-4


def test_sign_kernel_standard_gaussian(std_gaussian):
    for t in (-4.0, -0.5, 0.0, 1.5, 5.0):
        assert abs(tm.sign_kernel_residual(std_gaussian, t)) <= 1e-9


def test_sign_kernel_even_ratio_at_zero(quadratic_one):
    assert abs(tm.sign_kernel_residual(quadratic_one, 0.0)) <= 1e-9


def test_sign_kernel_quadratic_matches_oracle(quadratic_one):
    recomputed = oracles.sign_kernel(lambda x: oracles.g_perturbed_quadratic(x, 1.0), 1.0)
    assert abs(recomputed - QUADRATIC_ONE_SIGN_KERNEL_T1) <= 1e-9
    value = tm.sign_kernel_residual(quadratic_one, 1.0)
    assert abs(value - QUADRATIC_ONE_SIGN_KERNEL_T1) <= 1e-6
    # for this ratio the integrand's odd part integrates to -t*E|X|
    assert abs(value + math.sqrt(2.0 / math.pi)) <= 1e-9
    assert abs(value) > 1e-4


def test_sign_kernel_half_line_identity(cosine_half, quadratic_one):
    # the signed-kernel integral equals e^{-t^2/2} (2 h(t) - L(t))
    for measure in (cosine_half, quadratic_one):
        for t in (-2.0, 0.7, 3.0):
            half, _ = tm.half_line_mgf(measure, t)
            full = math.exp(tm.log_partition(measure, t))
            expected = math.exp(-0.5 * t * t) * (2.0 * half - full)
            assert abs(tm.sign_kernel_residual(measure, t) - expected) <= 1e-8


def test_convolution_residual_standard_gaussian(std_gaussian):
    # the last four sit just below a panel edge, where |t - x| has its kink
    for t in (-5.0, -2.0, 0.0, 1.0, 4.0, 0.99575, 1.99575, 3.99575, -2.0042):
        assert abs(tm.convolution_residual(std_gaussian, t)) <= 1e-9


def test_residuals_beyond_float_range_are_infinite_without_warnings():
    # for N(0, 10^2), log L(t) - t^2/2 = 49.5 t^2 passes the float64 range near
    # |t| = 3.79; the suite turns a numpy overflow warning into an error
    measure = tm.build_measure(tm.Gaussian(0.0, 10.0))
    assert tm.sign_kernel_residual(measure, 6.0) == -math.inf
    ts = np.linspace(-6.0, 6.0, 49)
    grid = tm.tilt_grid(measure, ts)
    log_scale = grid.log_partition - 0.5 * ts**2
    spread = grid.mean - ts + 2.0 * (ts * grid.cdf_at_t - grid.lower_moment_at_t)
    factors = {"sign_kernel": 1.0, "deriva": math.sqrt(0.5 * math.pi)}
    products = {"sign_kernel": 2.0 * grid.cdf_at_t - 1.0, "deriva": -spread}
    for name, q in products.items():
        residuals = np.array(tm.scan(measure, name, ts).residuals)
        with np.errstate(divide="ignore"):
            log_value = log_scale + math.log(factors[name]) + np.log(np.abs(q))
        assert np.array_equal(np.isinf(residuals), log_value > math.log(sys.float_info.max))
        # entries whose scale is finite are the plain product, bit for bit
        small = log_scale < 700.0
        scale = factors[name] * np.exp(log_scale[small])
        base = measure.g(ts[small]) if name == "deriva" else 0.0
        assert np.array_equal(residuals[small], base + scale * q[small]), name


def test_convolution_residual_quadratic_is_constant(quadratic_one):
    # smoothing adds the kernel's second moment: residual is exactly -1
    for t in (-3.0, 0.0, 1.0, 5.0):
        assert abs(tm.convolution_residual(quadratic_one, t) + 1.0) <= 1e-9


@pytest.mark.parametrize("eps", [1e-6, 0.3, 1.0, 5.0])
def test_quadratic_residuals_match_exact_linear_response(eps):
    # g = (1 + eps x^2) / (1 + eps): the sign kernel keeps -2 t E|Y| of the
    # x^2 term and smoothing adds the kernel's second moment 2, for every eps
    measure = tm.build_measure(tm.PerturbedQuadratic(eps))
    ts = np.linspace(-6.0, 6.0, 49)
    exact = {
        "sign_kernel": -2.0 * math.sqrt(2.0 / math.pi) * eps / (1.0 + eps) * ts,
        "deriva": np.full(ts.size, -2.0 * eps / (1.0 + eps)),
    }
    for name, values in exact.items():
        report = tm.scan(measure, name, ts)
        gaps = np.abs(np.array(report.residuals) - values)
        assert np.all(gaps <= np.array(report.error_estimates)), (name, gaps.max())


def test_convolution_residual_cosine_matches_oracle(cosine_half):
    recomputed = oracles.convolution_residual(
        lambda x: oracles.g_perturbed_cosine(x, 0.5), 0.0
    )
    assert abs(recomputed - COSINE_HALF_DERIVA_T0) <= 1e-9
    value = tm.convolution_residual(cosine_half, 0.0)
    assert abs(value - COSINE_HALF_DERIVA_T0) <= 1e-6
    assert abs(value) > 1e-4


def test_convolution_residual_scaled_constant_ratio():
    # any constant ratio is a fixed point of the kernel smoothing
    constant = tm.BaseMeasure(
        spec=tm.Gaussian(0.0, 1.0),
        log_g=lambda x: np.full_like(np.asarray(x, dtype=float), math.log(0.7)),
    )
    for t in (-2.0, 0.0, 3.0):
        assert abs(tm.convolution_residual(constant, t)) <= 1e-9


def test_lipschitz_matches_oracle(std_gaussian):
    recomputed = oracles.lipschitz_constant(lambda x: oracles.g_gaussian(x, 0.0, 1.0), 1.0)
    assert abs(recomputed - GAUSSIAN_LIPSCHITZ_A1) <= 1e-9
    value = tm.lipschitz_bound(std_gaussian, 1.0)
    assert value > 0.0
    assert abs(value - GAUSSIAN_LIPSCHITZ_A1) <= 1e-6


def test_lipschitz_matches_gaussian_closed_form(std_gaussian):
    # L(u) = e^{u^2/2}, so the slope maximum is A e^{A^2/2}, and
    # integral of |x| e^{A|x|} dN(0,1) = 2 phi(0) + 2 A e^{A^2/2} Phi(A)
    for a in (0.5, 1.0, 2.0, 4.0):
        lift = math.exp(0.5 * a * a)
        cdf = 0.5 * math.erfc(-a / math.sqrt(2.0))
        weighted_abs = 2.0 / math.sqrt(2.0 * math.pi) + 2.0 * a * lift * cdf
        expected = math.exp(a * a) * (0.5 * a * lift + weighted_abs)
        value = tm.lipschitz_bound(std_gaussian, a)
        assert abs(value - expected) <= 1e-12 * expected, a


def test_lipschitz_small_halfwidth_limit(std_gaussian):
    # e^{A^2} -> 1, slope max -> |L'(0)| = 0, weight -> E|X|
    value = tm.lipschitz_bound(std_gaussian, 1e-3)
    assert abs(value - math.sqrt(2.0 / math.pi)) <= 0.01 * math.sqrt(2.0 / math.pi)


def test_lipschitz_mass_inequality(catalog):
    rng = np.random.default_rng(11)
    halfwidth = 2.0
    for measure in catalog:
        bound = tm.lipschitz_bound(measure, halfwidth)
        for _ in range(50):
            lo, hi = np.sort(rng.uniform(-halfwidth, halfwidth, size=2))
            if hi - lo < 1e-12:
                continue
            mass = oracles.quad(measure.pdf, float(lo), float(hi))
            assert mass <= bound * (hi - lo) + 1e-12


def test_lipschitz_halfwidth_validation(std_gaussian):
    with pytest.raises(ValueError):
        tm.lipschitz_bound(std_gaussian, 0.0)
    with pytest.raises(ValueError):
        tm.lipschitz_bound(std_gaussian, 9.0)


def test_monotonicity_clean_for_positive_ratios(std_gaussian):
    flags = tm.monotonicity_check(std_gaussian, np.linspace(-6.0, 6.0, 1000))
    assert flags == []


def test_monotonicity_clean_near_vanishing_cosine():
    measure = tm.build_measure(tm.PerturbedCosine(0.999))
    flags = tm.monotonicity_check(measure, np.linspace(-6.0, 6.0, 200))
    assert flags == []


def test_monotonicity_flags_zero_mass_interval(tmp_path):
    path = tmp_path / "gap.txt"
    path.write_text("-5 1\n0.9 1\n1 0\n2 0\n2.1 1\n5 1\n")
    measure = tm.build_measure(tm.Tabulated(str(path)))
    grid = np.linspace(-3.0, 3.0, 25)
    flags = tm.monotonicity_check(measure, grid)
    assert flags, "expected zero-mass flags inside [1, 2]"
    for lo, hi in flags:
        assert lo >= 0.9 and hi <= 2.1
    covered_lo = min(lo for lo, _ in flags)
    covered_hi = max(hi for _, hi in flags)
    assert covered_lo <= 1.1 and covered_hi >= 1.9


def test_monotonicity_infinite_grid_ends(catalog):
    for measure in catalog:
        assert tm.monotonicity_check(measure, [-math.inf, 0.0, math.inf]) == []


def test_monotonicity_flags_every_interval_without_mass():
    # a measure of zero mass has no distribution function: nothing is certified
    measure = tm.BaseMeasure(spec=tm.Gaussian(0.0, 1.0), log_g=lambda x: np.full_like(x, -np.inf))
    assert tm.monotonicity_check(measure, [-1.0, 0.0, 1.0]) == [(-1.0, 0.0), (0.0, 1.0)]


def test_interval_masses_match_adaptive_quadrature(catalog):
    xs = np.linspace(-6.0, 6.0, 200)
    for measure in catalog:
        masses = tm.medianlaw._interval_masses(measure, xs)
        for lo, hi, mass in zip(xs[:-1], xs[1:], masses):
            expected = oracles.quad(measure.pdf, float(lo), float(hi))
            assert abs(mass - expected) <= 1e-15, (measure.spec, lo)


def test_interval_masses_over_the_window_sum_to_one(catalog):
    for measure in catalog:
        halfwidth = measure.window_halfwidth(0.0)
        xs = np.linspace(-halfwidth, halfwidth, 301)
        masses = tm.medianlaw._interval_masses(measure, xs)
        assert abs(masses.sum() - 1.0) <= 1e-12, measure.spec


def test_monotonicity_grid_validation(std_gaussian):
    with pytest.raises(ValueError):
        tm.monotonicity_check(std_gaussian, [0.0])
    with pytest.raises(ValueError):
        tm.monotonicity_check(std_gaussian, [0.0, 0.0, 1.0])


def test_mean_median_gap_gaussian_any_parameters():
    wide = tm.build_measure(tm.Gaussian(2.0, 3.0))
    for t in (-2.0, 0.0, 4.0):
        assert abs(tm.mean_median_gap(wide, t)) <= 1e-7


def test_mean_median_gap_symmetric_at_zero(cosine_half, symmetric_mixture):
    assert abs(tm.mean_median_gap(cosine_half, 0.0)) <= 1e-8
    assert abs(tm.mean_median_gap(symmetric_mixture, 0.0)) <= 1e-8


def test_mean_median_gap_mixture_matches_oracle():
    recomputed = oracles.mean_median_gap(
        lambda x: oracles.g_mixture(x, 0.5, -1.0, 0.5, 1.0, 1.5), 1.0, lo=-16.0, hi=22.0
    )
    assert abs(recomputed - NARROW_MIXTURE_GAP_T1) <= 1e-9
    measure = tm.build_measure(tm.GaussianMixture(0.5, -1.0, 0.5, 1.0, 1.5))
    value = tm.mean_median_gap(measure, 1.0)
    assert abs(value - NARROW_MIXTURE_GAP_T1) <= 1e-6
    assert abs(value) > 1e-4


def test_scan_gaussian_median_gap(std_gaussian):
    report = tm.scan(std_gaussian, "median_gap", np.linspace(-6.0, 6.0, 25))
    assert report.max_abs_residual <= 1e-8
    assert len(report.residuals) == 25


def test_scan_empty_grid(catalog):
    for measure in catalog:
        reports = [tm.scan(measure, which, []) for which in tm.DIAGNOSTIC_NAMES]
        for report in reports:
            assert report.t_grid == report.residuals == report.error_estimates == ()
            assert (report.max_abs_residual, report.argmax_t) == (0.0, 0.0)


def test_scan_cosine_sign_kernel_separates(cosine_half):
    report = tm.scan(cosine_half, "sign_kernel", np.linspace(-6.0, 6.0, 25))
    assert report.max_abs_residual > 1e-4


def test_scan_unknown_diagnostic(std_gaussian):
    with pytest.raises(tm.UnknownDiagnosticError):
        tm.scan(std_gaussian, "curvature", [0.0])


def test_scan_summary_recomputable(quadratic_one):
    report = tm.scan(quadratic_one, "deriva", np.linspace(-2.0, 2.0, 9))
    residuals = np.array(report.residuals)
    assert report.max_abs_residual == pytest.approx(np.max(np.abs(residuals)), abs=0.0)
    assert report.argmax_t == report.t_grid[int(np.argmax(np.abs(residuals)))]


def test_report_validation():
    with pytest.raises(ValueError):
        tm.DiagnosticReport(
            name="median_gap",
            t_grid=(0.0, 1.0),
            residuals=(0.0,),
            error_estimates=(0.0, 0.0),
            max_abs_residual=0.0,
            argmax_t=0.0,
        )


def test_equivalence_chain_on_grid(catalog):
    # wherever the sign-kernel residual vanishes on the grid, the median gap does too
    grid = np.linspace(-6.0, 6.0, 25)
    for measure in catalog:
        sign_report = tm.scan(measure, "sign_kernel", grid)
        if sign_report.max_abs_residual <= 2e-8:
            gap_report = tm.scan(measure, "median_gap", grid)
            assert gap_report.max_abs_residual <= 2e-8


def _table_and_midpoints(path, knots, ratio):
    """A ``Tabulated`` measure of ``ratio`` at ``knots``, written to ``path``,
    and every fifth midpoint between knots with |t| <= 5.5."""
    path.write_text("".join(f"{x!r} {g!r}\n" for x, g in zip(knots.tolist(), ratio.tolist())))
    midpoints = 0.5 * (knots[1:] + knots[:-1])
    return tm.build_measure(tm.Tabulated(str(path))), midpoints[np.abs(midpoints) <= 5.5][::5]


def test_sign_kernel_derivative_is_the_convolution_residual(catalog, tmp_path):
    # the paper's proof chain, with no closed form: d/dy[sign(y) phi(y)] =
    # 2 phi(0) delta(y) - |y| phi(y) gives S'(t) = sqrt(2/pi) (g - q * g)(t) for
    # S = sign_kernel_residual, which the engine forms from F_t(t), and
    # g - q * g = convolution_residual, which it forms from E_t[X; X <= t] and
    # the mean.  Central differences D(h) carry the two error estimates of S
    # over 2h and an h^2 term, of which (D(2h) - D(h)) / 3 is the Richardson
    # estimate; twice it covers the h^4 rest (under 5% of it at h = 1e-2).  A
    # tabulated S'' jumps at the knots, so its tilts lie midway between them.
    h = 1e-3
    sin_knots, quad_knots = np.linspace(-6.0, 6.0, 121), np.linspace(-5.0, 5.0, 101)
    cases = [(m, np.linspace(-6.0, 6.0, 25) + 0.05) for m in map(dataclasses.replace, catalog)]
    cases += [
        _table_and_midpoints(tmp_path / "sin.txt", sin_knots, 1.0 + 0.3 * np.sin(1.3 * sin_knots)),
        _table_and_midpoints(tmp_path / "quad.txt", quad_knots, 0.5 + quad_knots**2 / 8.0),
    ]
    for measure, ts in cases:
        grid = (ts[:, None] + h * np.arange(-2, 3)).ravel()
        sign, conv = (tm.scan(measure, which, grid) for which in ("sign_kernel", "deriva"))
        s, s_err = (np.reshape(v, (-1, 5)) for v in (sign.residuals, sign.error_estimates))
        c, c_err = (np.reshape(v, (-1, 5))[:, 2] for v in (conv.residuals, conv.error_estimates))
        d_h = (s[:, 3] - s[:, 1]) / (2.0 * h)
        d_2h = (s[:, 4] - s[:, 0]) / (4.0 * h)
        k = math.sqrt(2.0 / math.pi)
        bound = (s_err[:, 3] + s_err[:, 1]) / (2.0 * h) + k * c_err + 2.0 * np.abs(d_2h - d_h) / 3.0
        assert np.all(np.abs(d_h - k * c) <= bound), measure.spec


def test_separation_on_dense_grid(cosine_half, quadratic_one):
    grid = np.linspace(-6.0, 6.0, 49)
    for measure in (cosine_half, quadratic_one):
        for name in ("median_gap", "sign_kernel", "deriva"):
            report = tm.scan(measure, name, grid)
            assert report.max_abs_residual > 1e-4, (measure.spec, name)


def test_median_error_estimates_propagated(std_gaussian, cosine_half):
    grid = np.linspace(-6.0, 6.0, 49)
    for measure in (std_gaussian, cosine_half):
        gap = tm.scan(measure, "median_gap", grid)
        both = tm.scan(measure, "mean_median", grid)
        row = tm.tilt_grid(measure, grid)
        assert gap.error_estimates == tuple(map(float, row.median_error))
        # the mean-median error is the median's plus the tilted mean's
        assert both.error_estimates == tuple(map(float, row.median_error + row.mean_error))
    # on N(0,1) the exact median is t, and the Newton solve stops at the
    # rounding of x, so the gap is within an error near rounding
    gap = tm.scan(std_gaussian, "median_gap", grid)
    for residual, error in zip(gap.residuals, gap.error_estimates):
        assert abs(residual) <= error <= 1e-12


def test_median_gap_separates_tiny_perturbation():
    # a cosine ratio 1e-11 away from N(0,1) stands clear of the median error
    measure = tm.build_measure(tm.PerturbedCosine(1e-11))
    report = tm.scan(measure, "median_gap", np.linspace(-6.0, 6.0, 49))
    ratios = [abs(r) / e for r, e in zip(report.residuals, report.error_estimates)]
    assert max(ratios) >= 10.0


def test_sign_kernel_when_tilt_leaves_window():
    # for sigma = 0.4 the window halfwidth at t = 6 is 5.76 < t
    mu, sigma = 0.0, 0.4
    measure = tm.build_measure(tm.Gaussian(mu, sigma))
    for t in np.linspace(-6.0, 6.0, 49):
        t = float(t)
        log_l = mu * t + 0.5 * (sigma * t) ** 2
        cdf_at_t = 0.5 * math.erfc(-(t - mu - sigma**2 * t) / (sigma * math.sqrt(2.0)))
        expected = math.exp(-0.5 * t * t + log_l) * (2.0 * cdf_at_t - 1.0)
        value = tm.sign_kernel_residual(measure, t)
        assert abs(value - expected) <= 1e-8 * max(1.0, abs(expected)), t
