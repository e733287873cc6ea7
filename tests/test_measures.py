from __future__ import annotations

import math
import re
import warnings

import numpy as np
import pytest

import oracles
import tiltmedian as tm
from tiltmedian.cli import EXIT_MEASURE, main

# direct evaluation oracle: (1 + 0.5) / (1 + 0.5 e^{-1/2})
COSINE_HALF_RATIO_AT_ZERO = 1.1509551935716522


def test_gaussian_unit_ratio(std_gaussian):
    xs = np.linspace(-8.0, 8.0, 33)
    assert np.max(np.abs(std_gaussian.g(xs) - 1.0)) <= 1e-14
    assert tm.closed_form_log_partition(std_gaussian.spec, 0.0) is not None


def test_cosine_normalization(cosine_half):
    halfwidth = cosine_half.window_halfwidth(0.0)
    mass = oracles.quad(cosine_half.pdf, -halfwidth, halfwidth)
    assert abs(mass - 1.0) <= 1e-10
    assert abs(float(cosine_half.g(0.0)) - COSINE_HALF_RATIO_AT_ZERO) <= 1e-14


def test_cosine_negative_density_rejected():
    # for any eps > 1, however close, 1 + eps cos x < 0 on an interval about
    # each odd multiple of pi; at eps = 1 it only touches 0 there
    for eps in (1.5, 1 + 1e-8):
        with pytest.raises(tm.NegativeDensityError):
            tm.build_measure(tm.PerturbedCosine(eps))
    measure = tm.build_measure(tm.PerturbedCosine(1.0))
    assert float(measure.g(np.pi)) == 0.0
    assert float(measure.g(0.0)) > 0.0


@pytest.mark.parametrize(
    "spec_factory",
    [
        lambda: tm.Gaussian(0.0, 0.0),
        lambda: tm.Gaussian(0.0, -1.0),
        lambda: tm.PerturbedCosine(-0.1),
        lambda: tm.PerturbedQuadratic(-0.5),
        lambda: tm.GaussianMixture(1.5, 0.0, 1.0, 0.0, 1.0),
        lambda: tm.GaussianMixture(0.5, 0.0, 0.0, 0.0, 1.0),
    ],
)
def test_spec_validation(spec_factory):
    with pytest.raises(ValueError):
        spec_factory()


def test_closed_form_gaussian():
    assert abs(tm.closed_form_log_partition(tm.Gaussian(0.0, 1.0), 2.0) - 2.0) == 0.0
    assert abs(
        tm.closed_form_log_partition(tm.Gaussian(0.5, 2.0), 1.5) - (0.75 + 4.5)
    ) <= 1e-14


def test_closed_form_vanishes_at_zero():
    specs = [
        tm.Gaussian(0.3, 1.7),
        tm.PerturbedCosine(0.5),
        tm.PerturbedQuadratic(1.0),
        tm.GaussianMixture(0.25, -1.0, 0.5, 2.0, 1.5),
    ]
    for spec in specs:
        assert abs(tm.closed_form_log_partition(spec, 0.0)) <= 1e-15


def test_closed_form_cosine_at_pi():
    scaled = 0.5 * math.exp(-0.5)
    expected = math.pi**2 / 2 + math.log(1 - scaled) - math.log(1 + scaled)
    value = tm.closed_form_log_partition(tm.PerturbedCosine(0.5), math.pi)
    assert abs(value - expected) <= 1e-14


def test_closed_form_quadratic():
    expected = 0.5 + math.log(3.0) - math.log(2.0)
    assert abs(tm.closed_form_log_partition(tm.PerturbedQuadratic(1.0), 1.0) - expected) <= 1e-14


def test_closed_form_mixture_matches_manual():
    spec = tm.GaussianMixture(0.3, -1.0, 0.5, 2.0, 1.5)
    t = 1.25
    manual = math.log(
        0.3 * math.exp(-1.0 * t + 0.5 * (0.5 * t) ** 2)
        + 0.7 * math.exp(2.0 * t + 0.5 * (1.5 * t) ** 2)
    )
    assert abs(tm.closed_form_log_partition(spec, t) - manual) <= 1e-12


def test_closed_form_absent_for_tabulated(tmp_path):
    path = tmp_path / "flat.txt"
    path.write_text("-5 1\n5 1\n")
    assert tm.closed_form_log_partition(tm.Tabulated(str(path)), 1.0) is None


def test_sample_to_grid_gaussian(std_gaussian):
    grid = tm.sample_to_grid(std_gaussian, -1.0, 1.0, 3)
    assert np.allclose(grid.values, 1.0, atol=1e-15)
    assert grid.window_lo == 0 and grid.window_hi == 2
    assert grid.step == 1.0


def test_sample_to_grid_overflow_names_measure_and_point():
    measure = tm.build_measure(tm.Gaussian(0.0, 2.0))
    with pytest.raises(
        tm.RatioOverflowError, match=r"Gaussian\(mu=0.0, sigma=2.0\).*x=-60.0 \(log g = 1349.3"
    ):
        tm.sample_to_grid(measure, -60.0, 60.0, 12001)
    assert issubclass(tm.RatioOverflowError, ValueError)
    # on [-60, 60] a centred Gaussian ratio overflows once sigma > 1.2851
    grid = tm.sample_to_grid(tm.build_measure(tm.Gaussian(0.0, 1.285)), -60.0, 60.0, 12001)
    assert np.all(np.isfinite(grid.values))
    with pytest.raises(tm.RatioOverflowError):
        tm.sample_to_grid(tm.build_measure(tm.Gaussian(0.0, 1.2852)), -60.0, 60.0, 12001)
    # past |x| ~ 1.3e154, x^2 overflows and log g is inf - inf: g is nan there,
    # named by the same error, with no numpy warning
    with pytest.raises(tm.RatioOverflowError, match=r"x=-1e\+200 \(log g = nan\)"):
        tm.sample_to_grid(tm.build_measure(tm.Gaussian(0.0, 1.0)), -1e200, 1e200, 11)
    # where g stays finite the same measure samples as before
    grid = tm.sample_to_grid(measure, -20.0, 20.0, 401)
    assert np.array_equal(grid.values, measure.g(np.linspace(-20.0, 20.0, 401)))


def test_sample_to_grid_values(quadratic_one, cosine_half):
    assert abs(float(quadratic_one.g(0.0)) - 0.5) <= 1e-15
    assert abs(float(cosine_half.g(0.0)) - COSINE_HALF_RATIO_AT_ZERO) <= 1e-14


def test_build_is_deterministic():
    xs = np.linspace(-7.0, 7.0, 101)
    first = tm.build_measure(tm.GaussianMixture(0.5, -1.0, 1.0, 1.0, 1.0)).log_g(xs)
    second = tm.build_measure(tm.GaussianMixture(0.5, -1.0, 1.0, 1.0, 1.0)).log_g(xs)
    assert np.array_equal(first, second)


def _write_table(tmp_path, name, xs, gs):
    lines = [f"{x} {g}" for x, g in zip(xs, gs)]
    path = tmp_path / name
    path.write_text("\n".join(lines) + "\n")
    return str(path)


def test_tabulated_renormalized(tmp_path):
    xs = np.linspace(-6.0, 6.0, 241)
    path = _write_table(tmp_path, "cosine.txt", xs, 1.0 + 0.5 * np.cos(xs))
    measure = tm.build_measure(tm.Tabulated(path))
    # one QUADPACK call per knot interval: the linear interpolant kinks at each knot
    mass = sum(oracles.quad(measure.pdf, lo, hi) for lo, hi in zip(xs[:-1], xs[1:]))
    assert abs(mass - 1.0) <= 1e-10
    # zero outside the tabulated range
    assert measure.g(np.array([6.5, -7.0])).max() == 0.0
    assert tm.closed_form_log_partition(measure.spec, 0.0) is None
    for t in (-8.0, -1.5, 0.0, 2.0, 8.0):
        assert measure.window_halfwidth(t) == 6.0


def test_tabulated_linear_interpolation(tmp_path):
    path = _write_table(tmp_path, "hat.txt", [-4.0, 0.0, 4.0], [0.0, 2.0, 0.0])
    measure = tm.build_measure(tm.Tabulated(path))
    # ratio of interpolated values is normalization-free
    g = measure.g(np.array([-2.0, 0.0, 2.0]))
    assert abs(g[0] / g[1] - 0.5) <= 1e-12
    assert abs(g[2] / g[1] - 0.5) <= 1e-12


def test_tabulated_comments_ignored(tmp_path):
    path = tmp_path / "commented.txt"
    path.write_text("# header\n\n-5 1\n# middle\n0 1\n5 1\n")
    measure = tm.build_measure(tm.Tabulated(str(path)))
    assert abs(float(measure.g(0.0)) - float(measure.g(1.0))) <= 1e-12


def test_tabulated_negative_rejected(tmp_path):
    path = _write_table(tmp_path, "neg.txt", [-5.0, 0.0, 5.0], [1.0, -0.5, 1.0])
    with pytest.raises(tm.NegativeDensityError):
        tm.build_measure(tm.Tabulated(path))


def test_tabulated_requires_increasing_x(tmp_path):
    path = _write_table(tmp_path, "bad.txt", [0.0, 0.0, 1.0], [1.0, 1.0, 1.0])
    with pytest.raises(tm.MeasureError):
        tm.build_measure(tm.Tabulated(path))


@pytest.mark.parametrize(
    "rows, error, message",
    [
        ("0 1 2\n1 1\n", tm.MeasureError, ":1: expected two columns, got 3"),
        ("0 1\n1 one\n", tm.MeasureError, ":2: could not convert string to float: 'one'"),
        ("# one point\n0 1\n", tm.MeasureError, "need at least two tabulated points"),
        ("0 1\nnan 1\n2 1\n", tm.MeasureError, "entries must be finite"),
        ("0 1\n1 inf\n2 1\n", tm.MeasureError, "entries must be finite"),
        ("0 1\n2 1\n1 1\n", tm.MeasureError, "x column must be strictly increasing"),
        ("0 1\n2 100\n3 10000\n", tm.TailViolationError, "rises toward the right table edge"),
        ("-1e308 1\n0 1\n1e308 1\n", tm.MeasureError, "passes the float64 range"),
    ],
)
def test_tabulated_file_errors(tmp_path, capsys, rows, error, message):
    path = tmp_path / "ratio.txt"
    path.write_text(rows)
    with pytest.raises(error, match=re.escape(message)):
        tm.build_measure(tm.Tabulated(str(path)))
    out = tmp_path / "x.csv"
    code = main(["median-gap", "--measure", f"tabulated({path})", "--out", str(out)])
    assert code == EXIT_MEASURE
    assert message in capsys.readouterr().err
    assert not out.exists()


def test_tabulated_missing_file():
    with pytest.raises(tm.MeasureError):
        tm.build_measure(tm.Tabulated("/nonexistent/ratio.txt"))


def test_tabulated_super_gaussian_tail_rejected(tmp_path):
    xs = np.linspace(-6.0, 6.0, 121)
    path = _write_table(tmp_path, "grow.txt", xs, np.exp(xs**2))
    with pytest.raises(tm.TailViolationError):
        tm.build_measure(tm.Tabulated(path))


def test_tabulated_zero_mass_rejected(tmp_path):
    path = _write_table(tmp_path, "zero.txt", [-5.0, 0.0, 5.0], [0.0, 0.0, 0.0])
    with pytest.raises(tm.NotNormalizableError):
        tm.build_measure(tm.Tabulated(path))


@pytest.mark.parametrize("width", [1e160, 1e300])
def test_very_wide_tables_are_rejected_without_warnings(tmp_path, width):
    # x^2 overflows at the outer knots and nodes; that is no failure, so the
    # zero-mass rejection is the only thing the build reports
    path = _write_table(tmp_path, "wide.txt", [-width, 0.0, width], [1.0, 1.0, 1.0])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(tm.NotNormalizableError, match="zero total mass"):
            tm.build_measure(tm.Tabulated(path))


@pytest.mark.parametrize(
    "spec",
    [
        tm.Gaussian(0.0, 1e155),
        tm.Gaussian(0.0, 1e154),
        tm.Gaussian(1e308, 1.0),
        tm.Gaussian(9e307, 1.0),
        tm.GaussianMixture(0.5, 0.0, 1e300, 0.0, 1.0),
        tm.GaussianMixture(0.5, -1e308, 1.0, 1e308, 1.0),
    ],
    ids=repr,
)
def test_windows_past_the_float_range_are_rejected(spec):
    # offset + 12 scale + 8 scale^2, or its count of anchored panels, is not a
    # float: a failed build, not an OverflowError
    with pytest.raises(tm.MeasureError, match="truncation window at t = 8.0 .* float64 range"):
        tm.build_measure(spec)


def test_grid_function_validation():
    with pytest.raises(ValueError):
        tm.GridFunction(x_min=0.0, step=0.0, values=np.ones(5), window_lo=0, window_hi=4)
    with pytest.raises(ValueError):
        tm.GridFunction(x_min=0.0, step=1.0, values=np.ones(5), window_lo=3, window_hi=2)
    with pytest.raises(ValueError):
        tm.GridFunction(x_min=0.0, step=1.0, values=np.ones(5), window_lo=0, window_hi=5)
    values = np.ones(5)
    values[2] = np.nan
    with pytest.raises(ValueError):
        tm.GridFunction(x_min=0.0, step=1.0, values=values, window_lo=0, window_hi=4)
    # nan outside the window is allowed
    grid = tm.GridFunction(x_min=0.0, step=1.0, values=values, window_lo=3, window_hi=4)
    assert np.allclose(grid.window_values(), 1.0)
    assert np.allclose(grid.window_x(), [3.0, 4.0])


def test_sample_to_grid_validation(std_gaussian):
    with pytest.raises(ValueError):
        tm.sample_to_grid(std_gaussian, 1.0, 1.0, 5)
    with pytest.raises(ValueError):
        tm.sample_to_grid(std_gaussian, -1.0, 1.0, 1)


@pytest.mark.parametrize(
    "x_min, x_max", [(-math.inf, 1.0), (-1.0, math.inf), (math.nan, 1.0), (-1e308, 1e308)]
)
def test_sample_to_grid_rejects_unbounded_grids(std_gaussian, x_min, x_max):
    # named before any sample is taken, so numpy warns about nothing
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=re.escape(f"x bounds [{x_min}, {x_max}]")):
            tm.sample_to_grid(std_gaussian, np.float64(x_min), x_max, 11)


def test_window_halfwidth_grows_with_tilt():
    wide = tm.build_measure(tm.Gaussian(-2.0, 2.0))
    assert wide.window_halfwidth(0.0) == pytest.approx(2.0 + 24.0)
    assert wide.window_halfwidth(6.0) == pytest.approx(2.0 + 24.0 + 24.0)
    narrow = tm.build_measure(tm.PerturbedQuadratic(1.0))
    assert narrow.window_halfwidth(3.0) == pytest.approx(15.0)


# Past |x| ~ 1.34e154, x^2 overflows and log_g - x^2 / 2 is inf - inf, so the
# log-density of every family but PerturbedCosine is nan there, where the
# density is 0 (ROADMAP item 4); PerturbedCosine gets 0 but warns.
FAR_OUT = "ROADMAP item 4: the density at x = 1e200 is nan, or 0 with an overflow warning"


@pytest.mark.xfail(strict=True, reason=FAR_OUT)
def test_densities_far_out_are_zero_without_warnings():
    specs = (
        tm.Gaussian(0.0, 1.0),
        tm.Gaussian(0.3, 0.9),
        tm.GaussianMixture(0.5, -1.0, 0.5, 1.0, 1.5),
        tm.PerturbedQuadratic(1.0),
        tm.PerturbedCosine(0.5),
    )
    measures = {spec: tm.build_measure(spec) for spec in specs}
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        values = {
            spec: (
                float(m.pdf(1e200)),
                float(tm.tilt(m, 0.0).pdf(1e200)),
                tm.asymmetry_score(m, 0.0, [1e200]).asymmetry_score,
            )
            for spec, m in measures.items()
        }
    assert values == dict.fromkeys(specs, (0.0, 0.0, 0.0))
    assert [str(warning.message) for warning in caught] == []
