from __future__ import annotations

import math
import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
import tiltmedian as tm
from tiltmedian.convolution import (
    _BLOCK,
    _fft_length,
    _kernel_spectrum,
    _kernel_tables,
    _stencil_sums,
)

# dense-grid oracle: cosine-frequency damping factor of the kernel,
# i.e. the integral of kernel(y) * cos(y)
COSINE_DAMPING = 0.2752215409449237


def laplace_closed_form(s: float) -> float:
    """Completing the square: 1 + (s/2) sqrt(2 pi) e^{s^2/2} erf(s/sqrt(2))."""
    return 1.0 + 0.5 * s * math.sqrt(2.0 * math.pi) * math.exp(0.5 * s * s) * math.erf(
        s / math.sqrt(2.0)
    )


def test_kernel_shape():
    assert float(tm.kernel(0.0)) == 0.0
    ys = np.linspace(-4.0, 4.0, 41)
    assert np.array_equal(tm.kernel(ys), tm.kernel(-ys))
    assert float(tm.kernel(1.0)) > float(tm.kernel(0.9))
    assert float(tm.kernel(1.0)) > float(tm.kernel(1.1))


def test_kernel_unit_mass():
    mass = oracles.quad(tm.kernel, -10.0, 10.0)
    assert abs(mass - 1.0) <= 1e-12


def test_kernel_second_moment():
    # substitution u = y^2/2 turns the positive half into the integral of 2u e^{-u}
    moment = oracles.quad(lambda y: np.asarray(y) ** 2 * tm.kernel(y), -12.0, 12.0)
    assert abs(moment - 2.0) <= 1e-10


def test_laplace_at_zero():
    assert abs(tm.kernel_laplace(0.0) - 1.0) <= 1e-12


def test_laplace_even():
    for s in (0.5, 1.0, 2.0):
        assert abs(tm.kernel_laplace(s) - tm.kernel_laplace(-s)) <= 1e-10


def test_laplace_matches_closed_form():
    # beyond |s| ~ 2 the transform is so large that 1e-9 is only meaningful
    # relative to its size (the float64 spacing alone exceeds it); the
    # quadrature of e^{sy} kernel(y) is a reference independent of both
    for s in (-6.0, -2.0, -1.0, -0.3, 0.1, 1.0, 2.0, 4.0, 6.0):
        closed = laplace_closed_form(s)
        halfwidth = 12.0 + abs(s)
        quadrature = oracles.quad(
            lambda y: np.exp(s * np.asarray(y)) * tm.kernel(y), -halfwidth, halfwidth
        )
        for value in (tm.kernel_laplace(s), quadrature):
            assert abs(value - closed) <= 1e-9 * max(1.0, abs(closed)), s


def test_laplace_exceeds_one_away_from_zero():
    for s in np.concatenate([np.geomspace(1e-2, 8.0, 12), -np.geomspace(1e-2, 8.0, 12)]):
        assert tm.kernel_laplace(float(s)) > 1.0, s


def test_laplace_strictly_convex_second_differences():
    delta = 1e-2
    for s in np.linspace(-3.0, 3.0, 13):
        second = (
            tm.kernel_laplace(float(s) - delta)
            - 2.0 * tm.kernel_laplace(float(s))
            + tm.kernel_laplace(float(s) + delta)
        )
        assert second > 0.0, s


def test_laplace_range_validation():
    with pytest.raises(ValueError):
        tm.kernel_laplace(9.0)


def test_setup_auto_halfwidth():
    setup = tm.ConvolutionSetup(step=0.01)
    assert float(tm.kernel(setup.kernel_halfwidth)) <= 1e-10
    steps = setup.kernel_steps()
    assert abs(steps * setup.step - setup.kernel_halfwidth) <= 1e-12
    # smallest such multiple: one step less violates the tolerance
    assert float(tm.kernel((steps - 1) * setup.step)) > 1e-10


def test_setup_weights_normalized():
    setup = tm.ConvolutionSetup(step=0.01)
    weights = setup.weights()
    assert abs(weights.sum() - 1.0) <= 1e-14
    assert np.array_equal(weights, weights[::-1])


def test_setup_and_grid_reject_inputs_without_taps_or_values():
    # a step past the kernel radius once gave nan weights with numpy warnings
    for step in (math.inf, -math.inf, math.nan, 0.0, 7.0, 40.0, 8e9):
        with pytest.raises(ValueError, match="step"):
            tm.ConvolutionSetup(step)
    weights = tm.ConvolutionSetup(6.9).weights()
    assert weights.size == 5 and abs(weights.sum() - 1.0) <= 1e-15
    for values in (np.array([]), np.ones((2, 3))):
        with pytest.raises(ValueError, match="nonempty 1-d"):
            tm.GridFunction(x_min=0.0, step=1.0, values=values, window_lo=0, window_hi=0)
    # non-finite coordinates once gave nan or inf window_x() and nan window
    # edges from iterate_fixed_point; a float bound failed as a bare TypeError
    grid = dict(x_min=0.0, step=1.0, values=np.ones(5), window_lo=0, window_hi=4)
    for field, value in (
        ("x_min", math.nan), ("x_min", math.inf), ("x_min", -math.inf),
        ("step", math.inf), ("step", math.nan),
        ("window_lo", 0.5), ("window_lo", 0.0), ("window_hi", 4.0), ("window_hi", "4"),
    ):
        with pytest.raises(ValueError, match=field):
            tm.GridFunction(**{**grid, field: value})
    assert tm.GridFunction(**{**grid, "window_lo": np.int64(1)}).window_values().size == 4


def _grid(values: np.ndarray, x_min: float, step: float) -> tm.GridFunction:
    return tm.GridFunction(
        x_min=x_min, step=step, values=values, window_lo=0, window_hi=values.size - 1
    )


@pytest.mark.parametrize("level", [1.0, 0.7, 3.0e5])
def test_constant_ratio_is_exactly_fixed(level):
    # the window's mid-range is subtracted before the transform, so a constant
    # sends only zeros through it
    setup = tm.ConvolutionSetup(step=0.01)
    xs = np.arange(-60.0, 60.0 + 1e-12, 0.01)
    grid = _grid(np.full_like(xs, level), -60.0, 0.01)
    out = tm.convolve(grid, setup)
    assert np.all(out.window_values() == level)
    steps = setup.kernel_steps()
    assert out.window_lo == steps
    assert out.window_hi == xs.size - 1 - steps
    assert np.all(np.isnan(out.values[:steps]))
    assert np.all(np.isnan(out.values[out.window_hi + 1 :]))
    trace = tm.iterate_fixed_point(grid, 8, setup)
    assert trace.oscillations == (0.0,) * 8
    assert np.all(trace.final_iterate.window_values() == level)


def test_convolve_preserves_affine():
    # the kernel is even, so its first moment vanishes and lines pass through
    setup = tm.ConvolutionSetup(step=0.01)
    xs = np.arange(-20.0, 20.0 + 1e-12, 0.01)
    out = tm.convolve(_grid(xs.copy(), -20.0, 0.01), setup)
    assert np.max(np.abs(out.window_values() - out.window_x())) <= 1e-8


def test_convolve_damps_cosine():
    setup = tm.ConvolutionSetup(step=0.01)
    xs = np.arange(-30.0, 30.0 + 1e-12, 0.01)
    values = np.cos(xs)
    out = tm.convolve(_grid(values.copy(), -30.0, 0.01), setup)
    expected = COSINE_DAMPING * np.cos(out.window_x())
    assert np.max(np.abs(out.window_values() - expected)) <= 1e-3 * COSINE_DAMPING
    input_osc = values.max() - values.min()
    output_osc = out.window_values().max() - out.window_values().min()
    assert output_osc < input_osc


def test_convolve_cosine_ratio_factor(cosine_half):
    # the catalog ratio 1 + 0.5 cos(x) (normalized) contracts toward its mean
    setup = tm.ConvolutionSetup(step=0.01)
    grid = tm.sample_to_grid(cosine_half, -30.0, 30.0, 6001)
    out = tm.convolve(grid, setup)
    osc_in = grid.window_values().max() - grid.window_values().min()
    osc_out = out.window_values().max() - out.window_values().min()
    assert osc_out < osc_in
    assert osc_out / osc_in == pytest.approx(COSINE_DAMPING, rel=1e-3)


def test_convolve_step_mismatch():
    setup = tm.ConvolutionSetup(step=0.01)
    xs = np.arange(-10.0, 10.0 + 1e-12, 0.02)
    with pytest.raises(ValueError):
        tm.convolve(_grid(np.ones_like(xs), -10.0, 0.02), setup)


def test_convolve_window_too_narrow():
    setup = tm.ConvolutionSetup(step=0.01)
    xs = np.arange(-5.0, 5.0 + 1e-12, 0.01)
    with pytest.raises(tm.WindowTooNarrowError):
        tm.convolve(_grid(np.ones_like(xs), -5.0, 0.01), setup)


def test_iterate_constant_is_fixed():
    setup = tm.ConvolutionSetup(step=0.01)
    xs = np.arange(-40.0, 40.0 + 1e-12, 0.01)
    trace = tm.iterate_fixed_point(_grid(np.ones_like(xs), -40.0, 0.01), 5, setup)
    assert all(osc <= 1e-8 for osc in trace.oscillations)


def test_iterate_cosine_geometric_decay():
    setup = tm.ConvolutionSetup(step=0.01)
    xs = np.arange(-40.0, 40.0 + 1e-12, 0.01)
    values = 1.0 + 0.5 * np.cos(xs)
    trace = tm.iterate_fixed_point(_grid(values, -40.0, 0.01), 4, setup)
    oscillations = [float(values.max() - values.min())] + list(trace.oscillations)
    for prev, curr in zip(oscillations[:-1], oscillations[1:]):
        assert curr / prev == pytest.approx(COSINE_DAMPING, rel=0.02)
    assert trace.window_shrink_per_step == 2 * setup.kernel_steps()


def test_iterate_window_bookkeeping():
    setup = tm.ConvolutionSetup(step=0.01)
    xs = np.arange(-40.0, 40.0 + 1e-12, 0.01)
    trace = tm.iterate_fixed_point(_grid(np.ones_like(xs), -40.0, 0.01), 3, setup)
    final = trace.final_iterate
    assert final.window_lo == 3 * setup.kernel_steps()
    assert final.window_hi == xs.size - 1 - 3 * setup.kernel_steps()


def test_iterate_bump_flattens_monotonically():
    setup = tm.ConvolutionSetup(step=0.01)
    xs = np.arange(-40.0, 40.0 + 1e-12, 0.01)
    bump = np.where(np.abs(xs) <= 3.0, 1.0, 0.0)
    trace = tm.iterate_fixed_point(_grid(bump, -40.0, 0.01), 4, setup)
    oscillations = [float(bump.max() - bump.min())] + list(trace.oscillations)
    for prev, curr in zip(oscillations[:-1], oscillations[1:]):
        assert curr < prev


def test_iterate_exhausts_window():
    setup = tm.ConvolutionSetup(step=0.01)
    xs = np.arange(-8.0, 8.0 + 1e-12, 0.01)
    with pytest.raises(tm.WindowTooNarrowError):
        tm.iterate_fixed_point(_grid(np.ones_like(xs), -8.0, 0.01), 2, setup)


def test_discrete_convolution_agrees_with_quadrature(std_gaussian, cosine_half):
    # the pointwise smoothing defect and the grid convolution must agree
    setup = tm.ConvolutionSetup(step=0.01)
    for measure, tol in ((std_gaussian, 1e-9), (cosine_half, 1e-4)):
        grid = tm.sample_to_grid(measure, -20.0, 20.0, 4001)
        out = tm.convolve(grid, setup)
        for t in (-1.0, 0.0, 1.5):
            index = round((t - out.x_min) / out.step)
            assert out.window_lo <= index <= out.window_hi
            discrete = float(measure.g(np.array([t]))[0] - out.values[index])
            assert abs(discrete - tm.convolution_residual(measure, t)) <= tol


@pytest.mark.parametrize(
    "spec",
    [
        tm.PerturbedCosine(0.5),
        tm.PerturbedQuadratic(1.0),
        tm.Gaussian(0.3, 0.9),
        tm.GaussianMixture(0.5, -1.0, 0.8, 1.0, 0.9),
    ],
    ids=repr,
)
def test_one_step_matches_the_engines_smoothing(spec):
    # q * g = g - convolution_residual comes from the engine's half-line sums,
    # an oracle for one step on the default grid: within 6.1e-10 with the
    # kink-corrected centre weight, 2.2e-6 to 1.2e-5 without it
    measure = tm.build_measure(spec)
    xs = np.linspace(-60.0, 60.0, 12001)
    smoothed = tm.convolve(tm.sample_to_grid(measure, -60.0, 60.0, xs.size), tm.ConvolutionSetup())
    near = np.abs(xs) <= 6.0
    engine = measure.g(xs[near]) - np.array(tm.scan(measure, "deriva", xs[near]).residuals)
    assert np.max(np.abs(smoothed.values[near] - engine)) <= 1e-8


@pytest.mark.parametrize(
    "spec",
    [
        tm.Gaussian(0.0, 1.0),
        tm.PerturbedCosine(0.5),
        tm.PerturbedQuadratic(1.0),
        tm.GaussianMixture(0.5, -1.0, 1.0, 1.0, 1.0),
        tm.Gaussian(0.99, 0.99),
        tm.Gaussian(-1.0, 0.999),
    ],
    ids=repr,
)
def test_convolve_matches_direct_stencil(spec):
    # reference: np.convolve applies the stencil term by term where it fits
    setup = tm.ConvolutionSetup(step=0.01)
    current = tm.sample_to_grid(tm.build_measure(spec), -60.0, 60.0, 12001)
    for step in range(8):
        out = tm.convolve(current, setup)
        window = current.window_values()
        direct = np.convolve(window, setup.weights(), mode="valid")
        gap = np.max(np.abs(out.window_values() - direct))
        assert gap <= 1e-14 * np.max(np.abs(window)), (step, gap)
        assert np.all(np.isnan(out.values[: out.window_lo]))
        assert np.all(np.isnan(out.values[out.window_hi + 1 :]))
        current = out


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    shape=st.sampled_from(["noise", "walk", "steps"]),
    offset=st.floats(-1e3, 1e3),
    log_scale=st.floats(-6.0, 3.0),
    steps=st.integers(1, 8),
)
def test_oscillation_never_grows(seed, shape, offset, log_scale, steps):
    # the weights are nonnegative with unit sum, so each step is an average;
    # small scales on a large offset leave rounding of |g| far above the
    # oscillation
    scale = 10.0**log_scale
    setup = tm.ConvolutionSetup(step=0.1)
    rng = np.random.default_rng(seed)
    n = steps * 2 * setup.kernel_steps() + int(rng.integers(1, 400))
    if shape == "noise":
        values = rng.uniform(-1.0, 1.0, n)
    elif shape == "walk":
        values = np.cumsum(rng.standard_normal(n)) / math.sqrt(n)
    else:
        # plateaus wider than the stencil keep max and min fixed from step to step
        values = np.repeat(rng.uniform(-1.0, 1.0, n // 300 + 1), 300)[:n]
    grid = _grid(offset + scale * values, float(rng.uniform(-10.0, 10.0)), 0.1)
    trace = tm.iterate_fixed_point(grid, steps, setup)
    window = grid.window_values()
    oscillations = [float(window.max() - window.min())] + list(trace.oscillations)
    for prev, curr in zip(oscillations[:-1], oscillations[1:]):
        assert curr <= prev * (1.0 + 1e-12)


def test_fft_length_is_smallest_five_smooth():
    def smooth(k):
        for p in (2, 3, 5):
            while k % p == 0:
                k //= p
        return k == 1

    for n in range(1, 3000):
        expected = next(k for k in range(n, 2 * n + 1) if smooth(k))
        assert _fft_length(n) == expected, n
    assert _fft_length(13391) == 13500


def test_import_leaves_fft_unloaded():
    src = str(pathlib.Path(tm.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    # every CLI command is a fresh process: numpy.polynomial adds about 0.7 MB
    # and 4 ms to it, numpy.random about 6 MB
    modules = ("numpy.fft", "numpy.polynomial", "numpy.random")
    code = f"import sys, tiltmedian; print([m for m in {modules!r} if m in sys.modules])"
    result = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert result.stdout.strip() == "[]"


def _ratio_grid(spec) -> tm.GridFunction:
    return tm.sample_to_grid(tm.build_measure(spec), -60.0, 60.0, 12001)


def _ramp(rate: float) -> tm.GridFunction:
    return _grid(np.exp(rate * np.linspace(-60.0, 60.0, 12001)), -60.0, 0.01)


@pytest.mark.parametrize(
    "make",
    [
        # sigma in (1, 1.285] samples without overflow on [-60, 60]
        pytest.param(lambda: _ratio_grid(tm.Gaussian(1.0, 1.0)), id="gaussian(1,1)"),
        pytest.param(lambda: _ratio_grid(tm.Gaussian(0.0, 1.1)), id="gaussian(0,1.1)"),
        pytest.param(lambda: _ratio_grid(tm.Gaussian(0.0, 1.25)), id="gaussian(0,1.25)"),
        pytest.param(lambda: _ratio_grid(tm.Gaussian(0.3, 0.6)), id="gaussian(0.3,0.6)"),
        pytest.param(lambda: _ratio_grid(tm.PerturbedQuadratic(1.0)), id="perturbed_quadratic(1)"),
        # ramps whose range brackets the point where the transform stops sufficing
        *(pytest.param(lambda rate=rate: _ramp(rate), id=f"ramp{rate}")
          for rate in (0.02, 0.05, 0.08, 0.2)),
        # within one decade, but the transform's sums overflow float64
        pytest.param(lambda: _grid(np.tile([1e308, 1e307], 6000), -60.0, 0.01), id="near_max"),
    ],
)
def test_convolve_is_accurate_at_every_point(make):
    # the transform's rounding is absolute; points it would swamp must come
    # back with the relative accuracy of the direct stencil sum
    setup = tm.ConvolutionSetup(step=0.01)
    current = make()
    for step in range(8):
        out = tm.convolve(current, setup)
        direct = np.convolve(current.window_values(), setup.weights(), mode="valid")
        gap = np.abs(out.window_values() - direct)
        assert np.all(gap <= 1e-12 * np.abs(direct) + 1e-300), (step, np.max(gap))
        current = out


def test_transform_runs_where_it_is_accurate(monkeypatch):
    # a ratio within one decade never takes the direct stencil; the quadratic
    # ratio takes it only around its minimum, the steep Gaussian everywhere
    direct_points = []
    stencil_sums = tm.convolution._stencil_sums

    def counting(window, direct, out, blocks):
        direct_points.append(np.count_nonzero(direct))
        stencil_sums(window, direct, out, blocks)

    monkeypatch.setattr(tm.convolution, "_stencil_sums", counting)
    setup = tm.ConvolutionSetup(step=0.01)
    shares = {}
    for spec in (tm.PerturbedCosine(0.5), tm.PerturbedQuadratic(1.0), tm.Gaussian(0.3, 0.6)):
        direct_points.clear()
        out = tm.convolve(_ratio_grid(spec), setup)
        shares[spec] = sum(direct_points) / (out.window_hi - out.window_lo + 1)
    assert shares[tm.PerturbedCosine(0.5)] == 0.0
    assert 0.0 < shares[tm.PerturbedQuadratic(1.0)] < 0.2
    assert shares[tm.Gaussian(0.3, 0.6)] == 1.0


# a bench-family mixture (drawn by measure-sweep at seed 1501)
_BENCH_MIXTURE = tm.GaussianMixture(
    0.3000709042534615, -1.4948927560871261, 0.985480843828775, 1.6510112068576015,
    0.7560963676955708,
)


# one row of outputs per block of the table at the default step, as a length
_SPAN = _BLOCK * _kernel_tables(tm.ConvolutionSetup())[1].shape[0]


@pytest.mark.parametrize(
    "length",
    [1, _BLOCK - 1, _BLOCK, _BLOCK + 1, _SPAN - 1, _SPAN + 1, None],
    ids=lambda length: "full" if length is None else str(length),
)
@pytest.mark.parametrize("source", ["gaussian(0.3,0.6)", "mixture", "noise"])
def test_blocked_stencil_sums_match_np_convolve(source, length):
    # stretches shorter than a row, one row, one set of blocks and a whole
    # 12001-point window, at both ends of the window, in its middle and, for the
    # Gaussian, where its tail underflows through the subnormal floats
    setup = tm.ConvolutionSetup(step=0.01)
    weights, blocks = _kernel_tables(setup)
    if source == "noise":
        values = np.random.default_rng(19).uniform(-1.0, 1.0, 12001)
        tol = np.full(values.size - weights.size + 1, 1e-14 * np.max(np.abs(values)))
    else:
        spec = tm.Gaussian(0.3, 0.6) if source == "gaussian(0.3,0.6)" else _BENCH_MIXTURE
        values = _ratio_grid(spec).window_values()
        tol = None
    direct = np.convolve(values, weights, mode="valid")
    if tol is None:
        tol = 1e-13 * np.abs(direct) + 1e-300
    length = direct.size if length is None else length
    underflow = int(np.argmax(direct > 0))
    for lo in sorted({0, underflow, (direct.size - length) // 2, direct.size - length}):
        lo = min(lo, direct.size - length)
        stretch = np.zeros(direct.size, dtype=bool)
        stretch[lo : lo + length] = True
        out = np.full(direct.size, np.nan)
        _stencil_sums(values, stretch, out, blocks)
        assert np.all(np.isnan(out[~stretch])), lo
        gap = np.abs(out[stretch] - direct[stretch])
        assert np.all(gap <= tol[stretch]), (lo, np.max(gap))
        # the same stretch as a window of its own, which the last row overruns
        window = values[lo : lo + length + weights.size - 1]
        own = np.full(length, np.nan)
        _stencil_sums(window, np.ones(length, dtype=bool), own, blocks)
        assert np.array_equal(own, out[stretch]), lo


def test_scattered_direct_points_take_their_own_sums():
    # stretches closer than the blocks' span are summed as one; the sums
    # between them must not reach ``out``
    weights, blocks = _kernel_tables(tm.ConvolutionSetup())
    values = np.random.default_rng(23).uniform(-1.0, 1.0, 12001)
    expected = np.convolve(values, weights, mode="valid")
    direct = np.random.default_rng(29).random(expected.size) < 0.3
    direct[4000:7000] = False
    out = np.full(expected.size, np.nan)
    _stencil_sums(values, direct, out, blocks)
    assert np.all(np.isnan(out[~direct]))
    assert np.max(np.abs(out[direct] - expected[direct])) <= 1e-14 * np.max(np.abs(values))


def _direct_sums(values: np.ndarray) -> np.ndarray:
    weights, blocks = _kernel_tables(tm.ConvolutionSetup())
    out = np.full(values.size - weights.size + 1, np.nan)
    _stencil_sums(values, np.ones(out.size, dtype=bool), out, blocks)
    return out


@pytest.mark.parametrize("spec", [tm.Gaussian(0.3, 0.6), _BENCH_MIXTURE], ids=repr)
def test_direct_sums_commute_with_powers_of_two(spec):
    # the window is scaled by a power of two before the products, so an input
    # scaled by 2^-k gives the same bits scaled back wherever its output is
    # normal, also where the Gaussian's tail underflows through the subnormals
    # (a k near 1000 rounds the mixture's own inputs, which the sums then show)
    values = _ratio_grid(spec).window_values()
    out = _direct_sums(values)
    for k in (1, 60, 600):
        scaled = _direct_sums(np.ldexp(values, -k))
        normal = np.abs(scaled) >= np.finfo(float).tiny
        assert np.any(normal), k
        assert np.array_equal(np.ldexp(scaled[normal], k), out[normal]), k


@pytest.mark.parametrize(
    "spec",
    [tm.Gaussian(0.3, 0.6), _BENCH_MIXTURE, tm.Gaussian(0.44, 0.918), tm.PerturbedQuadratic(1.0)],
    ids=repr,
)
def test_direct_sums_are_within_8_eps_of_exact_sums(spec):
    # reference: math.fsum of the float64 products, formed on the window scaled
    # by a power of two so that none of them is subnormal
    values = _ratio_grid(spec).window_values()
    out = _direct_sums(values)
    weights = tm.ConvolutionSetup().weights()
    shift = 1000 - math.frexp(float(np.max(values)))[1]
    rows = np.lib.stride_tricks.sliding_window_view(np.ldexp(values, shift), weights.size)
    exact = np.empty(out.size)
    for lo in range(0, out.size, 1024):
        products = rows[lo : lo + 1024] * weights[::-1]
        exact[lo : lo + 1024] = [math.fsum(row.data) for row in products]
    exact = np.ldexp(exact, -shift)
    normal = exact >= np.finfo(float).tiny
    assert np.count_nonzero(normal) > out.size // 2
    error = np.abs(out[normal] - exact[normal]) / exact[normal]
    assert np.max(error) <= 8 * np.finfo(float).eps, np.max(error) / np.finfo(float).eps


def test_kernel_tables_are_shared_read_only(tmp_path):
    setup = tm.ConvolutionSetup(step=0.01)
    grid = _ratio_grid(tm.PerturbedQuadratic(1.0))  # takes the transform and the direct sums
    before = tm.convolve(grid, setup)
    returned = setup.weights()
    returned *= 2.0
    assert np.array_equal(tm.convolve(grid, setup).values, before.values, equal_nan=True)
    assert np.array_equal(setup.weights(), returned / 2.0)
    # the weights, the block table and every kept kernel spectrum are shared
    # and refuse writes
    tables = _kernel_tables(tm.ConvolutionSetup(step=0.01))
    spectra = [_kernel_spectrum(setup, size) for size in (13500, _fft_length(8000))]
    assert _kernel_tables(tm.ConvolutionSetup(step=0.01)) is tables
    assert _kernel_spectrum(tm.ConvolutionSetup(step=0.01), 13500) is spectra[0]
    for table in (*tables, *spectra):
        assert not table.flags.writeable
        with pytest.raises(ValueError):
            table[0] = 1.0
    # a fresh process forms the tables anew and must give the same bits
    src = str(pathlib.Path(tm.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    path = tmp_path / "fresh.npz"
    code = (
        "import sys, numpy as np, tiltmedian as tm\n"
        "from tiltmedian.convolution import _kernel_spectrum, _kernel_tables\n"
        "m = tm.build_measure(tm.PerturbedQuadratic(1.0))\n"
        "grid = tm.sample_to_grid(m, -60.0, 60.0, 12001)\n"
        "setup = tm.ConvolutionSetup(step=0.01)\n"
        "values = tm.convolve(grid, setup).values\n"
        "np.savez(sys.argv[1], values=values, blocks=_kernel_tables(setup)[1],\n"
        "         spectrum=_kernel_spectrum(setup, 13500))\n"
    )
    subprocess.run([sys.executable, "-c", code, str(path)], env=env, check=True)
    fresh = np.load(path)
    assert fresh["values"].tobytes() == before.values.tobytes()
    assert fresh["blocks"].tobytes() == tables[1].tobytes()
    assert fresh["spectrum"].tobytes() == spectra[0].tobytes()
