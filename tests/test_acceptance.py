"""End-to-end acceptance checks, one per promised behavior, each printing a
PASS/FAIL line (visible with ``pytest -s``).

Reference values tagged "dense-grid oracle" were produced by the 10^6-point
trapezoid machinery in ``oracles.py`` and are frozen here; the library must
reproduce them within 1e-6 through its own panel quadrature.
"""

from __future__ import annotations

import math

import numpy as np

import oracles
import tiltmedian as tm
from tiltmedian.cli import EXIT_OK, main

GRID_49 = np.linspace(-6.0, 6.0, 49)

# cosine-frequency damping factor of the smoothing kernel (dense-grid oracle)
COSINE_DAMPING = 0.2752215409449237

# (measure label, diagnostic, witness t, dense-grid oracle value)
SEPARATION_WITNESSES = [
    ("perturbed_cosine(0.5)", "median_gap", -4.25, -0.3837029249484605),
    ("perturbed_cosine(0.5)", "sign_kernel", 4.75, -0.2217048809712423),
    ("perturbed_cosine(0.5)", "deriva", 0.0, 0.2780625105925222),
    ("perturbed_quadratic(1)", "median_gap", -1.0, -0.7565451484222943),
    ("perturbed_quadratic(1)", "sign_kernel", 6.0, -4.78730736454751),
    ("perturbed_quadratic(1)", "deriva", 0.0, -0.9999999999718334),
]

_DIAGNOSTIC_FN = {
    "median_gap": tm.median_gap,
    "sign_kernel": tm.sign_kernel_residual,
    "deriva": tm.convolution_residual,
}


def report(number: int, ok: bool, detail: str) -> None:
    print(f"{'PASS' if ok else 'FAIL'} criterion {number}: {detail}")
    assert ok, f"criterion {number}: {detail}"


def test_criterion_1_gaussian_nullity(std_gaussian):
    worst = {}
    for name in ("median_gap", "sign_kernel", "deriva", "mean_median"):
        worst[name] = tm.scan(std_gaussian, name, GRID_49).max_abs_residual
    ok = all(value <= 1e-8 for value in worst.values())
    detail = "gaussian(0,1) 49-point residual maxima " + ", ".join(
        f"{k}={v:.2e}" for k, v in worst.items()
    )
    report(1, ok, detail)


def test_criterion_2_uniqueness_witnesses(cosine_half, quadratic_one):
    measures = {
        "perturbed_cosine(0.5)": cosine_half,
        "perturbed_quadratic(1)": quadratic_one,
    }
    ok = True
    mismatches = []
    for label, diagnostic, t_witness, reference in SEPARATION_WITNESSES:
        value = _DIAGNOSTIC_FN[diagnostic](measures[label], t_witness)
        gap = abs(value - reference)
        if abs(value) <= 1e-4 or gap > 1e-6:
            ok = False
        mismatches.append(f"{label}/{diagnostic}: |v|={abs(value):.3e} d={gap:.1e}")
    report(2, ok, "; ".join(mismatches))


def test_criterion_3_closed_form_agreement():
    specs = [
        tm.Gaussian(0.0, 1.0),
        tm.Gaussian(-2.0, 2.0),
        tm.PerturbedCosine(0.5),
        tm.PerturbedQuadratic(1.0),
        tm.GaussianMixture(0.5, -1.0, 1.0, 1.0, 1.0),
        tm.GaussianMixture(0.25, -1.0, 0.5, 2.0, 1.5),
    ]
    worst = 0.0
    for spec in specs:
        measure = tm.build_measure(spec)
        for t in (-6.0, -3.0, -1.0, 0.0, 1.0, 3.0, 6.0):
            gap = abs(tm.log_partition(measure, t) - tm.closed_form_log_partition(spec, t))
            worst = max(worst, gap)
    report(3, worst <= 1e-8, f"max |log-partition quadrature - closed form| = {worst:.2e}")


def test_criterion_4_kernel_facts():
    mass_gap = abs(oracles.quad(tm.kernel, -10.0, 10.0) - 1.0)
    moment_gap = abs(oracles.quad(lambda y: np.asarray(y) ** 2 * tm.kernel(y), -12.0, 12.0) - 2.0)
    at_zero_gap = abs(tm.kernel_laplace(0.0) - 1.0)
    even_gap = max(
        abs(tm.kernel_laplace(s) - tm.kernel_laplace(-s)) for s in (0.5, 1.0, 2.0)
    )
    above_one = all(
        tm.kernel_laplace(float(s)) > 1.0
        for s in np.concatenate([np.geomspace(1e-2, 8.0, 10), -np.geomspace(1e-2, 8.0, 10)])
    )
    closed_gap = max(
        abs(
            tm.kernel_laplace(s)
            - (1.0 + 0.5 * s * math.sqrt(2 * math.pi) * math.exp(0.5 * s * s)
               * math.erf(s / math.sqrt(2.0)))
        )
        for s in (-2.0, -1.0, -0.5, -0.01, 0.01, 0.5, 1.0, 2.0)
    )
    ok = (
        mass_gap <= 1e-12
        and moment_gap <= 1e-10
        and at_zero_gap <= 1e-12
        and even_gap <= 1e-10
        and above_one
        and closed_gap <= 1e-9
    )
    report(
        4,
        ok,
        f"mass={mass_gap:.1e} moment={moment_gap:.1e} at0={at_zero_gap:.1e} "
        f"even={even_gap:.1e} above1={above_one} closed={closed_gap:.1e}",
    )


def test_criterion_5_convolution_flattening():
    setup = tm.ConvolutionSetup(step=0.01)
    xs = np.arange(-60.0, 60.0 + 1e-12, 0.01)
    wave = tm.GridFunction(
        x_min=-60.0, step=0.01, values=1.0 + 0.5 * np.cos(xs), window_lo=0,
        window_hi=xs.size - 1,
    )
    trace = tm.iterate_fixed_point(wave, 8, setup)
    oscillations = [float(wave.values.max() - wave.values.min())] + list(trace.oscillations)
    ratios = [curr / prev for prev, curr in zip(oscillations[:-1], oscillations[1:])]
    ratio_ok = all(abs(r / COSINE_DAMPING - 1.0) <= 0.02 for r in ratios)

    flat = tm.GridFunction(
        x_min=-60.0, step=0.01, values=np.ones_like(xs), window_lo=0, window_hi=xs.size - 1
    )
    flat_trace = tm.iterate_fixed_point(flat, 8, setup)
    constant_ok = all(osc <= 1e-8 for osc in flat_trace.oscillations)

    worst_ratio = max(abs(r / COSINE_DAMPING - 1.0) for r in ratios)
    report(
        5,
        ratio_ok and constant_ok,
        f"8-step ratios within {worst_ratio:.2%} of {COSINE_DAMPING} "
        f"(limit 2%), constant drift max {max(flat_trace.oscillations):.1e}",
    )


def test_criterion_6_lipschitz_bound(catalog):
    rng = np.random.default_rng(2024)
    halfwidth = 2.0
    ok = True
    worst_margin = math.inf
    for measure in catalog:
        bound = tm.lipschitz_bound(measure, halfwidth)
        for _ in range(200):
            lo, hi = np.sort(rng.uniform(-halfwidth, halfwidth, size=2))
            if hi - lo < 1e-12:
                continue
            mass = oracles.quad(measure.pdf, float(lo), float(hi))
            margin = bound * (hi - lo) - mass
            worst_margin = min(worst_margin, margin)
            if mass > bound * (hi - lo) + 1e-12:
                ok = False
    report(6, ok, f"200 random intervals per measure, worst slack {worst_margin:.3e}")


def test_criterion_7_derivative_formula(catalog):
    step = 1e-5
    worst = 0.0
    for measure in catalog:
        for t in (-3.0, -1.0, 0.0, 1.0, 3.0):
            _, slope = tm.half_line_mgf(measure, t)
            fd = (
                tm.half_line_mgf(measure, t + step)[0]
                - tm.half_line_mgf(measure, t - step)[0]
            ) / (2.0 * step)
            worst = max(worst, abs(slope - fd))
    report(7, worst <= 1e-6, f"max |analytic slope - central difference| = {worst:.3e}")


def test_criterion_8_symmetry_chain(quadratic_one):
    sweep_t = (-4.0, -2.0, 0.0, 2.0, 4.0)
    pair_grid = [(t, s) for t in (-2.0, 0.0, 2.0) for s in (0.5, 1.0)]
    fit_grid = np.linspace(-4.0, 4.0, 21)
    worst_asym = 0.0
    worst_mid = 0.0
    worst_fit = 0.0
    worst_coeff = 0.0
    for mu in (0.0, 1.0, -2.0):
        for sigma in (0.5, 1.0, 2.0):
            measure = tm.build_measure(tm.Gaussian(mu, sigma))
            for t in sweep_t:
                worst_asym = max(worst_asym, tm.asymmetry_score(measure, t).asymmetry_score)
            for t, s in pair_grid:
                worst_mid = max(worst_mid, abs(tm.midpoint_residual(measure, t, s)))
            fit = tm.fit_quadratic_log_partition(measure, fit_grid)
            worst_fit = max(worst_fit, fit.max_residual)
            worst_coeff = max(
                worst_coeff, abs(fit.linear - mu), abs(fit.quadratic - 0.5 * sigma**2)
            )
    gaussian_ok = (
        worst_asym <= 1e-8 and worst_mid <= 1e-7 and worst_fit <= 1e-8 and worst_coeff <= 1e-6
    )

    detect_score = max(
        tm.asymmetry_score(quadratic_one, t).asymmetry_score for t in sweep_t
    )
    detect_fit = tm.fit_quadratic_log_partition(quadratic_one, fit_grid).max_residual
    detection_ok = detect_score > 1e-4 and detect_fit > 1e-3

    report(
        8,
        gaussian_ok and detection_ok,
        f"gaussian sweep: asym={worst_asym:.1e} mid={worst_mid:.1e} fit={worst_fit:.1e} "
        f"coeff={worst_coeff:.1e}; quadratic ratio: asym={detect_score:.1e} "
        f"fit={detect_fit:.1e}",
    )


def test_criterion_9_cli_determinism(tmp_path, capsys):
    first = tmp_path / "a.csv"
    second = tmp_path / "b.csv"
    base = ["median-gap", "--measure", "gaussian(0,1)"]
    code_a = main(base + ["--out", str(first)])
    out_a = capsys.readouterr().out
    code_b = main(base + ["--out", str(second)])
    capsys.readouterr()

    summary = out_a.strip().splitlines()[-1]
    max_abs = float(summary.split(" at t = ")[0].removeprefix("max|residual| = "))
    lines = first.read_text().splitlines()
    schema_ok = (
        lines[0] == "t,residual,error_estimate"
        and len(lines) == 50
        and all(len(line.split(",")) == 3 for line in lines[1:])
    )
    identical = first.read_bytes() == second.read_bytes()
    ok = code_a == EXIT_OK and code_b == EXIT_OK and max_abs <= 1e-8 and schema_ok and identical
    report(
        9,
        ok,
        f"exit={code_a},{code_b} max|residual|={max_abs:.2e} schema={schema_ok} "
        f"byte-identical={identical}",
    )
