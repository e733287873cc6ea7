from __future__ import annotations

import dataclasses
import gc
import json
import math
import sys
import threading
import tracemalloc
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
    # fresh measures: a catalog measure may keep a grid an earlier test left
    for measure in map(dataclasses.replace, catalog):
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
            # a fresh pass, on a fresh measure, gives the same bits
            fresh = dataclasses.replace(measure)
            row = tm.tilt_grid(fresh, [t])
            expected = (
                float(row.log_partition[0]),
                float(row.mean[0]),
                float(row.median[0]),
                tm.scan(fresh, "sign_kernel", [t]).residuals[0],
                tm.scan(fresh, "deriva", [t]).residuals[0],
            )
            assert got == expected
            # another tilt is a new pass, which a one-tilt grid at that tilt, a
            # one-tilt request and no grid call, shares
            engine_calls.clear()
            assert tm.log_partition(measure, t + 0.25) == float(
                tm.tilt_grid(measure, [t + 0.25]).log_partition[0]
            )
            assert (engine_calls["passes"], engine_calls["tilt_grid"], engine_calls["rows"]) == (
                1, 0, 0
            )


def test_kept_state_under_concurrent_callers(cosine_half):
    # threads racing on one measure's kept pass may run it again, never mix
    # rows; past each barrier every thread reads the same kept pass, so their
    # first reads of its medians and its sums at x = t race.
    # Two more threads alternate between two grids, whose scans replace the
    # kept pass under the others and read it in their turn.  Both grids hold
    # every tilt read, so a read comes from one of three passes: the one-tilt
    # pass at t or row t of either grid, and has the exact bits of one of them
    def cdf_off_t(measure, t):
        return tm.tilt(measure, t).cdf(t + 0.4)

    measure = tm.build_measure(tm.PerturbedCosine(0.5))
    readers = (tm.median_gap, tm.convolution_residual, cdf_off_t, tm.half_line_mgf)
    tilts = (-1.0, 0.5, 2.0)
    grids = (np.linspace(-2.0, 2.0, 9), np.linspace(-1.5, 2.5, 9))

    def sources(f, t):
        bits = []
        for grid in (None,) + grids:
            fresh = dataclasses.replace(cosine_half)
            if grid is not None:
                tm.tilt_grid(fresh, grid)
            bits.append(f(fresh, t))
        return bits

    expected = {(f, t): sources(f, t) for f in readers for t in tilts}
    scans = {
        (which, k): repr(tm.scan(tm.build_measure(tm.PerturbedCosine(0.5)), which, grid))
        for which in tm.DIAGNOSTIC_NAMES
        for k, grid in enumerate(grids)
    }
    n_threads = 6
    barrier = threading.Barrier(n_threads, timeout=60)
    mismatches = []

    def grid_worker(offset: int) -> None:
        try:
            for k in range(120):
                which = tm.DIAGNOSTIC_NAMES[k % len(tm.DIAGNOSTIC_NAMES)]
                side = (k + offset) % len(grids)
                if repr(tm.scan(measure, which, grids[side])) != scans[which, side]:
                    mismatches.append((which, side))
        except Exception as exc:
            mismatches.append(repr(exc))

    def worker(offset: int) -> None:
        try:
            for k in range(120):
                t = tilts[k % len(tilts)]
                # a kept pass at t, or a grid holding t, that may have formed
                # neither its medians nor its sums at x = t yet
                tm.log_partition(measure, t)
                barrier.wait()
                for j in range(len(readers)):
                    f = readers[(offset + j) % len(readers)]
                    if f(measure, t) not in expected[f, t]:
                        mismatches.append((f.__name__, t))
        except Exception as exc:  # a worker that dies must fail the test, not hang the rest
            mismatches.append(repr(exc))
            barrier.abort()

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=worker, args=(i,)) for i in range(n_threads)]
        threads += [threading.Thread(target=grid_worker, args=(i,)) for i in range(2)]
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
    for measure in map(dataclasses.replace, catalog):
        for t in (-2.5, 0.0, 1.0):
            tm.tilt(measure, t)
            engine_calls.clear()
            first = tm.sign_kernel_residual(measure, t)
            # the first read of the sums forms them on the kept pass
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
    # a second build from scratch gives the same table
    assert all(map(np.array_equal, measure._node_table, tm.lattice._lattice(measure)))
    assert xs.shape == (edges.size - 1, 15) and half.shape == (edges.size - 1,)
    assert np.array_equal(log_pdf, measure.log_pdf(xs))
    assert not any(array.flags.writeable for array in (xs, half, log_pdf))


def _evaluated_nodes(log_g) -> tuple[np.ndarray, int]:
    """Every x at which the node table of the ratio ``log_g`` evaluated it, and
    the table's panel count."""
    seen = []

    def counting(x):
        seen.append(np.ravel(x))
        return log_g(x)

    edges = tm.lattice._node_table(tm.BaseMeasure(spec=tm.Gaussian(0.0, 1.0), log_g=counting))[0]
    return np.concatenate(seen), edges.size - 1


def test_node_table_evaluates_each_node_once():
    # the bisection keeps the log-density of each panel it passes: the 80
    # unbisected panels of the cosine measure are evaluated once, not twice
    xs, panels = _evaluated_nodes(tm.build_measure(tm.PerturbedCosine(0.5)).log_g)
    assert (xs.size, panels) == (1200, 80)
    # cos(30 x) bisects: the panels split are evaluated too, but no x twice
    log_norm = math.log1p(0.3 * math.exp(-450.0))
    xs, panels = _evaluated_nodes(lambda x: np.log1p(0.3 * np.cos(30.0 * x)) - log_norm)
    assert panels == 426 and xs.size > 15 * panels
    assert np.unique(xs).size == xs.size


def test_tabulated_measure_builds_its_own_node_table(engine_calls, monkeypatch, tmp_path):
    # the hat ratio has mass about 1.6 before normalization, so the raw
    # measure's log_pdf is off from the normalized one's by log(1.6): the
    # lattice test, in units of each tilt's largest node value, ignores it
    lattice, panel_nodes, bisected, rounds = tm.lattice._lattice, tm.lattice.panel_nodes, [], []

    def bisecting(measure):
        bisected.append(measure)
        rounds.append(0)
        return lattice(measure)

    def probing(lo, hi):
        rounds[-1] += 1
        return panel_nodes(lo, hi)

    monkeypatch.setattr(tm.lattice, "_lattice", bisecting)
    monkeypatch.setattr(tm.lattice, "panel_nodes", probing)
    path = tmp_path / "hat.txt"
    path.write_text("-4 0\n0 2\n4 0\n")
    measure = tm.build_measure(tm.Tabulated(str(path)))
    # one table for the raw ratio, whose mass normalizes it, and one of its
    # own, bisected from the raw lattice's edges: its first round passes
    # every panel, so it splits none
    assert engine_calls["node_tables"] == 2
    raw, normalized = bisected
    assert normalized is measure and rounds[1] == 1
    edges, xs, _, log_pdf = measure._node_table
    assert np.array_equal(edges, raw._node_table[0])
    assert np.array_equal(log_pdf, measure.log_pdf(xs))
    assert abs(tm.log_partition(measure, 0.0)) <= 1e-12


def test_measures_are_freed_by_reference_counting(tmp_path):
    # a kept pass that pointed back at its measure would leave the measure to
    # the cyclic collector; with that collector off it must still go at del.
    # A table's build reads its raw measure's node table, and its log_g is a
    # functools.partial.
    table = tmp_path / "ratio.txt"
    xs = np.linspace(-6.0, 6.0, 121)
    table.write_text("\n".join(f"{x} {1.0 + 0.5 * math.cos(x)}" for x in xs) + "\n")
    enabled = gc.isenabled()
    gc.disable()
    try:
        for spec in CATALOG_SPECS + (tm.Tabulated(str(table)),):
            measure = tm.build_measure(spec)
            ref = weakref.ref(measure)
            del measure
            assert ref() is None, spec
            measure = tm.build_measure(spec)
            view = tm.tilt(measure, 1.0)
            view.median()
            view.cdf(0.5)
            tm.sign_kernel_residual(measure, 1.0)
            tm.half_line_mgf(measure, 1.0)
            tm.lipschitz_bound(measure, 2.0)
            tm.monotonicity_check(measure, [-1.0, 0.0, 1.0])
            del view
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
    # four grid lookups read one grid pass; the other pass is build_measure's
    # mass check at t = 0
    assert (engine_calls["passes"], engine_calls["tilt_grid"]) == (2, 4)
    assert (engine_calls["medians"], engine_calls["at_t"]) == (1, 1)
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
    for measure in map(dataclasses.replace, catalog):
        engine_calls.clear()
        view = tm.tilt(measure, 0.75)
        median = view.median()
        values = [view.cdf(x) for x in sorted((-2.0, 0.0, 1.0, 3.0, median))]
        assert (engine_calls["passes"], engine_calls["tilt_grid"]) == (1, 0)
        assert values == sorted(values)


def test_each_request_on_new_tilts_forms_one_pass(catalog, engine_calls):
    ts = np.linspace(-6.0, 6.0, 97)
    for measure in catalog:
        engine_calls.clear()
        tm.asymmetry_score(measure, 0.3)
        tm.log_partition(measure, -1.1)
        view = tm.tilt(measure, 2.2)
        view.mean()
        tm.fit_quadratic_log_partition(measure, np.linspace(-4.0, 4.0, 21))
        tm.midpoint_residual(measure, 0.5, 0.25)
        tm.scan(measure, "symmetry", ts)
        assert engine_calls["passes"] == 6
        # the grid requests replaced the pass at 2.2: the view's median forms
        # a new one, which its cdf and a second median read
        view.median()
        view.cdf(1.0)
        view.median()
        assert engine_calls["passes"] == 7


@pytest.mark.parametrize("t", [-6.0, -0.75, 0.0, 2.5])
def test_kept_tables_give_the_same_bits_in_either_read_order(catalog, t):
    x = t + 0.4
    reads = {
        "asymmetry": lambda m: tm.asymmetry_score(m, t),
        "median": lambda m: tm.tilt(m, t).median(),
        "cdf": lambda m: tm.tilt(m, t).cdf(x),
        "half_line_mgf": lambda m: tm.half_line_mgf(m, t),
    }
    for measure in map(dataclasses.replace, catalog):
        fresh = tm.tilt_grid(measure, [t])
        # a request at another tilt replaces the kept state
        tm.log_partition(measure, tm.T_MAX)
        state, row = tm.tilting._tilt_state(measure, t)
        assert (state.ts.size, row) == (1, 0)
        half_line = state.half_line([x], row)
        got = []
        for order in (list(reads), list(reversed(reads))):
            tm.log_partition(measure, tm.T_MAX)
            got.append({name: reads[name](measure) for name in order})
            row = tm.tilt_grid(measure, [t])
            for field in dataclasses.fields(row):
                assert np.array_equal(getattr(row, field.name), getattr(fresh, field.name))
            state, row = tm.tilting._tilt_state(measure, t)
            for kept, first in zip(state.half_line([x], row), half_line):
                assert np.array_equal(kept, first)
        assert got[0] == got[1]
        assert got[0]["median"] == fresh.median[0]
        assert got[0]["asymmetry"].center == fresh.mean[0]
        assert got[0]["cdf"] == min(1.0, max(0.0, float(half_line[0][0])))


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


# the dense grid of the scans
SCAN_GRID = np.linspace(-6.0, 6.0, 97)


def test_tilt_grid_matches_single_tilts(catalog):
    # a grid's panels cover every tilt's window and its partial panels share
    # one call, so a value moves from a one-tilt call's by rounding only
    eps = np.finfo(float).eps
    extra = (tm.GaussianMixture(0.5, -1.0, 0.5, 1.0, 1.5), tm.Gaussian(0.3, 0.05))
    for measure in catalog + tuple(tm.build_measure(spec) for spec in extra):
        grid = tm.tilt_grid(measure, SCAN_GRID)
        # one-tilt passes: on ``measure`` a one-tilt grid would read the grid's row
        fresh = dataclasses.replace(measure)
        for k, t in enumerate(SCAN_GRID):
            single = tm.tilt_grid(fresh, [t])
            assert single.t_grid.size == fresh._tilt_state.ts.size == 1
            for name in ("log_partition", "mean", "median", "cdf_at_t", "lower_moment_at_t"):
                value = getattr(single, name)[0]
                bound = 16.0 * eps * max(1.0, abs(value))
                assert abs(getattr(grid, name)[k] - value) <= bound, (measure.spec, t, name)


def test_tilt_grid_does_not_depend_on_the_chunk_size(monkeypatch):
    # chunks bound only the work array: the medians and the sums at x = t
    # are solved over the whole grid, so one tilt a chunk gives the same bits
    # (on a second measure: the first keeps its pass over the grid)
    for spec in CATALOG_SPECS:
        default = tm.tilt_grid(tm.build_measure(spec), SCAN_GRID)
        with monkeypatch.context() as patch:
            patch.setattr(tm.tilting, "_CHUNK_ELEMENTS", 1)
            one_tilt_chunks = tm.tilt_grid(tm.build_measure(spec), SCAN_GRID)
        for field in dataclasses.fields(tm.TiltGrid):
            got, expected = getattr(one_tilt_chunks, field.name), getattr(default, field.name)
            assert np.array_equal(got, expected), (spec, field.name)


def test_a_grid_solves_its_medians_and_sums_at_t_once(engine_calls):
    # the sigma = 1.5 mixture has 148 panels, so a chunk holds 3 tilts; the
    # Newton solve and the partial panel at x = t still run once per grid.
    # Each block takes a fresh measure: a measure keeps its pass over a grid.
    spec = tm.GaussianMixture(0.5, -1.0, 0.5, 1.0, 1.5)
    measure = tm.build_measure(spec)
    engine_calls.clear()
    tm.scan(measure, "median_gap", SCAN_GRID)
    assert engine_calls["passes"] == 1
    assert engine_calls["partials"] <= 8 and engine_calls["at_t"] == 0
    measure = tm.build_measure(spec)
    engine_calls.clear()
    tm.scan(measure, "sign_kernel", SCAN_GRID)
    assert (engine_calls["passes"], engine_calls["partials"], engine_calls["at_t"]) == (1, 1, 1)
    # scans and fits that read neither medians nor the sums at x = t form
    # no partial panel; the fit on the scan's grid shares its pass
    measure = tm.build_measure(spec)
    engine_calls.clear()
    tm.scan(measure, "symmetry", SCAN_GRID)
    tm.fit_quadratic_log_partition(measure, SCAN_GRID)
    tm.midpoint_residual(measure, 0.5, 0.25)
    assert engine_calls == {"passes": 2, "tilt_grid": 3}


@pytest.mark.parametrize("spec", CATALOG_SPECS, ids=repr)
def test_consecutive_scans_on_one_grid_share_one_pass(spec, engine_calls):
    # the five diagnostics read one kept pass, in either order, which solves
    # the medians and the sums at x = t once; each report has the bits of a
    # scan on a fresh measure
    expected = {which: repr(tm.scan(tm.build_measure(spec), which, SCAN_GRID))
                for which in tm.DIAGNOSTIC_NAMES}
    for order in (tm.DIAGNOSTIC_NAMES, tm.DIAGNOSTIC_NAMES[::-1]):
        measure = tm.build_measure(spec)
        engine_calls.clear()
        reports = {which: repr(tm.scan(measure, which, SCAN_GRID)) for which in order}
        assert (engine_calls["passes"], engine_calls["tilt_grid"]) == (1, 5)
        assert engine_calls["at_t"] == 1
        assert reports == expected


# each diagnostic at one tilt, as its single-t function computes it
ONE_TILT = {
    "median_gap": tm.median_gap,
    "sign_kernel": tm.sign_kernel_residual,
    "deriva": tm.convolution_residual,
    "mean_median": tm.mean_median_gap,
    "symmetry": tm.asymmetry_score,
}


@pytest.mark.parametrize("which", tm.DIAGNOSTIC_NAMES)
def test_a_pass_forms_medians_and_sums_at_t_once_and_only_where_read(which, engine_calls):
    # read twice, single-tilt and as a scan, each on a fresh measure: the
    # medians are solved once iff the diagnostic reads them, the sums at x = t
    # formed once iff it reads them, and ``symmetry`` forms neither
    reads_medians = which in ("median_gap", "mean_median")
    reads_at_t = which in ("sign_kernel", "deriva")
    requests = {
        "one tilt": lambda m: ONE_TILT[which](m, 0.75),
        "scan": lambda m: tm.scan(m, which, SCAN_GRID),
    }
    for name, request in requests.items():
        measure = tm.build_measure(tm.PerturbedCosine(0.5))
        engine_calls.clear()
        first = request(measure)
        assert request(measure) == first
        assert engine_calls["passes"] == 1, name
        assert engine_calls["medians"] == reads_medians, name
        assert engine_calls["at_t"] == reads_at_t, name


def test_a_request_on_other_tilts_replaces_the_kept_pass(engine_calls):
    measure = tm.build_measure(tm.PerturbedCosine(0.5))
    signed_zero = np.where(SCAN_GRID == 0.0, -0.0, SCAN_GRID)
    assert np.signbit(signed_zero[SCAN_GRID == 0.0]).all()
    in_between = {
        "another grid": lambda: tm.scan(measure, "median_gap", SCAN_GRID[::2]),
        "a grid one tilt shorter": lambda: tm.tilt_grid(measure, SCAN_GRID[:-1]),
        "a fit": lambda: tm.fit_quadratic_log_partition(measure, SCAN_GRID[1:]),
        "a single tilt off the grid": lambda: tm.log_partition(measure, 0.3),
        "a midpoint": lambda: tm.midpoint_residual(measure, 0.5, 0.25),
    }
    for name, request in in_between.items():
        tm.scan(measure, "median_gap", SCAN_GRID)
        engine_calls.clear()
        request()
        tm.scan(measure, "sign_kernel", SCAN_GRID)
        assert engine_calls["passes"] == 2, name
        # equal tilts share it, 0.0 and -0.0 alike
        tm.scan(measure, "deriva", signed_zero)
        tm.tilt_grid(measure, list(SCAN_GRID))
        assert engine_calls["passes"] == 2, name
    # one-tilt requests at tilts the kept grid holds read its rows, 0.0 and
    # -0.0 alike, and keep it
    engine_calls.clear()
    tm.tilt(measure, 0.5).median()
    tm.tilt_grid(measure, [0.5])
    tm.asymmetry_score(measure, -0.0)
    tm.lipschitz_bound(measure, 2.0)
    tm.scan(measure, "median_gap", SCAN_GRID)
    assert (engine_calls["passes"], engine_calls["rows"]) == (0, 6)
    # one at a tilt off the grid replaces it; a grid of one tilt and that
    # tilt share one pass, a longer grid starting at it does not, and the
    # tilt then reads its row
    tm.tilt(measure, 0.3).median()
    tm.tilt_grid(measure, [0.3])
    assert (engine_calls["passes"], engine_calls["rows"]) == (1, 6)
    tm.tilt_grid(measure, [0.3, 1.0])
    tm.tilt(measure, 0.3)
    assert (engine_calls["passes"], engine_calls["rows"]) == (2, 7)
    tm.scan(measure, "median_gap", SCAN_GRID)
    assert engine_calls["passes"] == 3


@pytest.mark.parametrize("spec", CATALOG_SPECS, ids=repr)
def test_asymmetry_scores_on_a_scanned_grid_read_its_rows(spec, engine_calls):
    # after a scan, the scores on its grid run no engine pass: each center is
    # the grid's mean bit for bit, within rounding of a one-tilt pass's
    eps = np.finfo(float).eps
    measure = tm.build_measure(spec)
    one_tilt = dataclasses.replace(measure)
    tm.scan(measure, "median_gap", SCAN_GRID)
    engine_calls.clear()
    reports = [tm.asymmetry_score(measure, float(t)) for t in SCAN_GRID]
    assert engine_calls == {"rows": SCAN_GRID.size}
    mean = tm.tilt_grid(measure, SCAN_GRID).mean
    assert engine_calls["passes"] == 0
    for k, (t, report) in enumerate(zip(SCAN_GRID, reports)):
        assert report.center == mean[k], t
        single = tm.asymmetry_score(one_tilt, float(t))
        for name in ("center", "asymmetry_score"):
            value = getattr(single, name)
            bound = 16.0 * eps * max(1.0, abs(value))
            assert abs(getattr(report, name) - value) <= bound, (t, name)


def test_a_median_at_a_grid_tilt_solves_the_grids_medians_once(engine_calls):
    measure = tm.build_measure(tm.PerturbedCosine(0.5))
    tm.scan(measure, "symmetry", SCAN_GRID)
    engine_calls.clear()
    medians = [tm.tilt(measure, float(t)).median() for t in SCAN_GRID[::8]]
    assert (engine_calls["passes"], engine_calls["medians"]) == (0, 1)
    assert engine_calls["rows"] == 2 * len(medians)
    assert medians == tm.tilt_grid(measure, SCAN_GRID).median[::8].tolist()
    assert engine_calls["medians"] == 1


def test_a_signed_zero_reads_the_row_of_zero_and_nan_raises(engine_calls):
    measure = tm.build_measure(tm.PerturbedQuadratic(1.0))
    grid = tm.tilt_grid(measure, SCAN_GRID)
    kept = measure._tilt_state
    engine_calls.clear()
    report = tm.asymmetry_score(measure, -0.0)
    assert report.center == grid.mean[SCAN_GRID.size // 2]
    assert (engine_calls["passes"], engine_calls["rows"]) == (0, 1)
    for request in (tm.asymmetry_score, tm.log_partition, tm.median_gap, tm.tilt):
        with pytest.raises(ValueError, match="outside the working range"):
            request(measure, math.nan)
    with pytest.raises(ValueError, match="outside the working range"):
        tm.tilt_grid(measure, [math.nan])
    assert measure._tilt_state is kept


def test_a_one_tilt_request_reads_the_first_row_of_its_tilt(engine_calls):
    # a grid with a repeated tilt and both zeros: each one-tilt request reads
    # the first row equal to its tilt, as ``np.flatnonzero(ts == t)[0]`` would
    measure = tm.build_measure(tm.PerturbedCosine(0.5))
    grid = tm.tilt_grid(measure, [1.0, -0.0, 0.5, 1.0, 0.0, 0.5, -0.0])
    engine_calls.clear()
    for t in (1.0, 0.0, -0.0, 0.5):
        state, row = tm.tilting._tilt_state(measure, t)
        assert row == np.flatnonzero(state.ts == t)[0]
        assert tm.log_partition(measure, t) == grid.log_partition[row]
        assert tm.tilt(measure, t).median() == grid.median[row]
    assert engine_calls["passes"] == 0


def _pass_contents(state) -> dict:
    """A pass's attributes but its kept medians and sums at x = t, each array
    as its shape, bytes and writeable flag, each dict as a copy."""

    def content(value):
        if isinstance(value, np.ndarray):
            return value.shape, value.tobytes(), value.flags.writeable
        return dict(value) if isinstance(value, dict) else value

    return {
        name: content(value)
        for name, value in vars(state).items()
        if name not in ("_kept_medians", "_kept_at_t")
    }


@pytest.mark.parametrize("grid", [[0.5], [-2.0, -0.5, 0.5, 2.0]], ids=["one tilt", "grid"])
def test_a_kept_pass_changes_on_read_only_by_its_medians_and_sums_at_t(catalog, grid):
    reads = [
        lambda m: tm.tilt(m, 0.5).cdf(1.0),
        lambda m: tm.tilt(m, 0.5).median(),
        lambda m: tm.sign_kernel_residual(m, 0.5),
    ]
    if len(grid) > 1:
        # half-line sums at x = 0 in the grid's rows of the tilts -2 and 2
        reads.append(lambda m: tm.lipschitz_bound(m, 2.0))
    for measure in map(dataclasses.replace, catalog):
        state = tm.tilting._tilt_grid(measure, grid)
        names, contents = set(vars(state)), _pass_contents(state)
        for read in reads:
            read(measure)
            assert measure._tilt_state is state
            assert set(vars(state)) == names
            assert _pass_contents(state) == contents


def test_a_sequence_of_requests_gives_the_same_bits_on_a_fresh_measure():
    # a one-tilt read from a grid row may differ from a one-tilt pass by
    # rounding, so the contract is on the sequence: replayed on a fresh
    # measure, it gives the same bits
    def requests(measure):
        view = tm.tilt(measure, 1.5)
        got = [repr(tm.scan(measure, "sign_kernel", SCAN_GRID))]
        got += [view.mean(), view.median(), view.cdf(0.7), tm.half_line_mgf(measure, 1.5)]
        got += [tm.asymmetry_score(measure, float(t)) for t in SCAN_GRID[::6]]
        got += [tm.median_gap(measure, -2.0), tm.convolution_residual(measure, 0.0)]
        got += [tm.fit_quadratic_log_partition(measure, np.linspace(-4.0, 4.0, 21))]
        got += [tm.lipschitz_bound(measure, 2.0), tm.tilt(measure, -2.0).median()]
        got += [tm.monotonicity_check(measure, [-1.0, 0.0, 1.0]), view.cdf(0.7)]
        grid = tm.tilt_grid(measure, [-2.0])
        return got + [getattr(grid, field.name).tobytes() for field in dataclasses.fields(grid)]

    for spec in CATALOG_SPECS:
        assert requests(tm.build_measure(spec)) == requests(tm.build_measure(spec)), spec


def test_kept_rows_are_read_only():
    measure = tm.build_measure(tm.PerturbedQuadratic(1.0))
    ts = SCAN_GRID.copy()
    grid = tm.tilt_grid(measure, ts)
    # the pass took a copy of the caller's tilts
    ts[0] = 0.0
    for field in dataclasses.fields(grid):
        assert getattr(tm.tilt_grid(measure, SCAN_GRID), field.name) is getattr(grid, field.name)
    expected = tm.tilt_grid(tm.build_measure(tm.PerturbedQuadratic(1.0)), SCAN_GRID)
    for field in dataclasses.fields(grid):
        with pytest.raises(ValueError, match="read-only"):
            getattr(grid, field.name)[0] = 1.0
        with pytest.raises(ValueError, match="read-only"):
            getattr(grid, field.name)[...] *= 2.0
    for field in dataclasses.fields(grid):
        again = getattr(tm.tilt_grid(measure, SCAN_GRID), field.name)
        assert again.tobytes() == getattr(expected, field.name).tobytes(), field.name


def test_a_new_pass_is_formed_after_the_kept_one_is_released():
    # a kept grid pass of N(0, 20^2) holds its (4, tilts, panels + 1) table;
    # a scan on another grid drops it before forming its own, so two scans
    # peak no higher than one (holding both adds about 4.5 MB)
    measure = tm.build_measure(tm.Gaussian(0.0, 20.0))
    tracemalloc.start()
    try:
        tm.scan(measure, "median_gap", SCAN_GRID)
        kept, one = tracemalloc.get_traced_memory()
        tm.scan(measure, "median_gap", np.linspace(-5.5, 5.5, 97))
        two = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert kept >= 4 * SCAN_GRID.size * measure._tilt_state.edges.size * 8 * 0.9
    assert two <= one + 1e6


def test_tilt_grid_empty_and_out_of_range(std_gaussian):
    empty = tm.tilt_grid(std_gaussian, [])
    assert empty.log_partition.size == 0 and empty.median.size == 0
    grid = tm.tilt_grid(std_gaussian, [1.0, 2.0])
    assert np.all(np.abs(grid.mean - [1.0, 2.0]) <= 1e-12)
    # a grid names its first tilt out of range, or nan, as a one-tilt call does
    for t_grid, first in (
        ([0.0, 9.0], 9.0),
        ([0.0, 9.0, -9.5], 9.0),
        ([-9.5, 9.0], -9.5),
        ([1.0, math.nan, 9.0], math.nan),
        ([math.inf], math.inf),
    ):
        with pytest.raises(ValueError) as single:
            tm.log_partition(std_gaussian, first)
        with pytest.raises(ValueError) as grid:
            tm.tilt_grid(std_gaussian, t_grid)
        assert str(grid.value) == str(single.value), t_grid
        assert str(grid.value).startswith(f"tilt parameter {first!r} outside"), t_grid


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
    grid = tm.tilt_grid(measure, [0.0])
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
        edges = tm.tilting._TiltPass(measure, np.array([t])).edges
        halfwidth = measure.window_halfwidth(t)
        assert edges[0] <= -halfwidth and edges[-1] >= halfwidth, t
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
    assert np.array_equal(tm.lattice._node_table(measure)[0], _anchored_lattice(measure))
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
    panels = tm.lattice._node_table(measure)[0].size - 1
    assert panels <= _anchored_lattice(measure).size - 1 + tm.lattice._MAX_BISECTIONS
    # the true median is 0 to about 1e-16; the panels left carry the miss
    grid = tm.tilt_grid(measure, [0.0])
    assert abs(grid.median[0]) <= grid.median_error[0] <= 1e-6


@pytest.mark.parametrize(
    "call, argument",
    [
        (lambda m: tm.scan(m, "median_gap", [[0.0, 1.0]]), "t_grid"),
        (lambda m: tm.tilt_grid(m, np.zeros((2, 2))), "t_grid"),
        (lambda m: tm.fit_quadratic_log_partition(m, np.zeros((5, 2))), "t_grid"),
        (lambda m: tm.asymmetry_score(m, 0.5, [[0.1, 0.2], [0.3, 0.4]]), "offsets"),
    ],
    ids=["scan", "tilt_grid", "fit", "asymmetry_score"],
)
def test_grids_that_are_not_one_dimensional_are_named(std_gaussian, call, argument):
    with pytest.raises(ValueError, match=f"^{argument} must be a .*1-d sequence"):
        call(std_gaussian)


def test_log_partition_nonfinite_and_vanishing_integrands():
    def measure(log_g):
        return tm.BaseMeasure(spec=tm.Gaussian(0.0, 1.0), log_g=log_g)

    for bad in (math.nan, math.inf):
        with pytest.raises(tm.NonFiniteIntegrandError):
            tm.log_partition(measure(lambda x: np.where(x > 1.0, bad, 0.0)), 0.5)
    # a density ratio that is zero everywhere has log L = -inf, not an error
    assert tm.log_partition(measure(lambda x: np.full_like(x, -np.inf)), 0.5) == -math.inf
