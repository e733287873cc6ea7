from __future__ import annotations

import collections

import numpy as np
import pytest

import tiltmedian as tm


@pytest.fixture(scope="session")
def std_gaussian() -> tm.BaseMeasure:
    return tm.build_measure(tm.Gaussian(0.0, 1.0))


@pytest.fixture(scope="session")
def cosine_half() -> tm.BaseMeasure:
    return tm.build_measure(tm.PerturbedCosine(0.5))


@pytest.fixture(scope="session")
def quadratic_one() -> tm.BaseMeasure:
    return tm.build_measure(tm.PerturbedQuadratic(1.0))


@pytest.fixture(scope="session")
def symmetric_mixture() -> tm.BaseMeasure:
    return tm.build_measure(tm.GaussianMixture(0.5, -1.0, 1.0, 1.0, 1.0))


@pytest.fixture(scope="session")
def catalog(std_gaussian, cosine_half, quadratic_one, symmetric_mixture):
    """One representative per closed-form family."""
    return (std_gaussian, cosine_half, quadratic_one, symmetric_mixture)


@pytest.fixture
def engine_calls(monkeypatch) -> collections.Counter:
    """Counts, from every module that calls the engine: engine panel passes
    (``"passes"``: ``_TiltPass`` constructions), grid calls (``"tilt_grid"``:
    ``tilt_grid`` on other than one tilt, and the scans' and fits' private
    ``_tilt_grid``; a one-tilt ``tilt_grid`` is a one-tilt request),
    partial-panel evaluations (``"partials"``: ``_TiltPass._partial`` calls,
    each one partial panel per row, for a half-line sum or a Newton step),
    half-line sums that include x = t (``"at_t"``: ``_TiltPass.half_line``
    calls where some x is its row's t), median solves (``"medians"``:
    ``_TiltPass._medians`` calls), node-table builds (``"node_tables"``:
    ``lattice._node_table`` calls that find no table kept on the measure)
    and one-tilt requests answered by a row of a kept pass over more than
    one tilt (``"rows"``: ``_tilt_state`` calls that return such a pass).
    A pass forms its running tables in its constructor, so ``"passes"``
    counts those too."""
    calls: collections.Counter = collections.Counter()
    tilt_pass = tm.tilting._TiltPass
    engine = tm.tilting._tilt_grid
    state_at = tm.tilting._tilt_state
    node_table = tm.lattice._node_table

    class CountingPass(tilt_pass):
        def __init__(self, *args, **kwargs) -> None:
            calls["passes"] += 1
            super().__init__(*args, **kwargs)

        def _partial(self, *args):
            calls["partials"] += 1
            return super()._partial(*args)

        def _medians(self, *args):
            calls["medians"] += 1
            return super()._medians(*args)

        def half_line(self, x, rows):
            if np.any(np.asarray(x) == self.ts[rows]):
                calls["at_t"] += 1
            return super().half_line(x, rows)

    def counting_engine(*args, **kwargs):
        calls["tilt_grid"] += 1
        return engine(*args, **kwargs)

    def counting_state(*args):
        state, row = state_at(*args)
        if state.ts.size > 1:
            calls["rows"] += 1
        return state, row

    def counting_table(measure):
        if measure._node_table is None:
            calls["node_tables"] += 1
        return node_table(measure)

    monkeypatch.setattr(tm.tilting, "_TiltPass", CountingPass)
    for module in (tm.lattice, tm.tilting):
        monkeypatch.setattr(module, "_node_table", counting_table)
    for module in (tm.tilting, tm.medianlaw, tm.symmetry):
        if getattr(module, "_tilt_grid", None) is engine:
            monkeypatch.setattr(module, "_tilt_grid", counting_engine)
        if getattr(module, "_tilt_state", None) is state_at:
            monkeypatch.setattr(module, "_tilt_state", counting_state)
    return calls
