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
    (``"passes"``: ``_TiltChunk`` constructions), ``"tilt_grid"`` calls,
    partial-panel evaluations (``"partials"``: ``_TiltChunk._partial`` calls,
    each one partial panel per row, for a half-line sum or a Newton step),
    half-line sums that include x = t (``"at_t"``: ``_TiltChunk.half_line``
    calls where some x is its row's t) and node-table builds (``"node_tables"``)."""
    calls: collections.Counter = collections.Counter()
    chunk = tm.tilting._TiltChunk
    engine = tm.tilting.tilt_grid
    build_node_table = tm.tilting._build_node_table

    class CountingChunk(chunk):
        def __init__(self, *args) -> None:
            calls["passes"] += 1
            super().__init__(*args)

        def _partial(self, *args):
            calls["partials"] += 1
            return super()._partial(*args)

        def half_line(self, log_pdf, rows, x):
            if np.any(np.asarray(x) == self.ts[rows]):
                calls["at_t"] += 1
            return super().half_line(log_pdf, rows, x)

    def counting_engine(*args, **kwargs):
        calls["tilt_grid"] += 1
        return engine(*args, **kwargs)

    def counting_build(*args):
        calls["node_tables"] += 1
        return build_node_table(*args)

    monkeypatch.setattr(tm.tilting, "_TiltChunk", CountingChunk)
    monkeypatch.setattr(tm.tilting, "_build_node_table", counting_build)
    for module in (tm, tm.tilting, tm.medianlaw, tm.symmetry):
        if getattr(module, "tilt_grid", None) is engine:
            monkeypatch.setattr(module, "tilt_grid", counting_engine)
    return calls
