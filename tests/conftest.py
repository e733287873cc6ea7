from __future__ import annotations

import collections

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
    """Counts engine panel passes (``"passes"``: ``_TiltChunk`` constructions)
    and ``"tilt_grid"`` calls, from every module that calls the engine."""
    calls: collections.Counter = collections.Counter()
    chunk = tm.tilting._TiltChunk
    engine = tm.tilting.tilt_grid

    class CountingChunk(chunk):
        def __init__(self, *args) -> None:
            calls["passes"] += 1
            super().__init__(*args)

    def counting_engine(*args, **kwargs):
        calls["tilt_grid"] += 1
        return engine(*args, **kwargs)

    monkeypatch.setattr(tm.tilting, "_TiltChunk", CountingChunk)
    for module in (tm, tm.tilting, tm.medianlaw, tm.symmetry):
        if getattr(module, "tilt_grid", None) is engine:
            monkeypatch.setattr(module, "tilt_grid", counting_engine)
    return calls
