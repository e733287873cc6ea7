"""Child-process entry points of the benchmark.

``python3 bench/launch.py probe [LITERAL ...]``
    Imports tiltmedian, builds each measure literal (CLI syntax, such as
    ``gaussian(0,1)``) and prints the monotonic clock. The parent subtracts
    the clock it read before starting the process, which gives the set-up
    time from process start.

``python3 bench/launch.py cli SPANS_JSON ARG ...``
    Imports tiltmedian and its CLI, wraps the public functions for tracing,
    runs ``tiltmedian.cli.main([ARG ...])`` and writes the spans as json.

Nothing is imported ahead of tiltmedian that a plain ``tiltmedian`` command
would not load itself.
"""

import sys
import time

FAMILIES = {
    "gaussian": "Gaussian",
    "perturbed_cosine": "PerturbedCosine",
    "perturbed_quadratic": "PerturbedQuadratic",
    "gaussian_mixture": "GaussianMixture",
}


def parse_literal(text: str) -> tuple[str, tuple[float, ...]]:
    """``gaussian(0,1)`` -> ("gaussian", (0.0, 1.0))."""
    family, _, rest = text.partition("(")
    return family, tuple(float(part) for part in rest.rstrip(")").split(","))


def probe(literals: list[str]) -> int:
    import tiltmedian

    for text in literals:
        family, params = parse_literal(text)
        tiltmedian.build_measure(getattr(tiltmedian, FAMILIES[family])(*params))
    print(repr(time.clock_gettime(time.CLOCK_MONOTONIC)))
    return 0


def traced_cli(spans_path: str, argv: list[str]) -> int:
    start = time.perf_counter()
    import tiltmedian.cli

    imported = time.perf_counter()
    import json

    import tracing

    tracer = tracing.Tracer()
    tracer.record("cli.import", start, imported)
    tracing.install(tracer)
    try:
        return tiltmedian.cli.main(argv)
    finally:
        with open(spans_path, "w", encoding="utf-8") as handle:
            json.dump(tracer.spans, handle)


if __name__ == "__main__":
    mode, rest = sys.argv[1], sys.argv[2:]
    if mode == "probe":
        raise SystemExit(probe(rest))
    if mode == "cli":
        raise SystemExit(traced_cli(rest[0], rest[1:]))
    raise SystemExit(f"unknown mode {mode!r}")
