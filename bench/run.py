"""Benchmark of tiltmedian: three workloads, end-to-end and per-layer metrics.

Run from the repository root::

    python3 bench/run.py --workload dense-scan --seed 1 --seconds 30 --trace 0

The package is imported from ``src/`` of the checkout this file sits in. One
run measures set-up (several cold interpreter starts), then repeats whole
passes over the workload's operations until ``--seconds`` have elapsed, checks
the first pass's outputs against closed forms and every later pass against
the first, and prints the metrics. ``--trace 1`` wraps tiltmedian's public
functions and reports per-layer numbers for one pass instead of the
end-to-end ones. The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``. A failed check makes the
exit code 1.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
sys.path.insert(0, str(BENCH))
# One BLAS thread here and in every child: tiltmedian does no threaded BLAS work,
# and an idle helper thread's start-up spin adds CPU time per process that
# comes and goes with the load on the shared host (see the README).
os.environ["OPENBLAS_NUM_THREADS"] = "1"

from checks import Checker  # noqa: E402
from tracing import Tracer, install, layer_totals  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SETUP_PROBES = 6
CHILD_TIMEOUT_S = 120


def metric_units(kind: str) -> dict[str, str]:
    """Metric names and units of ``end_to_end`` or ``per_layer`` in BENCHMARK.json."""
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        return {m["name"]: m["unit"] for m in json.load(handle)[kind]}


class Context:
    """What a workload needs from the run: its output directory and the CLI launcher."""

    def __init__(self, out_dir: Path, tracer: Tracer | None) -> None:
        self.out_dir = out_dir
        self.tracer = tracer
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            [str(SRC)] + ([self.env["PYTHONPATH"]] if self.env.get("PYTHONPATH") else []))

    def run_cli(self, argv: list[str]) -> subprocess.CompletedProcess:
        """One ``tiltmedian`` command in a fresh interpreter; traced through the launcher."""
        if self.tracer is None:
            command = [sys.executable, "-m", "tiltmedian.cli", *argv]
        else:
            spans_path = self.out_dir / "child-spans.json"
            command = [sys.executable, str(BENCH / "launch.py"), "cli", str(spans_path), *argv]
        proc = subprocess.run(command, cwd=ROOT, env=self.env, capture_output=True, text=True,
                              timeout=CHILD_TIMEOUT_S)
        if self.tracer is not None and spans_path.exists():
            self._merge(json.loads(spans_path.read_text(encoding="utf-8")))
            spans_path.unlink()
        return proc

    def _merge(self, spans: list) -> None:
        base = len(self.tracer.spans)
        for _, name, parent, start, end, extra in spans:
            self.tracer.spans.append([self.tracer.op, name, parent + base if parent >= 0 else -1,
                                      start, end, extra])

    def setup_sample(self, literals: list[str]) -> float:
        """One cold start: process start until tiltmedian is imported and the measures built."""
        start = time.clock_gettime(time.CLOCK_MONOTONIC)
        proc = subprocess.run([sys.executable, str(BENCH / "launch.py"), "probe", *literals],
                              cwd=ROOT, env=self.env, capture_output=True, text=True,
                              timeout=CHILD_TIMEOUT_S, check=True)
        return float(proc.stdout.strip().splitlines()[-1]) - start


def cpu_seconds() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF)
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + children.ru_utime + children.ru_stime


class Passes:
    """Timings of whole passes, per operation, and the first pass's outputs."""

    def __init__(self, ops_per_pass: int) -> None:
        self.walls: list[float] = []
        self.op_walls: list[list[float]] = [[] for _ in range(ops_per_pass)]
        self.op_cpus: list[list[float]] = [[] for _ in range(ops_per_pass)]
        self.first: dict[str, object] = {}
        self.attempted = 0
        self.failed = 0

    @staticmethod
    def one_pass(per_op: list[list[float]]) -> float:
        """One pass as the sum over its operations of each one's fastest time in the run.

        On a shared host the same code runs up to about 40% faster for
        stretches of seconds; the fastest repetition of each operation is the
        time without that interference and varies several times less between
        runs than a median does (see the README).
        """
        return math.fsum(min(samples) for samples in per_op if samples)

    @staticmethod
    def median_op(per_op: list[list[float]]) -> float:
        """Median over the pass's operations of each one's fastest time in the run."""
        return statistics.median(min(samples) for samples in per_op if samples)


def run_passes(ops, seconds: float, tracer: Tracer | None, checker: Checker) -> Passes:
    """Whole passes until ``seconds`` have elapsed."""
    passes = Passes(len(ops))
    started = time.perf_counter()
    while True:
        pass_no = len(passes.walls)
        wall0 = time.perf_counter()
        for index, (label, fn) in enumerate(ops):
            if tracer is not None:
                tracer.op = pass_no * len(ops) + index
            cpu0, t0 = cpu_seconds(), time.perf_counter()
            try:
                result = fn()
            except Exception as exc:  # an operation of the program failed: count it, go on
                result = None
                passes.failed += 1
                if pass_no == 0:
                    print(f"operation {label} failed: {type(exc).__name__}: {exc}")
                    traceback.print_exc(limit=3, file=sys.stderr)
            passes.op_walls[index].append(time.perf_counter() - t0)
            passes.op_cpus[index].append(cpu_seconds() - cpu0)
            passes.attempted += 1
            if pass_no == 0:
                if result is not None:
                    passes.first[label] = result
            elif result is not None:
                checker.holds("repeatable_between_passes", result == passes.first.get(label),
                              label, f"pass {pass_no + 1} differs from pass 1")
        passes.walls.append(time.perf_counter() - wall0)
        if time.perf_counter() - started >= seconds:
            return passes


def layer_metrics(tracer: Tracer, passes: int, ops_per_pass: int, cli: bool, first) -> dict:
    scope = (lambda op: op) if cli else (lambda op: op // ops_per_pass)
    totals = layer_totals(tracer.spans, scope)
    metrics = {}
    for name, unit in metric_units("per_layer").items():
        if name == "tilting.median.per_point":
            points = totals.get("tilting.median.points", 0)
            value = totals.get("tilting.median.calls", 0) / points if points else 0.0
        elif name == "cli.import_s":
            value = totals.get("cli.import.s", 0.0) / passes
        elif name == "cli.report_bytes":
            value = sum(len(data) for _, data in first.values()) if cli else 0
        else:
            value = totals.get(name, 0) / passes
        metrics[name] = {"value": value, "unit": unit}
    return metrics


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "tiltmedian" / "__init__.py").is_file():
        print(f"error: no tiltmedian sources under {SRC}", file=sys.stderr)
        return 2
    out_dir = BENCH / "out" / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(out_dir, ignore_errors=True)
    out_dir.mkdir(parents=True)

    tracer = Tracer() if args.trace else None
    ctx = Context(out_dir, tracer)
    workload = WORKLOADS[args.workload](args.seed, ctx)
    setup = []
    if not args.trace:
        ctx.setup_sample(workload.setup_literals())  # also writes bytecode caches
        setup += [ctx.setup_sample(workload.setup_literals()) for _ in range(SETUP_PROBES // 2)]

    sys.path.insert(0, str(SRC))
    import tiltmedian

    if not Path(tiltmedian.__file__).resolve().is_relative_to(SRC):
        print(f"error: imported tiltmedian from {tiltmedian.__file__}", file=sys.stderr)
        return 2
    workload.prepare(tiltmedian)
    if tracer is not None and not workload.cli:
        install(tracer)
    ops = workload.operations()
    checker = Checker()
    passes = run_passes(ops, args.seconds, tracer, checker)
    if not args.trace:
        # half the cold starts after the passes, so they sample the machine at two moments
        setup += [ctx.setup_sample(workload.setup_literals())
                  for _ in range(SETUP_PROBES - len(setup))]
    who = resource.RUSAGE_CHILDREN if workload.cli else resource.RUSAGE_SELF
    peak_rss_mb = resource.getrusage(who).ru_maxrss / 1024.0

    import reference

    workload.check(passes.first, checker, reference)

    wall_s = Passes.one_pass(passes.op_walls)
    if tracer is None:
        values = {"setup_s": statistics.median(setup), "wall_s": wall_s,
                  "cpu_s": Passes.one_pass(passes.op_cpus),
                  "op_p50_s": Passes.median_op(passes.op_walls),
                  "peak_rss_mb": peak_rss_mb}
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in metric_units("end_to_end").items()}
    else:
        metrics = layer_metrics(tracer, len(passes.walls), len(ops), workload.cli, passes.first)
        tracer.write(str(out_dir / "trace.csv.gz"))
        print(f"traced wall_s = {wall_s!r} s (subtract the untraced wall_s for the "
              "tracing overhead)")

    print(f"workload {args.workload}: seed {args.seed}, {len(passes.walls)} passes of "
          f"{len(ops)} operations; whole-pass wall times "
          + ", ".join(f"{w:.3f}" for w in passes.walls) + " s")
    print(f"operations attempted {passes.attempted}, failed {passes.failed}")
    for line in checker.lines():
        print(line)
    for name, metric in metrics.items():
        print(f"metric {name} = {metric['value']!r} {metric['unit']}")
    result = {"correct": checker.ok, "attempted": passes.attempted, "failed": passes.failed,
              "metrics": metrics}
    (out_dir / "result.json").write_text(json.dumps(result, indent=1) + "\n", encoding="utf-8")
    print(json.dumps(result))
    return 0 if checker.ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
