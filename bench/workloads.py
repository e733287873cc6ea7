"""The three benchmark workloads: their operations and the checks on their outputs.

Each workload lists a fixed sequence of operations (one pass). An operation is
a zero-argument callable returning plain, comparable data; the runner times
it, and the workload's ``check`` compares the first pass's outputs with the
closed forms in ``reference`` (passed in by the runner, so that scipy is
loaded only after the timed passes).
"""

from __future__ import annotations

import functools
import json
import re
from pathlib import Path

import numpy as np

from launch import FAMILIES, parse_literal

CATALOG = (
    "gaussian(0,1)",
    "perturbed_cosine(0.5)",
    "perturbed_quadratic(1)",
    "gaussian_mixture(0.5,-1,0.5,1,1.5)",
)
DIAGNOSTICS = ("median_gap", "sign_kernel", "deriva", "mean_median")
# documented default of symmetry.default_offsets, used by asymmetry_score
ASYMMETRY_OFFSETS = np.geomspace(0.05, 6.0, 50)
# absolute tolerance, and whether it scales with max(1, |reference|)
TOLERANCE = {
    "median_gap": (1e-8, False),
    "mean_median": (1e-8, False),
    "sign_kernel": (1e-8, True),
    "deriva": (1e-8, True),
    "symmetry": (1e-8, True),
}
STANDARD_TOL = 1e-8
CHOQUET_HALFWIDTH = 60.0
CHOQUET_STEP = 0.01
CHOQUET_STEPS = 8
LIPSCHITZ_A = 2.0


class OperationFailed(Exception):
    """An operation the program did not complete (for the CLI: nonzero exit)."""


def literal(family: str, params) -> str:
    return f"{family}({','.join(repr(float(p)) for p in params)})"


def build(tm, text: str):
    family, params = parse_literal(text)
    return tm.build_measure(getattr(tm, FAMILIES[family])(*params))


class Expected:
    """Reference values for one measure literal, with medians cached per t."""

    def __init__(self, reference, text: str) -> None:
        self.R = reference
        self.family, self.params = parse_literal(text)
        self.law = reference.law(self.family, self.params)
        self.standard = (self.family, self.params) == ("gaussian", (0.0, 1.0))
        self._medians: dict[float, float] = {}

    def median(self, t: float) -> float:
        if t not in self._medians:
            self._medians[t] = self.R.median(self.law, t)
        return self._medians[t]

    def residual(self, diagnostic: str, t: float) -> float:
        if diagnostic == "median_gap":
            return self.median(t) - t
        if diagnostic == "mean_median":
            return self.median(t) - self.law.mean(t)
        if diagnostic == "sign_kernel":
            return self.R.sign_kernel(self.law, t)
        if diagnostic == "deriva":
            return self.R.convolution(self.law, t)
        if diagnostic == "symmetry":
            return self.R.asymmetry(self.law, t, ASYMMETRY_OFFSETS)
        raise ValueError(diagnostic)


def check_residuals(checker, diagnostic, where, exp, t_grid, residuals, summary=None):
    """Residuals against the reference; the summary against the residuals' maximum."""
    tol, scaled = TOLERANCE[diagnostic]
    for t, value in zip(t_grid, residuals):
        checker.near(diagnostic, value, exp.residual(diagnostic, t), tol, scaled,
                     f"{where} t={t!r}")
        if exp.standard:
            checker.holds("standard_normal.residual", abs(value) <= STANDARD_TOL,
                          f"{where} t={t!r}", f"|{value!r}| > {STANDARD_TOL}")
    if summary is not None:
        magnitudes = [abs(r) for r in residuals]
        top = int(np.argmax(magnitudes))
        checker.holds("report.summary_is_max",
                      summary == (magnitudes[top], t_grid[top]), where,
                      f"summary {summary!r} but max {(magnitudes[top], t_grid[top])!r}")


def check_choquet(checker, exp, where, oscillations, windows=None):
    """Oscillation never rises; closed forms for the cosine and quadratic ratios."""
    R = exp.R
    for k in range(1, len(oscillations)):
        before, after = oscillations[k - 1], oscillations[k]
        # slack at rounding level: an average of values cannot leave their range
        checker.holds("choquet.non_increasing", after <= before * (1 + 1e-12) + 1e-15,
                      f"{where} step={k + 1}", f"{after!r} > {before!r}")
    if exp.standard:
        for value in oscillations:
            checker.holds("standard_normal.residual", abs(value) <= STANDARD_TOL, where,
                          f"oscillation {value!r}")
    elif exp.family == "perturbed_cosine":
        for k in range(1, len(oscillations)):
            # below 1e-9 the ratio is dominated by rounding in max - min
            if oscillations[k - 1] >= 1e-9:
                checker.near("choquet.cosine_ratio", oscillations[k] / oscillations[k - 1],
                             R.COSINE_DECAY, 1e-4, False, f"{where} step={k + 1}")
    elif exp.family == "perturbed_quadratic":
        want = R.quadratic_oscillations(exp.params[0], len(oscillations), CHOQUET_HALFWIDTH,
                                        CHOQUET_STEP)
        for k, (got, ref) in enumerate(zip(oscillations, want)):
            checker.near("choquet.quadratic", got, ref, 1e-8, True, f"{where} step={k + 1}")
    if windows is not None:
        edges = R.choquet_windows(len(oscillations), CHOQUET_HALFWIDTH, CHOQUET_STEP)
        for k, ((lo, hi), edge) in enumerate(zip(windows, edges)):
            checker.near("choquet.window", lo, -edge, 1e-9, False, f"{where} step={k + 1}")
            checker.near("choquet.window", hi, edge, 1e-9, False, f"{where} step={k + 1}")


def check_lipschitz(checker, exp, where, bound):
    checker.near("lipschitz", bound, exp.R.lipschitz(exp.law, LIPSCHITZ_A), 1e-8, True, where)
    peak = exp.R.max_pdf(exp.law, LIPSCHITZ_A)
    checker.holds("lipschitz.above_max_pdf", bound >= peak, where, f"{bound!r} < {peak!r}")


class DenseScan:
    """Seven calls on each catalog measure: four scans, asymmetry, fit, Lipschitz."""

    name = "dense-scan"
    cli = False
    T_GRID = tuple(float(t) for t in np.linspace(-6.0, 6.0, 97))
    FIT_GRID = tuple(float(t) for t in np.linspace(-4.0, 4.0, 21))

    def __init__(self, seed: int, ctx) -> None:
        self.literals = CATALOG

    def setup_literals(self) -> list[str]:
        return list(self.literals)

    def prepare(self, tm) -> None:
        self.tm = tm
        self.measures = {text: build(tm, text) for text in self.literals}

    def operations(self):
        ops = []
        for text, m in self.measures.items():
            for diagnostic in DIAGNOSTICS:
                ops.append((f"scan.{diagnostic}:{text}",
                            functools.partial(self._scan, m, diagnostic)))
            ops.append((f"asymmetry:{text}", functools.partial(self._asymmetry, m)))
            ops.append((f"fit:{text}", functools.partial(self._fit, m)))
            ops.append((f"lipschitz:{text}",
                        functools.partial(self.tm.lipschitz_bound, m, LIPSCHITZ_A)))
        return ops

    def _scan(self, m, diagnostic):
        r = self.tm.scan(m, diagnostic, self.T_GRID)
        return r.t_grid, r.residuals, r.error_estimates, (r.max_abs_residual, r.argmax_t)

    def _asymmetry(self, m):
        reports = [self.tm.asymmetry_score(m, t) for t in self.T_GRID]
        return tuple((r.center, r.asymmetry_score) for r in reports)

    def _fit(self, m):
        f = self.tm.fit_quadratic_log_partition(m, self.FIT_GRID)
        return f.constant, f.linear, f.quadratic, f.max_residual

    def check(self, results, checker, reference) -> None:
        for text in self.literals:
            exp = Expected(reference, text)
            for diagnostic in DIAGNOSTICS:
                out = results.get(f"scan.{diagnostic}:{text}")
                if out is not None:
                    t_grid, residuals, _, summary = out
                    checker.holds("report.t_grid", t_grid == self.T_GRID, text)
                    check_residuals(checker, diagnostic, f"scan {diagnostic} {text}", exp,
                                    t_grid, residuals, summary)
            out = results.get(f"asymmetry:{text}")
            if out is not None:
                for t, (center, _) in zip(self.T_GRID, out):
                    checker.near("mean", center, exp.law.mean(t), 1e-8, False,
                                 f"asymmetry center {text} t={t!r}")
                check_residuals(checker, "symmetry", f"asymmetry {text}", exp, self.T_GRID,
                                [score for _, score in out])
            out = results.get(f"fit:{text}")
            if out is not None:
                coeffs, max_residual = reference.quadratic_fit(exp.law, self.FIT_GRID)
                for got, want in zip(out, coeffs + (max_residual,)):
                    checker.near("log_partition.fit", got, want, 1e-8, True, f"fit {text}")
                if exp.standard:
                    checker.holds("standard_normal.residual", abs(out[3]) <= STANDARD_TOL,
                                  f"fit {text}", f"max residual {out[3]!r}")
            out = results.get(f"lipschitz:{text}")
            if out is not None:
                check_lipschitz(checker, exp, f"lipschitz {text}", out)


class MeasureSweep:
    """Seeded measures from all four families; a few tilts each, then the Choquet trace."""

    name = "measure-sweep"
    cli = False
    COUNT = 48
    TILTS = (-3.0, -1.5, 0.0, 1.5, 3.0)

    def __init__(self, seed: int, ctx) -> None:
        self.literals = self.draw(seed, self.COUNT)

    @staticmethod
    def draw(seed: int, count: int) -> list[str]:
        """``count`` measures, the four families in turn, parameters uniform in their ranges."""
        rng = np.random.default_rng(seed)
        ranges = {
            "gaussian": ((-1, 1), (0.5, 1)),
            "perturbed_cosine": ((0, 1),),
            "perturbed_quadratic": ((0, 2),),
            "gaussian_mixture": ((0.2, 0.8), (-2, 0), (0.5, 1), (0, 2), (0.5, 1)),
        }
        families = list(ranges)
        out = []
        for i in range(count):
            family = families[i % len(families)]
            out.append(literal(family, [rng.uniform(lo, hi) for lo, hi in ranges[family]]))
        return out

    def setup_literals(self) -> list[str]:
        return list(self.literals)

    def prepare(self, tm) -> None:
        self.tm = tm

    def operations(self):
        return [(text, functools.partial(self._sweep, text)) for text in self.literals]

    def _sweep(self, text):
        tm = self.tm
        m = build(tm, text)
        rows = []
        for t in self.TILTS:
            view = tm.tilt(m, t)
            rows.append((view.log_partition, view.median(), view.mean(),
                         tm.sign_kernel_residual(m, t), tm.convolution_residual(m, t)))
        points = round(2 * CHOQUET_HALFWIDTH / CHOQUET_STEP) + 1
        grid = tm.sample_to_grid(m, -CHOQUET_HALFWIDTH, CHOQUET_HALFWIDTH, points)
        trace = tm.iterate_fixed_point(grid, CHOQUET_STEPS, tm.ConvolutionSetup(step=CHOQUET_STEP))
        final = trace.final_iterate
        window = (final.x_min + final.step * final.window_lo,
                  final.x_min + final.step * final.window_hi)
        return tuple(rows), trace.oscillations, window

    def check(self, results, checker, reference) -> None:
        R = reference
        edge = R.choquet_windows(CHOQUET_STEPS, CHOQUET_HALFWIDTH, CHOQUET_STEP)[-1]
        for text in self.literals:
            out = results.get(text)
            if out is None:
                continue
            exp = Expected(reference, text)
            rows, oscillations, window = out
            for t, (log_l, median, mean, sign, conv) in zip(self.TILTS, rows):
                where = f"{text} t={t!r}"
                checker.near("log_partition", log_l, exp.law.log_L(t), 1e-8, False, where)
                checker.near("median_gap", median - t, exp.median(t) - t, 1e-8, False, where)
                checker.near("mean", mean, exp.law.mean(t), 1e-8, False, where)
                checker.near("sign_kernel", sign, R.sign_kernel(exp.law, t), 1e-8, True, where)
                checker.near("deriva", conv, R.convolution(exp.law, t), 1e-8, True, where)
            check_choquet(checker, exp, text, oscillations)
            checker.near("choquet.window", window[0], -edge, 1e-9, False, text)
            checker.near("choquet.window", window[1], edge, 1e-9, False, text)


_SUMMARY = re.compile(r"^max\|residual\| = (\S+) at t = (\S+)$")
CSV_HEADERS = {
    "scan": "t,residual,error_estimate",
    "choquet-iterate": "step,oscillation,window_lo,window_hi",
    "lipschitz": "halfwidth,bound",
}
SCAN_COMMANDS = {
    "median-gap": "median_gap",
    "sign-kernel": "sign_kernel",
    "deriva": "deriva",
    "mean-median": "mean_median",
    "symmetry-sweep": "symmetry",
}
REPORT_KEYS = {"name", "t_grid", "residuals", "error_estimates", "summary"}


class CliSession:
    """The eight subcommands at default settings on the catalog, one process each."""

    name = "cli-session"
    cli = True
    COMMANDS = tuple(SCAN_COMMANDS) + ("choquet-iterate", "lipschitz", "full-report")
    # choquet-iterate overflows g for a component with sigma > 1 (see the README)
    SKIPPED = {("choquet-iterate", "gaussian_mixture(0.5,-1,0.5,1,1.5)")}
    T_GRID = tuple(float(t) for t in np.linspace(-6.0, 6.0, 49))

    def __init__(self, seed: int, ctx) -> None:
        self.ctx = ctx

    def setup_literals(self) -> list[str]:
        return []

    def prepare(self, tm) -> None:
        pass

    def operations(self):
        reports = self.ctx.out_dir / "reports"
        reports.mkdir(exist_ok=True)
        ops = []
        for index, text in enumerate(CATALOG):
            for command in self.COMMANDS:
                if (command, text) in self.SKIPPED:
                    continue
                suffix = "json" if command == "full-report" else "csv"
                out = reports / f"{command}-{index}.{suffix}"
                argv = [command, "--measure", text, "--out", str(out)]
                if command == "full-report":
                    argv += ["--format", "json"]
                ops.append((f"{command}:{text}", functools.partial(self._run, argv, out)))
        return ops

    def _run(self, argv, out: Path):
        out.unlink(missing_ok=True)
        proc = self.ctx.run_cli(argv)
        if proc.returncode != 0:
            raise OperationFailed(f"exit {proc.returncode}: {proc.stderr.strip()}")
        return proc.stdout, out.read_bytes()

    def check(self, results, checker, reference) -> None:
        for key, (stdout, data) in results.items():
            command, text = key.split(":", 1)
            exp = Expected(reference, text)
            where = f"{command} {text}"
            match = _SUMMARY.match(stdout.strip())
            checker.holds("report.summary_line", match is not None, where, repr(stdout))
            summary = (float(match.group(1)), float(match.group(2))) if match else None
            try:
                if command == "full-report":
                    self._check_full_report(checker, exp, where, json.loads(data), summary)
                else:
                    rows = self._parse_csv(checker, command, where, data.decode())
                    self._check_csv(checker, command, exp, where, rows, summary)
            except (ValueError, KeyError, TypeError, IndexError) as exc:
                checker.holds("report.parses", False, where, f"{type(exc).__name__}: {exc}")
            else:
                checker.holds("report.parses", True, where)

    @staticmethod
    def _parse_csv(checker, command, where, text):
        lines = text.splitlines()
        header = CSV_HEADERS.get(command, CSV_HEADERS["scan"])
        checker.holds("report.schema", lines[0] == header, where, f"header {lines[0]!r}")
        rows = [[float(v) for v in line.split(",")] for line in lines[1:]]
        width = len(header.split(","))
        checker.holds("report.schema", all(len(r) == width for r in rows), where, "row width")
        return rows

    def _check_csv(self, checker, command, exp, where, rows, summary):
        if command in SCAN_COMMANDS:
            t_grid = tuple(r[0] for r in rows)
            checker.holds("report.t_grid", t_grid == self.T_GRID, where)
            check_residuals(checker, SCAN_COMMANDS[command], where, exp, t_grid,
                            [r[1] for r in rows], summary)
        elif command == "choquet-iterate":
            checker.holds("report.schema", [int(r[0]) for r in rows]
                          == list(range(1, CHOQUET_STEPS + 1)), where, "step column")
            oscillations = [r[1] for r in rows]
            check_choquet(checker, exp, where, oscillations, [(r[2], r[3]) for r in rows])
            checker.holds("report.summary_is_max",
                          summary == (oscillations[-1], float(CHOQUET_STEPS)), where,
                          f"summary {summary!r}")
        elif command == "lipschitz":
            (halfwidth, bound), = rows
            checker.holds("report.schema", halfwidth == LIPSCHITZ_A, where, f"{halfwidth!r}")
            check_lipschitz(checker, exp, where, bound)
            checker.holds("report.summary_is_max", summary == (bound, LIPSCHITZ_A), where,
                          f"summary {summary!r}")

    def _check_full_report(self, checker, exp, where, doc, summary):
        checker.holds("report.schema", set(doc) == set(DIAGNOSTICS), where, f"keys {sorted(doc)}")
        best = None
        for diagnostic in sorted(DIAGNOSTICS):
            part = doc[diagnostic]
            ok = (set(part) == REPORT_KEYS and part["name"] == diagnostic
                  and set(part["summary"]) == {"max_abs_residual", "argmax_t"}
                  and len(part["residuals"]) == len(part["error_estimates"]) == len(self.T_GRID))
            checker.holds("report.schema", ok, f"{where} {diagnostic}")
            t_grid = tuple(part["t_grid"])
            checker.holds("report.t_grid", t_grid == self.T_GRID, f"{where} {diagnostic}")
            own = (part["summary"]["max_abs_residual"], part["summary"]["argmax_t"])
            check_residuals(checker, diagnostic, f"{where} {diagnostic}", exp, t_grid,
                            part["residuals"], own)
            if best is None or own[0] > best[0]:
                best = own
        checker.holds("report.summary_is_max", summary == best, where,
                      f"summary {summary!r} but max {best!r}")


WORKLOADS = {w.name: w for w in (DenseScan, CliSession, MeasureSweep)}
