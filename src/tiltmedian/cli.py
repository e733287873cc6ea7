"""Command-line front end producing machine-readable diagnostic reports.

Usage::

    tiltmedian median-gap --measure 'gaussian(0,1)' --out report.csv
    tiltmedian choquet-iterate --measure 'perturbed_cosine(0.5)' --steps 8 \
        --out trace.csv
    tiltmedian full-report --measure 'perturbed_quadratic(1)' --out all.json

Commands: median-gap, sign-kernel, deriva, mean-median, symmetry-sweep,
choquet-iterate, lipschitz, full-report.  Options may also be supplied via
``--config file.json``; explicit flags win over file values.  Each option is
defined once, in ``_OPTIONS``: its flag and the commands that take it
(``--steps`` only choquet-iterate, ``--halfwidth`` only lipschitz), its
config-file key and json type, and its ``ExperimentConfig`` field.  Every run
writes one report file (csv by default, or json; ``full-report`` writes json
only; floats serialized with 17 significant digits so identical runs are
byte-identical; json writes nan and infinity as null) and prints a one-line
summary ``max|residual| = <value> at t = <value>`` on stdout.

Exit codes: 0 success, 2 configuration problem (a non-finite t range
included), 3 measure construction failure (a truncation window past the
float64 range included), 4 output write failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import re
import sys
from dataclasses import dataclass
from typing import Any

import numpy as np

from .convolution import ConvolutionSetup, iterate_fixed_point
from .measures import (
    MEASURE_FAMILIES,
    MeasureError,
    MeasureSpec,
    build_measure,
    sample_to_grid,
)
from .medianlaw import DiagnosticReport, lipschitz_bound, scan

__all__ = ["ConfigError", "ExperimentConfig", "main", "parse_measure", "run"]

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_MEASURE = 3
EXIT_IO = 4

SCAN_COMMANDS = {
    "median-gap": "median_gap",
    "sign-kernel": "sign_kernel",
    "deriva": "deriva",
    "mean-median": "mean_median",
    "symmetry-sweep": "symmetry",
}
COMMANDS = tuple(SCAN_COMMANDS) + ("choquet-iterate", "lipschitz", "full-report")
# the residuals of the median property, one full-report key each
FULL_REPORT_DIAGNOSTICS = ("deriva", "mean_median", "median_gap", "sign_kernel")

_CHOQUET_X_HALFWIDTH = 60.0
_CHOQUET_STEP = 0.01

# every option: config key (also the argparse dest) -> (ExperimentConfig
# field, type, the one command whose flag it is or None for every command,
# further argparse keywords)
_OPTIONS = {
    "measure": ("measure", str, None, {"help": "measure literal, e.g. 'gaussian(0,1)'"}),
    "t_min": ("t_min", float, None, {}),
    "t_max": ("t_max", float, None, {}),
    "t_points": ("t_points", int, None, {}),
    "out": ("output_path", str, None, {"help": "report file path"}),
    "format": ("output_format", str, None, {"choices": ("csv", "json")}),
    "steps": ("steps", int, "choquet-iterate", {}),
    "halfwidth": ("halfwidth", float, "lipschitz", {}),
}
# the json values a config key of each flag type takes (never a json bool)
_JSON_TYPES = {int: ("integer", int), float: ("number", (int, float)), str: ("string", str)}


class ConfigError(Exception):
    """Malformed command line, config file, or option combination."""


@dataclass(frozen=True)
class ExperimentConfig:
    measure: MeasureSpec
    command: str
    output_path: str
    t_min: float = -6.0
    t_max: float = 6.0
    t_points: int = 49
    output_format: str | None = None  # csv, or json for full-report
    steps: int = 8
    halfwidth: float = 2.0

    def __post_init__(self) -> None:
        if self.command not in COMMANDS:
            raise ConfigError(f"unknown command {self.command!r}")
        if self.output_format is None:
            default = "json" if self.command == "full-report" else "csv"
            object.__setattr__(self, "output_format", default)
        if self.output_format not in ("csv", "json"):
            raise ConfigError(f"format must be csv or json, got {self.output_format!r}")
        if self.command == "full-report" and self.output_format != "json":
            raise ConfigError("full-report emits a single json document; use --format json")
        if self.t_points < 1:
            raise ConfigError("t_points must be at least 1")
        # an infinite bound would reach np.linspace, which forms nan tilts from it
        for name, value in (("t_min", self.t_min), ("t_max", self.t_max)):
            if not math.isfinite(value):
                raise ConfigError(f"{name} must be finite, got {value!r}")
        if self.t_points == 1:
            if self.t_min > self.t_max:
                raise ConfigError("t_min must not exceed t_max")
        elif not self.t_min < self.t_max:
            raise ConfigError("t_min must be less than t_max for multi-point grids")
        if self.steps < 1:
            raise ConfigError("steps must be at least 1")
        if not self.halfwidth > 0:
            raise ConfigError("halfwidth must be positive")

    def t_grid(self) -> np.ndarray:
        return np.linspace(self.t_min, self.t_max, self.t_points)


_MEASURE_RE = re.compile(r"^\s*([a-z_]+)\s*\((.*)\)\s*$")


def parse_measure(text: str) -> MeasureSpec:
    """Parse a measure literal such as ``gaussian(0,1)`` or ``tabulated(g.txt)``."""
    match = _MEASURE_RE.match(text)
    if match is None:
        raise ConfigError(
            f"cannot parse measure {text!r}; expected name(arg, ...) such as gaussian(0,1)"
        )
    name, raw_args = match.group(1), match.group(2).strip()
    families = {family.literal: family for family in MEASURE_FAMILIES}
    if name not in families:
        raise ConfigError(f"unknown measure family {name!r}")
    family = families[name]
    fields = dataclasses.fields(family)
    if not raw_args:
        args = []
    elif [field.type for field in fields] == ["str"]:
        # a lone text argument (a file path) is taken whole, commas included
        args = [raw_args]
    else:
        try:
            args = [float(part) for part in raw_args.split(",")]
        except ValueError as exc:
            raise ConfigError(f"bad numeric argument in measure {text!r}: {exc}") from exc
    if len(args) != len(fields):
        raise ConfigError(f"{name} takes {len(fields)} arguments, got {len(args)}")
    try:
        return family(*args)
    except ValueError as exc:
        raise ConfigError(f"invalid measure {text!r}: {exc}") from exc


def _format_float(x: float) -> str:
    return format(float(x), ".17g")


def _to_json(obj: Any) -> str:
    """Serialize with sorted keys and 17-significant-digit floats, non-finite ones as null."""
    if isinstance(obj, dict):
        items = ", ".join(
            f"{json.dumps(str(key))}: {_to_json(value)}" for key, value in sorted(obj.items())
        )
        return "{" + items + "}"
    if isinstance(obj, (list, tuple)):
        return "[" + ", ".join(_to_json(item) for item in obj) + "]"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        # json has no nan or infinity: those are written as null
        return _format_float(obj) if math.isfinite(obj) else "null"
    if isinstance(obj, str):
        return json.dumps(obj)
    raise TypeError(f"cannot serialize {type(obj)!r}")


def _report_payload(report: DiagnosticReport) -> dict[str, Any]:
    return {
        "name": report.name,
        "t_grid": list(report.t_grid),
        "residuals": list(report.residuals),
        "error_estimates": list(report.error_estimates),
        "summary": {
            "max_abs_residual": report.max_abs_residual,
            "argmax_t": report.argmax_t,
        },
    }


def _csv(header: tuple[str, ...], rows) -> str:
    """A header line, then one line per row, every value written by ``_format_float``."""
    lines = [",".join(header)]
    lines.extend(",".join(_format_float(value) for value in row) for row in rows)
    return "\n".join(lines) + "\n"


def _report_csv(report: DiagnosticReport) -> str:
    rows = zip(report.t_grid, report.residuals, report.error_estimates)
    return _csv(("t", "residual", "error_estimate"), rows)


def run(config: ExperimentConfig) -> int:
    """Execute one experiment, write its report, print the summary line."""
    measure = build_measure(config.measure)
    csv = None  # full-report is json only

    if config.command in SCAN_COMMANDS:
        report = scan(measure, SCAN_COMMANDS[config.command], config.t_grid())
        payload, csv = _report_payload(report), _report_csv(report)
        summary = (report.max_abs_residual, report.argmax_t)
    elif config.command == "full-report":
        # the four scans read one kept pass of the measure
        t_grid = config.t_grid()
        reports = [scan(measure, which, t_grid) for which in FULL_REPORT_DIAGNOSTICS]
        payload = {report.name: _report_payload(report) for report in reports}
        # the first report with the largest residual; a nan never wins
        best, summary = -1.0, (0.0, 0.0)
        for report in reports:
            if report.max_abs_residual > best:
                best = report.max_abs_residual
                summary = (best, report.argmax_t)
    elif config.command == "choquet-iterate":
        points = round(2 * _CHOQUET_X_HALFWIDTH / _CHOQUET_STEP) + 1
        grid = sample_to_grid(measure, -_CHOQUET_X_HALFWIDTH, _CHOQUET_X_HALFWIDTH, points)
        trace = iterate_fixed_point(grid, config.steps, ConvolutionSetup(step=_CHOQUET_STEP))
        header = ("step", "oscillation", "window_lo", "window_hi")
        rows = [
            (step, osc, grid.x_min + grid.step * lo, grid.x_min + grid.step * hi)
            for step, (osc, (lo, hi)) in enumerate(zip(trace.oscillations, trace.windows), 1)
        ]
        payload = {
            "trace": [dict(zip(header, row)) for row in rows],
            "window_shrink_per_step": trace.window_shrink_per_step,
        }
        csv = _csv(header, rows)
        summary = (trace.oscillations[-1], float(config.steps))
    elif config.command == "lipschitz":
        bound = lipschitz_bound(measure, config.halfwidth)
        payload = {"halfwidth": config.halfwidth, "bound": bound}
        csv = _csv(("halfwidth", "bound"), [(config.halfwidth, bound)])
        summary = (bound, config.halfwidth)
    else:  # pragma: no cover - guarded by ExperimentConfig
        raise ConfigError(f"unknown command {config.command!r}")

    text = _to_json(payload) + "\n" if config.output_format == "json" else csv
    with open(config.output_path, "w", encoding="utf-8", newline="\n") as handle:
        handle.write(text)
    print(f"max|residual| = {_format_float(summary[0])} at t = {_format_float(summary[1])}")
    return EXIT_OK


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tiltmedian",
        description="Diagnostics for exponential tilting of real probability measures.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        cmd = sub.add_parser(name)
        for key, (_, kind, only, keywords) in _OPTIONS.items():
            if only in (None, name):
                cmd.add_argument("--" + key.replace("_", "-"), type=kind, **keywords)
        cmd.add_argument("--config", help="json file with default option values")
    return parser


def _load_config_file(path: str) -> dict[str, Any]:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            data = json.load(handle)
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"malformed config file {path}: {exc}") from exc
    if not isinstance(data, dict):
        raise ConfigError(f"config file {path} must hold a json object")
    unknown = set(data) - set(_OPTIONS)
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")
    for key, value in data.items():
        name, accepted = _JSON_TYPES[_OPTIONS[key][1]]
        # json true and false load as Python bools, which are ints
        if isinstance(value, bool) or not isinstance(value, accepted):
            raise ConfigError(f"config key {key!r} must be a json {name}, got {json.dumps(value)}")
    return data


def _assemble_config(args: argparse.Namespace) -> ExperimentConfig:
    given = {} if args.config is None else _load_config_file(args.config)
    # explicit flags win over file values
    given.update((key, value) for key, value in vars(args).items() if value is not None)

    if "measure" not in given:
        raise ConfigError("a measure is required (--measure or config file)")
    if "out" not in given:
        raise ConfigError("an output path is required (--out or config file)")

    try:
        options = {
            field: kind(given[key]) for key, (field, kind, _, _) in _OPTIONS.items() if key in given
        }
        options["measure"] = parse_measure(options["measure"])
        return ExperimentConfig(command=args.command, **options)
    # a json integer for a float key may pass the float range
    except (TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(f"invalid option value: {exc}") from exc


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code else EXIT_OK
    try:
        config = _assemble_config(args)
        return run(config)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except MeasureError as exc:
        print(f"error: cannot build measure: {exc}", file=sys.stderr)
        return EXIT_MEASURE
    except OSError as exc:
        print(f"error: cannot write report: {exc}", file=sys.stderr)
        return EXIT_IO
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    raise SystemExit(main())
