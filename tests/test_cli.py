from __future__ import annotations

import json
import math

import numpy as np
import pytest

import tiltmedian as tm
from tiltmedian.cli import EXIT_CONFIG, EXIT_IO, EXIT_MEASURE, EXIT_OK, main, parse_measure


def run_cli(args, capsys):
    code = main(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def parse_summary(stdout: str) -> tuple[float, float]:
    line = stdout.strip().splitlines()[-1]
    assert line.startswith("max|residual| = ")
    value_part, t_part = line.split(" at t = ")
    return float(value_part.removeprefix("max|residual| = ")), float(t_part)


def test_parse_measure_literals():
    assert parse_measure("gaussian(0,1)") == tm.Gaussian(0.0, 1.0)
    assert parse_measure(" perturbed_cosine( 0.5 )") == tm.PerturbedCosine(0.5)
    assert parse_measure("gaussian_mixture(0.5,-1,1,1,1)") == tm.GaussianMixture(
        0.5, -1.0, 1.0, 1.0, 1.0
    )
    assert parse_measure("tabulated(/tmp/g.txt)") == tm.Tabulated("/tmp/g.txt")


@pytest.mark.parametrize(
    "text",
    ["gaussian", "gaussian(1)", "gaussian(a,b)", "lognormal(0,1)", "gaussian(0,-1)", "tabulated()"],
)
def test_parse_measure_rejects(text):
    from tiltmedian.cli import ConfigError

    with pytest.raises(ConfigError):
        parse_measure(text)


def test_median_gap_command(tmp_path, capsys):
    out = tmp_path / "gap.csv"
    code, stdout, _ = run_cli(
        ["median-gap", "--measure", "gaussian(0,1)", "--out", str(out)], capsys
    )
    assert code == EXIT_OK
    max_abs, _ = parse_summary(stdout)
    assert max_abs <= 1e-8
    lines = out.read_text().splitlines()
    assert lines[0] == "t,residual,error_estimate"
    assert len(lines) == 50  # header + default 49-point grid
    first = lines[1].split(",")
    assert float(first[0]) == -6.0
    assert abs(float(first[1])) <= 1e-8


def test_byte_identical_reruns(tmp_path, capsys):
    first = tmp_path / "a.csv"
    second = tmp_path / "b.csv"
    base = ["median-gap", "--measure", "gaussian(0,1)", "--t-points", "9"]
    assert run_cli(base + ["--out", str(first)], capsys)[0] == EXIT_OK
    assert run_cli(base + ["--out", str(second)], capsys)[0] == EXIT_OK
    assert first.read_bytes() == second.read_bytes()


def test_json_round_trip(tmp_path, capsys):
    out = tmp_path / "gap.json"
    code, stdout, _ = run_cli(
        [
            "sign-kernel",
            "--measure", "perturbed_quadratic(1)",
            "--t-points", "5",
            "--t-min", "-2",
            "--t-max", "2",
            "--format", "json",
            "--out", str(out),
        ],
        capsys,
    )
    assert code == EXIT_OK
    payload = json.loads(out.read_text())
    assert payload["name"] == "sign_kernel"
    report = tm.scan(
        tm.build_measure(tm.PerturbedQuadratic(1.0)), "sign_kernel", np.linspace(-2.0, 2.0, 5)
    )
    assert payload["t_grid"] == list(report.t_grid)
    assert payload["residuals"] == list(report.residuals)
    assert payload["error_estimates"] == list(report.error_estimates)
    assert payload["summary"]["max_abs_residual"] == report.max_abs_residual
    assert payload["summary"]["argmax_t"] == report.argmax_t
    max_abs, argmax_t = parse_summary(stdout)
    assert max_abs == report.max_abs_residual
    assert argmax_t == report.argmax_t


def test_single_point_grid(tmp_path, capsys):
    out = tmp_path / "point.csv"
    code, stdout, _ = run_cli(
        [
            "median-gap",
            "--measure", "perturbed_quadratic(1)",
            "--t-min", "0", "--t-max", "0", "--t-points", "1",
            "--out", str(out),
        ],
        capsys,
    )
    assert code == EXIT_OK
    lines = out.read_text().splitlines()
    assert len(lines) == 2
    t_value, residual, _ = lines[1].split(",")
    assert float(t_value) == 0.0
    assert abs(float(residual)) <= 1e-8


def test_full_report(tmp_path, capsys):
    out = tmp_path / "full.json"
    code, _, _ = run_cli(
        [
            "full-report",
            "--measure", "perturbed_cosine(0.5)",
            "--t-points", "7",
            "--format", "json",
            "--out", str(out),
        ],
        capsys,
    )
    assert code == EXIT_OK
    payload = json.loads(out.read_text())
    assert sorted(payload) == ["deriva", "mean_median", "median_gap", "sign_kernel"]
    for name, report in payload.items():
        assert report["name"] == name
        assert len(report["residuals"]) == 7


def test_json_report_stays_valid_with_nonfinite_values(tmp_path, capsys):
    from tiltmedian.cli import _report_csv, _report_payload, _to_json

    def reject(name):
        raise ValueError(f"{name} is not json")

    # the median of this spike comes with an infinite error estimate
    out = tmp_path / "gap.json"
    code, _, _ = run_cli(
        [
            "median-gap",
            "--measure", "gaussian(0.3,0.0001)",
            "--t-min", "0",
            "--t-max", "0",
            "--t-points", "1",
            "--format", "json",
            "--out", str(out),
        ],
        capsys,
    )
    assert code == EXIT_OK
    json.loads(out.read_text(), parse_constant=reject)
    # json writes non-finite floats as null, csv keeps them
    report = tm.DiagnosticReport("median_gap", (0.0,), (math.nan,), (math.inf,), 0.0, 0.0)
    payload = json.loads(_to_json(_report_payload(report)), parse_constant=reject)
    assert payload["residuals"] == [None] and payload["error_estimates"] == [None]
    assert _report_csv(report).splitlines()[1] == "0,nan,inf"


def test_full_report_requires_json(tmp_path, capsys):
    code, _, err = run_cli(
        [
            "full-report",
            "--measure", "gaussian(0,1)",
            "--format", "csv",
            "--out", str(tmp_path / "x.csv"),
        ],
        capsys,
    )
    assert code == EXIT_CONFIG
    assert "json" in err


def test_full_report_defaults_to_json(tmp_path, capsys):
    base = ["full-report", "--measure", "gaussian(0,1)", "--t-points", "5"]
    default, explicit = tmp_path / "default.json", tmp_path / "explicit.json"
    code, out_default, _ = run_cli(base + ["--out", str(default)], capsys)
    assert code == EXIT_OK
    code, out_explicit, _ = run_cli(base + ["--format", "json", "--out", str(explicit)], capsys)
    assert code == EXIT_OK
    assert default.read_bytes() == explicit.read_bytes()
    assert out_default == out_explicit


def test_choquet_iterate(tmp_path, capsys):
    out = tmp_path / "trace.csv"
    code, _, _ = run_cli(
        [
            "choquet-iterate",
            "--measure", "perturbed_cosine(0.5)",
            "--steps", "3",
            "--out", str(out),
        ],
        capsys,
    )
    assert code == EXIT_OK
    lines = out.read_text().splitlines()
    assert lines[0] == "step,oscillation,window_lo,window_hi"
    rows = [line.split(",") for line in lines[1:]]
    assert [int(row[0]) for row in rows] == [1, 2, 3]
    oscillations = [float(row[1]) for row in rows]
    assert oscillations[0] > oscillations[1] > oscillations[2]
    lo_values = [float(row[2]) for row in rows]
    hi_values = [float(row[3]) for row in rows]
    assert lo_values[0] < lo_values[1] < lo_values[2]
    assert hi_values[0] > hi_values[1] > hi_values[2]


def test_choquet_iterate_byte_identical_reruns(tmp_path, capsys):
    for fmt in ("csv", "json"):
        paths = [tmp_path / f"{name}.{fmt}" for name in ("a", "b")]
        for path in paths:
            args = ["choquet-iterate", "--measure", "perturbed_cosine(0.5)", "--format", fmt]
            assert run_cli(args + ["--out", str(path)], capsys)[0] == EXIT_OK
        assert paths[0].read_bytes() == paths[1].read_bytes()


def test_choquet_iterate_overflowing_ratio_exits_config(tmp_path, capsys):
    # g of N(0, 4) is e^{3x^2/8} / 2, beyond float64 on [-60, 60]; a numpy
    # overflow warning would fail this test as an error
    out = tmp_path / "trace.csv"
    code, _, err = run_cli(
        ["choquet-iterate", "--measure", "gaussian(0,2)", "--out", str(out)], capsys
    )
    assert code == EXIT_CONFIG
    assert "Gaussian(mu=0.0, sigma=2.0)" in err and "x=-60.0" in err
    assert "Warning" not in err
    assert not out.exists()


def test_choquet_iterate_too_many_steps_exits_config(tmp_path, capsys):
    # nine kernel stencils of 1394 points do not fit the 12001-point window
    out = tmp_path / "trace.csv"
    code, _, err = run_cli(
        ["choquet-iterate", "--measure", "perturbed_cosine(0.5)", "--steps", "9",
         "--out", str(out)],
        capsys,
    )
    assert code == EXIT_CONFIG
    assert err.startswith("error: window of 849 points cannot lose 1394 points")
    assert not out.exists()


def test_symmetry_sweep(tmp_path, capsys):
    out = tmp_path / "sym.csv"
    code, stdout, _ = run_cli(
        [
            "symmetry-sweep",
            "--measure", "perturbed_quadratic(1)",
            "--t-min", "-2", "--t-max", "2", "--t-points", "5",
            "--out", str(out),
        ],
        capsys,
    )
    assert code == EXIT_OK
    max_abs, _ = parse_summary(stdout)
    assert max_abs > 1e-4
    lines = out.read_text().splitlines()
    assert lines[0] == "t,residual,error_estimate"
    assert len(lines) == 6


def test_symmetry_sweep_narrow_measure(tmp_path, capsys):
    # the default offsets reach 6, past the window halfwidth 4.8 at t = 0
    out = tmp_path / "sym.csv"
    code, stdout, err = run_cli(
        ["symmetry-sweep", "--measure", "gaussian(0,0.4)", "--out", str(out)], capsys
    )
    assert code == EXIT_OK, err
    max_abs, _ = parse_summary(stdout)
    assert max_abs <= 1e-8


def test_lipschitz_command(tmp_path, capsys):
    out = tmp_path / "lip.csv"
    code, stdout, _ = run_cli(
        [
            "lipschitz",
            "--measure", "gaussian(0,1)",
            "--halfwidth", "1",
            "--out", str(out),
        ],
        capsys,
    )
    assert code == EXIT_OK
    bound, halfwidth = parse_summary(stdout)
    assert halfwidth == 1.0
    assert abs(bound - 11.951010743549277) <= 1e-6
    lines = out.read_text().splitlines()
    assert lines[0] == "halfwidth,bound"
    assert float(lines[1].split(",")[1]) == bound


def test_lipschitz_bound_beyond_float_range(tmp_path, capsys):
    # log L(8) = 3200 for N(0, 10^2): the bound is inf, a valid if vacuous one
    base = ["lipschitz", "--measure", "gaussian(0,10)", "--halfwidth", "8"]
    csv_out, json_out = tmp_path / "lip.csv", tmp_path / "lip.json"
    code, stdout, err = run_cli(base + ["--out", str(csv_out)], capsys)
    assert code == EXIT_OK, err
    assert parse_summary(stdout) == (math.inf, 8.0)
    assert csv_out.read_text() == "halfwidth,bound\n8,inf\n"
    code, _, err = run_cli(base + ["--format", "json", "--out", str(json_out)], capsys)
    assert code == EXIT_OK, err
    assert json.loads(json_out.read_text()) == {"bound": None, "halfwidth": 8.0}


def test_config_file_with_flag_override(tmp_path, capsys):
    config = tmp_path / "config.json"
    config.write_text(
        json.dumps(
            {
                "measure": "gaussian(0,1)",
                "t_min": -2,
                "t_max": 2,
                "t_points": 5,
                "out": str(tmp_path / "from_config.csv"),
            }
        )
    )
    override = tmp_path / "override.csv"
    code, _, _ = run_cli(
        ["median-gap", "--config", str(config), "--out", str(override), "--t-points", "3"],
        capsys,
    )
    assert code == EXIT_OK
    assert override.exists()
    assert not (tmp_path / "from_config.csv").exists()
    assert len(override.read_text().splitlines()) == 4  # header + 3 overridden points


def test_tabulated_measure_via_cli(tmp_path, capsys):
    table = tmp_path / "ratio.txt"
    xs = np.linspace(-6.0, 6.0, 101)
    table.write_text("\n".join(f"{x} {1.0 + 0.25 * np.cos(x)}" for x in xs) + "\n")
    out = tmp_path / "tab.csv"
    code, _, _ = run_cli(
        [
            "sign-kernel",
            "--measure", f"tabulated({table})",
            "--t-min", "-1", "--t-max", "1", "--t-points", "3",
            "--out", str(out),
        ],
        capsys,
    )
    assert code == EXIT_OK
    assert len(out.read_text().splitlines()) == 4


@pytest.mark.parametrize(
    "text",
    [
        "gaussian(oops)",
        "gaussian(nan,1)",
        "perturbed_quadratic(inf)",
        "gaussian_mixture(0.5,nan,1,0,1)",
    ],
)
def test_exit_code_bad_measure(tmp_path, capsys, text):
    # non-finite parameters are a configuration error, not a failed build
    code, _, err = run_cli(
        ["median-gap", "--measure", text, "--out", str(tmp_path / "x.csv")], capsys
    )
    assert code == EXIT_CONFIG
    assert err


def test_exit_code_measure_build_failure(tmp_path, capsys):
    # 1 + eps cos x is negative near every odd multiple of pi for eps > 1
    for text in ("perturbed_cosine(1.5)", "perturbed_cosine(1.000000001)"):
        code, _, err = run_cli(
            ["median-gap", "--measure", text, "--out", str(tmp_path / "x.csv")], capsys
        )
        assert code == EXIT_MEASURE, text
        assert "measure" in err
        assert not (tmp_path / "x.csv").exists()


def test_exit_code_unwritable_output(tmp_path, capsys):
    code, _, _ = run_cli(
        [
            "median-gap",
            "--measure", "gaussian(0,1)",
            "--t-points", "1", "--t-min", "0", "--t-max", "0",
            "--out", str(tmp_path / "missing_dir" / "x.csv"),
        ],
        capsys,
    )
    assert code == EXIT_IO


def test_exit_code_missing_required(tmp_path, capsys):
    code, _, err = run_cli(["median-gap", "--out", str(tmp_path / "x.csv")], capsys)
    assert code == EXIT_CONFIG
    assert "measure" in err
    code, _, err = run_cli(["median-gap", "--measure", "gaussian(0,1)"], capsys)
    assert code == EXIT_CONFIG
    assert "output" in err


def test_exit_code_unknown_command(capsys):
    code = main(["spectral-gap"])
    capsys.readouterr()
    assert code == EXIT_CONFIG


def test_exit_code_malformed_config(tmp_path, capsys):
    config = tmp_path / "broken.json"
    config.write_text("{not json")
    code, _, err = run_cli(
        ["median-gap", "--config", str(config), "--out", str(tmp_path / "x.csv")], capsys
    )
    assert code == EXIT_CONFIG
    assert "config" in err


def test_exit_code_unknown_config_key(tmp_path, capsys):
    config = tmp_path / "extra.json"
    config.write_text(json.dumps({"measure": "gaussian(0,1)", "colour": "red"}))
    code, _, err = run_cli(
        ["median-gap", "--config", str(config), "--out", str(tmp_path / "x.csv")], capsys
    )
    assert code == EXIT_CONFIG
    assert "colour" in err


def test_exit_code_quadrature_config_key(tmp_path, capsys):
    # quadrature settings are fixed constants, not config values
    config = tmp_path / "quadrature.json"
    config.write_text(json.dumps({"measure": "gaussian(0,1)", "quadrature": {"rel_tol": 1e-9}}))
    code, _, err = run_cli(
        ["median-gap", "--config", str(config), "--out", str(tmp_path / "x.csv")], capsys
    )
    assert code == EXIT_CONFIG
    assert "unknown config keys: ['quadrature']" in err


@pytest.mark.parametrize(
    "command, key, value, wanted",
    [
        ("median-gap", "t_points", 3.7, "integer"),
        ("median-gap", "t_points", True, "integer"),
        ("choquet-iterate", "steps", 2.9, "integer"),
        ("median-gap", "t_min", True, "number"),
        ("median-gap", "t_points", "5", "integer"),
    ],
)
def test_exit_code_config_value_of_the_wrong_json_type(
    tmp_path, capsys, command, key, value, wanted
):
    # each value was once truncated or coerced, where the matching flag exits 2
    config = tmp_path / "typed.json"
    config.write_text(json.dumps({"measure": "perturbed_cosine(0.5)", key: value}))
    out = tmp_path / "x.csv"
    code, _, err = run_cli([command, "--config", str(config), "--out", str(out)], capsys)
    assert code == EXIT_CONFIG
    assert f"config key {key!r} must be a json {wanted}" in err
    assert not out.exists()


def test_exit_code_config_integer_beyond_float_range(tmp_path, capsys):
    config = tmp_path / "huge.json"
    config.write_text('{"measure": "gaussian(0,1)", "t_min": -1' + "0" * 400 + "}")
    out = tmp_path / "x.csv"
    code, _, err = run_cli(["median-gap", "--config", str(config), "--out", str(out)], capsys)
    assert code == EXIT_CONFIG
    assert "invalid option value" in err
    assert not out.exists()


@pytest.mark.parametrize(
    "args, config, message",
    [
        (["median-gap", "--t-points", "0"], None, "t_points must be at least 1"),
        (
            ["median-gap", "--t-points", "1", "--t-min", "1", "--t-max", "0"],
            None,
            "t_min must not exceed t_max",
        ),
        (
            ["median-gap", "--t-min", "1", "--t-max", "1"],
            None,
            "t_min must be less than t_max for multi-point grids",
        ),
        (["choquet-iterate", "--steps", "0"], None, "steps must be at least 1"),
        (["lipschitz", "--halfwidth", "0"], None, "halfwidth must be positive"),
        (["median-gap"], '{"format": "xml"}', "format must be csv or json, got 'xml'"),
        (["median-gap"], "missing", "cannot read config file"),
        (["median-gap"], '["gaussian(0,1)"]', "must hold a json object"),
    ],
)
def test_exit_code_invalid_options(tmp_path, capsys, args, config, message):
    out = tmp_path / "x.csv"
    argv = args + ["--measure", "gaussian(0,1)", "--out", str(out)]
    if config is not None:
        path = tmp_path / "config.json"
        if config != "missing":
            path.write_text(config)
        argv += ["--config", str(path)]
    code, _, err = run_cli(argv, capsys)
    assert code == EXIT_CONFIG
    assert message in err
    assert not out.exists()


def test_json_determinism_full_report(tmp_path, capsys):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    base = [
        "full-report",
        "--measure", "gaussian_mixture(0.5,-1,1,1,1)",
        "--t-points", "3", "--t-min", "-1", "--t-max", "1",
        "--format", "json",
    ]
    assert run_cli(base + ["--out", str(a)], capsys)[0] == EXIT_OK
    assert run_cli(base + ["--out", str(b)], capsys)[0] == EXIT_OK
    assert a.read_bytes() == b.read_bytes()


def test_sign_kernel_tilt_beyond_window(tmp_path, capsys):
    # gaussian(0,0.4) has window halfwidth 5.76 at |t| = 6 on the default grid
    for command in ("sign-kernel", "full-report"):
        out = tmp_path / f"{command}.json"
        code, _, err = run_cli(
            [command, "--measure", "gaussian(0,0.4)", "--format", "json", "--out", str(out)],
            capsys,
        )
        assert code == EXIT_OK, err
        assert out.exists()
