"""The README's library quick start runs and gives the values its comments state,
every name the package exports resolves, the README's command examples run and
name every command, its flags and config-file keys match the CLI, and the
convolution's block table has the shape and size it states."""

from __future__ import annotations

import argparse
import re
import shlex
from pathlib import Path

import tiltmedian as tm
from tiltmedian import cli
from tiltmedian.convolution import _kernel_tables

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_quick_start_runs():
    (block,) = re.findall(r"```python\n(.*?)```", README.read_text(), flags=re.DOTALL)
    namespace: dict = {}
    exec(compile(block, str(README), "exec"), namespace)
    # "median gap at t = 1, about -0.2338" and "~0.38"
    assert abs(namespace["view"].median() - 1.0 + 0.2338) <= 1e-4
    assert abs(namespace["report"].max_abs_residual - 0.38) <= 0.01


def test_every_export_resolves():
    missing = [name for name in tm.__all__ if not hasattr(tm, name)]
    assert missing == []


def test_readme_lists_the_config_file_keys():
    text = " ".join(README.read_text().split())
    (keys,) = re.findall(r"json config file may carry the same keys \(([^)]*)\)", text)
    assert set(re.findall(r"`(\w+)`", keys)) == set(cli._OPTIONS)


def test_readme_lists_every_flag():
    (paragraph,) = re.findall(r"^Flags: (.*?)\n\n", README.read_text(), re.DOTALL | re.MULTILINE)
    (commands,) = [
        action for action in cli._build_parser()._actions
        if isinstance(action, argparse._SubParsersAction)
    ]
    flags = {
        flag
        for parser in commands.choices.values()
        for action in parser._actions
        for flag in action.option_strings
    }
    assert set(re.findall(r"`(--[\w-]+)", paragraph)) == flags - {"-h", "--help"}


def test_readme_shows_every_command():
    shown = re.findall(r"^tiltmedian ([\w-]+)", README.read_text(), flags=re.MULTILINE)
    assert set(shown) <= set(cli.COMMANDS), set(shown) - set(cli.COMMANDS)
    assert set(cli.COMMANDS) <= set(shown), set(cli.COMMANDS) - set(shown)


def test_readme_command_lines_run(tmp_path, capsys):
    lines = re.findall(r"^tiltmedian (.*)$", README.read_text(), flags=re.MULTILINE)
    assert lines
    for line in lines:
        argv = shlex.split(line)
        out = argv.index("--out") + 1
        report = tmp_path / argv[out]
        argv[out] = str(report)
        assert cli.main(argv) == 0, (line, capsys.readouterr().err)
        assert report.exists(), line


def test_readme_names_resolve():
    modules = {"tm": tm, "numerics": tm.numerics, "tilting": tm.tilting, "measures": tm.measures}
    named = re.findall(r"\b(tm|numerics|tilting|measures)\.([A-Za-z_]\w*)", README.read_text())
    assert named
    missing = [f"{module}.{name}" for module, name in named if not hasattr(modules[module], name)]
    assert missing == []


def test_readme_block_table_shape():
    text = " ".join(README.read_text().split())
    (shape,) = re.findall(r"cut into (\d+) blocks of (\d+) x (\d+) \(([\d.]+) MB", text)
    blocks = _kernel_tables(tm.ConvolutionSetup())[1]
    assert tuple(map(int, shape[:3])) == blocks.shape
    assert float(shape[3]) == round(blocks.nbytes / 1e6, 2)
