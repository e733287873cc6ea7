"""The README's library quick start runs and gives the values its comments state,
and every name the package exports resolves."""

from __future__ import annotations

import re
from pathlib import Path

import tiltmedian as tm

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
