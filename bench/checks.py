"""Named correctness checks with a one-line verdict each."""

from __future__ import annotations

import math


class Checker:
    """Collects checks by name: how many values, the worst error and its limit."""

    def __init__(self) -> None:
        self.checks: dict[str, dict] = {}

    def _entry(self, name: str, limit: str) -> dict:
        return self.checks.setdefault(
            name, {"count": 0, "failed": 0, "worst": 0.0, "limit": limit, "first": None})

    def near(self, name: str, got, want, tol: float, scaled: bool = False, where: str = "") -> None:
        """|got - want| <= tol, or tol * max(1, |want|) when ``scaled``."""
        limit = tol * max(1.0, abs(want)) if scaled else tol
        entry = self._entry(name, f"{tol:g}" + (" * max(1, |ref|)" if scaled else ""))
        entry["count"] += 1
        got = float(got)
        error = abs(got - want) if math.isfinite(got) else math.inf
        entry["worst"] = max(entry["worst"], error / (limit / tol))
        if not error <= limit:
            self._fail(entry, f"{where}: got {got!r}, want {want!r}")

    def holds(self, name: str, condition: bool, where: str = "", detail: str = "") -> None:
        entry = self._entry(name, "property")
        entry["count"] += 1
        if not condition:
            self._fail(entry, f"{where}: {detail}")

    def _fail(self, entry: dict, message: str) -> None:
        entry["failed"] += 1
        if entry["first"] is None:
            entry["first"] = message

    @property
    def ok(self) -> bool:
        return bool(self.checks) and all(e["failed"] == 0 for e in self.checks.values())

    def lines(self) -> list[str]:
        out = []
        for name, e in self.checks.items():
            verdict = "PASS" if e["failed"] == 0 else f"FAIL ({e['failed']} failed)"
            worst = f"worst {e['worst']:.3g}, limit {e['limit']}" if e["limit"] != "property" \
                else "property"
            line = f"check {name}: {verdict}, {e['count']} values, {worst}"
            if e["first"]:
                line += f"; first failure {e['first']}"
            out.append(line)
        return out
