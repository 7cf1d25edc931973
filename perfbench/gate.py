"""Correctness gate: decides whether one item's output is right.

Every function returns the list of reasons the item failed; an empty
list is a pass. The reference values live in ``reference.json`` next to
this file and were taken from the program as first benchmarked.
"""

from __future__ import annotations

import json

DECISION_TOL = 1e-12  # decision values are floats of exact fractions
ADJUSTER_TOL = 1e-9   # acceptance criterion 5's tolerance


def _close(a, b) -> bool:
    if a is None or b is None:
        return a is None and b is None
    return abs(float(a) - float(b)) <= DECISION_TOL


def _decision_failures(got: dict, want: dict) -> list[str]:
    out = []
    for side in ("yes", "no"):
        g, w = got[side], want[side]
        if len(g) != len(w) or not all(_close(a, b) for a, b in zip(g, w)):
            out.append(f"decision {side} values {g} differ from reference {w}")
    if not _close(got["gap"], want["gap"]):
        out.append(f"decision gap {got['gap']} differs from reference {want['gap']}")
    return out


def check_list(report: dict) -> list[list]:
    """The (statement, name, relation, verdict) rows a reference pins."""
    return [[c["statement"], c["name"], c["relation"], c["pass"]]
            for c in report["checks"]]


def experiment_failures(rc, report_bytes: bytes | None, ref: dict) -> list[str]:
    """A ``qromlab run`` item: exit code, verdicts, check list, decision."""
    if rc != 0:
        return [f"exit code {rc}"]
    if report_bytes is None:
        return ["no report was written"]
    try:
        report = json.loads(report_bytes)
        failing = [c["name"] for c in report["checks"] if not c["pass"]]
        rows = check_list(report)
        decision = report["decision"]
    except (ValueError, KeyError, TypeError) as exc:
        return [f"malformed report: {exc!r}"]
    out = []
    if failing:
        out.append(f"failing checks {failing}")
    if rows != ref["checks"]:
        out.append("check list differs from the reference")
    try:
        out += _decision_failures(decision, ref["decision"])
    except (KeyError, TypeError) as exc:
        out.append(f"malformed decision: {exc!r}")
    return out


def demo_failures(rc, stdout: str, name: str) -> list[str]:
    """A ``qromlab verify-lemma`` item: exit code and a ``pass`` verdict."""
    lines = stdout.strip().splitlines()
    verdict = lines[-1] if lines else ""
    out = []
    if rc != 0:
        out.append(f"exit code {rc}")
    if not verdict.startswith(f"{name}: pass"):
        out.append(f"verdict line {verdict!r}")
    return out


def adjuster_failures(result: dict, ref_flagged: int) -> list[str]:
    """One adjuster check: unitarity and target distance, flagged keys."""
    out = [
        f"{key} {result[key]:.3e} above {ADJUSTER_TOL}"
        for key in ("exact_unitarity", "exact_td", "eff_unitarity", "eff_td")
        if not result[key] <= ADJUSTER_TOL
    ]
    if result["flagged"] != ref_flagged:
        out.append(f"{result['flagged']} flagged keys, reference {ref_flagged}")
    return out


class RepeatLog:
    """Byte identity of an item's output across repeats in one run."""

    def __init__(self) -> None:
        self._first: dict[str, bytes] = {}

    def failures(self, item_id: str, data: bytes) -> list[str]:
        first = self._first.setdefault(item_id, data)
        if first != data:
            return ["output bytes differ from this item's first run"]
        return []
