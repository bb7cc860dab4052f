"""Correctness gate applied to every benchmark operation's report.

An operation fails when its exit code is not 0, when a b4 value misses its
reference (the golden fixture values at 1e-9, the values recorded by
record_reference.py at 1e-6), when b4(gamma) exceeds b4(0), or when a
qtc-sweep band leaves [0, 1] or has band_low > band_high. The C03c
significance shortfall at gamma = -2.5 is a note in the report, not a failure.
"""
from __future__ import annotations

import csv
import json
from pathlib import Path

FLOAT_SLACK = 1e-12


class Reference:
    def __init__(self, path: Path):
        data = json.loads(path.read_text())
        self.golden = {float(g): v for g, v in data["golden"].items()}
        self.golden_tol = data["golden_tol"]
        self.recorded = {float(g): v for g, v in data["recorded"].items()}
        self.recorded_tol = data["recorded_tol"]

    def b4_problems(self, gamma: float, b4: float) -> list[str]:
        problems = []
        if gamma in self.golden:
            expected, tol = self.golden[gamma], self.golden_tol
        elif gamma in self.recorded:
            expected, tol = self.recorded[gamma], self.recorded_tol
        else:
            return [f"no reference b4 for gamma={gamma!r}"]
        if abs(b4 - expected) > tol:
            problems.append(f"b4({gamma!r}) = {b4!r}, reference {expected!r} (tol {tol})")
        if b4 > self.golden[0.0] + self.golden_tol:
            problems.append(f"b4({gamma!r}) = {b4!r} exceeds b4(0) = {self.golden[0.0]!r}")
        return problems


def _in_unit_interval(x: float) -> bool:
    return -FLOAT_SLACK <= x <= 1.0 + FLOAT_SLACK


def _csv_rows(text: str) -> list[dict]:
    """Data rows of a CSV report; `#` lines hold the config and notes."""
    return list(csv.DictReader(line for line in text.splitlines() if not line.startswith("#")))


def report_problems(command: str, code, text: str | None, ref: Reference) -> list[str]:
    """Why this operation counts as failed; empty when it passed.

    Reports come in each command's default format: JSON for resource-check
    and tomography-demo, CSV for the others.
    """
    if code != 0:
        return [f"exit code {code}, expected 0"]
    if text is None:
        return ["no report written"]
    problems = []
    if command == "witness-scan":
        for row in _csv_rows(text):
            problems += ref.b4_problems(float(row["gamma"]), float(row["b4"]))
    elif command == "resource-check":
        for row in json.loads(text)["gamma_scan"]:
            problems += ref.b4_problems(row["gamma"], row["b4"])
    elif command == "qtc-sweep":
        for row in _csv_rows(text):
            low, high = float(row["band_low"]), float(row["band_high"])
            if not (_in_unit_interval(low) and _in_unit_interval(high) and low <= high):
                problems.append(f"band [{low!r}, {high!r}] at theta={row['theta']}")
    elif command == "odt-table":
        for row in _csv_rows(text):
            if row["fidelity_noisy"] and not _in_unit_interval(float(row["fidelity_noisy"])):
                problems.append(f"noisy fidelity {row['fidelity_noisy']} outside [0, 1]")
    elif command == "tomography-demo":
        fidelity = json.loads(text)["fidelity"]
        if not _in_unit_interval(fidelity):
            problems.append(f"fidelity {fidelity!r} outside [0, 1]")
    return problems
