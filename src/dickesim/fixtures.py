"""Golden fixtures: the found conversion circuit, the Bell-outcome correction
table, and sampled biseparability bounds. The program only reads them; a test
derives each one with the library and compares it with the packaged file."""
from __future__ import annotations

import json
from pathlib import Path

from .circuits import Circuit

DEFAULT_DIR = Path(__file__).parent / "fixtures"
CONVERSION_FILE = "conversion_circuit.txt"
CORRECTION_FILE = "correction_table.json"
B4_FILE = "b4_samples.json"


class FixtureError(RuntimeError):
    """A golden fixture is missing or cannot be parsed."""


def _load(directory: str | Path | None, name: str, parse):
    path = Path(DEFAULT_DIR if directory is None else directory) / name
    if not path.exists():
        raise FixtureError(f"missing fixture {path}")
    try:
        return parse(path.read_text())
    except (ValueError, KeyError, TypeError, AttributeError) as err:
        raise FixtureError(f"malformed fixture {path}: {err}") from err


def load_conversion_circuit(directory: str | Path | None = None) -> Circuit:
    return _load(directory, CONVERSION_FILE, Circuit.from_text)


def load_correction_table(directory: str | Path | None = None) -> dict[str, str]:
    return _load(directory, CORRECTION_FILE, json.loads)


def load_b4_samples(directory: str | Path | None = None) -> dict[float, float]:
    return _load(directory, B4_FILE, lambda text: {
        float(k): float(v) for k, v in json.loads(text)["samples"].items()})
