"""Golden fixtures: the found conversion circuit, the Bell-outcome correction
table, and sampled biseparability bounds. Regenerated only on request."""
from __future__ import annotations

import json
from pathlib import Path

from .circuits import Circuit, find_conversion_circuit
from .protocols import derive_correction_table
from .states import RESOURCE_LABELS, dicke, xi_state
from .witnesses import PAPER_GAMMAS, biseparable_bound

DEFAULT_DIR = Path(__file__).parent / "fixtures"
CONVERSION_FILE = "conversion_circuit.txt"
CORRECTION_FILE = "correction_table.json"
B4_FILE = "b4_samples.json"


class FixtureError(RuntimeError):
    """A golden fixture is missing or fails regeneration checks."""


def fixtures_dir(override: str | Path | None = None) -> Path:
    return Path(override) if override is not None else DEFAULT_DIR


def _read(directory: str | Path | None, name: str) -> str:
    path = fixtures_dir(directory) / name
    if not path.exists():
        raise FixtureError(f"missing fixture {path}; run with --regen-fixtures")
    return path.read_text()


def load_conversion_circuit(directory: str | Path | None = None) -> Circuit:
    return Circuit.from_text(_read(directory, CONVERSION_FILE))


def load_correction_table(directory: str | Path | None = None) -> dict[str, str]:
    return json.loads(_read(directory, CORRECTION_FILE))


def load_b4_samples(directory: str | Path | None = None) -> dict[float, float]:
    raw = json.loads(_read(directory, B4_FILE))
    return {float(k): float(v) for k, v in raw["samples"].items()}


def regenerate_fixtures(directory: str | Path | None = None) -> dict:
    """Recompute and rewrite every fixture; returns a summary for the report."""
    directory = fixtures_dir(directory)
    directory.mkdir(parents=True, exist_ok=True)

    search = find_conversion_circuit(xi_state(), dicke(4, 2, RESOURCE_LABELS))
    if not search.found:
        raise FixtureError(
            f"conversion search exhausted at depth {search.max_depth}; "
            f"best fidelity {search.best_fidelity}")
    (directory / CONVERSION_FILE).write_text(search.circuit.to_text())

    table = derive_correction_table(dicke(4, 2, RESOURCE_LABELS), port="b")
    (directory / CORRECTION_FILE).write_text(
        json.dumps(table, indent=2, sort_keys=True) + "\n")

    samples = {repr(gamma): biseparable_bound(gamma) for gamma in PAPER_GAMMAS}
    (directory / B4_FILE).write_text(
        json.dumps({"samples": samples}, indent=2, sort_keys=True) + "\n")

    return {
        "conversion_depth": search.circuit.depth,
        "conversion_fidelity": search.fidelity,
        "correction_table": table,
        "b4_samples": samples,
    }
