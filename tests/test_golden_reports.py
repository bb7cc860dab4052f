"""Report bytes pinned against files in tests/golden/.

The five default reports in csv and json, plus a noisy odt-table, a noisy
qtc-sweep, a qtc-sweep of a pure client on a Werner resource at port c, and
a resource-check and a state-mode witness-scan on a Werner resource, are
rendered in-process through run_command and compared byte for byte. A
deliberate change to a report must regenerate the files with

    PYTHONPATH=src python tests/test_golden_reports.py

and say why in CHANGES.md; that also records the numpy version, the BLAS
build and the OpenBLAS core they were made with in tests/golden/environment.json.
A mismatch names the first differing line and field, both values and their
ulp distance, and that environment beside the current one, since last-bit
changes usually come from other BLAS kernels rather than the code.
"""
from __future__ import annotations

import json
import os
import subprocess
import sys
from functools import lru_cache
from pathlib import Path

import numpy as np
import pytest

from dickesim.cli import SCHEMAS, build_parser, run_command

GOLDEN = Path(__file__).parent / "golden"
ENVIRONMENT = GOLDEN / "environment.json"

# report name -> (command, config)
CASES = {
    **{command: (command, {}) for command in SCHEMAS},
    "odt-table-noisy": ("odt-table", {"werner_p": 0.8, "dephase_lambda": 0.05, "n_per_setting": 400}),
    "qtc-sweep-noisy": ("qtc-sweep", {"p": 0.85, "dephase_lambda": 0.1, "p_uncertainty": 0.04}),
    "qtc-sweep-werner-port-c": ("qtc-sweep", {"p": 0.8, "dephase_lambda": 0.0, "p_uncertainty": 0.02,
                                              "port": "c", "phi": 1.3}),
    "resource-check-werner": ("resource-check", {"werner_p": 0.85}),
    "witness-scan-state-werner": ("witness-scan", {"source": "state", "werner_p": 0.7}),
}
REPORTS = [(name, fmt) for name in CASES for fmt in ("csv", "json")]


def render(name: str, fmt: str) -> tuple[bytes, int]:
    """(report bytes, exit code) of one golden report."""
    command, params = CASES[name]
    text, code = run_command(command, params, build_parser().parse_args([command, "--format", fmt]))
    return text.encode(), code


def _fields(line: str, fmt: str) -> list[str]:
    """A csv line's cells, or a json line's key and value."""
    return line.split(",") if fmt == "csv" else line.strip().rstrip(",").split(": ", 1)


def _ulps(a: float, b: float) -> int:
    """Distance between two doubles in units in the last place (0 for -0.0 and 0.0)."""
    ia, ib = (int(np.float64(x).view(np.int64)) for x in (a, b))
    ia, ib = (i if i >= 0 else -(i & (2 ** 63 - 1)) for i in (ia, ib))
    return abs(ia - ib)


def _blas() -> str:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):  # numpy < 1.26 prints its config without returning it
        return "BLAS build unknown"
    return f"{blas.get('name')} {blas.get('version')}"


@lru_cache(maxsize=None)
def _core() -> str:
    """The OpenBLAS core whose kernels load here. A DYNAMIC_ARCH build's configuration
    names the core it was built for, not the one it picks at run time, so this asks a
    child interpreter, which inherits OPENBLAS_CORETYPE, with OPENBLAS_VERBOSE=2."""
    child = subprocess.run([sys.executable, "-c", "import numpy"], capture_output=True, text=True,
                           env={**os.environ, "OPENBLAS_VERBOSE": "2"})
    return next((line.split(":", 1)[1].strip() for line in child.stderr.splitlines()
                 if line.startswith("Core:")), "unknown")


def _environment() -> dict:
    return {"numpy": np.__version__, "blas": _blas(), "core": _core()}


def _describe(env: dict) -> str:
    return f"numpy {env['numpy']}, {env['blas']}, core {env['core']}"


def mismatch(report: bytes, golden: bytes, fmt: str) -> str:
    """Where a report first departs from its golden file, the numerics it ran on
    and those the golden files were made with."""
    got, want = report.decode().splitlines(), golden.decode().splitlines()
    env = (f"{_describe(_environment())} "
           f"(OPENBLAS_CORETYPE={os.environ.get('OPENBLAS_CORETYPE', '(unset)')}); "
           f"golden made with {_describe(json.loads(ENVIRONMENT.read_text()))}")
    i = next((i for i, pair in enumerate(zip(got, want)) if pair[0] != pair[1]), None)
    if i is None:
        return f"report has {len(got)} lines, golden {len(want)}; {env}"
    cells, golden_cells = _fields(got[i], fmt), _fields(want[i], fmt)
    # the first differing cell, or the first one only one side has
    j = next((j for j, pair in enumerate(zip(cells, golden_cells)) if pair[0] != pair[1]),
             min(len(cells), len(golden_cells)))
    header = next((line for line in want if not line.startswith("#")), "").split(",")
    if fmt == "json":
        field = golden_cells[0].strip('"') if len(golden_cells) == 2 else "(list item)"
    else:
        field = header[j] if j < len(header) else f"cell {j}"
    value, expected = (c[j] if j < len(c) else "(none)" for c in (cells, golden_cells))
    message = f"line {i + 1} ({want[i].strip()[:80]!r}), field {field}: {value} != golden {expected}"
    try:
        message += f" ({_ulps(float(value), float(expected))} ulps)"
    except ValueError:
        pass
    return f"{message}; {env}"


@pytest.mark.parametrize("name,fmt", REPORTS, ids=[f"{name}.{fmt}" for name, fmt in REPORTS])
def test_report_matches_golden(name, fmt):
    report, code = render(name, fmt)
    assert code == 0
    golden = (GOLDEN / f"{name}.{fmt}").read_bytes()
    assert report == golden, mismatch(report, golden, fmt)


@pytest.mark.parametrize("fmt,got,want,where", [
    ("csv", "# c\nx,y\n1,0.1\n", "# c\nx,y\n1,0.10000000000000002\n", "line 3 ('1,0.10000000000000002'), field y"),
    ("json", '{\n  "y": 0.1,\n}', '{\n  "y": 0.10000000000000002,\n}', "line 2 ('\"y\": 0.10000000000000002,'), field y"),
])
def test_mismatch_names_line_field_and_ulps(fmt, got, want, where):
    message = mismatch(got.encode(), want.encode(), fmt)
    assert message.startswith(f"{where}: 0.1 != golden 0.10000000000000002 (1 ulps); numpy {np.__version__}")


def test_mismatch_names_the_loaded_core_beside_the_golden_environment(monkeypatch):
    runs, run = [], subprocess.run
    monkeypatch.setattr(subprocess, "run", lambda *a, **k: runs.append(a) or run(*a, **k))
    _core.cache_clear()
    messages = [mismatch(b"x\n1\n", b"x\n2\n", "csv") for _ in range(2)]
    recorded = json.loads(ENVIRONMENT.read_text())
    assert set(recorded) == {"numpy", "blas", "core"}
    assert messages[0] == messages[1]
    assert messages[0].endswith(f"; golden made with {_describe(recorded)}")
    assert f"core {_core()} (OPENBLAS_CORETYPE=" in messages[0] and _core() != "unknown"
    assert len(runs) == 1  # one child run, on the first mismatch


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    for name, fmt in REPORTS:
        (GOLDEN / f"{name}.{fmt}").write_bytes(render(name, fmt)[0])
    ENVIRONMENT.write_text(json.dumps(_environment(), indent=2) + "\n")
