"""Report bytes pinned against files in tests/golden/.

The five default reports in csv and json, plus a noisy odt-table, a noisy
qtc-sweep, a qtc-sweep of a pure client on a Werner resource at port c, and
a resource-check and a state-mode witness-scan on a Werner resource, are
rendered in-process through run_command and compared byte for byte. A
deliberate change to a report must regenerate the files with

    PYTHONPATH=src python tests/test_golden_reports.py

and say why in CHANGES.md.
"""
from __future__ import annotations

from pathlib import Path

import pytest

from dickesim.cli import SCHEMAS, build_parser, run_command

GOLDEN = Path(__file__).parent / "golden"

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


@pytest.mark.parametrize("name,fmt", REPORTS, ids=[f"{name}.{fmt}" for name, fmt in REPORTS])
def test_report_matches_golden(name, fmt):
    report, code = render(name, fmt)
    assert code == 0
    assert report == (GOLDEN / f"{name}.{fmt}").read_bytes()


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    for name, fmt in REPORTS:
        (GOLDEN / f"{name}.{fmt}").write_bytes(render(name, fmt)[0])
