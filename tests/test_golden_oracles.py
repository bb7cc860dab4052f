"""The numbers in the golden reports, recomputed by the oracles.

The byte pins in test_golden_reports prove that a report does not change on
one set of BLAS kernels; this module checks that its numbers are right on any.
Each golden config's json report is rendered in process, and its values are
recomputed by tests/oracles.py (Kronecker chains, independent of the library)
from the report's own config and, for tomography-demo, its own counts. They
must agree to TOL. The noisy odt-table column is not checked: it comes from
simulated counts that the report does not list.
"""
from __future__ import annotations

import json

import numpy as np
import pytest

import oracles
from dickesim.cli import SCHEMAS
from test_golden_reports import CASES, render

TOL = 1e-12

DEMO_TARGETS = {
    "bell-psi+": np.array([0, 1, 1, 0], dtype=complex) / np.sqrt(2),
    "clone-mix": np.diag([2 / 3, 1 / 3]).astype(complex),
    "plus": np.array([1, 1], dtype=complex) / np.sqrt(2),
}


def report(name: str) -> tuple[dict, dict]:
    """(config with the schema's defaults filled in, json report) of a golden config."""
    text, code = render(name, "json")
    assert code == 0
    command, config = CASES[name]
    _, schema = SCHEMAS[command]
    return {key: default for key, (_, default) in schema.items()} | config, json.loads(text)


@pytest.mark.parametrize("name", ["qtc-sweep", "qtc-sweep-noisy", "qtc-sweep-werner-port-c"])
def test_qtc_sweep_rows(name):
    cfg, data = report(name)
    p, lam, dp, phi, port = (cfg[k] for k in ("p", "dephase_lambda", "p_uncertainty", "phi", "port"))
    ends = sorted({min(max(p - dp, 0.0), 1.0), min(max(p + dp, 0.0), 1.0)})
    assert len(data["rows"]) == cfg["theta_points"]
    for row in data["rows"]:
        theta = row["theta"]
        assert row["ideal_fidelity"] == pytest.approx(
            oracles.telecloning_fidelity(theta, phi, 1.0, 0.0, port), abs=TOL)
        band = [oracles.telecloning_fidelity(theta, phi, w, lam, port) for w in ends]
        assert row["band_low"] == pytest.approx(min(band), abs=TOL)
        assert row["band_high"] == pytest.approx(max(band), abs=TOL)


@pytest.mark.parametrize("name", ["odt-table", "odt-table-noisy"])
def test_odt_table_ideal_columns(name):
    _, data = report(name)
    assert len(data["rows"]) == 12
    for row in data["rows"]:
        fid, prob = oracles.odt_fidelity(row["theta"], 0.0, 1.0, 0.0, row["port"], row["receiver"],
                                         row["projection"])
        assert row["fidelity_ideal"] == pytest.approx(fid, abs=TOL)
        assert row["success_probability"] == pytest.approx(prob, abs=TOL)


def test_tomography_demo_from_its_counts():
    cfg, data = report("tomography-demo")
    records = [(tuple(r["setting"].split("|")), r["counts"], r["exact"]) for r in data["counts"]]
    target = DEMO_TARGETS[cfg["state"]]
    assert data["fidelity"] == pytest.approx(
        oracles.overlap_fidelity(oracles.linear_inversion(records), target), abs=TOL)
    mean, std, _ = oracles.bootstrap_fidelity(records, target, trials=cfg["trials"],
                                              seed=data["meta"]["seed"])
    assert data["bootstrap_mean_fidelity"] == pytest.approx(mean, abs=TOL)
    assert data["uncertainty"] == pytest.approx(std, abs=TOL)
