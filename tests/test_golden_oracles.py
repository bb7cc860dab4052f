"""The numbers in the golden reports, recomputed by the oracles.

The byte pins in test_golden_reports prove that a report does not change on
one set of BLAS kernels; this module checks that its numbers are right on any.
Each golden config's json report is rendered in process, and its values are
recomputed by tests/oracles.py (Kronecker chains, independent of the library)
from the report's own config and, for tomography-demo, its own counts. They
must agree to TOL; a b4 must lie in the oracles' certified bracket to B4_TOL.
The noisy odt-table column is not checked: it comes from simulated counts that
the report does not list.
"""
from __future__ import annotations

import functools
import json
import math

import numpy as np
import pytest

import oracles
from dickesim.cli import SCHEMAS
from dickesim.witnesses import PAPER_GAMMAS
from test_golden_reports import CASES, render

TOL = 1e-12
B4_TOL = 1e-9

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


@functools.lru_cache(maxsize=None)
def b4_bracket(gamma: float) -> tuple[float, float]:
    """(feasible lower, certified upper) ends of b4(gamma) from the oracles."""
    family = oracles.b4_family_lower(gamma)
    return (max(oracles.b4_one_three_lower(gamma), family),
            max(oracles.b4_one_three_upper(gamma), oracles.b4_two_two_upper(gamma, family)))


def werner_moments(p: float) -> dict:
    """<Jx^2>, <Jy^2>, <Jz^2> of p |D><D| + (1 - p) I/16, from Kronecker-built spins."""
    rho = oracles.werner_dicke_density(p)
    moments = {}
    for name, sigma in (("jx2", oracles.SX), ("jy2", oracles.SY), ("jz2", oracles.SZ)):
        j = oracles.collective_j(4, sigma)
        moments[name] = float(np.real(np.trace(rho @ j @ j)))
    return moments


def check_gamma_rows(rows: list, moments: dict, errors: dict) -> None:
    """Each row's b4 in the bracket, and value, delta, significance and verdict
    recomputed from the moments, their errors and the row's b4."""
    assert [row["gamma"] for row in rows] == list(PAPER_GAMMAS)
    for row in rows:
        gamma, b4 = row["gamma"], row["b4"]
        lower, upper = b4_bracket(gamma)
        assert lower - B4_TOL <= b4 <= upper + B4_TOL
        value = b4 - (moments["jx2"] + moments["jy2"] + gamma * moments["jz2"])
        delta = math.sqrt(errors["jx2"] ** 2 + errors["jy2"] ** 2 + gamma ** 2 * errors["jz2"] ** 2)
        assert row["value"] == pytest.approx(value, abs=TOL)
        assert row["delta"] == pytest.approx(delta, abs=TOL)
        if delta > 0:
            assert row["significance"] == pytest.approx(value / delta, rel=TOL)
        else:
            assert row["significance"] is None
        entangled = value + delta < 0
        assert row["verdict"] == ("multipartite-entangled" if entangled else "inconclusive")


@pytest.mark.parametrize("name", ["witness-scan", "witness-scan-state-werner"])
def test_witness_scan_rows(name):
    cfg, data = report(name)
    if cfg["source"] == "measured":
        moments = {key: cfg[key] for key in ("jx2", "jy2", "jz2")}
        errors = {key: cfg["d_" + key] for key in moments}
    else:
        moments = werner_moments(1.0 if cfg["werner_p"] is None else cfg["werner_p"])
        errors = dict.fromkeys(moments, 0.0)
    check_gamma_rows(data["rows"], moments, errors)


@pytest.mark.parametrize("name", ["resource-check", "resource-check-werner"])
def test_resource_check_closed_forms(name):
    """Every check value against its closed form in the Werner weight p (1: ideal)."""
    cfg, data = report(name)
    p = 1.0 if cfg["werner_p"] is None else cfg["werner_p"]
    f_res = p + (1 - p) / 16                       # <D|rho|D>
    f_proj3 = p + (1 - p) / 8                      # one qubit projected: p D3 + (1 - p) I/8
    f_pair = (p / 3 + (1 - p) / 16) / (p / 3 + (1 - p) / 4)
    closed = {
        "conversion_fidelity": 1.0,
        "conversion_depth": len(data["conversion_circuit"]),
        "dicke_amplitude_deviation": 0.0,
        "dicke_support_size": math.comb(4, 2),
        "physical_permutation": "abcd",
        "correction_table_matches_fixture": True,
        "resource_fidelity_vs_dicke": f_res,
        "projection_d0_fidelity_vs_D3k2": f_proj3,
        "projection_d1_fidelity_vs_D3k1": f_proj3,
        "pair_projection_min_fidelity_vs_psi_plus": f_pair,
        "pair_projection_max_fidelity_vs_psi_plus": f_pair,
        "wm_transcribed_value": 3.25 - 0.5 * p,
        "wm_calibrated_value": -0.5 - 0.5 * p,
        # the D3 projector witness is 2/3 - |D3><D3|, and its bound is 2/3 - <W>
        **{f"d3_k{k}_witness_value": 2 / 3 - f_proj3 for k in (1, 2)},
        **{f"d3_k{k}_bound_tightness": f_proj3 for k in (1, 2)},
    }
    checks = {check["name"]: check for check in data["checks"]}
    b4_checks = {name for name in checks if name.startswith("b4_fixture_match_gamma_")}
    assert checks.keys() == closed.keys() | b4_checks
    for name, value in closed.items():
        assert checks[name]["value"] == pytest.approx(value, abs=TOL), name
    for name in b4_checks:
        lower, upper = b4_bracket(float(name.rsplit("_", 1)[1]))
        for key in ("value", "expected"):
            assert lower - B4_TOL <= checks[name][key] <= upper + B4_TOL
    moments = werner_moments(p)
    assert moments == pytest.approx({"jx2": 1 + 2 * p, "jy2": 1 + 2 * p, "jz2": 1 - p}, abs=TOL)
    assert data["collective_moments"] == pytest.approx(moments, abs=TOL)
    check_gamma_rows(data["gamma_scan"], moments, dict.fromkeys(moments, 0.0))
