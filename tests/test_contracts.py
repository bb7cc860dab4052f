"""Contracts of the exported API: out-of-contract input is refused where it enters.

Each row of CONTRACTS is one call with one invalid argument. It must raise a
ValueError whose message names that argument, before any state is evolved:
gate application and the telecloning run are replaced by stubs that fail if
they are reached. The numeric rows are refused by register.check_number or
register.check_integer, whose message starts with name=value.
"""
from __future__ import annotations

import math
import re

import numpy as np
import pytest

from dickesim import (
    ClientParams,
    CountsRecord,
    GateSpec,
    Observable,
    WitnessReport,
    bell,
    circuits,
    client_ket,
    collective_spin,
    dicke,
    exact_counts,
    fidelity_with_error,
    find_conversion_circuit,
    propagate_wcs_error,
    protocols,
    qtc_mixed_band,
    run_odt,
    run_qtc,
    simulate_counts,
    tomography,
    werner_dicke,
    witness_projector_d3,
    witness_wcs,
    xi_state,
)

# id -> (call, the argument its message must name)
CONTRACTS = {
    "GateSpec-control-is-target": (lambda: GateSpec("CX", "a", control="a"), "control"),
    "GateSpec-phi-nan": (lambda: GateSpec("PHASE", "a", phi=math.nan), "phi"),
    "ClientParams-phi-inf": (lambda: ClientParams(1.0, phi=math.inf), "phi"),
    "Observable-matrix-1d": (lambda: Observable(np.ones(4)), "matrix"),
    "find_conversion_circuit-max_depth-negative": (
        lambda: find_conversion_circuit(xi_state(), dicke(4, 2, ("a", "b", "c", "d")), max_depth=-1),
        "max_depth"),
    "run_odt-client-sequence": (lambda: run_odt([ClientParams(1.0), ClientParams(1.0)]), "client"),
    "qtc_mixed_band-p-above-one": (lambda: qtc_mixed_band(1.0, p=2.0, dephase_lambda=0.0), "p"),
    "qtc_mixed_band-p_uncertainty-nan": (
        lambda: qtc_mixed_band(1.0, 0.5, 0.0, p_uncertainty=math.nan), "p_uncertainty"),
    "qtc_mixed_band-p_uncertainty-inf": (
        lambda: qtc_mixed_band(1.0, 0.5, 0.0, p_uncertainty=math.inf), "p_uncertainty"),
    "qtc_mixed_band-theta-empty": (lambda: qtc_mixed_band([], 0.9, 0.1), "theta"),
    "run_qtc-client-empty": (lambda: run_qtc([]), "client"),
    "simulate_counts-n-inf": (lambda: simulate_counts(bell("psi+"), "ZZ", math.inf, seed=0), "n"),
    "simulate_counts-n-nan": (lambda: simulate_counts(bell("psi+"), "ZZ", math.nan, seed=0), "n"),
    "simulate_counts-n-above-cap": (lambda: simulate_counts(bell("psi+"), "ZZ", 1e300, seed=0), "n"),
    "exact_counts-n-inf": (lambda: exact_counts(bell("psi+"), "ZZ", n=math.inf), "n"),
    "exact_counts-n-negative": (lambda: exact_counts(bell("psi+"), "ZZ", n=-1), "n"),
    "fidelity_with_error-target-stack": (
        lambda: fidelity_with_error(
            [CountsRecord(s, {"0": 1.0, "1": 1.0}, 2.0, None, exact=True) for s in "XYZ"],
            client_ket([ClientParams(1.0), ClientParams(2.0)]), trials=10),
        "target"),
    "dicke-k-fractional": (lambda: dicke(4, 2.5), "k"),
    "dicke-n-float": (lambda: dicke(4.0, 2), "n"),
    "collective_spin-n-fractional": (lambda: collective_spin(2.5), "n"),
    "witness_wcs-gamma-nan": (lambda: witness_wcs(math.nan, 4.0), "gamma"),
    "witness_projector_d3-k-float": (lambda: witness_projector_d3(1.0), "k"),
    "werner_dicke-p-string": (lambda: werner_dicke("0.5"), "p"),
    "ClientParams-theta-bool": (lambda: ClientParams(True), "theta"),
    "WitnessReport-uncertainty-inf": (lambda: WitnessReport.build("w", 0.0, math.inf), "uncertainty"),
    "propagate_wcs_error-d_jx2-inf": (lambda: propagate_wcs_error(-1, math.inf, 0, 0), "d_jx2"),
}


@pytest.mark.parametrize("call,name", CONTRACTS.values(), ids=CONTRACTS)
def test_refused_at_entry(monkeypatch, call, name):
    def unreachable(*args, **kwargs):
        raise AssertionError("the call ran past its argument checks")
    for module, attr in ((circuits, "apply_gate"), (protocols, "apply_gate"), (protocols, "run_qtc"),
                         (tomography, "apply_gate")):
        monkeypatch.setattr(module, attr, unreachable)
    with pytest.raises(ValueError, match=rf"\b{re.escape(name)}\b"):
        call()


@pytest.mark.parametrize("dephase", [0.0, 0.05, 0.3, 1.0])
def test_clone_fidelity_is_monotone_in_p(dephase):
    """qtc_mixed_band evaluates only the ends of [p - dp, p + dp], which bound the
    band only while the average clone fidelity is monotone in the Werner weight p."""
    clients = [ClientParams(theta, dephase_lambda=dephase) for theta in np.linspace(0, math.pi, 13)]
    fids = np.array([run_qtc(clients, werner_dicke(p)).average_clone_fidelity
                     for p in np.linspace(0.0, 1.0, 41)])
    assert np.diff(fids, axis=0).min() >= -1e-15
