"""Contracts of the exported API: out-of-contract input is refused where it enters.

Each row of CONTRACTS is one call with one invalid argument. It must raise a
ValueError whose message names that argument, before any state is evolved:
gate application and the telecloning run are replaced by stubs that fail if
they are reached.
"""
from __future__ import annotations

import math
import re

import numpy as np
import pytest

from dickesim import (
    ClientParams,
    GateSpec,
    Observable,
    circuits,
    dicke,
    find_conversion_circuit,
    protocols,
    qtc_mixed_band,
    run_odt,
    run_qtc,
    werner_dicke,
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
}


@pytest.mark.parametrize("call,name", CONTRACTS.values(), ids=CONTRACTS)
def test_refused_at_entry(monkeypatch, call, name):
    def unreachable(*args, **kwargs):
        raise AssertionError("the call ran past its argument checks")
    for module, attr in ((circuits, "apply_gate"), (protocols, "apply_gate"), (protocols, "run_qtc")):
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
