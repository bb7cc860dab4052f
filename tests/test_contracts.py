"""Contracts of the exported API: out-of-contract input is refused where it enters.

Each row of CONTRACTS is one call with one invalid argument. It must raise a
ValueError whose message names that argument, before any state is evolved:
gate application, the register's contractions, the protocols' CX-rotated
register build, the telecloning run and the tomography inversion are
replaced by stubs that fail if they are reached. The numeric rows are refused by register.check_number or
register.check_integer, whose message starts with name=value.
"""
from __future__ import annotations

import math
import re

import numpy as np
import pytest

from dickesim import (
    Circuit,
    ClientParams,
    CountsRecord,
    GateSpec,
    MixedState,
    Observable,
    PureState,
    RegisterLayout,
    WitnessReport,
    bell,
    born_probabilities,
    circuits,
    client_ket,
    collective_spin,
    derive_correction_table,
    dicke,
    estimate_correlator,
    estimate_witness,
    exact_counts,
    fidelity,
    fidelity_with_error,
    find_conversion_circuit,
    partial_trace,
    permute_to,
    project,
    propagate_wcs_error,
    protocols,
    qtc_mixed_band,
    register,
    run_circuit,
    run_odt,
    run_qtc,
    simulate_counts,
    tensor,
    tomography,
    tomography_linear,
    werner_dicke,
    witness_projector_d3,
    witness_wcs,
    xi_state,
)
from dickesim.register import PAULI_I, PAULI_X, apply_gate, pauli_matrix
from dickesim.states import RESOURCE_LABELS

# records that cover every Pauli string over Z and I on two qubits
ZZ_RECORDS = [CountsRecord("ZZ", {"00": 5, "11": 5}, 10.0, seed=None)]
# records that cover all nine two-qubit settings, enough for a linear inversion
PAIR_RECORDS = [CountsRecord(a + b, {"00": 1, "11": 1}, 2.0, seed=None) for a in "XYZ" for b in "XYZ"]
# two Dicke resources as one stack, which the protocols do not take
DICKE_STACK = PureState(RegisterLayout(RESOURCE_LABELS), np.array([dicke(4, 2).amplitudes] * 2))

# id -> (call, the argument its message must name)
CONTRACTS = {
    "GateSpec-control-is-target": (lambda: GateSpec("CX", "a", control="a"), "control"),
    "GateSpec-phi-nan": (lambda: GateSpec("PHASE", "a", phi=math.nan), "phi"),
    "ClientParams-phi-inf": (lambda: ClientParams(1.0, phi=math.inf), "phi"),
    "Observable-matrix-1d": (lambda: Observable(np.ones(4)), "matrix"),
    "find_conversion_circuit-max_depth-negative": (
        lambda: find_conversion_circuit(xi_state(), dicke(4, 2, ("a", "b", "c", "d")), max_depth=-1),
        "max_depth"),
    "run_odt-client-empty": (lambda: run_odt([]), "client"),
    "run_odt-client-float": (lambda: run_odt(1.0), "client"),
    "run_odt-client-mixed-purity": (
        lambda: run_odt([ClientParams(1.0), ClientParams(1.0, dephase_lambda=0.1)]), "client"),
    "run_odt-port-unknown": (lambda: run_odt(ClientParams(1.0), port="q"), "port"),
    "run_odt-receiver-unknown": (lambda: run_odt(ClientParams(1.0), receiver="q"), "receiver"),
    "run_odt-receiver-is-port": (lambda: run_odt(ClientParams(1.0), port="b", receiver="b"), "receiver"),
    "run_qtc-port-unknown": (lambda: run_qtc(ClientParams(1.0), port="q"), "port"),
    "run_qtc-port-is-client": (lambda: run_qtc(ClientParams(1.0), port="X"), "port"),
    "run_qtc-resource-stack": (lambda: run_qtc(ClientParams(1.0), resource=DICKE_STACK), "resource"),
    "run_odt-resource-stack": (lambda: run_odt(ClientParams(1.0), resource=DICKE_STACK), "resource"),
    "derive_correction_table-port-unknown": (lambda: derive_correction_table(dicke(4, 2), port="z"), "port"),
    "derive_correction_table-port-is-client": (
        lambda: derive_correction_table(dicke(4, 2), port="X"), "port"),
    "run_qtc-resource-three-qubits": (
        lambda: run_qtc(ClientParams(1.0), resource=dicke(3, 1, ("a", "b", "c"))), "resource"),
    "qtc_mixed_band-p-above-one": (lambda: qtc_mixed_band(1.0, p=2.0, dephase_lambda=0.0), "p"),
    "qtc_mixed_band-p_uncertainty-nan": (
        lambda: qtc_mixed_band(1.0, 0.5, 0.0, p_uncertainty=math.nan), "p_uncertainty"),
    "qtc_mixed_band-p_uncertainty-inf": (
        lambda: qtc_mixed_band(1.0, 0.5, 0.0, p_uncertainty=math.inf), "p_uncertainty"),
    "qtc_mixed_band-theta-empty": (lambda: qtc_mixed_band([], 0.9, 0.1), "theta"),
    "run_qtc-client-empty": (lambda: run_qtc([]), "client"),
    "run_qtc-client-float-item": (lambda: run_qtc([1.0]), "client"),
    "run_qtc-client-str": (lambda: run_qtc("ab"), "client"),
    "run_qtc-client-none": (lambda: run_qtc(None), "client"),
    "simulate_counts-n-inf": (lambda: simulate_counts(bell("psi+"), "ZZ", math.inf, seed=0), "n"),
    "simulate_counts-n-nan": (lambda: simulate_counts(bell("psi+"), "ZZ", math.nan, seed=0), "n"),
    "simulate_counts-n-above-cap": (lambda: simulate_counts(bell("psi+"), "ZZ", 1e300, seed=0), "n"),
    "exact_counts-n-inf": (lambda: exact_counts(bell("psi+"), "ZZ", n=math.inf), "n"),
    "exact_counts-n-negative": (lambda: exact_counts(bell("psi+"), "ZZ", n=-1), "n"),
    "estimate_correlator-pauli_string-letter": (
        lambda: estimate_correlator(ZZ_RECORDS, "XQ"), "pauli_string"),
    "estimate_correlator-pauli_string-empty": (lambda: estimate_correlator(ZZ_RECORDS, ""), "pauli_string"),
    "estimate_correlator-pauli_string-int": (lambda: estimate_correlator(ZZ_RECORDS, 5), "pauli_string"),
    "fidelity_with_error-target-stack": (
        lambda: fidelity_with_error(
            [CountsRecord(s, {"0": 1.0, "1": 1.0}, 2.0, None, exact=True) for s in "XYZ"],
            client_ket([ClientParams(1.0), ClientParams(2.0)]), trials=10),
        "target"),
    "tomography_linear-records-ints": (lambda: tomography_linear([1, 2]), "records"),
    "fidelity_with_error-records-ints": (
        lambda: fidelity_with_error([1, 2], bell("psi+"), trials=10), "records"),
    "fidelity_with_error-records-stack-of-ints": (
        lambda: fidelity_with_error([5, 6], client_ket([ClientParams(1.0), ClientParams(2.0)]), trials=10),
        "records"),
    "estimate_correlator-records-ints": (lambda: estimate_correlator([1, 2], "ZZ"), "records"),
    "estimate_correlator-pauli_string-nan": (lambda: estimate_correlator(ZZ_RECORDS, math.nan), "pauli_string"),
    "estimate_correlator-pauli_string-list": (
        lambda: estimate_correlator(ZZ_RECORDS, ["Z", "Z"]), "pauli_string"),
    "estimate_correlator-records-empty": (lambda: estimate_correlator([], "ZZ"), "records"),
    "estimate_correlator-records-str": (lambda: estimate_correlator("ZZ", "ZZ"), "records"),
    "estimate_correlator-counts-nan": (
        lambda: estimate_correlator([CountsRecord("ZZ", {"00": math.nan}, 1.0, None)], "ZZ"), "counts"),
    "estimate_correlator-counts-inf": (
        lambda: estimate_correlator([CountsRecord("ZZ", {"00": -math.inf}, 1.0, None)], "ZZ"), "counts"),
    "estimate_correlator-counts-fractional": (
        lambda: estimate_correlator([CountsRecord("ZZ", {"00": 0.5}, 1.0, 0)], "ZZ"), "counts"),
    "tomography_linear-records-empty": (lambda: tomography_linear([]), "records"),
    "tomography_linear-records-none": (lambda: tomography_linear(None), "records"),
    "tomography_linear-labels-int": (lambda: tomography_linear(PAIR_RECORDS, labels=5), "labels"),
    "tomography_linear-labels-nan": (lambda: tomography_linear(PAIR_RECORDS, labels=math.nan), "labels"),
    # a str is one label, as every register operation reads it
    "tomography_linear-labels-str": (lambda: tomography_linear(PAIR_RECORDS, labels="ab"), "labels"),
    "tomography_linear-labels-empty": (lambda: tomography_linear(PAIR_RECORDS, labels=()), "labels"),
    "tomography_linear-labels-three": (
        lambda: tomography_linear(PAIR_RECORDS, labels=("a", "b", "c")), "labels"),
    "tomography_linear-labels-duplicate": (
        lambda: tomography_linear(PAIR_RECORDS, labels=["a", "a"]), "labels"),
    "CountsRecord-total_requested-nan": (
        lambda: CountsRecord("ZZ", {"00": 1}, total_requested=math.nan, seed=None), "total_requested"),
    "dicke-k-fractional": (lambda: dicke(4, 2.5), "k"),
    "dicke-n-float": (lambda: dicke(4.0, 2), "n"),
    "collective_spin-n-fractional": (lambda: collective_spin(2.5), "n"),
    "witness_wcs-gamma-nan": (lambda: witness_wcs(math.nan, 4.0), "gamma"),
    "witness_projector_d3-k-float": (lambda: witness_projector_d3(1.0), "k"),
    "werner_dicke-p-string": (lambda: werner_dicke("0.5"), "p"),
    "ClientParams-theta-bool": (lambda: ClientParams(True), "theta"),
    "WitnessReport-uncertainty-inf": (lambda: WitnessReport.build("w", 0.0, math.inf), "uncertainty"),
    "propagate_wcs_error-d_jx2-inf": (lambda: propagate_wcs_error(-1, math.inf, 0, 0), "d_jx2"),
    "project-onto-not-binary": (lambda: project(bell("psi+"), "a", "2"), "onto"),
    "apply_gate-labels-int": (lambda: apply_gate(bell("psi+"), PAULI_X, 0), "labels"),
    "partial_trace-keep-int": (lambda: partial_trace(bell("psi+"), 0), "keep"),
    "permute_to-label_order-none": (lambda: permute_to(bell("psi+"), None), "label_order"),
    "apply_gate-gate-str": (lambda: apply_gate(bell("psi+"), "X", "a"), "gate"),
    "fidelity-s2-int": (lambda: fidelity(bell("psi+"), 3), "s2"),
    "tensor-s2-none": (lambda: tensor(bell("psi+"), None), "s2"),
    "partial_trace-keep-empty": (lambda: partial_trace(bell("psi+"), []), "keep"),
    "apply_gate-labels-empty": (lambda: apply_gate(bell("psi+"), PAULI_I, ()), "labels"),
    # a str is one label, as every register operation reads it
    "permute_to-label_order-str": (lambda: permute_to(bell("psi+"), "ba"), "label_order"),
    "Observable.expectation-state-int": (lambda: Observable(pauli_matrix("Z")).expectation(3), "state"),
    "born_probabilities-state-int": (lambda: born_probabilities(3, "Z"), "state"),
    "estimate_witness-observable-int": (lambda: estimate_witness(ZZ_RECORDS, 3), "observable"),
    "run_circuit-circuit-int": (lambda: run_circuit(xi_state(), 3), "circuit"),
    "run_circuit-state-int": (lambda: run_circuit(3, Circuit(())), "state"),
    "apply_gate-state-int": (lambda: apply_gate(3, PAULI_X, "a"), "state"),
    "project-state-int": (lambda: project(3, "a", "0"), "state"),
    "partial_trace-state-int": (lambda: partial_trace(3, "a"), "state"),
    "permute_to-state-int": (lambda: permute_to(3, ("a",)), "state"),
    "PureState-layout-tuple": (lambda: PureState(("a",), [1, 0]), "layout"),
    "MixedState-layout-str": (lambda: MixedState("x", np.eye(2) / 2), "layout"),
    "RegisterLayout-labels-int": (lambda: RegisterLayout(5), "labels"),
    "RegisterLayout-labels-none": (lambda: RegisterLayout(None), "labels"),
    "CountsRecord-counts-int": (lambda: CountsRecord("Z", 5, 1, 0), "counts"),
}


@pytest.mark.parametrize("call,name", CONTRACTS.values(), ids=CONTRACTS)
def test_refused_at_entry(monkeypatch, call, name):
    def unreachable(*args, **kwargs):
        raise AssertionError("the call ran past its argument checks")
    for module, attr in ((circuits, "apply_gate"), (protocols, "apply_gate"), (protocols, "_cx_register"),
                         (protocols, "run_qtc"), (tomography, "apply_gate"), (tomography, "_invert"),
                         (register, "_apply_to_axes"), (register, "_matrices")):
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
