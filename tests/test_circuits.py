from __future__ import annotations

import math

import numpy as np
import pytest

from dickesim import (
    CONVERSION_POOL,
    Circuit,
    GateSpec,
    apply_gate,
    basis_ket,
    dicke,
    fidelity,
    find_conversion_circuit,
    run_circuit,
    states_close,
    xi_state,
)
from dickesim.fixtures import load_conversion_circuit
from dickesim.register import PureState, RegisterLayout

import oracles


class TestGateSpec:
    def test_cx_matrix_definition(self):
        cx = GateSpec("CX", "a", control="c").matrix()
        expected = np.kron(np.diag([1, 0]), np.eye(2)) + np.kron(np.diag([0, 1]), oracles.SX)
        assert np.abs(cx - expected).max() == 0

    def test_czbar_matrix_definition(self):
        cz = GateSpec("CZBAR", "a", control="c").matrix()
        expected = np.kron(np.diag([0, 1]), np.eye(2)) + np.kron(np.diag([1, 0]), oracles.SZ)
        assert np.abs(cz - expected).max() == 0

    def test_phase_matrix(self):
        mat = GateSpec("PHASE", "c", phi=math.pi / 3).matrix()
        assert mat[1, 1] == pytest.approx(np.exp(1j * math.pi / 3))

    def test_validation(self):
        with pytest.raises(ValueError, match="control"):
            GateSpec("CX", "a")
        with pytest.raises(ValueError, match="no control"):
            GateSpec("H", "a", control="c")
        with pytest.raises(ValueError, match="angle"):
            GateSpec("PHASE", "a")
        with pytest.raises(ValueError, match="unknown gate"):
            GateSpec("SWAP", "a")


class TestSerialization:
    def test_round_trip(self):
        circuit = Circuit((
            GateSpec("H", "c"),
            GateSpec("CX", "a", control="c"),
            GateSpec("PHASE", "d", phi=math.pi),
        ))
        assert Circuit.from_text(circuit.to_text()) == circuit

    def test_line_format(self):
        assert GateSpec("CX", "b", control="d").to_line() == "CX d b"
        assert GateSpec("H", "c").to_line() == "H - c"

    def test_bad_line(self):
        with pytest.raises(ValueError, match="parse"):
            GateSpec.from_line("H c")


class TestRunCircuit:
    def test_empty_is_identity(self):
        xi = xi_state()
        assert states_close(run_circuit(xi, Circuit(())), xi)

    def test_hadamard_twice_is_identity(self):
        xi = xi_state()
        circuit = Circuit((GateSpec("H", "c"), GateSpec("H", "c")))
        assert states_close(run_circuit(xi, circuit), xi)

    def test_cx_action(self):
        state = basis_ket("0010", ("a", "b", "c", "d"))  # c = 1
        out = run_circuit(state, Circuit((GateSpec("CX", "a", control="c"),)))
        assert states_close(out, basis_ket("1010", ("a", "b", "c", "d")))

    def test_pool_circuits_preserve_norm(self):
        rng = np.random.default_rng(7)
        pool = CONVERSION_POOL
        state = PureState(RegisterLayout(("a", "b", "c", "d")), oracles.haar_ket(rng, 16))
        for _ in range(50):
            gate = pool[rng.integers(len(pool))]
            state = run_circuit(state, Circuit((gate,)))
            assert abs(np.linalg.norm(state.amplitudes) - 1.0) < 1e-10


class TestConversionSearch:
    def test_source_equals_target(self):
        d42 = dicke(4, 2, ("a", "b", "c", "d"))
        result = find_conversion_circuit(d42, d42)
        assert result.found and result.circuit.depth == 0

    def test_single_gate_recovery(self):
        target = dicke(4, 2, ("a", "b", "c", "d"))
        x_gate = GateSpec("X", "a")
        source = apply_gate(target, x_gate.matrix(), ("a",))
        result = find_conversion_circuit(source, target, pool=(x_gate, GateSpec("H", "c")))
        assert result.found
        assert result.circuit.steps == (x_gate,)

    def test_xi_conversion_found(self):
        result = find_conversion_circuit(xi_state(), dicke(4, 2, ("a", "b", "c", "d")))
        assert result.found
        assert result.circuit.depth <= 8
        assert result.fidelity >= 1 - 1e-9
        converted = run_circuit(xi_state(), result.circuit)
        assert fidelity(converted, dicke(4, 2, ("a", "b", "c", "d"))) >= 1 - 1e-9

    def test_search_deterministic(self):
        first = find_conversion_circuit(xi_state(), dicke(4, 2, ("a", "b", "c", "d")))
        second = find_conversion_circuit(xi_state(), dicke(4, 2, ("a", "b", "c", "d")))
        assert first.circuit == second.circuit
        assert first.states_explored == second.states_explored

    def test_matches_fixture(self):
        fixture = load_conversion_circuit()
        result = find_conversion_circuit(xi_state(), dicke(4, 2, ("a", "b", "c", "d")))
        assert result.circuit == fixture

    def test_exhaustion_reports_best(self):
        rng = np.random.default_rng(12)
        target = PureState(RegisterLayout(("a", "b", "c", "d")), oracles.haar_ket(rng, 16))
        result = find_conversion_circuit(xi_state(), target, max_depth=3)
        assert not result.found
        assert result.circuit is None
        assert 0.0 <= result.best_fidelity < 1 - 1e-9
        assert result.best_circuit.depth <= 3
        assert result.states_explored > 1

    def test_states_explored_pinned(self):
        # an immediate repeat of a self-inverse gate recreates a state already
        # seen, so the seen-state pruning alone decides these counts
        found = find_conversion_circuit(xi_state(), dicke(4, 2, ("a", "b", "c", "d")))
        assert found.states_explored == 265
        target = PureState(RegisterLayout(("a", "b", "c", "d")),
                           oracles.haar_ket(np.random.default_rng(12), 16))
        assert find_conversion_circuit(xi_state(), target, max_depth=3).states_explored == 90

    def test_depth_cap(self):
        with pytest.raises(ValueError, match="max_depth=9 "):
            find_conversion_circuit(xi_state(), dicke(4, 2, ("a", "b", "c", "d")), max_depth=9)
