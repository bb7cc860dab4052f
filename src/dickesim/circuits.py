"""Gate set of the conversion stage and the bounded search for the
xi -> Dicke conversion sequence.

CX flips the polarization target when the path control is |1>; CZBAR applies
sigma-z to the target when the control is |0>. Both match the half-wave-plate
realizations of the conversion stage; PHASE models the glass-plate phases.
"""
from __future__ import annotations

import math
from types import MappingProxyType

import numpy as np

from .register import (CX, HADAMARD, PAULI_I, PAULI_X, PAULI_Z, PureState, Record, apply_gate,
                       check_integer, check_number, check_states)

CZBAR = np.kron(np.diag([0, 1]), PAULI_I) + np.kron(np.diag([1, 0]), PAULI_Z)  # control first
CZBAR.setflags(write=False)
# kind -> matrix; PHASE's is built from its angle
_MATRICES = MappingProxyType(
    {"H": HADAMARD, "X": PAULI_X, "Z": PAULI_Z, "PHASE": None, "CX": CX, "CZBAR": CZBAR})
GATE_KINDS = tuple(_MATRICES)
MATCH_TOL = 1e-9


class GateSpec(Record):
    """One gate: kind, target label, optional control label / phase angle."""

    def __init__(self, kind: str, target: str, control: str | None = None, phi: float | None = None):
        if kind not in GATE_KINDS:
            raise ValueError(f"unknown gate kind {kind!r}")
        # a control is given exactly for CX and CZBAR, an angle exactly for PHASE
        if (control is None) == (kind in ("CX", "CZBAR")):
            raise ValueError(f"{kind} gate " + (
                "needs a control label" if control is None else "takes no control label"))
        if (phi is None) == (kind == "PHASE"):
            raise ValueError(f"{kind} gate " + ("needs an angle" if phi is None else "takes no angle"))
        if control is not None and control == target:
            raise ValueError(f"{kind} gate's control {control!r} is its target")
        if phi is not None:
            check_number("phi", phi)
        self._set(kind, target, control, phi)

    @property
    def labels(self) -> tuple[str, ...]:
        if self.control is not None:
            return (self.control, self.target)
        return (self.target,)

    def matrix(self) -> np.ndarray:
        if self.phi is not None:
            return np.array([[1, 0], [0, np.exp(1j * self.phi)]])
        return _MATRICES[self.kind]

    def to_line(self) -> str:
        parts = [self.kind, self.control if self.control is not None else "-", self.target]
        if self.phi is not None:
            parts.append(repr(self.phi))
        return " ".join(parts)

    @classmethod
    def from_line(cls, line: str) -> "GateSpec":
        parts = line.split()
        if len(parts) not in (3, 4):
            raise ValueError(f"cannot parse gate line {line!r}")
        kind, control, target = parts[0], parts[1], parts[2]
        phi = float(parts[3]) if len(parts) == 4 else None
        return cls(kind=kind, target=target, control=None if control == "-" else control, phi=phi)


class Circuit(Record):
    """Ordered gate sequence; applied first step first."""

    def __init__(self, steps: tuple[GateSpec, ...] = ()):
        self._set(steps)

    @property
    def depth(self) -> int:
        return len(self.steps)

    def to_text(self) -> str:
        return "\n".join(step.to_line() for step in self.steps) + ("\n" if self.steps else "")

    @classmethod
    def from_text(cls, text: str) -> "Circuit":
        steps = tuple(GateSpec.from_line(line) for line in text.splitlines() if line.strip())
        return cls(steps)


def run_circuit(state, circuit: Circuit):
    """Apply the circuit steps in order; unitary overall."""
    check_states(state=state)
    if not isinstance(circuit, Circuit):
        raise ValueError(f"circuit must be a Circuit, got {circuit!r:.80}")
    for step in circuit.steps:
        state = apply_gate(state, step.matrix(), step.labels)
    return state


# the conversion-stage gate pool: path Hadamards, path-controlled CX and CZBAR
# onto the matching polarization qubit, and pi phases on the paths
CONVERSION_POOL = (
    GateSpec("H", "c"),
    GateSpec("H", "d"),
    GateSpec("CX", "a", control="c"),
    GateSpec("CX", "b", control="d"),
    GateSpec("CZBAR", "a", control="c"),
    GateSpec("CZBAR", "b", control="d"),
    GateSpec("PHASE", "c", phi=math.pi),
    GateSpec("PHASE", "d", phi=math.pi),
)
# the deepest conversion search, and the deepest conversion circuit resource-check accepts
MAX_DEPTH = 8


class ConversionSearch(Record):
    """Outcome of the breadth-first conversion search."""

    def __init__(self, found: bool, circuit: Circuit | None, fidelity: float, best_fidelity: float,
                 best_circuit: Circuit, states_explored: int):
        self._set(found, circuit, fidelity, best_fidelity, best_circuit, states_explored)


def _canonical_key(amps: np.ndarray) -> bytes:
    idx = int(np.argmax(np.abs(amps)))
    phase = amps[idx] / abs(amps[idx])
    canon = np.round(amps / phase, 9) + 0.0
    return canon.tobytes()


def find_conversion_circuit(
    source: PureState,
    target: PureState,
    pool: tuple[GateSpec, ...] = CONVERSION_POOL,
    max_depth: int = MAX_DEPTH,
) -> ConversionSearch:
    """Breadth-first search for a pool sequence mapping source to target.

    A sequence is found when its fidelity with the target is within
    MATCH_TOL of 1. Deterministic: fixed pool order, lexicographic tie-break
    by construction, and duplicate states (up to global phase) pruned. The
    states kept at one depth are expanded as one stack. Exhaustion returns
    a not-found result carrying the best fidelity seen.
    """
    max_depth = check_integer("max_depth", max_depth, 0, MAX_DEPTH)
    seen: set[bytes] = set()
    best_f, best_path, explored = -math.inf, (), 0
    # the states made at one depth, in the order a FIFO queue would make them
    made = [(source.amplitudes, ())]
    for depth in range(max_depth + 1):
        kept = []
        for amps, path in made:
            key = _canonical_key(amps)
            if key in seen:
                continue
            seen.add(key)
            explored += 1
            f = float(abs(np.vdot(target.amplitudes, amps)) ** 2)
            if f > best_f:
                best_f, best_path = f, path
            if f >= 1.0 - MATCH_TOL:
                circ = Circuit(path)
                return ConversionSearch(True, circ, f, f, circ, explored)
            kept.append((amps, path))
        if not kept or depth == max_depth:
            break
        stack = PureState(source.layout, np.array([amps for amps, _ in kept]))
        out = [apply_gate(stack, gate.matrix(), gate.labels).amplitudes for gate in pool]
        made = [(out[j][i], path + (gate,))
                for i, (_, path) in enumerate(kept) for j, gate in enumerate(pool)]
    return ConversionSearch(False, None, 0.0, best_f, Circuit(best_path), explored)
