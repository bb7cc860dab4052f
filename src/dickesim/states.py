"""Constructors for the named states of the protocol family.

Logical encoding for the hyperentangled resource: H, r -> 0 and V, l -> 1.
Register order for four-qubit states is (a, b, c, d) = (polarization A,
polarization B, path A, path B); the client qubit carries label X.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import permutations
from typing import Sequence

import numpy as np

from .register import (
    MixedState,
    PureState,
    RegisterError,
    RegisterLayout,
    fidelity,
    from_terms,
    permute_to,
)

RESOURCE_LABELS = ("a", "b", "c", "d")
CLIENT_LABEL = "X"
DEFAULT_LABELS = ("a", "b", "c", "d", "e", "f", "g", "h")

_ENCODING = {"H": "0", "V": "1", "r": "0", "l": "1"}


@dataclass(frozen=True)
class ClientParams:
    """Client qubit cos(theta/2)|0> + e^{i phi} sin(theta/2)|1>, optionally dephased.

    Dephasing multiplies the density-matrix off-diagonals by (1 - dephase_lambda).
    """

    theta: float
    phi: float = 0.0
    dephase_lambda: float = 0.0

    def __post_init__(self):
        if not 0.0 <= self.theta <= math.pi:
            raise ValueError(f"theta={self.theta} outside [0, pi]")
        if not 0.0 <= self.dephase_lambda <= 1.0:
            raise ValueError(f"dephase_lambda={self.dephase_lambda} outside [0, 1]")

    @property
    def alpha(self) -> float:
        return math.cos(self.theta / 2)

    @property
    def beta(self) -> complex:
        return complex(np.exp(1j * self.phi) * math.sin(self.theta / 2))


def dicke(n: int, k: int, labels: tuple[str, ...] | None = None) -> PureState:
    """Equal superposition of all weight-k n-bit strings, amplitude 1/sqrt(C(n,k))."""
    if not 0 <= k <= n:
        raise ValueError(f"excitation count k={k} outside [0, {n}]")
    if not 1 <= n <= 8:
        raise ValueError(f"qubit count n={n} outside [1, 8]")
    if labels is None:
        labels = DEFAULT_LABELS[:n]
    return from_terms([(format(idx, f"0{n}b"), 1) for idx in range(2 ** n)
                       if bin(idx).count("1") == k], labels)


_BELL_TERMS = {
    "psi+": (("01", 1), ("10", 1)),
    "psi-": (("01", 1), ("10", -1)),
    "phi+": (("00", 1), ("11", 1)),
    "phi-": (("00", 1), ("11", -1)),
}


def bell(which: str, labels: tuple[str, str] = ("a", "b")) -> PureState:
    """Bell-basis element; which is one of psi+, psi-, phi+, phi-."""
    if which not in _BELL_TERMS:
        raise ValueError(f"unknown Bell selector {which!r}; expected one of {sorted(_BELL_TERMS)}")
    return from_terms(_BELL_TERMS[which], labels)


def _encode(physical: str) -> str:
    return "".join(_ENCODING[ch] for ch in physical)


def xi_state() -> PureState:
    """Hyperentangled source state [|HH>(|rl>-|lr>) + 2|VV>|rl>]/sqrt(6) on (a,b,c,d)."""
    terms = [
        (_encode("HH") + _encode("rl"), 1),
        (_encode("HH") + _encode("lr"), -1),
        (_encode("VV") + _encode("rl"), 2),
    ]
    return from_terms(terms, RESOURCE_LABELS)


def dicke_physical() -> PureState:
    """Two-excitation four-qubit Dicke state written in the physical carrier basis.

    [|HHll> + |VVrr> + (|VH>+|HV>)(|rl>+|lr>)]/sqrt(6) with register order
    (a, b, c, d) = (pol A, pol B, path A, path B).
    """
    terms = [(_encode("HH") + _encode("ll"), 1), (_encode("VV") + _encode("rr"), 1)]
    for pol in ("VH", "HV"):
        for path in ("rl", "lr"):
            terms.append((_encode(pol) + _encode(path), 1))
    return from_terms(terms, RESOURCE_LABELS)


def physical_logical_permutation() -> tuple[str, ...]:
    """Label order mapping the physical-basis state onto dicke(4, 2).

    Searched over all 4! orders rather than hardcoded; the first match in
    lexicographic order is returned (the Dicke state is permutation
    symmetric, so the search lands on the identity order).
    """
    target = dicke(4, 2, RESOURCE_LABELS)
    phys = dicke_physical()
    for order in permutations(RESOURCE_LABELS):
        candidate = permute_to(phys, order)
        relabeled = PureState(target.layout, candidate.amplitudes)
        if fidelity(relabeled, target) >= 1.0 - 1e-10:
            return order
    raise RegisterError("no label permutation maps the physical state onto dicke(4, 2)")


def werner_dicke(p: float) -> MixedState:
    """Werner-like resource p |D><D| + (1-p) I/16 on (a, b, c, d)."""
    p = float(p)
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"p={p} outside [0, 1]")
    proj = dicke(4, 2, RESOURCE_LABELS).density()
    mat = p * proj.matrix + (1 - p) * np.eye(16) / 16
    return MixedState(proj.layout, mat)


def werner_weight_for_fidelity(target_fidelity: float) -> float:
    """Invert F(p) = p + (1-p)/16 for the mixture weight p."""
    p = (target_fidelity - 1 / 16) / (15 / 16)
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"fidelity {target_fidelity} needs p={p} outside [0, 1]")
    return p


def _client_amplitudes(params: ClientParams | Sequence[ClientParams]):
    """(single, clients, amplitudes): one row (alpha, beta) per client."""
    single = isinstance(params, ClientParams)
    stack = [params] if single else list(params)
    return single, stack, np.array([[p.alpha, p.beta] for p in stack]).reshape(-1, 2)


def client_ket(params: ClientParams | Sequence[ClientParams]) -> PureState:
    """Pure client state on qubit X; requires dephase_lambda = 0. A sequence of
    params gives a stack with one member per client."""
    single, stack, amps = _client_amplitudes(params)
    if any(p.dephase_lambda != 0.0 for p in stack):
        raise ValueError("client_ket is only defined for dephase_lambda = 0")
    return PureState(RegisterLayout((CLIENT_LABEL,)), amps[0] if single else amps)


def client_state(params: ClientParams | Sequence[ClientParams]) -> MixedState:
    """Client density matrix on qubit X, off-diagonals scaled by (1 - dephase_lambda).
    A sequence of params gives a stack with one member per client."""
    single, stack, amps = _client_amplitudes(params)
    mat = amps[:, :, None] * amps.conj()[:, None, :]
    scale = 1.0 - np.array([p.dephase_lambda for p in stack])
    mat[:, 0, 1] *= scale
    mat[:, 1, 0] *= scale
    return MixedState(RegisterLayout((CLIENT_LABEL,)), mat[0] if single else mat)
