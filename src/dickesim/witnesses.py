"""Collective-spin operators, entanglement witnesses, biseparability bounds.

An observable is its Hermitian matrix and a name. Its local settings are
derived from the matrix by pauli_decompose: the Pauli strings are an
orthogonal basis, so an operator has exactly one such expansion, and the
hand-written forms published for a witness are checked against it in the test
oracles. The four-qubit fidelity witness is kept in two forms: the literal
transcription (which evaluates positive everywhere, minimum eigenvalue ~2)
and a reconstructed variant shifted so its ideal-state expectation is -1, the
value a tight fidelity witness must reach. Both are exposed; neither silently
replaces the other.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import NamedTuple, Sequence

import numpy as np

from .register import PAULIS, PureState, State, pauli_matrix
from .states import dicke

SETTING_TOL = 1e-10

# reference measured second moments of the collective spin, with uncertainties
MEASURED_J2 = {"jx2": 2.568, "jy2": 2.617, "jz2": 0.039}
MEASURED_J2_ERR = {"jx2": 0.015, "jy2": 0.011, "jz2": 0.028}
# the gammas at which the paper evaluates b4(gamma) and the witness
PAPER_GAMMAS = (0.0, -0.12, -1.0, -2.5)


_LETTERS = "IXYZ"
# P_a[r, c] at [a, r, c], a indexing _LETTERS
_PAULI_BASIS = np.stack([PAULIS[ch] for ch in _LETTERS])
_PAULI_BASIS.setflags(write=False)


def _qubit_count(shape: tuple[int, ...]) -> int:
    """n of a 2^n x 2^n operator, n >= 1; a ValueError naming the shape otherwise."""
    dim = shape[0] if len(shape) == 2 and shape[0] == shape[1] else 0
    if dim < 2 or dim & (dim - 1):
        raise ValueError(f"operator of shape {shape} is not 2^n x 2^n with n >= 1")
    return dim.bit_length() - 1


def pauli_decompose(matrix: np.ndarray) -> list[tuple[float, str]]:
    """Real coefficients above 1e-12 of a Hermitian operator in the Pauli-string basis.

    c_s = tr(P_s M) / 2^n for every string s in itertools.product order, by one
    (row, column) contraction per qubit: O(n 4^n) work, not O(16^n) for 4^n
    Kronecker chains (Hantzko, Binkowski & Gupta, arXiv:2310.13421).
    """
    n = _qubit_count(matrix.shape)
    # the (2,)*2n operator tensor with its axes regrouped qubit by qubit as (row, column)
    t = matrix.reshape((2,) * (2 * n)).transpose([axis for q in range(n) for axis in (q, q + n)])
    # each contraction moves the basis's free axis to the end, so after n of them
    # the string letters appear in qubit order
    for _ in range(n):
        t = np.tensordot(t, _PAULI_BASIS, axes=([0, 1], [2, 1]))
    coeffs = np.real(t).ravel() / 2 ** n
    return [(float(c), "".join(s)) for c, s in zip(coeffs, itertools.product(_LETTERS, repeat=n))
            if abs(c) > 1e-12]


@dataclass(frozen=True, eq=False)
class Observable:
    """Hermitian operator with a name; its local settings follow from the matrix."""

    matrix: np.ndarray
    name: str = ""

    def __post_init__(self):
        mat = np.array(self.matrix, dtype=complex, copy=True)
        if not np.abs(mat - mat.conj().T).max() <= SETTING_TOL:
            raise ValueError("observable matrix is not Hermitian within 1e-10")
        mat.setflags(write=False)
        object.__setattr__(self, "matrix", mat)

    @cached_property
    def settings(self) -> tuple[tuple[float, str], ...]:
        """pauli_decompose of the matrix, on first read; ValueError if it is not 2^n x 2^n."""
        return tuple(pauli_decompose(self.matrix))

    def expectation(self, state: State) -> float:
        if state.stack_shape:
            raise ValueError(f"an expectation takes a single state, not a stack of shape {state.stack_shape}")
        if self.matrix.shape != (2 ** state.n,) * 2:
            raise ValueError(f"observable of dimension {len(self.matrix)} on a {state.n}-qubit state "
                             f"of dimension {2 ** state.n}")
        if isinstance(state, PureState):
            return float(np.real(state.amplitudes.conj() @ self.matrix @ state.amplitudes))
        return float(np.real(np.trace(state.matrix @ self.matrix)))


@dataclass(frozen=True, eq=False)
class CollectiveSpinSet:
    """J_k = sum_i sigma_i^k / 2 and its square J_k^2 for one register size, read-only."""

    n: int
    jx: np.ndarray
    jy: np.ndarray
    jz: np.ndarray
    jx2: np.ndarray
    jy2: np.ndarray
    jz2: np.ndarray


def _collective_matrix(n: int, axis: str) -> np.ndarray:
    total = np.zeros((2 ** n, 2 ** n), dtype=complex)
    for i in range(n):
        total += pauli_matrix("I" * i + axis + "I" * (n - 1 - i))
    return total / 2.0


@lru_cache(maxsize=None)
def collective_spin(n: int) -> CollectiveSpinSet:
    """Collective spin operators for an n-qubit register."""
    if not 1 <= n <= 8:
        raise ValueError(f"register size n={n} outside [1, 8]")
    mats = {}
    for axis in "xyz":
        mats[f"j{axis}"] = j = _collective_matrix(n, axis.upper())
        mats[f"j{axis}2"] = j @ j
    for mat in mats.values():
        mat.setflags(write=False)
    return CollectiveSpinSet(n=n, **mats)


@lru_cache(maxsize=None)
def witness_wm() -> Observable:
    """Four-qubit collective-spin witness, literal transcription.

    [24 I + Jx^2 Sx + Jy^2 Sy + Jz^2 (31 I - 7 Jz^2)] / 12 with S_k = (J_k^2 - 1)/2.
    As written this operator is positive on every state (ideal-state
    expectation 2.75, minimum eigenvalue 2.0); see witness_wm_calibrated for
    the usable variant.
    """
    cs = collective_spin(4)
    eye = np.eye(16)
    mat = (24 * eye + cs.jx2 @ ((cs.jx2 - eye) / 2.0) + cs.jy2 @ ((cs.jy2 - eye) / 2.0)
           + cs.jz2 @ (31 * eye - 7 * cs.jz2)) / 12
    return Observable(mat, name="W_m (transcribed)")


@lru_cache(maxsize=None)
def witness_wm_calibrated() -> Observable:
    """Reconstructed variant of the collective-spin witness.

    Identity-shifted so the ideal Dicke-state expectation is exactly -1,
    the value at which the fidelity bound (2 - <W>)/3 reaches 1. Labeled
    reconstructed: the shift restores the calibration, not a certified
    biseparability bound.
    """
    base = witness_wm()
    ideal = base.expectation(dicke(4, 2))
    mat = base.matrix - (ideal + 1.0) * np.eye(16)
    return Observable(mat, name="W_m (reconstructed)")


class FidelityBound(NamedTuple):
    value: float
    clamped: bool


def _clamped(raw: float) -> FidelityBound:
    clipped = min(max(raw, 0.0), 1.0)
    return FidelityBound(clipped, clipped != raw)


def fidelity_bound_from_wm(value: float) -> FidelityBound:
    """Fidelity lower bound F >= (2 - <W_m>)/3, clamped to [0, 1] with a flag."""
    return _clamped((2.0 - value) / 3.0)


def witness_wcs(gamma: float, b4: float) -> Observable:
    """Generalized collective-spin witness b4(gamma) I - (Jx^2 + Jy^2 + gamma Jz^2)."""
    cs = collective_spin(4)
    mat = b4 * np.eye(16) - (cs.jx2 + cs.jy2 + gamma * cs.jz2)
    return Observable(mat, name=f"W_cs(gamma={gamma})")


def propagate_wcs_error(gamma: float, d_jx2: float, d_jy2: float, d_jz2: float) -> float:
    """Quadrature propagation sqrt(dJx2^2 + dJy2^2 + gamma^2 dJz2^2)."""
    for name, dev in (("d_jx2", d_jx2), ("d_jy2", d_jy2), ("d_jz2", d_jz2)):
        if not dev >= 0:
            raise ValueError(f"{name}={dev} must be non-negative")
    return math.sqrt(d_jx2 ** 2 + d_jy2 ** 2 + gamma ** 2 * d_jz2 ** 2)


@dataclass(frozen=True)
class BisepBoundResult:
    """Biseparability bound with the maximum reached in each bipartition class."""

    gamma: float
    value: float
    per_bipartition: tuple[tuple[str, float], ...]


B4_GAMMA_MIN = -10.0
# Scan resolution of the b4 solver: grid points per axis (odd, so a zoomed
# grid keeps its centre, the previous best point) and rounds of zooming.
ONE_THREE_ANGLES = 101
TWO_TWO_SLOPES = 21
ZOOMS = 8


def _spin_parts(n: int, gamma: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(F, Jx, Jz) on n qubits as real matrices, F = Jx^2 + Jy^2 + gamma Jz^2.

    Real matrices have real top eigenvectors, on which <Jy> = 0.
    """
    cs = collective_spin(n)
    return np.real(cs.jx2 + cs.jy2 + gamma * cs.jz2), np.real(cs.jx), np.real(cs.jz)


def _shifted(base: np.ndarray, jx: np.ndarray, jz: np.ndarray,
             cx: np.ndarray, cz: np.ndarray) -> np.ndarray:
    """Stack of base + cx Jx + cz Jz, one matrix per pair (cx, cz)."""
    return base + cx[:, None, None] * jx + cz[:, None, None] * jz


def _zoom_max(values_at, lo: Sequence[float], hi: Sequence[float], points: int) -> float:
    """Maximum of values_at over the box [lo, hi]: a grid, re-laid ZOOMS times
    over the cells next to its best point."""
    box_lo, box_hi = np.asarray(lo, dtype=float), np.asarray(hi, dtype=float)
    lo, hi = box_lo, box_hi
    for _ in range(ZOOMS + 1):
        axes = [np.linspace(a, b, points) for a, b in zip(lo, hi)]
        grid = np.stack([g.ravel() for g in np.meshgrid(*axes, indexing="ij")])
        values = values_at(*grid)
        best = int(np.argmax(values))
        step = (hi - lo) / (points - 1)
        lo = np.maximum(grid[:, best] - step, box_lo)
        hi = np.minimum(grid[:, best] + step, box_hi)
    return float(values[best])


def _one_three_max(gamma: float) -> float:
    """Maximum over 1|3 product states.

    The lone qubit's Bloch vector, rotated about z, is (sin t, 0, cos t) with
    t in [0, pi]; the three-qubit factor is then the top eigenvector of
    F_3 + sin t Jx + gamma cos t Jz, and the value (2 + gamma)/4 plus its
    eigenvalue.
    """
    f3, jx, jz = _spin_parts(3, gamma)

    def values(t):
        return np.linalg.eigvalsh(_shifted(f3, jx, jz, np.sin(t), gamma * np.cos(t)))[:, -1]

    return (2 + gamma) / 4 + _zoom_max(values, [0.0], [math.pi], ONE_THREE_ANGLES)


def _two_two_max(gamma: float) -> float:
    """Maximum over 2|2 product states.

    For a slope n = (n_x >= 0, n_z), pair A takes the top eigenvector a of
    F_2 + 2 n_x Jx + 2 gamma n_z Jz and pair B the top eigenvector of
    F_2 + 2 <Jx>_a Jx + 2 gamma <Jz>_a Jz. The value, <F_2>_a plus that
    eigenvalue, is the product's expectation for every n and the 2|2 maximum
    when n is the optimal pair B's mean spin.
    """
    f2, jx, jz = _spin_parts(2, gamma)

    def values(nx, nz):
        a = np.linalg.eigh(_shifted(f2, jx, jz, 2 * nx, 2 * gamma * nz))[1][:, :, -1]
        fa, sx, sz = (np.einsum("ki,ij,kj->k", a, m, a) for m in (f2, 2 * jx, 2 * gamma * jz))
        return fa + np.linalg.eigvalsh(_shifted(f2, jx, jz, sx, sz))[:, -1]

    return _zoom_max(values, [0.0, -1.0], [1.0, 1.0], TWO_TWO_SLOPES)


@lru_cache(maxsize=64)
def biseparable_bound_result(gamma: float) -> BisepBoundResult:
    """Maximum of <Jx^2 + Jy^2 + gamma Jz^2> over pure biseparable four-qubit states.

    The operator is invariant under qubit permutations, which leave two
    classes of bipartition, 1|3 and 2|2, and commutes with collective
    z-rotations, which reduce each class to a scan over a few moments (see
    _one_three_max and _two_two_max). Every scanned value is reached by an
    explicit product state, so the result bounds the maximum from below.
    """
    if not B4_GAMMA_MIN <= gamma <= 0.0:
        raise ValueError(f"gamma={gamma} outside the supported range [{B4_GAMMA_MIN:g}, 0]")
    per_part = (("0|123", _one_three_max(gamma)), ("01|23", _two_two_max(gamma)))
    return BisepBoundResult(gamma=gamma, value=max(v for _, v in per_part),
                            per_bipartition=per_part)


def biseparable_bound(gamma: float) -> float:
    """b4(gamma): see biseparable_bound_result."""
    return biseparable_bound_result(gamma).value


def witness_projector_d3(k: int) -> Observable:
    """Fidelity witness (2/3) I - |D3(k)><D3(k)| for k in {1, 2}.

    Its settings are pauli_decompose's, as for every observable. The paper's
    eight-group and five-setting forms expand to the same 20 strings and
    coefficients; the test oracles hold both forms and check this.
    """
    if k not in (1, 2):
        raise ValueError(f"excitation number k={k} must be 1 or 2")
    mat = (2.0 / 3.0) * np.eye(8) - dicke(3, k).density().matrix
    return Observable(mat, name=f"W_D3({k})")


def fidelity_bound_from_d3_witness(value: float) -> FidelityBound:
    """Projector-witness bound F >= 2/3 - <W>, clamped to [0, 1] with a flag."""
    return _clamped(2.0 / 3.0 - value)


@dataclass(frozen=True)
class WitnessReport:
    """One witness evaluation: value, uncertainty and verdict."""

    witness: str
    parameters: dict
    value: float
    uncertainty: float
    verdict: str

    @classmethod
    def build(cls, witness: str, value: float, uncertainty: float,
              parameters: dict | None = None) -> "WitnessReport":
        if not abs(value) < math.inf:
            raise ValueError(f"value {value} must be finite")
        if not uncertainty >= 0:
            raise ValueError(f"uncertainty {uncertainty} must be non-negative")
        entangled = value + uncertainty < 0
        return cls(
            witness=witness,
            parameters=dict(parameters or {}),
            value=float(value),
            uncertainty=float(uncertainty),
            verdict="multipartite-entangled" if entangled else "inconclusive",
        )
