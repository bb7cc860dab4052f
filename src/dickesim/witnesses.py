"""Collective-spin operators, entanglement witnesses, biseparability bounds.

The four-qubit fidelity witness is kept in two forms: the literal transcription
(which evaluates positive everywhere, minimum eigenvalue ~2) and a
reconstructed variant shifted so its ideal-state expectation is -1, the value
a tight fidelity witness must reach. Both are exposed; neither silently
replaces the other.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple, Sequence

import numpy as np

from .register import PureState, State, pauli_matrix
from .states import dicke

SETTING_TOL = 1e-10

# reference measured second moments of the collective spin, with uncertainties
MEASURED_J2 = {"jx2": 2.568, "jy2": 2.617, "jz2": 0.039}
MEASURED_J2_ERR = {"jx2": 0.015, "jy2": 0.011, "jz2": 0.028}


def pauli_decompose(matrix: np.ndarray) -> list[tuple[float, str]]:
    """Real coefficients above 1e-12 of a Hermitian operator in the Pauli-string basis."""
    n = int(round(math.log2(matrix.shape[0])))
    coeffs = []
    for combo in itertools.product("IXYZ", repeat=n):
        s = "".join(combo)
        c = float(np.real(np.sum(pauli_matrix(s).T * matrix))) / 2 ** n
        if abs(c) > 1e-12:
            coeffs.append((c, s))
    return coeffs


@dataclass(frozen=True, eq=False)
class Observable:
    """Hermitian operator, optionally with a local-setting Pauli decomposition."""

    matrix: np.ndarray
    settings: tuple[tuple[float, str], ...] | None = None
    name: str = ""
    reconstructed: bool = False

    def __post_init__(self):
        mat = np.array(self.matrix, dtype=complex, copy=True)
        if not np.abs(mat - mat.conj().T).max() <= SETTING_TOL:
            raise ValueError("observable matrix is not Hermitian within 1e-10")
        mat.setflags(write=False)
        object.__setattr__(self, "matrix", mat)
        if self.settings is not None:
            # agreement with the matrix is surfaced by decomposition_check,
            # not silently enforced here
            object.__setattr__(self, "settings", tuple((float(c), s) for c, s in self.settings))

    def expectation(self, state: State) -> float:
        if isinstance(state, PureState):
            return float(np.real(state.amplitudes.conj() @ self.matrix @ state.amplitudes))
        return float(np.real(np.trace(state.matrix @ self.matrix)))


@dataclass(frozen=True, eq=False)
class CollectiveSpinSet:
    """J_k = sum_i sigma_i^k / 2, its square J_k^2 and S_k = (J_k^2 - 1)/2 for one register size."""

    n: int
    jx: Observable
    jy: Observable
    jz: Observable
    jx2: np.ndarray
    jy2: np.ndarray
    jz2: np.ndarray
    sx: Observable
    sy: Observable
    sz: Observable


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
        j = _collective_matrix(n, axis.upper())
        mats[f"j{axis}2"] = j2 = j @ j
        j2.setflags(write=False)
        mats[f"j{axis}"] = Observable(j, name=f"J{axis}")
        mats[f"s{axis}"] = Observable((j2 - np.eye(2 ** n)) / 2.0, name=f"S{axis}")
    return CollectiveSpinSet(n=n, **mats)


@lru_cache(maxsize=None)
def witness_wm() -> Observable:
    """Four-qubit collective-spin witness, literal transcription.

    [24 I + Jx^2 Sx + Jy^2 Sy + Jz^2 (31 I - 7 Jz^2)] / 12. As written this
    operator is positive on every state (ideal-state expectation 2.75, minimum
    eigenvalue 2.0); see witness_wm_calibrated for the usable variant.
    """
    cs = collective_spin(4)
    eye = np.eye(16)
    mat = (24 * eye + cs.jx2 @ cs.sx.matrix + cs.jy2 @ cs.sy.matrix
           + cs.jz2 @ (31 * eye - 7 * cs.jz2)) / 12
    return Observable(mat, settings=pauli_decompose(mat), name="W_m (transcribed)")


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
    return Observable(mat, settings=pauli_decompose(mat),
                      name="W_m (reconstructed)", reconstructed=True)


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
    return Observable(mat, settings=pauli_decompose(mat), name=f"W_cs(gamma={gamma})")


def propagate_wcs_error(gamma: float, d_jx2: float, d_jy2: float, d_jz2: float) -> float:
    """Quadrature propagation sqrt(dJx2^2 + dJy2^2 + gamma^2 dJz2^2)."""
    for name, dev in (("d_jx2", d_jx2), ("d_jy2", d_jy2), ("d_jz2", d_jz2)):
        if not dev >= 0:
            raise ValueError(f"{name}={dev} must be non-negative")
    return math.sqrt(d_jx2 ** 2 + d_jy2 ** 2 + gamma ** 2 * d_jz2 ** 2)


BIPARTITIONS_4 = (
    ((0,), (1, 2, 3)),
    ((1,), (0, 2, 3)),
    ((2,), (0, 1, 3)),
    ((3,), (0, 1, 2)),
    ((0, 1), (2, 3)),
    ((0, 2), (1, 3)),
    ((0, 3), (1, 2)),
)


def _haar_ket(rng: np.random.Generator, dim: int) -> np.ndarray:
    v = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    return v / np.linalg.norm(v)


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
    return np.real(cs.jx2 + cs.jy2 + gamma * cs.jz2), np.real(cs.jx.matrix), np.real(cs.jz.matrix)


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


@lru_cache(maxsize=None)
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


def random_biseparable_moments(n_samples: int, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """Sample pure biseparable states; returns (<Jx^2 + Jy^2>, <Jz^2>) arrays.

    Each sample draws a random bipartition and Haar-random factor states.
    The moments let callers assemble <Jx^2 + Jy^2 + gamma Jz^2> for any gamma.
    """
    rng = np.random.default_rng(seed)
    cs = collective_spin(4)
    op_xy = cs.jx2 + cs.jy2
    xy = np.empty(n_samples)
    zz = np.empty(n_samples)
    for i in range(n_samples):
        part_a, part_b = BIPARTITIONS_4[rng.integers(len(BIPARTITIONS_4))]
        va = _haar_ket(rng, 2 ** len(part_a))
        vb = _haar_ket(rng, 2 ** len(part_b))
        # kron orders axes as (part_a, part_b); transpose puts qubit i at axis i
        order = list(part_a) + list(part_b)
        vec = np.kron(va, vb).reshape((2,) * 4).transpose(np.argsort(order)).reshape(-1)
        xy[i] = np.real(vec.conj() @ op_xy @ vec)
        zz[i] = np.real(vec.conj() @ cs.jz2 @ vec)
    return xy, zz


def _permutation_patterns(pattern: str) -> list[str]:
    """Distinct position permutations of a Pauli pattern, e.g. ZII -> ZII, IZI, IIZ."""
    return sorted(set("".join(p) for p in itertools.permutations(pattern)))


def _d3_projector_witness(k: int) -> np.ndarray:
    """(2/3) I - |D3(k)><D3(k)| for k in {1, 2}."""
    if k not in (1, 2):
        raise ValueError(f"excitation number k={k} must be 1 or 2")
    d3 = dicke(3, k)
    return (2.0 / 3.0) * np.eye(8) - np.outer(d3.amplitudes, d3.amplitudes.conj())


def _k_sign(k: int, string: str) -> float:
    """Sign of a Pauli term of the k=1 witness in the k=2 one.

    The k=2 witness is the k=1 one with every qubit conjugated by sigma-x,
    which flips the sign of terms with an odd number of Y or Z.
    """
    return -1.0 if k == 2 and sum(ch in "YZ" for ch in string) % 2 else 1.0


def _d3_rearranged_terms(k: int) -> list[tuple[float, str]]:
    """The rearranged eight-group decomposition of the D3 projector witness."""
    groups = [
        (13.0, "III"),
        (3.0, "ZZZ"),
        (-1.0, "ZII"),
        (1.0, "ZZI"),
        (-2.0, "XXI"),
        (-2.0, "YYI"),
        (-2.0, "XXZ"),
        (-2.0, "YYZ"),
    ]
    return [(coeff * _k_sign(k, string) / 24.0, string)
            for coeff, pattern in groups for string in _permutation_patterns(pattern)]


def witness_projector_d3(k: int) -> Observable:
    """Fidelity witness (2/3) I - |D3(k)><D3(k)| with its eight-group settings."""
    mat = _d3_projector_witness(k)
    return Observable(mat, settings=tuple(_d3_rearranged_terms(k)), name=f"W_D3({k})")


def witness_projector_d3_optimal(k: int) -> Observable:
    """Same witness carrying the five-setting decomposition, expanded to Paulis.

    The five settings are ZZZ and the four tilted products (1 + Z + s L)^x3
    for L in {X, Y}, s in {+, -}. The two-Pauli product term of the published
    five-setting form carries no axis superscript; it is read as ZZ, under
    which the expansion reproduces the projector exactly.
    """
    mat = _d3_projector_witness(k)
    coeffs: dict[str, float] = {}

    def add(coeff: float, string: str) -> None:
        coeffs[string] = coeffs.get(string, 0.0) + coeff * _k_sign(k, string)

    add(17.0, "III")
    add(7.0, "ZZZ")
    for string in _permutation_patterns("ZII"):
        add(3.0, string)
    for string in _permutation_patterns("ZZI"):
        add(5.0, string)
    for axis in ("X", "Y"):
        for sign in (1.0, -1.0):
            # (I + Z + s L)^{x3} expands over letter choices per qubit
            for letters in itertools.product(("I", "Z", axis), repeat=3):
                weight = sign ** sum(1 for ch in letters if ch == axis)
                add(-weight, "".join(letters))
    terms = tuple((c / 24.0, s) for s, c in sorted(coeffs.items()) if abs(c) > 1e-15)
    return Observable(mat, settings=terms, name=f"W_D3({k}) five-setting")


def fidelity_bound_from_d3_witness(value: float) -> FidelityBound:
    """Projector-witness bound F >= 2/3 - <W>, clamped to [0, 1] with a flag."""
    return _clamped(2.0 / 3.0 - value)


@dataclass(frozen=True)
class DecompositionCheck:
    max_deviation: float
    equal: bool


def decomposition_check(observable: Observable) -> DecompositionCheck:
    """Rebuild the matrix from the settings list; report the max-norm deviation."""
    if observable.settings is None:
        raise ValueError("observable carries no settings decomposition")
    rebuilt = sum(c * pauli_matrix(s) for c, s in observable.settings)
    dev = float(np.abs(rebuilt - observable.matrix).max())
    return DecompositionCheck(max_deviation=dev, equal=dev <= SETTING_TOL)


@dataclass(frozen=True)
class WitnessReport:
    """One witness evaluation: value, uncertainty, verdict, optional bound."""

    witness: str
    parameters: dict
    value: float
    uncertainty: float
    verdict: str
    fidelity_bound: float | None = None
    sigma_multiplier: float = 1.0

    @classmethod
    def build(cls, witness: str, value: float, uncertainty: float,
              parameters: dict | None = None, fidelity_bound: float | None = None,
              sigma_multiplier: float = 1.0) -> "WitnessReport":
        if not uncertainty >= 0:
            raise ValueError(f"uncertainty {uncertainty} must be non-negative")
        entangled = value + sigma_multiplier * uncertainty < 0
        return cls(
            witness=witness,
            parameters=dict(parameters or {}),
            value=float(value),
            uncertainty=float(uncertainty),
            verdict="multipartite-entangled" if entangled else "inconclusive",
            fidelity_bound=fidelity_bound,
            sigma_multiplier=sigma_multiplier,
        )

    def to_json_dict(self) -> dict:
        return {
            "witness": self.witness,
            "parameters": self.parameters,
            "value": self.value,
            "uncertainty": self.uncertainty,
            "verdict": self.verdict,
            "fidelity_bound": self.fidelity_bound,
        }
