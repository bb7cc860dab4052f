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
from functools import cached_property, lru_cache
from typing import NamedTuple, Sequence

import numpy as np

from .register import (NORM_TOL, PAULIS, PureState, Record, State, check_integer, check_number, check_states,
                       pauli_matrix)
from .states import dicke

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


class Observable(Record, eq=False):
    """Hermitian operator with a name; its local settings follow from the matrix."""

    def __init__(self, matrix: np.ndarray, name: str = ""):
        mat = np.array(matrix, dtype=complex, copy=True)
        if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
            raise ValueError(f"observable matrix of shape {mat.shape} is not square 2-D")
        if not np.abs(mat - mat.conj().T).max() <= NORM_TOL:
            raise ValueError(f"observable matrix is not Hermitian within {NORM_TOL}")
        mat.setflags(write=False)
        self._set(mat, name)

    @cached_property
    def settings(self) -> tuple[tuple[float, str], ...]:
        """pauli_decompose of the matrix, on first read; ValueError if it is not 2^n x 2^n."""
        return tuple(pauli_decompose(self.matrix))

    def expectation(self, state: State) -> float:
        """<state|matrix|state>, or tr(state matrix), of one state of the matrix's size."""
        check_states(state=state)
        if state.stack_shape:
            raise ValueError(f"state is a stack of shape {state.stack_shape}; an expectation takes a single state")
        if self.matrix.shape != (2 ** state.n,) * 2:
            raise ValueError(f"state has {state.n} qubits (dimension {2 ** state.n}), "
                             f"the observable dimension {len(self.matrix)}")
        if isinstance(state, PureState):
            return float(np.real(state.amplitudes.conj() @ self.matrix @ state.amplitudes))
        return float(np.real(np.trace(state.matrix @ self.matrix)))


class CollectiveSpinSet(Record, eq=False):
    """J_k = sum_i sigma_i^k / 2 and its square J_k^2 for one register size, read-only."""

    def __init__(self, n: int, jx: np.ndarray, jy: np.ndarray, jz: np.ndarray,
                 jx2: np.ndarray, jy2: np.ndarray, jz2: np.ndarray):
        self._set(n, jx, jy, jz, jx2, jy2, jz2)


def _collective_matrix(n: int, axis: str) -> np.ndarray:
    total = np.zeros((2 ** n, 2 ** n), dtype=complex)
    for i in range(n):
        total += pauli_matrix("I" * i + axis + "I" * (n - 1 - i))
    return total / 2.0


@lru_cache(maxsize=None)
def collective_spin(n: int) -> CollectiveSpinSet:
    """Collective spin operators for an n-qubit register."""
    n = check_integer("n", n, 1, 8)
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
    if not math.isfinite(raw):
        raise ValueError(f"fidelity bound {raw} from the witness value is not finite")
    clipped = min(max(raw, 0.0), 1.0)
    return FidelityBound(clipped, clipped != raw)


def fidelity_bound_from_wm(value: float) -> FidelityBound:
    """Fidelity lower bound F >= (2 - <W_m>)/3, clamped to [0, 1] with a flag."""
    return _clamped((2.0 - value) / 3.0)


def witness_wcs(gamma: float, b4: float) -> Observable:
    """Generalized collective-spin witness b4(gamma) I - (Jx^2 + Jy^2 + gamma Jz^2)."""
    check_number("gamma", gamma)
    check_number("b4", b4)
    cs = collective_spin(4)
    mat = b4 * np.eye(16) - (cs.jx2 + cs.jy2 + gamma * cs.jz2)
    return Observable(mat, name=f"W_cs(gamma={gamma})")


def propagate_wcs_error(gamma: float, d_jx2: float, d_jy2: float, d_jz2: float) -> float:
    """Quadrature propagation sqrt(dJx2^2 + dJy2^2 + gamma^2 dJz2^2)."""
    check_number("gamma", gamma)
    for name, dev in (("d_jx2", d_jx2), ("d_jy2", d_jy2), ("d_jz2", d_jz2)):
        check_number(name, dev, 0.0)
    return math.sqrt(d_jx2 ** 2 + d_jy2 ** 2 + gamma ** 2 * d_jz2 ** 2)


class BisepBoundResult(Record):
    """Biseparability bound with the maximum reached in each bipartition class.

    `scanned` holds each class's scanned maximum, or None where
    biseparable_bound_result skipped the scan; per_bipartition runs a
    skipped scan on first read, with the bits a full run gives it.
    """

    def __init__(self, gamma: float, value: float, scanned: tuple[tuple[str, float | None], ...]):
        self._set(gamma, value, scanned)

    @cached_property
    def per_bipartition(self) -> tuple[tuple[str, float], ...]:
        return tuple((name, scan(self.gamma) if v is None else v)
                     for (name, v), scan in zip(self.scanned, (_one_three_max, _two_two_max)))


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


def _zoom_max(coeffs_at, screen, values_at, lo: Sequence[float], hi: Sequence[float], points: int) -> float:
    """Maximum of the values over the box [lo, hi]: a grid, re-laid ZOOMS times
    over the cells next to its best point.

    coeffs_at maps the grid to each point's (cx, cz) and values_at maps those
    to values by LAPACK. Stacked eigh, eigvalsh and einsum compute each member
    as they would alone, so values_at may run on any subset of a round and give
    each member its bits on the whole grid. screen(cx, cz) brackets every
    value in (lower, upper) at a fraction of the cost. A point whose upper end
    lies below the largest lower end cannot hold the round's maximum, so it is
    left out, and np.argmax picks among the rest in grid order, as it would
    on the whole grid. Once a round keeps a quarter of its points, screening
    stops for the rest of the scan: later rounds zoom in on the same point,
    where a screen saves less than it costs.
    """
    box_lo, box_hi = np.asarray(lo, dtype=float), np.asarray(hi, dtype=float)
    lo, hi = box_lo, box_hi
    screening = True
    for _ in range(ZOOMS + 1):
        axes = [np.linspace(a, b, points) for a, b in zip(lo, hi)]
        grid = np.stack([g.ravel() for g in np.meshgrid(*axes, indexing="ij")])
        cx, cz = coeffs_at(*grid)
        keep = np.arange(cx.size)
        if screening:
            lower, upper = screen(cx, cz)
            keep = np.flatnonzero(~(upper < np.fmax.reduce(lower)))
            screening = 4 * keep.size < cx.size
        values = values_at(cx[keep], cz[keep])
        i = int(np.argmax(values))
        step = (hi - lo) / (points - 1)
        lo = np.maximum(grid[:, keep[i]] - step, box_lo)
        hi = np.minimum(grid[:, keep[i]] + step, box_hi)
    return float(values[i])


def _spin_three_halves(gamma: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(F_3, Jx, Jz) on the spin-3/2 states m = 3/2, 1/2, -1/2, -3/2 (see _one_three_max)."""
    m = np.array([1.5, 0.5, -0.5, -1.5])
    up = np.diag(np.sqrt([0.75, 1.0, 0.75]), 1)
    return np.diag(3.75 + (gamma - 1) * m * m), up + up.T, np.diag(m)


# The screens' error model. A backward-stable symmetric eigensolver returns
# each eigenvalue within c u ||A|| of the exact one, u = 2^-53 and c a modest
# multiple of the size, and a unit eigenvector within c u ||A|| / gap in angle
# (Weyl and Davis-Kahan; Demmel, Applied Numerical Linear Algebra, SIAM 1997,
# ch. 5). Each screen bounds ||A|| by a constant S and brackets its value by a
# margin of 1e-11 S, about 9e4 u S, so the bracket holds for any c up to
# about 4e4 on each side. Measured against LAPACK (OpenBLAS SkylakeX kernels)
# at 1.6 million random points of each class's box for gamma in [-10, 0],
# half of the 2|2 points next to the triplet crossing, the two sides differed
# by at most 9.3 u S (1|3) and 4.7 u S (1 + S/g) (2|2).
# biseparable_bound_result skips a class whose upper bound plus a margin lies
# below another class's scanned value. The bound and the skipped scan are each
# eigenvalues of matrices of norm below S <= 6 (1 + |gamma|) plus a few terms
# of that size, and the scan's value is reached by a product state, so it
# exceeds the bound by at most a few c u S. The margin, 1e-6 (1 + |gamma|), is
# about 1e9 u S: far above that rounding, and far below the 0.001 to 0.15 by
# which one class beats the other away from their crossing.
def _one_three_max(gamma: float) -> float:
    """Maximum over 1|3 product states.

    The lone qubit's Bloch vector, rotated about z, is (sin t, 0, cos t) with
    t in [0, pi]; the three-qubit factor is then the top eigenvector of
    F_3 + sin t Jx + gamma cos t Jz, and the value (2 + gamma)/4 plus its
    eigenvalue.

    Screen: F_3 + cx Jx + cz Jz keeps the symmetric (spin-3/2) subspace, on
    which F_3 = 15/4 + (gamma - 1) Jz^2. Its 4x4 block holds the top
    eigenvalue: the m = +-1/2 states reach (14 + gamma)/4 + |cz|/2, while the
    complement, two spin-1/2 copies, tops out at (2 + gamma)/4 + |c|/2
    <= (2 + gamma)/4 + |cx|/2 + |cz|/2, below that while |cx| < 6. The
    block's and the 8x8's top eigenvalue are then two eigensolver values of
    one number, from matrices of norm below S = 6 + 4|gamma|.
    """
    f3, jx, jz = _spin_parts(3, gamma)
    block = _spin_three_halves(gamma)
    margin = 1e-11 * (6 + 4 * abs(gamma))

    def screen(cx, cz):
        top = np.linalg.eigvalsh(_shifted(*block, cx, cz))[:, -1]
        return top - margin, top + margin

    def values(cx, cz):
        return np.linalg.eigvalsh(_shifted(f3, jx, jz, cx, cz))[:, -1]

    return (2 + gamma) / 4 + _zoom_max(lambda t: (np.sin(t), gamma * np.cos(t)), screen, values,
                                       [0.0], [math.pi], ONE_THREE_ANGLES)


def _triplet_top(a: float, x: np.ndarray, z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Top eigenvalue mu of [[0, x, z], [x, a, 0], [z, 0, 0]], a >= 1, and its gap
    to the next one.

    mu is the largest root of p(mu) = mu^2 (mu - a) - x^2 mu - z^2 (mu - a).
    The trigonometric formula starts it, and two Newton steps on p in this
    form, whose terms all vanish where the root turns double (x = 0, |z| = a),
    take it to within a few u of the exact root at any gap above 1e-6.
    """
    x2, z2 = x * x, z * z
    r = np.sqrt((x2 + z2 + a * a / 3) / 3)
    phi = np.arccos(np.clip((a ** 3 / 27 + a * (x2 / 3 - 2 * z2 / 3) / 2) / r ** 3, -1.0, 1.0)) / 3
    mu = a / 3 + 2 * r * np.cos(phi)
    for _ in range(2):
        slope = (3 * mu - 2 * a) * mu - x2 - z2
        mu = mu - (mu * mu * (mu - a) - x2 * mu - z2 * (mu - a)) / np.where(slope > 0, slope, np.inf)
    return mu, 2 * math.sqrt(3) * r * np.sin(math.pi / 3 - phi)


def _two_two_max(gamma: float) -> float:
    """Maximum over 2|2 product states.

    For a slope n = (n_x >= 0, n_z), pair A takes the top eigenvector a of
    F_2 + 2 n_x Jx + 2 gamma n_z Jz and pair B the top eigenvector of
    F_2 + 2 <Jx>_a Jx + 2 gamma <Jz>_a Jz. The value, <F_2>_a plus that
    eigenvalue, is the product's expectation for every n and the 2|2 maximum
    when n is the optimal pair B's mean spin.

    Screen: F_2 + cx Jx + cz Jz is 0 on the singlet and, on the triplet in the
    basis (|+>, |m=0>, |->), (1 + gamma) I + M with
    M = [[0, cx, cz], [cx, 1 - gamma, 0], [cz, 0, 0]]. Its <m=0|.|m=0> is 2, so
    the triplet holds the top eigenvalue. The longest cross product of two rows
    of M - mu I is its eigenvector v, which gives <F_2> = 1 + gamma +
    (1 - gamma) v_2^2, <2Jx> = 4 v_1 v_2 and <2 gamma Jz> = 4 gamma v_1 v_3,
    and pair B's eigenvalue is a second _triplet_top. Every matrix norm here is
    below S = 4 + 4|gamma|, and the value moves by at most 2S per unit of
    eigenvector angle. With g the smaller gap of the two triplets, capped at
    2 because the singlet lies at least 2 below the top, LAPACK's eigenvector
    and v are each within c u S / g in angle, so the margin is
    1e-11 S (1 + S/g). A point with g below 1e-6, or a value that is not
    finite, is always kept.
    """
    f2, jx, jz = _spin_parts(2, gamma)
    s = 4 + 4 * abs(gamma)

    def screen(cx, cz):
        mu, g1 = _triplet_top(1 - gamma, cx, cz)
        b = 1 - gamma - mu
        cross = np.array([[-cz * b, cz * cx, -mu * b - cx * cx],
                          [-mu * cx, cz * cz - mu * mu, -cx * cz],
                          [-mu * b, mu * cx, -b * cz]])
        norm = np.sqrt((cross * cross).sum(axis=1))
        pick, col = norm.argmax(axis=0), np.arange(cx.size)
        v1, v2, v3 = cross[pick, :, col].T / np.maximum(norm[pick, col], 1e-300)
        mu_b, g2 = _triplet_top(1 - gamma, 4 * v1 * v2, 4 * gamma * v1 * v3)
        value = 2 * (1 + gamma) + (1 - gamma) * v2 * v2 + mu_b
        g = np.minimum(np.minimum(g1, g2), 2.0)
        margin = 1e-11 * s * (1 + s / np.maximum(g, 1e-6))
        sure = (g >= 1e-6) & np.isfinite(value)
        return np.where(sure, value - margin, -np.inf), np.where(sure, value + margin, np.inf)

    def values(cx, cz):
        a = np.linalg.eigh(_shifted(f2, jx, jz, cx, cz))[1][:, :, -1]
        fa, sx, sz = (np.einsum("ki,ij,kj->k", a, m, a) for m in (f2, 2 * jx, 2 * gamma * jz))
        return fa + np.linalg.eigvalsh(_shifted(f2, jx, jz, sx, sz))[:, -1]

    return _zoom_max(lambda nx, nz: (2 * nx, 2 * gamma * nz), screen, values,
                     [0.0, -1.0], [1.0, 1.0], TWO_TWO_SLOPES)


def _one_three_bound(gamma: float) -> float:
    """Upper bound on the 1|3 maximum, (2 + gamma)/4 plus the maximum over t of
    lambda_max(F_3 + sin t Jx + gamma cos t Jz) (see _one_three_max).

    lambda_max is convex in the point (sin t, cos t), and each arc of that
    half-circle between two of the scan's first-round angles lies in the
    triangle of its chord and the tangents at its ends, whose apex is the
    arc's midpoint over cos h, h the arc's half-width. The maximum over the
    arc is then at most the largest value at a vertex. Every vertex's Jx
    coefficient is at most 1/cos h < 6, so the spin-3/2 block holds its top
    eigenvalue.
    """
    ends = np.linspace(0.0, math.pi, ONE_THREE_ANGLES)
    h = (ends[1] - ends[0]) / 2
    apex = ends[:-1] + h
    cx = np.concatenate([np.sin(ends), np.sin(apex) / math.cos(h)])
    cz = gamma * np.concatenate([np.cos(ends), np.cos(apex) / math.cos(h)])
    tops = np.linalg.eigvalsh(_shifted(*_spin_three_halves(gamma), cx, cz))[:, -1]
    return (2 + gamma) / 4 + float(tops.max())


def _two_two_bound(gamma: float) -> float:
    """Upper bound on the 2|2 maximum.

    For pairs a and b with mean spins (x, y, z), <F_4> = <F_2>_a + <F_2>_b +
    2 (x_a x_b + y_a y_b + gamma z_a z_b) <= H(a) + H(b) with
    H = <F_2> + x^2 + y^2 + |gamma| z^2, since 2uv <= u^2 + v^2 and gamma <= 0.
    Rotated about z to y = 0, and with x^2 = max_s (2 s x - s^2) reached at
    s = x in [-1, 1], H is at most the maximum over s, t in [-1, 1] of
    G = lambda_max(F_2 + 2 s Jx + 2 |gamma| t Jz) - q, q = s^2 + |gamma| t^2.
    G is even in s and in t, so cells of the scan's first-round slopes cover
    [0, 1]^2. On each, q lies above its tangent plane at the cell's centre,
    which bounds G by a convex function, at most its largest corner value.
    The slack is at most (1 + |gamma|) d^2 per pair for cells of half-width d.

    Each corner's lambda_max is the triplet's, (1 + gamma) + _triplet_top(a,
    2 s, 2 |gamma| t) with a = 1 - gamma (see _two_two_max), not LAPACK's.
    At s = 0 the triplet's roots are a and +-2 |gamma| t, so the top is their
    maximum, exact even where the two cross (t = 1 at gamma = -1). For s > 0
    the top root mu lies above a and 2 |gamma| t and the next root below both
    (Cauchy interlacing), and p(mu) = 0 gives (mu - a)(mu - 2 |gamma| t) >=
    2 s^2, so the two roots lie at least sqrt(2) s >= 0.07 apart, where
    _triplet_top is within a few u of the root. Each corner adds the screens'
    margin 1e-11 S, S = 4 + 4|gamma| (see the error model above
    _one_three_max), so the bound lies 2e-11 S above the LAPACK form of the
    same corners, give or take the rounding of both, and calls no LAPACK.
    """
    g, k = abs(gamma), TWO_TWO_SLOPES - 1
    s = np.linspace(0.0, 1.0, TWO_TWO_SLOPES)
    a, z = 1 - gamma, 2 * g * s
    tops = np.empty((TWO_TWO_SLOPES, TWO_TWO_SLOPES))
    tops[0] = np.maximum(a, z)
    tops[1:] = _triplet_top(a, 2 * s[1:, None], z)[0]
    tops += (1 + gamma) + 1e-11 * (4 + 4 * g)
    mid = (s[:-1] + s[1:]) / 2
    corners = [tops[i:i + k, j:j + k] - 2 * mid[:, None] * s[i:i + k, None] - 2 * g * mid * s[j:j + k]
               for i in (0, 1) for j in (0, 1)]
    return 2 * float((np.max(corners, axis=0) + mid[:, None] ** 2 + g * mid ** 2).max())


@lru_cache(maxsize=64)
def biseparable_bound_result(gamma: float) -> BisepBoundResult:
    """Maximum of <Jx^2 + Jy^2 + gamma Jz^2> over pure biseparable four-qubit states.

    The operator is invariant under qubit permutations, which leave two
    classes of bipartition, 1|3 and 2|2, and commutes with collective
    z-rotations, which reduce each class to a scan over a few moments (see
    _one_three_max and _two_two_max). Every scanned value is reached by an
    explicit product state, so the result bounds the maximum from below.

    The classes are scanned in order of decreasing upper bound
    (_one_three_bound, _two_two_bound), and one whose bound plus a rounding
    margin lies below the best value so far is skipped: its scan could not
    reach value, which keeps the winning scan's bits.
    """
    check_number("gamma", gamma, B4_GAMMA_MIN, 0.0)
    scans = (_one_three_max, _two_two_max)
    bounds = (_one_three_bound(gamma), _two_two_bound(gamma))
    values, best = [None, None], -math.inf
    for i in sorted(range(2), key=lambda i: -bounds[i]):
        if not bounds[i] + 1e-6 * (1 + abs(gamma)) < best:
            values[i] = scans[i](gamma)
            best = max(best, values[i])
    return BisepBoundResult(gamma=gamma, value=best, scanned=tuple(zip(("0|123", "01|23"), values)))


def biseparable_bound(gamma: float) -> float:
    """b4(gamma): see biseparable_bound_result."""
    return biseparable_bound_result(gamma).value


def witness_projector_d3(k: int) -> Observable:
    """Fidelity witness (2/3) I - |D3(k)><D3(k)| for k in {1, 2}.

    Its settings are pauli_decompose's, as for every observable. The paper's
    eight-group and five-setting forms expand to the same 20 strings and
    coefficients; the test oracles hold both forms and check this.
    """
    k = check_integer("k", k, 1, 2)
    mat = (2.0 / 3.0) * np.eye(8) - dicke(3, k).density().matrix
    return Observable(mat, name=f"W_D3({k})")


def fidelity_bound_from_d3_witness(value: float) -> FidelityBound:
    """Projector-witness bound F >= 2/3 - <W>, clamped to [0, 1] with a flag."""
    return _clamped(2.0 / 3.0 - value)


class WitnessReport(Record):
    """One witness evaluation: value, uncertainty and verdict."""

    def __init__(self, witness: str, parameters: dict, value: float, uncertainty: float, verdict: str):
        self._set(witness, parameters, value, uncertainty, verdict)

    @classmethod
    def build(cls, witness: str, value: float, uncertainty: float,
              parameters: dict | None = None) -> "WitnessReport":
        check_number("value", value)
        check_number("uncertainty", uncertainty, 0.0)
        entangled = value + uncertainty < 0
        return cls(
            witness=witness,
            parameters=dict(parameters or {}),
            value=float(value),
            uncertainty=float(uncertainty),
            verdict="multipartite-entangled" if entangled else "inconclusive",
        )
