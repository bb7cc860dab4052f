"""Dense linear algebra for labeled multi-qubit registers.

States are immutable values over an ordered register of labeled qubits.
Basis ordering is big-endian in layout order: the first label is the most
significant bit of the computational-basis index.

A state may also be a stack: one leading axis of members over the same
layout (amplitudes of shape (S, dim), matrices of shape (S, dim, dim)).
Every operation below acts on each member as it would on that member alone,
bit for bit, and every member of a stack gets the checks a single state gets.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from types import MappingProxyType
from typing import Iterable, Sequence, Union

import numpy as np

NORM_TOL = 1e-10
PSD_TOL = -1e-8
BRANCH_TOL = 1e-12
CHECK_BLOCK = 8  # members per step of a stacked Hermitian check

PAULI_I = np.array([[1, 0], [0, 1]], dtype=complex)
PAULI_X = np.array([[0, 1], [1, 0]], dtype=complex)
PAULI_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
PAULI_Z = np.array([[1, 0], [0, -1]], dtype=complex)
HADAMARD = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)
CX = np.kron(np.diag([1, 0]), PAULI_I) + np.kron(np.diag([0, 1]), PAULI_X)  # control first
PAULIS = MappingProxyType({"I": PAULI_I, "X": PAULI_X, "Y": PAULI_Y, "Z": PAULI_Z})

for _m in (*PAULIS.values(), HADAMARD, CX):
    _m.setflags(write=False)


class RegisterError(ValueError):
    """Contract violation on a register operation."""


def pauli_matrix(string: str) -> np.ndarray:
    """Kronecker product of single-qubit Paulis, e.g. "XXI" or "ZZZZ"."""
    out = np.array([[1.0 + 0j]])
    for ch in string:
        out = np.kron(out, PAULIS[ch])
    return out


class ImpossibleBranchError(RegisterError):
    """Projection onto an outcome whose probability is numerically zero."""

    def __init__(self, message: str, probability: float):
        super().__init__(message)
        self.probability = probability


@dataclass(frozen=True)
class RegisterLayout:
    """Ordered qubit labels; position in the tuple fixes the tensor index."""

    labels: tuple[str, ...]

    def __post_init__(self):
        labels = tuple(str(x) for x in self.labels)
        object.__setattr__(self, "labels", labels)
        if not labels:
            raise RegisterError("register needs at least one qubit")
        if len(set(labels)) != len(labels):
            dup = next(x for x in labels if labels.count(x) > 1)
            raise RegisterError(f"duplicate qubit label {dup!r} in {labels} (must be distinct)")

    @property
    def n(self) -> int:
        return len(self.labels)

    @property
    def dim(self) -> int:
        return 2 ** len(self.labels)

    def position(self, label: str) -> int:
        try:
            return self.labels.index(label)
        except ValueError:
            raise RegisterError(f"unknown qubit label {label!r} (register has {self.labels})") from None

    def positions(self, labels: Iterable[str] | str) -> tuple[int, ...]:
        """Positions of one label, or of several in the order given; like any
        register, the named labels must be at least one and none repeated."""
        named = RegisterLayout((labels,) if isinstance(labels, str) else tuple(labels))
        return tuple(self.position(x) for x in named.labels)


def _freeze(arr: np.ndarray) -> np.ndarray:
    out = np.array(arr, dtype=complex, copy=True)
    out.setflags(write=False)
    return out


def _require(ok: np.ndarray, stacked: bool, message) -> None:
    """Raise RegisterError(message(i)) for the first member i not flagged in `ok`
    (a NaN fails every `x <= tol` flag), naming the member when the state is a stack."""
    if not ok.all():
        index = int(np.argmin(ok))
        raise RegisterError((f"stack member {index}: " if stacked else "") + message(index))


@dataclass(frozen=True, eq=False)
class _State:
    """What a ket and a density matrix share: a layout, and a tensor with SIDES
    size-2 axes per qubit (a ket's one; a density matrix's rows, then columns)
    behind the stack axes. A density matrix is a ket with a row copy and a
    column copy of every qubit axis, so the contractions below loop over sides."""

    layout: RegisterLayout

    @property
    def n(self) -> int:
        return self.layout.n

    @property
    def labels(self) -> tuple[str, ...]:
        return self.layout.labels

    @property
    def stack_shape(self) -> tuple[int, ...]:
        """() for a single state, (S,) for a stack of S members."""
        return self._array.shape[:-self.SIDES]

    def member(self, index: int):
        """Member `index` of a stack, as a single (checked) state."""
        return type(self)(self.layout, self._array[index])

    def _tensor(self) -> np.ndarray:
        return self._array.reshape(self.stack_shape + (2,) * (self.SIDES * self.n))

    def _like(self, layout: RegisterLayout, t: np.ndarray):
        """A checked state of this kind and stack shape over `layout`, from a tensor."""
        return type(self)(layout, t.reshape(self.stack_shape + (layout.dim,) * self.SIDES))


@dataclass(frozen=True, eq=False)
class PureState(_State):
    """Normalized complex amplitude vector over a labeled register.

    A 2-D array whose rows have the register's dimension is a stack of kets.
    """

    amplitudes: np.ndarray
    SIDES = 1

    def __post_init__(self):
        amps = np.asarray(self.amplitudes)
        if not (amps.ndim == 2 and amps.shape[1] == self.layout.dim):
            amps = amps.reshape(-1)
        amps = _freeze(amps)
        if amps.shape[-1] != self.layout.dim:
            raise RegisterError(
                f"amplitude vector has length {amps.shape[-1]}, layout needs {self.layout.dim}")
        if amps.size == 0:
            raise RegisterError("a stack needs at least one member")
        norms = np.linalg.norm(amps.reshape(-1, self.layout.dim), axis=1)
        _require(abs(norms - 1.0) <= NORM_TOL, amps.ndim == 2,
                 lambda i: f"state norm {norms[i]} deviates from 1 beyond {NORM_TOL}")
        object.__setattr__(self, "amplitudes", amps)

    @property
    def _array(self) -> np.ndarray:
        return self.amplitudes

    def amplitude(self, bits: str) -> complex:
        return complex(self.amplitudes[int(bits, 2)])

    def density(self) -> "MixedState":
        amps = self.amplitudes
        return MixedState(self.layout, amps[..., :, None] * amps.conj()[..., None, :])


@dataclass(frozen=True, eq=False)
class MixedState(_State):
    """Hermitian, unit-trace, positive-semidefinite operator over a register.

    A 3-D array of shape (S, dim, dim) is a stack of S density matrices.
    """

    matrix: np.ndarray
    SIDES = 2

    def __post_init__(self):
        mat = _freeze(np.asarray(self.matrix))
        d = self.layout.dim
        if mat.ndim not in (2, 3) or mat.shape[-2:] != (d, d):
            raise RegisterError(f"matrix shape {mat.shape} does not match register dimension {d}")
        if mat.size == 0:
            raise RegisterError("a stack needs at least one member")
        flat, stacked = mat.reshape(-1, d, d), mat.ndim == 3
        # CHECK_BLOCK members at a time, so a stack needs no temporary of its own size
        blocks = (flat[i:i + CHECK_BLOCK] for i in range(0, len(flat), CHECK_BLOCK))
        skew = np.concatenate([abs(b - b.conj().transpose(0, 2, 1)).max(axis=(1, 2)) for b in blocks])
        _require(skew <= NORM_TOL, stacked,
                 lambda i: f"matrix is not Hermitian within 1e-10 (skew {skew[i]})")
        tr = flat.trace(axis1=1, axis2=2)
        _require(abs(tr - 1.0) <= NORM_TOL, stacked,
                 lambda i: f"trace {complex(tr[i])} deviates from 1 beyond {NORM_TOL}")
        lo = np.linalg.eigvalsh(flat)[:, 0]  # ascending: each member's smallest
        _require(lo >= PSD_TOL, stacked,
                 lambda i: f"matrix has eigenvalue {float(lo[i])} below PSD tolerance {PSD_TOL}")
        object.__setattr__(self, "matrix", mat)

    @property
    def _array(self) -> np.ndarray:
        return self.matrix

    def density(self) -> "MixedState":
        return self


State = Union[PureState, MixedState]


def basis_ket(bits: str, labels: Sequence[str]) -> PureState:
    """Computational-basis state, e.g. basis_ket("01", ("a", "b"))."""
    layout = RegisterLayout(tuple(labels))
    if len(bits) != layout.n:
        raise RegisterError(f"bitstring {bits!r} does not match {layout.n} qubits")
    amps = np.zeros(layout.dim, dtype=complex)
    amps[int(bits, 2)] = 1.0
    return PureState(layout, amps)


def single_qubit(amplitudes: Sequence[complex], label: str) -> PureState:
    return PureState(RegisterLayout((label,)), np.asarray(amplitudes, dtype=complex))


def from_terms(terms: Sequence[tuple[str, complex]], labels: Sequence[str]) -> PureState:
    """State from (bitstring, unnormalized amplitude) terms; normalized on build."""
    layout = RegisterLayout(tuple(labels))
    amps = np.zeros(layout.dim, dtype=complex)
    for bits, coeff in terms:
        amps[int(bits, 2)] += coeff
    return PureState(layout, amps / np.linalg.norm(amps))


def tensor(s1: State, s2: State) -> State:
    """Kronecker composition; layouts concatenate, label sets must be disjoint.

    At most one factor may be a stack; the single one joins every member.
    """
    if s1.stack_shape and s2.stack_shape:
        raise RegisterError("tensor product of two stacks is not defined")
    layout = RegisterLayout(s1.labels + s2.labels)
    pure = isinstance(s1, PureState) and isinstance(s2, PureState)
    a, b = (s.amplitudes if pure else s.density().matrix for s in (s1, s2))
    # np.kron prepends the single factor's missing stack axis
    return (PureState if pure else MixedState)(layout, np.kron(a, b))


def _check_unitary(gate: np.ndarray, k: int) -> np.ndarray:
    gate = np.asarray(gate, dtype=complex)
    d = 2 ** k
    if gate.shape != (d, d):
        raise RegisterError(f"gate shape {gate.shape} does not act on {k} qubits")
    if not np.abs(gate.conj().T @ gate - np.eye(d)).max() <= NORM_TOL:
        raise RegisterError("gate matrix is not unitary within 1e-10")
    return gate


def _matrices(t: np.ndarray, lead: int, rows: Sequence[int], cols: Sequence[int]) -> np.ndarray:
    """t as one (rows x cols) matrix per member; its first `lead` axes are the stack.

    Contractions below multiply these with np.matmul, which makes one BLAS
    call per member with that member's shapes, so a member's result does not
    depend on the stack it sits in (one BLAS call over the whole stack would:
    its kernels change with the matrix width).
    """
    t = t.transpose([*range(lead), *rows, *cols])
    return t.reshape(t.shape[:lead] + (math.prod(t.shape[lead:lead + len(rows)]), -1))


def _apply_to_axes(t: np.ndarray, gate: np.ndarray, axes: Sequence[int], lead: int) -> np.ndarray:
    """Multiply the named axes of t by a 2^k x 2^k gate, or contract them with a
    1 x 2^k bra, which drops them; the other axes keep their order."""
    free = [i for i in range(lead, t.ndim) if i not in axes]
    order = [*range(lead), *(axes if len(gate) > 1 else ()), *free]
    out = (gate @ _matrices(t, lead, axes, free)).reshape([t.shape[i] for i in order])
    return out.transpose(sorted(range(len(order)), key=order.__getitem__))  # undo the regrouping


def apply_gate(state: State, gate: np.ndarray, labels: Sequence[str] | str) -> State:
    """Embed a k-qubit unitary at the named positions and apply it (to every member):
    the gate on the rows, its conjugate on a density matrix's columns."""
    pos = state.layout.positions(labels)
    gate = _check_unitary(gate, len(pos))
    lead = len(state.stack_shape)
    t = state._tensor()
    for side, g in zip(range(state.SIDES), (gate, gate.conj())):
        t = _apply_to_axes(t, g, [lead + side * state.n + p for p in pos], lead)
    return state._like(state.layout, t)


def _projection_ket(onto: np.ndarray | str, k: int) -> np.ndarray:
    if isinstance(onto, str):
        if len(onto) != k:
            raise RegisterError(f"projection bitstring {onto!r} does not match {k} qubits")
        vec = np.zeros(2 ** k, dtype=complex)
        vec[int(onto, 2)] = 1.0
        return vec
    vec = np.asarray(onto, dtype=complex).reshape(-1)
    if vec.shape != (2 ** k,):
        raise RegisterError(f"projection ket has length {vec.shape[0]}, expected {2 ** k}")
    if not abs(np.linalg.norm(vec) - 1.0) <= NORM_TOL:
        raise RegisterError("projection ket is not normalized")
    return vec


def project(state: State, labels: Sequence[str] | str, onto: np.ndarray | str):
    """Project the named qubits onto a ket.

    Returns (probability, post-state on the remaining labels); the post-state
    is renormalized. Raises ImpossibleBranchError when the branch probability
    is below 1e-12. For a stack the probability is an array with one entry
    per member, and the error is raised when any member's branch vanishes.
    """
    pos = state.layout.positions(labels)
    ket = _projection_ket(onto, len(pos))
    lead = state.stack_shape
    rest = RegisterLayout(tuple(x for i, x in enumerate(state.labels) if i not in pos))
    t = state._tensor()
    # the bra contracts the rows, the ket a density matrix's columns, which
    # sit behind the n - k rows left after the first contraction
    for side, vec in zip(range(state.SIDES), (ket.conj(), ket)):
        axes = [len(lead) + side * rest.n + p for p in pos]
        t = _apply_to_axes(t, vec[None, :], axes, len(lead))
    t = t.reshape(lead + (rest.dim,) * state.SIDES)
    if state.SIDES == 1:
        # one vdot per member keeps each member's summation order
        prob = np.array([np.real(np.vdot(a, a)) for a in t.reshape(-1, rest.dim)]).reshape(lead)
        norm = np.sqrt(prob)
    else:
        prob = norm = np.real(np.trace(t, axis1=-2, axis2=-1))
    _check_branch(prob, [state.labels[p] for p in pos])
    return _scalar(prob), state._like(rest, t / norm.reshape(lead + (1,) * state.SIDES))


def _scalar(values: np.ndarray):
    """A Python float for a single state's value, the array for a stack's."""
    return float(values) if values.ndim == 0 else values


def _check_branch(prob: np.ndarray, labels) -> None:
    if not prob.min() >= BRANCH_TOL:
        raise ImpossibleBranchError(
            f"projection of {tuple(labels)} has probability {float(prob.min())}", _scalar(prob))


def partial_trace(state: State, keep: Sequence[str] | str) -> MixedState:
    """Reduced density operator on the kept labels (layout order preserved)."""
    keep_pos = sorted(state.layout.positions(keep))
    n, lead = state.n, state.stack_shape
    drop_pos = [i for i in range(n) if i not in keep_pos]
    kept_layout = RegisterLayout(tuple(state.labels[p] for p in keep_pos))
    t = state._tensor()
    if isinstance(state, PureState):
        kept = [len(lead) + p for p in keep_pos]
        dropped = [len(lead) + p for p in drop_pos]
        t = _matrices(t, len(lead), kept, dropped) @ _matrices(t.conj(), len(lead), dropped, kept)
    else:
        for p in sorted(drop_pos, reverse=True):
            row = len(lead) + p
            t = np.trace(t, axis1=row, axis2=row + (t.ndim - len(lead)) // 2)
    return MixedState(kept_layout, t.reshape(lead + (kept_layout.dim,) * 2))


def permute_to(state: State, label_order: Sequence[str]) -> State:
    """Same state re-expressed with the register labels in a new order."""
    order = tuple(label_order)
    if len(order) != state.n:
        raise RegisterError(f"label order {order} is not a permutation of {state.labels}")
    perm = state.layout.positions(order)
    lead = len(state.stack_shape)
    axes = [lead + side * state.n + p for side in range(state.SIDES) for p in perm]
    return state._like(RegisterLayout(order), state._tensor().transpose([*range(lead), *axes]))


def _psd_sqrt(mat: np.ndarray) -> np.ndarray:
    vals, vecs = np.linalg.eigh(mat)
    vals = np.clip(vals, 0.0, None)
    return (vecs * np.sqrt(vals)[..., None, :]) @ np.swapaxes(vecs.conj(), -1, -2)


def _aligned_pair(s1: State, s2: State) -> tuple[State, State]:
    if s1.labels == s2.labels:
        return s1, s2
    if set(s1.labels) == set(s2.labels):
        return s1, permute_to(s2, s1.labels)
    if s1.layout.dim != s2.layout.dim:
        raise RegisterError(
            f"dimension mismatch: {s1.layout.dim} vs {s2.layout.dim}")
    return s1, s2


def fidelity(s1: State, s2: State):
    """State fidelity in the squared-overlap convention.

    pure/pure |<psi|phi>|^2, pure/mixed <psi|rho|psi>, mixed/mixed Uhlmann
    (tr sqrt(sqrt(rho) sigma sqrt(rho)))^2. A float for two single states;
    with a stack (or two stacks of one size) an array, one value per member.
    """
    s1, s2 = _aligned_pair(s1, s2)
    if s1.stack_shape and s2.stack_shape and s1.stack_shape != s2.stack_shape:
        raise RegisterError(f"stack shapes {s1.stack_shape} and {s2.stack_shape} differ")
    lead = s1.stack_shape or s2.stack_shape
    if isinstance(s1, PureState) and isinstance(s2, PureState):
        kets = np.broadcast_arrays(s1.amplitudes, s2.amplitudes)
        pairs = zip(*(k.reshape(-1, k.shape[-1]) for k in kets))
        return _scalar(np.array([abs(np.vdot(a, b)) ** 2 for a, b in pairs]).reshape(lead))
    if isinstance(s1, PureState):
        psi = s1.amplitudes
        val = np.real(psi.conj()[..., None, :] @ s2.matrix @ psi[..., :, None])[..., 0, 0]
        return _scalar(np.clip(val, 0.0, 1.0))
    if isinstance(s2, PureState):
        return fidelity(s2, s1)
    root = _psd_sqrt(s1.matrix)
    inner = root @ s2.matrix @ root
    sums = np.sqrt(np.clip(np.linalg.eigvalsh(inner), 0.0, None)).sum(axis=-1)
    # a NumPy scalar's ** 2 is libm pow, an array's is x * x: square each member's sum alone
    return _scalar(np.array([min(total ** 2, 1.0) for total in sums.reshape(-1)]).reshape(lead))


def states_close(s1: State, s2: State) -> bool:
    """Equality up to global phase: fidelity within 1e-10 of 1."""
    return fidelity(s1, s2) >= 1.0 - 1e-10
