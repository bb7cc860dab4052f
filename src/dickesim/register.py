"""Dense linear algebra for labeled multi-qubit registers.

States are immutable values over an ordered register of labeled qubits.
Basis ordering is big-endian in layout order: the first label is the most
significant bit of the computational-basis index.

A state may also be a stack: its leading axes, the stack shape, index
members over the same layout (amplitudes of shape (*stack, dim), matrices of
shape (*stack, dim, dim)). One rule joins stacks: their shapes broadcast as
numpy's do, so a (B, 1) gate stack gives gate b to row b of a (B, S) state,
an (S,) state meets each row of a (B, S) one, and an (M,) gate stack on a
single state gives an (M,) stack. Every operation below acts on each member
as it would on that member alone, bit for bit. The PureState and MixedState
constructors check and copy an array from outside, a single state or a stack
with one axis, every member as a single state. An operation derives its
result from checked states, so the result is valid by construction up to
rounding and is built unchecked, through _State._trusted.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, fields
from functools import cached_property, lru_cache
from types import MappingProxyType
from typing import Iterable, Sequence, Union

import numpy as np

NORM_TOL = 1e-10
PSD_TOL = -1e-8
BRANCH_TOL = 1e-12

PAULI_I = np.array([[1, 0], [0, 1]], dtype=complex)
PAULI_X = np.array([[0, 1], [1, 0]], dtype=complex)
PAULI_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
PAULI_Z = np.array([[1, 0], [0, -1]], dtype=complex)
HADAMARD = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)
# each Pauli axis's basis change: its rows are the bras of the + and - outcomes
AXIS_BASES = MappingProxyType(
    {"X": HADAMARD, "Y": np.array([[1, -1j], [1, 1j]]) / np.sqrt(2), "Z": PAULI_I})
CX = np.kron(np.diag([1, 0]), PAULI_I) + np.kron(np.diag([0, 1]), PAULI_X)  # control first
PAULIS = MappingProxyType({"I": PAULI_I, "X": PAULI_X, "Y": PAULI_Y, "Z": PAULI_Z})

for _m in (*PAULIS.values(), *AXIS_BASES.values(), CX):
    _m.setflags(write=False)


class RegisterError(ValueError):
    """Contract violation on a register operation."""


# the numbers an argument may be; bool, an int subclass, is refused on its own
_REAL = (int, float, np.integer, np.floating)


def check_number(name: str, value, lo: float = -math.inf, hi: float = math.inf):
    """`value` if it is a finite real number in [lo, hi], else a ValueError
    that starts with name=value. A bool or a non-number is refused."""
    if not (isinstance(value, _REAL) and not isinstance(value, bool)
            and -math.inf < value < math.inf and lo <= value <= hi):
        raise ValueError(f"{name}={value!r} is not a finite number in [{lo:g}, {hi:g}]")
    return value


def check_integer(name: str, value, lo: int, hi: float = math.inf) -> int:
    """`value`, a Python or NumPy integer in [lo, hi], as an int, else a
    ValueError that starts with name=value. A bool is refused."""
    if not (isinstance(value, (int, np.integer)) and not isinstance(value, bool) and lo <= value <= hi):
        raise ValueError(f"{name}={value!r} is not an integer in [{lo:g}, {hi:g}]")
    return int(value)


@lru_cache(maxsize=64)
def pauli_matrix(string: str) -> np.ndarray:
    """Kronecker product of single-qubit Paulis, e.g. "XXI"; cached, so read-only.
    Each step forms np.kron's elementwise products, without its generic wrapper."""
    out = np.array([[1.0 + 0j]])
    for ch in string:
        dim = 2 * len(out)
        out = (out[:, None, :, None] * PAULIS[ch][None, :, None, :]).reshape(dim, dim)
    out.setflags(write=False)
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


def _owned(arr: np.ndarray) -> np.ndarray:
    """arr as read-only complex in C order (each member unit-stride), copied only if it is not already."""
    out = np.ascontiguousarray(arr, dtype=complex)
    out.setflags(write=False)
    return out


def _broadcast(*shapes: tuple[int, ...]) -> tuple[int, ...]:
    """The stack shape numpy broadcasting makes of these stack shapes."""
    try:
        return np.broadcast_shapes(*shapes)
    except ValueError:
        raise RegisterError(f"stack shapes {' and '.join(map(str, shapes))} do not broadcast") from None


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
        """() for a single state, the leading axes' shape for a stack."""
        return self._array.shape[:-self.SIDES]

    def member(self, index: int):
        """Entry `index` of the first stack axis, a view; a single state is a stack of one."""
        arr = self._array if self.stack_shape else self._array[None]
        return self._trusted(self.layout, arr[index])

    @classmethod
    def _trusted(cls, layout: RegisterLayout, arr: np.ndarray):
        """A state over `layout`, unchecked, from an array an operation derived
        from checked states; every register operation returns through here, as
        does a tomography estimate built from _project_psd's clipped spectrum.
        Such a result is exact to rounding for exact inputs, but an input at a
        tolerance edge can give one past the tolerance, which is not refused:
        density() of a ket of norm 1 + 0.9e-10 has trace 1 + 1.8e-10, and
        project divides by a branch probability as small as BRANCH_TOL, which
        scales up any slightly negative eigenvalue its input carried."""
        state = object.__new__(cls)
        state.__dict__.update(zip((f.name for f in fields(cls)), (layout, _owned(arr))))
        return state

    def _tensor(self) -> np.ndarray:
        return self._array.reshape(self.stack_shape + (2,) * (self.SIDES * self.n))

    def _like(self, layout: RegisterLayout, t: np.ndarray):
        """A state of this kind and stack shape over `layout`, from a tensor derived from this one."""
        return self._trusted(layout, t.reshape(self.stack_shape + (layout.dim,) * self.SIDES))


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
        amps = _owned(np.array(amps, dtype=complex, order="C"))
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
        return MixedState._trusted(self.layout, amps[..., :, None] * amps.conj()[..., None, :])


@dataclass(frozen=True, eq=False)
class MixedState(_State):
    """Hermitian, unit-trace, positive-semidefinite operator over a register.

    A 3-D array of shape (S, dim, dim) is a stack of S density matrices.
    """

    matrix: np.ndarray
    SIDES = 2

    def __post_init__(self):
        mat = _owned(np.array(self.matrix, dtype=complex, order="C"))
        d = self.layout.dim
        if mat.ndim not in (2, 3) or mat.shape[-2:] != (d, d):
            raise RegisterError(f"matrix shape {mat.shape} does not match register dimension {d}")
        if mat.size == 0:
            raise RegisterError("a stack needs at least one member")
        flat, stacked = mat.reshape(-1, d, d), mat.ndim == 3
        skew = abs(flat - flat.conj().transpose(0, 2, 1)).max(axis=(1, 2))
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

    @cached_property
    def root(self) -> np.ndarray:
        """Each member's PSD square root (eigenvalues clipped at 0), read-only;
        taken at most once, as the state never changes."""
        vals, vecs = np.linalg.eigh(self.matrix)
        vals = np.clip(vals, 0.0, None)
        return _owned((vecs * np.sqrt(vals)[..., None, :]) @ np.swapaxes(vecs.conj(), -1, -2))


State = Union[PureState, MixedState]


def basis_ket(bits: str, labels: Sequence[str]) -> PureState:
    """Computational-basis state, e.g. basis_ket("01", ("a", "b"))."""
    return from_terms(((bits, 1),), labels)


def single_qubit(amplitudes: Sequence[complex], label: str) -> PureState:
    return PureState(RegisterLayout((label,)), np.asarray(amplitudes, dtype=complex))


def from_terms(terms: Sequence[tuple[str, complex]], labels: Sequence[str]) -> PureState:
    """State from (bitstring, unnormalized amplitude) terms; normalized on build."""
    layout = RegisterLayout(tuple(labels))
    amps = np.zeros(layout.dim, dtype=complex)
    for bits, coeff in terms:
        if len(bits) != layout.n:
            raise RegisterError(f"bitstring {bits!r} does not match {layout.n} qubits")
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
    return (PureState if pure else MixedState)._trusted(layout, np.kron(a, b))


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
    1 x 2^k bra, which drops them; the other axes keep their order. The gate may
    carry stack axes of its own, which broadcast against t's `lead` stack axes:
    np.matmul still makes one BLAS call per member, with the shapes and strides
    of a single gate on that member."""
    free = [i for i in range(lead, t.ndim) if i not in axes]
    order = [*range(lead), *(axes if gate.shape[-2] > 1 else ()), *free]
    out = gate @ _matrices(t, lead, axes, free)
    out = out.reshape(out.shape[:lead] + tuple(t.shape[i] for i in order[lead:]))
    return out.transpose(sorted(range(len(order)), key=order.__getitem__))  # undo the regrouping


def apply_gate(state: State, gate: np.ndarray, labels: Sequence[str] | str) -> State:
    """Embed a k-qubit unitary at the named positions and apply it (to every member):
    the gate on the rows, its conjugate on a density matrix's columns. A stack
    of gates, of shape (*gate_stack, 2^k, 2^k), gives each member its own: the
    gate stack broadcasts against the state's stack shape, so a (B, 1) gate
    stack gives gate b to row b of a (B, S) state, and an (M,) gate stack on a
    single state gives an (M,) stack, member i the state under gate i."""
    pos = state.layout.positions(labels)
    gate, d = np.asarray(gate, dtype=complex), 2 ** len(pos)
    if gate.shape[-2:] != (d, d):
        raise RegisterError(f"gate shape {gate.shape} does not act on {len(pos)} qubits")
    shape = _broadcast(gate.shape[:-2], state.stack_shape)
    if gate.size == 0:
        raise RegisterError("a gate stack needs at least one member")
    if not np.abs(np.swapaxes(gate.conj(), -1, -2) @ gate - np.eye(d)).max() <= NORM_TOL:
        raise RegisterError("gate matrix is not unitary within 1e-10")
    lead = len(shape)
    t = state._tensor()[(None,) * (lead - len(state.stack_shape))]  # numpy's leading 1s
    for side, g in zip(range(state.SIDES), (gate, gate.conj())):
        t = _apply_to_axes(t, g, [lead + side * state.n + p for p in pos], lead)
    return state._trusted(state.layout, t.reshape(shape + (state.layout.dim,) * state.SIDES))


def _projection_kets(onto: np.ndarray | str, k: int) -> np.ndarray:
    """A bitstring or a ket as a 1 x 2^k table, or a B x 2^k table of kets as it is."""
    if isinstance(onto, str):
        if len(onto) != k:
            raise RegisterError(f"projection bitstring {onto!r} does not match {k} qubits")
        kets = np.zeros((1, 2 ** k), dtype=complex)
        kets[0, int(onto, 2)] = 1.0
        return kets
    kets = np.asarray(onto, dtype=complex)
    if kets.ndim != 2:
        kets = kets.reshape(1, -1)
        if kets.shape[1] != 2 ** k:
            raise RegisterError(f"projection ket has length {kets.shape[1]}, expected {2 ** k}")
    elif kets.shape[1] != 2 ** k or not len(kets):
        raise RegisterError(f"projection kets have shape {kets.shape}, expected (B, {2 ** k})")
    if not (abs(np.linalg.norm(kets, axis=1) - 1.0) <= NORM_TOL).all():
        raise RegisterError("projection ket is not normalized")
    return kets


def project(state: State, labels: Sequence[str] | str, onto: np.ndarray | str):
    """Project the named qubits onto a ket, or onto each ket of a B x 2^k table.

    Returns (probability, post-state on the remaining labels); the post-state
    is renormalized. Raises ImpossibleBranchError when the branch probability
    is below 1e-12. For a stack the probability is an array with one entry
    per member, and the error is raised when any member's branch vanishes.
    A table adds a leading axis of B to the stack shape of the probabilities
    and of the post-state, entry (b, *i) being member i projected onto ket b;
    a (B, 1) gate stack or the input's own stack broadcasts over it. The
    error is then raised when any branch of any member vanishes. Every
    member is projected as a single ket would project it alone, bit for bit.
    """
    pos = state.layout.positions(labels)
    kets = _projection_kets(onto, len(pos))
    lead = (len(kets),) + state.stack_shape
    rest = RegisterLayout(tuple(x for i, x in enumerate(state.labels) if i not in pos))
    t = state._tensor()[None]  # a branch axis, which the table's stack axis fills
    # the bra contracts the rows, the ket a density matrix's columns, which
    # sit behind the n - k rows left after the first contraction
    for side, vecs in zip(range(state.SIDES), (kets.conj(), kets)):
        axes = [len(lead) + side * rest.n + p for p in pos]
        t = _apply_to_axes(t, vecs.reshape(len(kets), *(1,) * len(lead), -1), axes, len(lead))
    t = t.reshape(lead + (rest.dim,) * state.SIDES)
    if state.SIDES == 1:
        prob = np.real(_dots(t, t))
        norm = np.sqrt(prob)
    else:
        prob = norm = np.real(np.trace(t, axis1=-2, axis2=-1))
    if not prob.min() >= BRANCH_TOL:
        raise ImpossibleBranchError(f"projection of {tuple(state.labels[p] for p in pos)} "
                                    f"has probability {float(prob.min())}", _scalar(prob))
    post = t / norm.reshape(lead + (1,) * state.SIDES)
    if np.ndim(onto) == 2:
        return prob, state._trusted(rest, post)
    return _scalar(prob[0]), state._like(rest, post[0])


def _dots(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """<a|b> per member: np.matmul makes one BLAS dot per member on a conjugated
    copy of a and on b as it is. BLAS picks its kernel by the increments, so this
    is np.vdot(a, b) bit for bit only while the copy keeps a's strides (a is
    compact, as stored and contracted kets are) and b is not copied."""
    return (a.conj()[..., None, :] @ b[..., :, None])[..., 0, 0]


def _scalar(values: np.ndarray):
    """A Python float for a single state's value, the array for a stack's."""
    return float(values) if values.ndim == 0 else values


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
    return MixedState._trusted(kept_layout, t.reshape(lead + (kept_layout.dim,) * 2))


def permute_to(state: State, label_order: Sequence[str]) -> State:
    """Same state re-expressed with the register labels in a new order."""
    order = tuple(label_order)
    if len(order) != state.n:
        raise RegisterError(f"label order {order} is not a permutation of {state.labels}")
    perm = state.layout.positions(order)
    lead = len(state.stack_shape)
    axes = [lead + side * state.n + p for side in range(state.SIDES) for p in perm]
    return state._like(RegisterLayout(order), state._tensor().transpose([*range(lead), *axes]))


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
    with a stack an array over the broadcast stack shape, one value per member.
    """
    s1, s2 = _aligned_pair(s1, s2)
    lead = _broadcast(s1.stack_shape, s2.stack_shape)
    if isinstance(s1, PureState) and isinstance(s2, PureState):
        # abs and ** 2 stay NumPy-scalar operations: their array forms round differently
        overlaps = _dots(s1.amplitudes, s2.amplitudes).reshape(-1)
        return _scalar(np.array([abs(x) ** 2 for x in overlaps]).reshape(lead))
    if isinstance(s1, PureState):
        psi = s1.amplitudes
        val = np.real(psi.conj()[..., None, :] @ s2.matrix @ psi[..., :, None])[..., 0, 0]
        return _scalar(np.clip(val, 0.0, 1.0))
    if isinstance(s2, PureState):
        return fidelity(s2, s1)
    inner = s1.root @ s2.matrix @ s1.root
    sums = np.sqrt(np.clip(np.linalg.eigvalsh(inner), 0.0, None)).sum(axis=-1)
    # a NumPy scalar's ** 2 is libm pow, an array's is x * x: square each member's sum alone
    return _scalar(np.array([min(total ** 2, 1.0) for total in sums.reshape(-1)]).reshape(lead))


def states_close(s1: State, s2: State) -> bool:
    """Equality up to global phase: fidelity within 1e-10 of 1."""
    return fidelity(s1, s2) >= 1.0 - 1e-10
