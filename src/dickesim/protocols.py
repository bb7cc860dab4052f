"""Branch-resolved 1->3 telecloning and open-destination teleportation.

Every protocol computation (both runs and the correction-table derivation)
enters through one prologue, _prepare: it checks the clients, the resource
(one four-qubit state), and the port and receiver against the resource's
labels before any state is built, tensors the client qubit X onto the
resource and applies CX(X -> port) in one pass (_cx_register: CX flips the
port bit on the client's |1> blocks, so every entry is the one product
np.kron forms and the results keep their bytes). The CX stays: without it the
open-destination run sums the diagonal in another order, and its numbers move
in their last bits. (X, port) is then
projected onto the four sigma-x (x) sigma-z outcomes at once (_bell_stack);
one post-state stack, of shape (outcome, *clients), holds every outcome that
does not vanish. Telecloning corrects every outcome by CORRECTION_TABLE;
open-destination teleportation first projects the other two server qubits and
keeps only |+1> (psi+). Fidelities are taken against the client's actual input
state (the pure target ket whenever the client is pure), as the experiment
scores them.
bell_measure is the public Bell measurement of any state; no run calls it.

A sequence of clients runs as one stack (see register) and a single client as
the one-member stack. Stacks meet by numpy broadcasting: each outcome's
correction is a (K, 1) gate stack over the (K, S) post-states, and the (S,)
clients are scored against the (S,) receivers, or against telecloning's
distinct clones as one (U, S) stack: every register operation acts on each
member as on that member alone, so byte-equal rows give byte-equal results,
and _score_clones traces each distinct branch row and scores each distinct
clone once (a dephased client's twelve on a Werner-Dicke resource are one).
Every result leaves by one split rule, _member: member i of a stacked
result, and a single client's result, take entry i of each array as a float
and member i of each state stack, field by field.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, fields, replace
from functools import lru_cache
from types import MappingProxyType
from typing import Iterable, Sequence

import numpy as np

from .register import (
    AXIS_BASES,
    BRANCH_TOL,
    CX,
    PAULIS,
    ImpossibleBranchError,
    MixedState,
    PureState,
    RegisterError,
    RegisterLayout,
    State,
    apply_gate,
    check_number,
    fidelity,
    partial_trace,
    pauli_matrix,
    project,
)
from .states import (
    CLIENT_LABEL,
    ClientParams,
    RESOURCE_LABELS,
    client_ket,
    client_state,
    dicke,
    werner_dicke,
)

BELL_LABELS = ("phi+", "phi-", "psi+", "psi-")
# each Bell element's (sigma-x outcome on the control, sigma-z outcome on the target)
_BELL_XZ = ("+0", "-0", "+1", "-1")
BRANCH_SUM_TOL = 1e-9
# the Pauli P whose P (x) P (x) P restores telecloning's canonical clones after
# each Bell outcome on (X, port). The symmetric Dicke resource gives every port
# and every labelling this one table; derive_correction_table derives it.
CORRECTION_TABLE = MappingProxyType({"phi+": "X", "phi-": "Y", "psi+": "I", "psi-": "Z"})

_KETS = dict(zip("+-01", (*AXIS_BASES["X"], *AXIS_BASES["Z"])))
# each Bell element's projection ket on (control, target), in BELL_LABELS order
_BELL_KETS = np.array([np.kron(_KETS[x], _KETS[z]) for x, z in _BELL_XZ])
_BELL_KETS.setflags(write=False)


class CorrectionSearchError(RuntimeError):
    """No single Pauli restores the canonical post-measurement state."""

    def __init__(self, message: str, branch: str):
        super().__init__(message)
        self.branch = branch


@dataclass(frozen=True, eq=False)
class BranchOutcome:
    """One measurement branch: label, probability, post-selected state, correction.

    For a stacked state the probability is an array and the post-state a stack.
    """

    outcome_label: str
    probability: float
    post_state: State | None
    correction: str | None = None


@dataclass(frozen=True, eq=False)
class QtcResult:
    """Telecloning run: corrected branches and per-branch, per-clone fidelities.

    For a stack of clients every number is an array over the clients and
    every post-state a stack; `member` gives one client's result.
    """

    branches: tuple[BranchOutcome, ...]
    clone_labels: tuple[str, ...]
    clone_fidelities: dict
    average_clone_fidelity: float | np.ndarray

    def member(self, index: int) -> "QtcResult":
        """The result of client `index` of a stacked run, as a single run gives it."""
        return _member(self, index)


@dataclass(frozen=True, eq=False)
class OdtResult:
    """Open-destination run: post-selected receiver state and bookkeeping.

    For a stack of clients every number is an array over the clients and
    every state a stack; `member` gives one client's result.
    """

    success_probability: float | np.ndarray
    sodt_probability: float | np.ndarray
    receiver_state: MixedState
    teleport_fidelity: float | np.ndarray
    intermediate_state: State
    alternative_outcomes: tuple[tuple[str, float | np.ndarray], ...]

    def member(self, index: int) -> "OdtResult":
        """The result of client `index` of a stacked run, as a single run gives it."""
        return _member(self, index)


def _member(value, index: int):
    """Member `index` of a stacked result or any part of it: an array's entry as a float,
    a state stack's member, tuples, dicts and results item by item and field by
    field; labels, corrections and None are every member's and stay as they are."""
    if isinstance(value, np.ndarray):
        return float(value[index])
    if isinstance(value, (PureState, MixedState)):
        return value.member(index)
    if isinstance(value, tuple):
        return tuple(_member(item, index) for item in value)
    if isinstance(value, dict):
        return {key: _member(item, index) for key, item in value.items()}
    if isinstance(value, (BranchOutcome, QtcResult, OdtResult)):
        return replace(value, **{f.name: _member(getattr(value, f.name), index) for f in fields(value)})
    return value


def bell_measure(state: State, q1: str, q2: str) -> list[BranchOutcome]:
    """Bell measurement on (q1, q2): CX then sigma-x on q1 and sigma-z on q2.

    All four branches are returned in the fixed order phi+, phi-, psi+, psi-;
    a branch whose probability vanishes carries post_state None. On a stack a
    branch that vanishes for some members only raises RegisterError: one
    post-state stack cannot hold it.
    """
    probs, post, kept = _bell_stack(apply_gate(state, CX, (q1, q2)), q1, q2)
    posts = {b: post.member(i) for i, b in enumerate(kept)}  # views of the shared stack
    return [BranchOutcome(label, probs[b], posts.get(b)) for b, label in enumerate(BELL_LABELS)]


def _bell_stack(rotated: State, q1: str, q2: str) -> tuple[np.ndarray, State, list[int]]:
    """Project (q1, q2) of a state already rotated by CX onto the four
    sigma-x (x) sigma-z outcomes at once.

    Returns the (4, *stack) probabilities in BELL_LABELS order, the (K, *stack)
    post-states of the K outcomes kept, and their indices. An outcome that
    vanishes for every member is not kept; one that vanishes for some members
    only raises RegisterError: one post-state stack cannot hold it.
    """
    kept = list(range(len(BELL_LABELS)))
    try:
        probs, post = project(rotated, (q1, q2), _BELL_KETS)
    except ImpossibleBranchError as err:
        probs, post = np.maximum(err.probability, 0.0), None
        present = (err.probability >= BRANCH_TOL).reshape(len(kept), -1)
        for b, label in enumerate(BELL_LABELS):
            if present[b].any() and not present[b].all():
                raise RegisterError(
                    f"Bell outcome {label} vanishes for some stack members only") from None
        kept = [b for b in kept if present[b].all()]
    total = sum(probs)
    if np.any(np.abs(total - 1.0) > BRANCH_SUM_TOL):
        raise RegisterError(f"branch probabilities sum to {total}, not 1")
    if post is None:  # some outcome vanished everywhere: project onto the kept ones only
        post = project(rotated, (q1, q2), _BELL_KETS[kept])[1]
    return probs, post, kept


def derive_correction_table(resource: PureState, port: str = "b") -> dict[str, str]:
    """Map each Bell outcome to the Pauli P with P^{x3} restoring the canonical state.

    Derived by exhaustive search at two generic client amplitudes rather than
    transcribed; requires the ideal Dicke resource, and `port` one of its qubits.
    This is the reference derivation of CORRECTION_TABLE, which run_qtc reads:
    resource-check and the tests compare the two, and no run derives it.
    """
    if not isinstance(resource, PureState) or fidelity(resource, dicke(4, 2, resource.labels)) < 1 - 1e-9:
        raise RegisterError("correction table is defined for the ideal Dicke resource")
    return dict(_correction_table(port, resource.labels))


@lru_cache(maxsize=8)
def _correction_table(port: str, labels: tuple[str, ...]) -> tuple[tuple[str, str], ...]:
    """Both sample clients run as one stack through _prepare; a branch's correction
    is the first Pauli P in PAULIS order with |<target|P(x)P(x)P|post>|^2 >= 1 - 1e-9
    for every member, all branches and all four P taken in one contraction."""
    samples = (ClientParams(theta=0.8, phi=0.37), ClientParams(theta=2.1, phi=2.0))
    _, clients, _, rotated = _prepare(samples, dicke(4, 2, labels), port=port)
    _, post, kept = _bell_stack(rotated, CLIENT_LABEL, port)
    clone_labels = tuple(x for x in labels if x != port)
    # the canonical clones alpha|D(3,1)> + beta|D(3,2)> of each client alpha|0> + beta|1>
    d1, d2 = (dicke(3, k, clone_labels) for k in (1, 2))
    target = clients.amplitudes @ np.array([d1.amplitudes, d2.amplitudes])
    corrections = np.array([pauli_matrix(p * len(clone_labels)) for p in PAULIS])
    # each post-state is over clone_labels, in resource order
    overlaps = np.einsum("si,pij,ksj->kps", target.conj(), corrections, post.amplitudes)
    restored = dict(zip(kept, (abs(overlaps) ** 2 >= 1 - 1e-9).all(axis=2)))  # outcome -> per P
    table = []
    for b, label in enumerate(BELL_LABELS):  # in sorted order
        if b not in restored or not restored[b].any():
            raise CorrectionSearchError(f"no Pauli corrects outcome {label}", label)
        table.append((label, list(PAULIS)[int(np.argmax(restored[b]))]))
    return tuple(table)


def _prepare(client: ClientParams | Iterable[ClientParams], resource: State | None,
             **qubits: str) -> tuple[bool, State, State, State]:
    """Both protocols' opening: (single, client input, resource, register after CX on (X, port)).

    `client` is one ClientParams or a non-empty sequence of them, all pure or
    all dephased, and `resource` one four-qubit state (the Dicke state by
    default); anything else is refused before any state is built, as is a
    named qubit that is not a label of the resource. Pure clients enter as a
    ket stack, dephased ones as a density-matrix stack.
    """
    single = isinstance(client, ClientParams)
    clients = [client] if single else list(client) if isinstance(client, Iterable) else []
    if not (clients and all(isinstance(c, ClientParams) for c in clients)
            and len({c.dephase_lambda == 0.0 for c in clients}) == 1):
        raise ValueError("client must be one ClientParams or a non-empty sequence of them, "
                         "all pure or all dephased")
    if resource is None:
        resource = dicke(4, 2, RESOURCE_LABELS)
    if not (isinstance(resource, (PureState, MixedState)) and not resource.stack_shape
            and resource.n == len(RESOURCE_LABELS)):
        got = (f"{resource.n} qubits, stack shape {resource.stack_shape}"
               if isinstance(resource, (PureState, MixedState)) else type(resource).__name__)
        raise ValueError(f"resource must be one four-qubit PureState or MixedState, got {got}")
    _check_qubits(resource, **qubits)
    client_in = client_ket(clients) if clients[0].dephase_lambda == 0.0 else client_state(clients)
    return single, client_in, resource, _cx_register(client_in, resource, qubits["port"])


def _cx_register(client: State, resource: State, port: str) -> State:
    """CX(X -> port) on tensor(client, resource), built in one pass.

    CX flips the port bit where X reads 1, so client block i of the register
    (each block a copy of the resource) has its rows permuted by that flip
    when i = 1, and a density matrix's block (i, j) its columns too when
    j = 1: block (i, j) is c_ij times the permuted resource. Each entry is the
    one product c * r that np.kron forms, and the CX matmul only adds exact
    zero products to it, so this equals apply_gate(tensor(...), CX, ...) as
    values; only the signs of some zero entries may differ. As in tensor, a ket
    on either side enters as its density matrix unless both are kets.
    """
    layout = RegisterLayout((CLIENT_LABEL,) + resource.labels)
    index = np.arange(resource.layout.dim)
    rows = np.array([index, index ^ (1 << (resource.n - 1 - resource.layout.position(port)))])
    if isinstance(client, PureState) and isinstance(resource, PureState):
        blocks = client.amplitudes[..., :, None] * resource.amplitudes[rows]
        return PureState._trusted(layout, blocks.reshape(client.stack_shape + (layout.dim,)))
    rho = resource.density().matrix[rows[:, :, None, None], rows]  # rho[row i, col j] as (2, dim, 2, dim)
    blocks = client.density().matrix[..., :, None, :, None] * rho
    return MixedState._trusted(layout, blocks.reshape(client.stack_shape + (layout.dim,) * 2))


def _check_qubits(resource: State, **qubits: str) -> None:
    """Each named qubit (port, receiver) is a label of the resource, and no two are one label."""
    for name, label in qubits.items():
        if label not in resource.labels:
            raise RegisterError(f"{name}={label!r} is not a qubit of the resource {resource.labels}")
    if len(set(qubits.values())) < len(qubits):
        raise RegisterError(" and ".join(f"{n}={q!r}" for n, q in qubits.items()) + " must be distinct")


def qtc_theory_fidelity(theta: float) -> float:
    """Closed-form clone fidelity (9 - cos 2 theta)/12 for a pure client."""
    return (9.0 - math.cos(2.0 * check_number("theta", theta, 0.0, math.pi))) / 12.0


def run_qtc(client: ClientParams | Sequence[ClientParams], resource: State | None = None,
            port: str = "b") -> QtcResult:
    """Run 1->3 telecloning: Bell-measure (X, port), correct, score the clones.

    Clone fidelities are taken against the client's input state; for a pure
    client that is the target ket itself. A pure client stays a ket even on a
    mixed resource, so its fidelities are the exact overlaps <psi|rho|psi>.

    A sequence of clients, all pure or all dephased, runs as one stack and
    gives a stacked result (see QtcResult) whose member i equals the run of
    client i alone bit for bit. One client is run as a one-member stack.
    Byte-equal branches and clones are scored once (see _score_clones).
    Each outcome's correction is CORRECTION_TABLE's, the same for every port
    and labelling, so no run searches for it.
    """
    single, client_in, resource, rotated = _prepare(client, resource, port=port)
    clone_labels = tuple(x for x in resource.labels if x != port)
    probs, post, kept = _bell_stack(rotated, CLIENT_LABEL, port)

    # each kept outcome's P on every clone, as one gate P (x) P (x) P on its row of
    # post-states; entries 0, +-1, +-i multiply exactly
    gates = np.array([pauli_matrix(CORRECTION_TABLE[BELL_LABELS[b]] * len(clone_labels)) for b in kept])
    corrected = apply_gate(post, gates[:, None], clone_labels)
    per_clone = _score_clones(client_in, corrected, clone_labels)
    average = np.zeros(client_in.stack_shape)
    for prob, mean in zip(probs[kept], sum(per_clone.values()) / len(per_clone)):
        average += prob * mean
    posts = {b: corrected.member(i) for i, b in enumerate(kept)}
    result = QtcResult(
        branches=tuple(BranchOutcome(label, probs[b], posts.get(b), CORRECTION_TABLE[label])
                       for b, label in enumerate(BELL_LABELS)),
        clone_labels=clone_labels,
        clone_fidelities={BELL_LABELS[b]: {label: f[i] for label, f in per_clone.items()}
                          for i, b in enumerate(kept)},
        average_clone_fidelity=average,
    )
    return _member(result, 0) if single else result


def _score_clones(client_in: State, corrected: State, clone_labels: tuple[str, ...]) -> dict:
    """Each clone label's (K, S) fidelities of the (S,) clients against the (K, S)
    corrected branches: each distinct branch row traced once, each distinct clone
    scored once, in one fidelity call whose one square root serves every row."""
    branch_reps, branch = _byte_groups(corrected._array)
    distinct = corrected._trusted(corrected.layout, corrected._array[branch_reps])
    # (L * D, S, 2, 2): label j's clone of distinct row d at j * D + d
    reduced = np.concatenate([partial_trace(distinct, (label,)).matrix for label in clone_labels])
    clone_reps, clone = _byte_groups(reduced)
    values = fidelity(client_in, MixedState._trusted(client_in.layout, reduced[clone_reps]))
    return {label: values[clone[j * len(branch_reps) + branch]] for j, label in enumerate(clone_labels)}


def _byte_groups(rows: np.ndarray) -> tuple[list[int], np.ndarray]:
    """The index of the first row of each set of byte-equal rows (along the first
    axis), and each row's set: bytes, not values, so -0.0 and NaN never merge."""
    sets: dict[bytes, int] = {}
    which = [sets.setdefault(row.tobytes(), len(sets)) for row in rows]
    return [which.index(g) for g in range(len(sets))], np.array(which)


def qtc_mixed_band(theta: float | Sequence[float], p: float,
                   dephase_lambda: float, p_uncertainty: float = 0.0, phi: float = 0.0,
                   port: str = "b"):
    """Telecloning-fidelity interval for a dephased client over Werner weight p +- dp.

    The band's ends p - dp and p + dp are clamped into [0, 1]; p itself must lie
    there. A sequence of thetas runs as one stack per band end and gives two arrays.
    """
    check_number("p", p, 0.0, 1.0)
    check_number("p_uncertainty", p_uncertainty, 0.0)
    lo = min(max(p - p_uncertainty, 0.0), 1.0)
    hi = min(max(p + p_uncertainty, 0.0), 1.0)
    single = np.ndim(theta) == 0
    clients = [ClientParams(theta=t, phi=phi, dephase_lambda=dephase_lambda)
               for t in ([theta] if single else theta)]
    if not clients:
        raise ValueError("theta is an empty sequence")
    values = []
    for weight in sorted({lo, hi}):
        # the ideal end runs on run_qtc's default resource
        resource = None if weight == 1.0 and dephase_lambda == 0.0 else werner_dicke(weight)
        values.append(run_qtc(clients, resource, port).average_clone_fidelity)
    low, high = np.min(values, axis=0), np.max(values, axis=0)
    return _member((low, high), 0) if single else (low, high)


def run_odt(client: ClientParams | Sequence[ClientParams], resource: State | None = None,
            port: str = "b", receiver: str = "a", sodt_projection: str = "01") -> OdtResult:
    """Open-destination teleportation with post-selection on |+1> of (X, port).

    The two non-participating server qubits are projected onto the chosen
    computational pattern; the remaining alternative (X, port) outcomes are
    enumerated with their probabilities but left uncorrected.

    A sequence of clients, all pure or all dephased, runs as one stack and
    gives a stacked result (see OdtResult) whose member i equals the run of
    client i alone bit for bit. One client is run as a one-member stack. A
    branch that vanishes for some clients only raises RegisterError.
    """
    if sodt_projection not in ("01", "10"):
        raise ValueError(f"sodt_projection must be '01' or '10', got {sodt_projection!r}")
    single, client_in, resource, rotated = _prepare(client, resource, port=port, receiver=receiver)
    sodt = tuple(x for x in resource.labels if x not in (receiver, port))
    prob_sodt, after_sodt = project(rotated, sodt, sodt_projection)

    probs, post, kept = _bell_stack(after_sodt, CLIENT_LABEL, port)
    accepted = _BELL_XZ.index("+1")  # psi+
    if accepted not in kept:  # it vanished for every client
        largest = float(probs[accepted].max())
        raise ImpossibleBranchError(
            f"outcome |+1> of {(CLIENT_LABEL, port)} has probability {largest}", largest)
    receiver_mixed = post.member(kept.index(accepted)).density()
    result = OdtResult(
        success_probability=prob_sodt * probs[accepted],
        sodt_probability=prob_sodt,
        receiver_state=receiver_mixed,
        teleport_fidelity=fidelity(client_in, receiver_mixed),
        intermediate_state=after_sodt,
        alternative_outcomes=tuple((xz, q) for xz, q in zip(_BELL_XZ, probs) if xz != "+1"),
    )
    return _member(result, 0) if single else result
