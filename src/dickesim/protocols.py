"""Branch-resolved 1->3 telecloning and open-destination teleportation.

Both protocols tensor a client qubit X onto the four-qubit resource, apply
CX with X as control and the port as target, and project (X, port) onto the
four sigma-x (x) sigma-z outcomes at once (_bell_stack): one post-state
stack, of shape (outcome, *clients), holds every outcome that does not
vanish. Telecloning corrects every outcome; open-destination teleportation
first projects the other two server qubits and keeps only |+1> (psi+).
Clone and receiver fidelities are evaluated against the client's actual
input state (equal to the pure target ket whenever the client is pure),
matching how the experiment scores its output states.

Telecloning takes a sequence of clients as one stack (see register): a whole
theta grid and all four outcomes are one pass through the register, and a
single client is the one-member stack. Stacks meet by the register's one
rule, numpy broadcasting: each outcome's correction is a (K, 1) gate stack
over the (K, S) post-states, and the (S,) client stack is scored against
the (K, S) clones as it is.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Sequence

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
    State,
    apply_gate,
    fidelity,
    partial_trace,
    pauli_matrix,
    project,
    tensor,
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
    port: str

    def member(self, index: int) -> "QtcResult":
        """The result of client `index` of a stacked run, as a single run gives it."""
        return QtcResult(
            branches=tuple(
                BranchOutcome(b.outcome_label, float(b.probability[index]),
                              None if b.post_state is None else b.post_state.member(index),
                              b.correction)
                for b in self.branches),
            clone_labels=self.clone_labels,
            clone_fidelities={outcome: {label: float(v[index]) for label, v in per_clone.items()}
                              for outcome, per_clone in self.clone_fidelities.items()},
            average_clone_fidelity=float(self.average_clone_fidelity[index]),
            port=self.port,
        )


@dataclass(frozen=True, eq=False)
class OdtResult:
    """Open-destination run: post-selected receiver state and bookkeeping."""

    port: str
    success_probability: float
    sodt_probability: float
    receiver_state: MixedState
    teleport_fidelity: float
    intermediate_state: State
    alternative_outcomes: tuple[tuple[str, float], ...]


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
    transcribed; requires the ideal Dicke resource.
    """
    if not isinstance(resource, PureState) or fidelity(resource, dicke(4, 2, resource.labels)) < 1 - 1e-9:
        raise RegisterError("correction table is defined for the ideal Dicke resource")
    return dict(_correction_table(port, resource.labels))


@lru_cache(maxsize=8)
def _correction_table(port: str, labels: tuple[str, ...]) -> tuple[tuple[str, str], ...]:
    """Both sample clients run as one stack; a branch's correction is the first
    Pauli P in PAULIS order with |<target|P(x)P(x)P|post>|^2 >= 1 - 1e-9 for every
    member, all four P taken in one contraction."""
    clients = client_ket((ClientParams(theta=0.8, phi=0.37), ClientParams(theta=2.1, phi=2.0)))
    branches = bell_measure(tensor(clients, dicke(4, 2, labels)), CLIENT_LABEL, port)
    clone_labels = tuple(x for x in labels if x != port)
    # the canonical clones alpha|D(3,1)> + beta|D(3,2)> of each client alpha|0> + beta|1>
    d1, d2 = (dicke(3, k, clone_labels) for k in (1, 2))
    target = clients.amplitudes @ np.array([d1.amplitudes, d2.amplitudes])
    corrections = np.array([pauli_matrix(p * len(clone_labels)) for p in PAULIS])
    table = []
    for branch in branches:  # each post-state is over clone_labels, in resource order
        overlaps = np.einsum("si,pij,sj->ps", target.conj(), corrections, branch.post_state.amplitudes)
        restored = (abs(overlaps) ** 2 >= 1 - 1e-9).all(axis=1)
        if not restored.any():
            raise CorrectionSearchError(
                f"no Pauli corrects outcome {branch.outcome_label}", branch.outcome_label)
        table.append((branch.outcome_label, list(PAULIS)[int(np.argmax(restored))]))
    return tuple(sorted(table))


def _client_input(client: ClientParams | Sequence[ClientParams]) -> State:
    """Pure clients as a ket, dephased ones as a density matrix; a stack may not mix them."""
    clients = [client] if isinstance(client, ClientParams) else client
    pure = {c.dephase_lambda == 0.0 for c in clients}
    if len(pure) != 1:
        raise ValueError("a stack of clients must be all pure or all dephased")
    return client_ket(client) if pure.pop() else client_state(client)


def qtc_theory_fidelity(theta: float) -> float:
    """Closed-form clone fidelity (9 - cos 2 theta)/12 for a pure client."""
    if not 0.0 <= theta <= math.pi:
        raise ValueError(f"theta={theta} outside [0, pi]")
    return (9.0 - math.cos(2.0 * theta)) / 12.0


def run_qtc(client: ClientParams | Sequence[ClientParams], resource: State | None = None,
            port: str = "b") -> QtcResult:
    """Run 1->3 telecloning: Bell-measure (X, port), correct, score the clones.

    Clone fidelities are taken against the client's input state; for a pure
    client that is the target ket itself. A pure client stays a ket even on a
    mixed resource, so its fidelities are the exact overlaps <psi|rho|psi>.

    A sequence of clients, all pure or all dephased, runs as one stack and
    gives a stacked result (see QtcResult) whose member i equals the run of
    client i alone bit for bit. One client is run as a one-member stack.
    """
    if resource is None:
        resource = dicke(4, 2, RESOURCE_LABELS)
    clone_labels = tuple(x for x in resource.labels if x != port)
    table = dict(_correction_table(port, resource.labels))

    single = isinstance(client, ClientParams)
    clients = [client] if single else list(client)
    client_in = _client_input(clients)
    rotated = apply_gate(tensor(client_in, resource), CX, (CLIENT_LABEL, port))
    probs, post, kept = _bell_stack(rotated, CLIENT_LABEL, port)

    # each kept outcome's P on every clone, as one gate P (x) P (x) P on its row of
    # post-states; entries 0, +-1, +-i multiply exactly
    gates = np.array([pauli_matrix(table[BELL_LABELS[b]] * len(clone_labels)) for b in kept])
    corrected = apply_gate(post, gates[:, None], clone_labels)
    # the (S,) clients against the (K, S) clones: one square root serves every row
    per_clone = {label: fidelity(client_in, partial_trace(corrected, (label,))) for label in clone_labels}
    average = np.zeros(len(clients))
    for prob, mean in zip(probs[kept], sum(per_clone.values()) / len(per_clone)):
        average += prob * mean
    posts = {b: corrected.member(i) for i, b in enumerate(kept)}
    result = QtcResult(
        branches=tuple(BranchOutcome(label, probs[b], posts.get(b), table[label])
                       for b, label in enumerate(BELL_LABELS)),
        clone_labels=clone_labels,
        clone_fidelities={BELL_LABELS[b]: {label: f[i] for label, f in per_clone.items()}
                          for i, b in enumerate(kept)},
        average_clone_fidelity=average,
        port=port,
    )
    return result.member(0) if single else result


def qtc_mixed_band(theta: float | Sequence[float], p: float,
                   dephase_lambda: float, p_uncertainty: float = 0.0, phi: float = 0.0,
                   port: str = "b", ideal: np.ndarray | None = None):
    """Telecloning-fidelity interval for a dephased client over Werner weight p +- dp.

    A sequence of thetas runs as one stack per band end and gives two arrays.
    `ideal`, the noise-free run_qtc fidelities at these thetas, phi and port,
    stands in for a band end at weight 1 without dephasing: that end is the
    same call on the same inputs.
    """
    if p_uncertainty < 0:
        raise ValueError("p_uncertainty must be non-negative")
    lo = min(max(p - p_uncertainty, 0.0), 1.0)
    hi = min(max(p + p_uncertainty, 0.0), 1.0)
    single = np.ndim(theta) == 0
    clients = [ClientParams(theta=t, phi=phi, dephase_lambda=dephase_lambda)
               for t in ([theta] if single else theta)]
    values = []
    for weight in sorted({lo, hi}):
        ideal_end = weight == 1.0 and dephase_lambda == 0.0  # on run_qtc's default resource
        if ideal_end and ideal is not None:
            values.append(np.asarray(ideal).reshape(len(clients)))
        else:
            resource = None if ideal_end else werner_dicke(weight)
            values.append(run_qtc(clients, resource, port).average_clone_fidelity)
    low, high = np.min(values, axis=0), np.max(values, axis=0)
    return (float(low[0]), float(high[0])) if single else (low, high)


def run_odt(client: ClientParams, resource: State | None = None, port: str = "b",
            receiver: str = "a", sodt_projection: str = "01") -> OdtResult:
    """Open-destination teleportation with post-selection on |+1> of (X, port).

    The two non-participating server qubits are projected onto the chosen
    computational pattern; the remaining alternative (X, port) outcomes are
    enumerated with their probabilities but left uncorrected.
    """
    if resource is None:
        resource = dicke(4, 2, RESOURCE_LABELS)
    if sodt_projection not in ("01", "10"):
        raise ValueError(f"sodt_projection must be '01' or '10', got {sodt_projection!r}")
    pos = resource.layout.positions((receiver, port))
    sodt = tuple(x for i, x in enumerate(resource.labels) if i not in pos)

    client_in = _client_input(client)
    full = apply_gate(tensor(client_in, resource), CX, (CLIENT_LABEL, port))
    prob_sodt, after_sodt = project(full, sodt, sodt_projection)

    probs, post, kept = _bell_stack(after_sodt, CLIENT_LABEL, port)
    accepted = _BELL_XZ.index("+1")  # psi+
    if accepted not in kept:
        raise ImpossibleBranchError(
            f"outcome |+1> of {(CLIENT_LABEL, port)} has probability {probs[accepted]}", probs[accepted])
    receiver_mixed = post.member(kept.index(accepted)).density()
    return OdtResult(
        port=port,
        success_probability=float(prob_sodt * probs[accepted]),
        sodt_probability=float(prob_sodt),
        receiver_state=receiver_mixed,
        teleport_fidelity=fidelity(client_in, receiver_mixed),
        intermediate_state=after_sodt,
        alternative_outcomes=tuple((xz, float(q)) for xz, q in zip(_BELL_XZ, probs) if xz != "+1"),
    )
