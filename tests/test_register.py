from __future__ import annotations

import itertools
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dickesim import (
    ClientParams,
    ImpossibleBranchError,
    MixedState,
    PureState,
    RegisterError,
    RegisterLayout,
    apply_gate,
    basis_ket,
    bell,
    client_ket,
    dicke,
    fidelity,
    partial_trace,
    permute_to,
    project,
    single_qubit,
    states_close,
    tensor,
    werner_dicke,
    xi_state,
)
from dickesim.register import HADAMARD, PAULI_X

import oracles


class TestLayout:
    def test_duplicate_label_rejected(self):
        with pytest.raises(RegisterError, match="duplicate"):
            RegisterLayout(("a", "b", "a"))

    def test_empty_rejected(self):
        with pytest.raises(RegisterError):
            RegisterLayout(())

    def test_positions(self):
        layout = RegisterLayout(("a", "b", "c"))
        assert layout.positions(("c", "a")) == (2, 0)
        with pytest.raises(RegisterError, match="unknown"):
            layout.position("q")


class TestStateValidation:
    def test_norm_enforced(self):
        with pytest.raises(RegisterError, match="norm"):
            PureState(RegisterLayout(("a",)), np.array([1.0, 1.0]))

    def test_mixed_hermitian_enforced(self):
        with pytest.raises(RegisterError, match="Hermitian"):
            MixedState(RegisterLayout(("a",)), np.array([[0.5, 1.0], [0.0, 0.5]]))

    def test_mixed_trace_enforced(self):
        with pytest.raises(RegisterError, match="trace"):
            MixedState(RegisterLayout(("a",)), np.eye(2))

    def test_mixed_psd_enforced(self):
        with pytest.raises(RegisterError, match="eigenvalue"):
            MixedState(RegisterLayout(("a",)), np.array([[1.5, 0.0], [0.0, -0.5]]))

    def test_amplitudes_frozen(self):
        state = basis_ket("0", ("a",))
        with pytest.raises(ValueError):
            state.amplitudes[0] = 0.0


class TestNanRejected:
    """NaN compares False with every tolerance, so each check is written to fail on it."""

    def test_nan_ket(self):
        with pytest.raises(RegisterError, match="norm nan"):
            PureState(RegisterLayout(("a",)), np.array([np.nan, 1.0]))

    @pytest.mark.parametrize("entry", [(0, 1), (1, 1)], ids=["off-diagonal", "diagonal"])
    def test_nan_matrix(self, entry):
        mat = np.eye(2, dtype=complex) / 2
        mat[entry] = np.nan
        with pytest.raises(RegisterError, match="skew nan"):
            MixedState(RegisterLayout(("a",)), mat)

    def test_nan_gate(self):
        with pytest.raises(RegisterError, match="unitary"):
            apply_gate(basis_ket("0", ("a",)), np.array([[np.nan, 0.0], [0.0, 1.0]]), "a")

    def test_nan_projection_ket(self):
        with pytest.raises(RegisterError, match="normalized"):
            project(basis_ket("00", ("a", "b")), "a", np.array([np.nan, 1.0]))

    # 10 members span two blocks of the Hermitian check; member 9 sits in the second
    @pytest.mark.parametrize("member", [0, 9])
    def test_one_nan_stack_member(self, member):
        mats = np.array([np.eye(2, dtype=complex) / 2] * 10)
        mats[member, 0, 1] = np.nan
        with pytest.raises(RegisterError, match=f"stack member {member}: matrix is not Hermitian"):
            MixedState(RegisterLayout(("a",)), mats)
        kets = np.array([[1.0, 0.0]] * 10)
        kets[member, 1] = np.nan
        with pytest.raises(RegisterError, match=f"stack member {member}: state norm nan"):
            PureState(RegisterLayout(("a",)), kets)


class TestTensor:
    def test_basis_case(self):
        out = tensor(basis_ket("0", ("a",)), basis_ket("0", ("b",)))
        assert out.labels == ("a", "b")
        assert out.amplitude("00") == pytest.approx(1.0)

    def test_plus_times_one(self):
        plus = single_qubit(np.array([1, 1]) / math.sqrt(2), "X")
        out = tensor(plus, basis_ket("1", ("b",)))
        assert out.amplitude("01") == pytest.approx(1 / math.sqrt(2))
        assert out.amplitude("11") == pytest.approx(1 / math.sqrt(2))
        assert out.amplitude("00") == 0

    def test_dicke_with_client_against_kron_oracle(self):
        client = client_ket(ClientParams(theta=math.pi))
        resource = dicke(4, 2)
        out = tensor(client, resource)
        expected = np.kron(client.amplitudes, resource.amplitudes)
        assert np.abs(out.amplitudes - expected).max() < 1e-12
        nonzero = np.abs(out.amplitudes[np.abs(out.amplitudes) > 1e-12])
        assert len(nonzero) == 6
        assert np.allclose(nonzero, 1 / math.sqrt(6))

    def test_duplicate_label_named(self):
        with pytest.raises(RegisterError, match="'a'"):
            tensor(basis_ket("0", ("a",)), basis_ket("0", ("a",)))

    def test_mixed_tensor(self):
        rho = tensor(werner_dicke(0.5), basis_ket("0", ("X",)).density())
        assert rho.labels == ("a", "b", "c", "d", "X")
        assert np.trace(rho.matrix) == pytest.approx(1.0)


class TestApplyGate:
    def test_x_flip(self):
        out = apply_gate(basis_ket("0", ("a",)), PAULI_X, "a")
        assert states_close(out, basis_ket("1", ("a",)))

    def test_cx(self):
        cx = np.kron(np.diag([1, 0]), np.eye(2)) + np.kron(np.diag([0, 1]), PAULI_X)
        state = tensor(basis_ket("1", ("X",)), basis_ket("0", ("b",)))
        out = apply_gate(state, cx, ("X", "b"))
        assert states_close(out, basis_ket("11", ("X", "b")))

    def test_hadamard_on_xi_matches_dense_oracle(self):
        xi = xi_state()
        out = apply_gate(xi, HADAMARD, "c")
        full = oracles.embed_unitary(oracles.HG, [2], 4)
        expected = full @ xi.amplitudes
        assert np.abs(out.amplitudes - expected).max() < 1e-12

    def test_non_unitary_rejected(self):
        with pytest.raises(RegisterError, match="unitary"):
            apply_gate(basis_ket("0", ("a",)), np.array([[1, 0], [0, 2.0]]), "a")

    def test_unknown_label_rejected(self):
        with pytest.raises(RegisterError, match="unknown"):
            apply_gate(basis_ket("0", ("a",)), PAULI_X, "q")

    def test_norm_preserved_random_unitaries(self):
        rng = np.random.default_rng(42)
        state = dicke(3, 1)
        for trial in range(100):
            k = int(rng.integers(1, 3))
            labels = tuple(rng.choice(["a", "b", "c"], size=k, replace=False))
            gate = oracles.haar_unitary(rng, 2 ** k)
            state = apply_gate(state, gate, labels)
            assert abs(np.linalg.norm(state.amplitudes) - 1.0) < 1e-10

    def test_trace_preserved_mixed(self):
        rng = np.random.default_rng(3)
        rho = werner_dicke(0.6)
        for _ in range(20):
            gate = oracles.haar_unitary(rng, 4)
            labels = tuple(rng.choice(["a", "b", "c", "d"], size=2, replace=False))
            rho = apply_gate(rho, gate, labels)
            assert np.trace(rho.matrix).real == pytest.approx(1.0, abs=1e-10)

    def test_mixed_matches_pure_conjugation_oracle(self):
        rng = np.random.default_rng(11)
        psi = dicke(3, 2)
        gate = oracles.haar_unitary(rng, 2)
        pure_out = apply_gate(psi, gate, "b")
        mixed_out = apply_gate(psi.density(), gate, "b")
        assert np.abs(mixed_out.matrix - pure_out.density().matrix).max() < 1e-10


class TestProject:
    def test_dicke_single_qubit_projections(self):
        d42 = dicke(4, 2)
        prob0, post0 = project(d42, "d", "0")
        assert prob0 == pytest.approx(0.5, abs=1e-12)
        assert fidelity(post0, dicke(3, 2)) == pytest.approx(1.0, abs=1e-12)
        prob1, post1 = project(d42, "d", "1")
        assert prob1 == pytest.approx(0.5, abs=1e-12)
        assert fidelity(post1, dicke(3, 1)) == pytest.approx(1.0, abs=1e-12)

    def test_pair_projection_gives_bell(self):
        prob, post = project(dicke(4, 2), ("c", "d"), "10")
        assert prob == pytest.approx(1 / 3, abs=1e-12)
        assert fidelity(post, bell("psi+", ("a", "b"))) == pytest.approx(1.0, abs=1e-12)

    def test_projection_ket_argument(self):
        plus = np.array([1, 1]) / math.sqrt(2)
        prob, _ = project(basis_ket("00", ("a", "b")), "a", plus)
        assert prob == pytest.approx(0.5)

    def test_probabilities_sum_to_one(self):
        rng = np.random.default_rng(5)
        state = PureState(RegisterLayout(("a", "b", "c")), oracles.haar_ket(rng, 8))
        total = 0.0
        for bits in ("00", "01", "10", "11"):
            try:
                prob, _ = project(state, ("a", "c"), bits)
            except ImpossibleBranchError as err:
                prob = err.probability
            total += prob
        assert total == pytest.approx(1.0, abs=1e-10)

    def test_impossible_branch(self):
        with pytest.raises(ImpossibleBranchError) as exc:
            project(basis_ket("00", ("a", "b")), "a", "1")
        assert exc.value.probability < 1e-12

    def test_unnormalized_ket_rejected(self):
        with pytest.raises(RegisterError, match="normalized"):
            project(basis_ket("00", ("a", "b")), "a", np.array([1.0, 1.0]))

    def test_cannot_project_all_qubits(self):
        with pytest.raises(RegisterError, match="at least one"):
            project(basis_ket("00", ("a", "b")), ("a", "b"), "00")

    def test_mixed_projection_matches_pure(self):
        d42 = dicke(4, 2)
        prob_p, post_p = project(d42, "d", "1")
        prob_m, post_m = project(d42.density(), "d", "1")
        assert prob_m == pytest.approx(prob_p, abs=1e-12)
        assert fidelity(post_p, post_m) == pytest.approx(1.0, abs=1e-10)

    def test_mixed_projection_matches_pure_on_random_states(self):
        rng = np.random.default_rng(71)
        layout = RegisterLayout(("a", "b", "c", "d"))
        for labels in (("d",), ("b",), ("a", "c"), ("c", "d")):
            psi = PureState(layout, oracles.haar_ket(rng, 16))
            onto = oracles.haar_ket(rng, 2 ** len(labels))
            prob_p, post_p = project(psi, labels, onto)
            prob_m, post_m = project(psi.density(), labels, onto)
            assert prob_m == pytest.approx(prob_p, abs=1e-10)
            assert np.abs(post_m.matrix - post_p.density().matrix).max() < 1e-10


class TestPartialTrace:
    def test_bell_reduces_to_identity(self):
        rho = partial_trace(bell("psi+"), "a")
        assert np.abs(rho.matrix - np.eye(2) / 2).max() < 1e-12

    def test_d3_two_excitations_single_qubit(self):
        rho = partial_trace(dicke(3, 2), "b")
        assert np.abs(rho.matrix - np.diag([1 / 3, 2 / 3])).max() < 1e-12

    def test_product_state(self):
        state = tensor(basis_ket("0", ("a",)), basis_ket("1", ("b",)))
        rho = partial_trace(state, "a")
        assert np.abs(rho.matrix - np.diag([1.0, 0.0])).max() < 1e-12

    def test_tensor_then_trace_roundtrip(self):
        rng = np.random.default_rng(9)
        rho1 = MixedState(RegisterLayout(("a", "b")), oracles.random_density(rng, 4))
        rho2 = MixedState(RegisterLayout(("c",)), oracles.random_density(rng, 2))
        combined = tensor(rho1, rho2)
        back = partial_trace(combined, ("a", "b"))
        assert np.abs(back.matrix - rho1.matrix).max() < 1e-10

    def test_against_index_oracle(self):
        rng = np.random.default_rng(17)
        psi = PureState(RegisterLayout(("a", "b", "c", "d")), oracles.haar_ket(rng, 16))
        rho = partial_trace(psi, ("b", "d"))
        expected = oracles.partial_trace_indices(np.outer(psi.amplitudes, psi.amplitudes.conj()),
                                                 keep=[1, 3], n=4)
        assert np.abs(rho.matrix - expected).max() < 1e-10

    def test_empty_keep_rejected(self):
        with pytest.raises(RegisterError, match="at least one"):
            partial_trace(bell("psi+"), ())


class TestRepeatedLabels:
    """A repeated label is refused, naming the labels, for pure and mixed states."""

    @pytest.mark.parametrize("mixed", [False, True], ids=["pure", "mixed"])
    @pytest.mark.parametrize("operation,labels", [
        (lambda state, labels: project(state, labels, "01"), ("a", "a")),
        (partial_trace, ("a", "a")),
        (partial_trace, ("a", "a", "b")),
    ], ids=["project", "partial_trace", "partial_trace_three"])
    def test_repeated_label_rejected(self, mixed, operation, labels):
        state = dicke(4, 2).density() if mixed else dicke(4, 2)
        with pytest.raises(RegisterError, match=re.escape(repr(labels))):
            operation(state, labels)


class TestFidelity:
    def test_pure_cases(self):
        zero, one = basis_ket("0", ("a",)), basis_ket("1", ("a",))
        assert fidelity(zero, zero) == pytest.approx(1.0)
        assert fidelity(zero, one) == pytest.approx(0.0)

    def test_werner_closed_form(self):
        d42 = dicke(4, 2)
        for p in (0.0, 0.3, 0.7653333333333333, 1.0):
            assert fidelity(werner_dicke(p), d42) == pytest.approx(p + (1 - p) / 16, abs=1e-10)

    def test_diagonal_overlap(self):
        rho = MixedState(RegisterLayout(("a",)), np.diag([2 / 3, 1 / 3]))
        assert fidelity(rho, basis_ket("1", ("a",))) == pytest.approx(1 / 3, abs=1e-12)

    def test_mixed_mixed_symmetric(self):
        rng = np.random.default_rng(23)
        layout = RegisterLayout(("a", "b"))
        for _ in range(10):
            r1 = MixedState(layout, oracles.random_density(rng, 4))
            r2 = MixedState(layout, oracles.random_density(rng, 4))
            assert fidelity(r1, r2) == pytest.approx(fidelity(r2, r1), abs=1e-10)

    def test_unity_iff_equal(self):
        rng = np.random.default_rng(31)
        layout = RegisterLayout(("a", "b"))
        for _ in range(5):
            rho = oracles.random_density(rng, 4)
            state = MixedState(layout, rho)
            assert fidelity(state, MixedState(layout, rho)) == pytest.approx(1.0, abs=1e-9)
            other = MixedState(layout, oracles.random_density(rng, 4))
            assert fidelity(state, other) < 1.0 - 1e-6

    def test_pure_vs_mixed_agrees_with_uhlmann(self):
        rng = np.random.default_rng(37)
        layout = RegisterLayout(("a", "b"))
        psi = PureState(layout, oracles.haar_ket(rng, 4))
        rho = MixedState(layout, oracles.random_density(rng, 4))
        direct = fidelity(psi, rho)
        assert fidelity(rho, psi) == pytest.approx(direct, abs=1e-10)
        # Uhlmann via eigendecomposition carries a little more float noise
        assert fidelity(psi.density(), rho) == pytest.approx(direct, abs=1e-7)

    def test_dimension_mismatch(self):
        with pytest.raises(RegisterError, match="mismatch"):
            fidelity(basis_ket("0", ("a",)), basis_ket("00", ("a", "b")))

    def test_label_alignment(self):
        ab = bell("psi+", ("a", "b"))
        ba = permute_to(ab, ("b", "a"))
        assert fidelity(ab, ba) == pytest.approx(1.0, abs=1e-12)

    def test_global_phase_ignored(self):
        psi = dicke(3, 1)
        rotated = PureState(psi.layout, np.exp(1j * 0.7) * psi.amplitudes)
        assert states_close(psi, rotated)


class TestPermute:
    def test_permutation_matches_oracle(self):
        rng = np.random.default_rng(41)
        psi = PureState(RegisterLayout(("a", "b", "c")), oracles.haar_ket(rng, 8))
        out = permute_to(psi, ("c", "a", "b"))
        for bits in ("000", "001", "010", "011", "100", "101", "110", "111"):
            reordered = bits[1] + bits[2] + bits[0]
            assert out.amplitude(bits) == pytest.approx(psi.amplitude(reordered))

    def test_density_matrix_matches_permutation_matrix(self):
        rng = np.random.default_rng(43)
        rho = MixedState(RegisterLayout(("a", "b", "c")), oracles.random_density(rng, 8))
        out = permute_to(rho, ("c", "a", "b"))
        # P maps basis index (a b c) to (c a b), one bit at a time
        perm = np.zeros((8, 8))
        for old in range(8):
            a, b, c = (old >> 2) & 1, (old >> 1) & 1, old & 1
            perm[(c << 2) | (a << 1) | b, old] = 1.0
        assert out.labels == ("c", "a", "b")
        assert np.array_equal(out.matrix, perm @ rho.matrix @ perm.T)

    def test_not_a_permutation(self):
        with pytest.raises(RegisterError):
            permute_to(bell("psi+"), ("a", "q"))


LABELS = ("a", "b", "c")


@st.composite
def states(draw, n=None):
    """A Haar-random ket or a random density matrix of any rank on 1-3 qubits."""
    n = n or draw(st.integers(1, len(LABELS)))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    layout = RegisterLayout(LABELS[:n])
    if draw(st.booleans()):
        return PureState(layout, oracles.haar_ket(rng, 2 ** n))
    return MixedState(layout, oracles.random_density(rng, 2 ** n, draw(st.integers(1, 2 ** n))))


def some_labels(state, max_size):
    """A non-empty ordered selection of at most `max_size` of the state's labels."""
    return st.permutations(state.labels).flatmap(
        lambda order: st.integers(1, max_size).map(lambda k: tuple(order[:k])))


class TestRegisterProperties:
    @settings(derandomize=True, max_examples=60, deadline=None)
    @given(data=st.data())
    def test_apply_gate_keeps_the_norm(self, data):
        state = data.draw(states())
        labels = data.draw(some_labels(state, min(2, state.n)))
        gate = oracles.haar_unitary(np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1))),
                                    2 ** len(labels))
        out = apply_gate(state, gate, labels)
        if isinstance(out, PureState):
            assert abs(np.linalg.norm(out.amplitudes) - 1.0) <= 1e-12
        else:
            assert abs(np.trace(out.matrix) - 1.0) <= 1e-12

    @settings(derandomize=True, max_examples=60, deadline=None)
    @given(data=st.data())
    def test_partial_trace_keeps_trace_and_positivity(self, data):
        state = data.draw(states())
        reduced = partial_trace(state, data.draw(some_labels(state, state.n)))
        assert abs(np.trace(reduced.matrix) - 1.0) <= 1e-12
        assert np.linalg.eigvalsh(reduced.matrix).min() >= -1e-12

    @settings(derandomize=True, max_examples=60, deadline=None)
    @given(data=st.data())
    def test_fidelity_is_symmetric_and_in_unit_interval(self, data):
        first = data.draw(states())
        second = data.draw(states(n=first.n))
        forward, backward = fidelity(first, second), fidelity(second, first)
        # the pure/pure overlap is not clamped, so equal kets may read 1 + a few ulp
        assert 0.0 <= forward <= 1.0 + 1e-12 and 0.0 <= backward <= 1.0 + 1e-12
        # Uhlmann takes square roots of rounding-level eigenvalues when a rank is low
        assert abs(forward - backward) <= 1e-7

    @settings(derandomize=True, max_examples=60, deadline=None)
    @given(data=st.data())
    def test_project_probabilities_sum_to_one(self, data):
        state = data.draw(states().filter(lambda s: s.n > 1))
        labels = data.draw(some_labels(state, state.n - 1))
        total = 0.0
        for bits in itertools.product("01", repeat=len(labels)):
            try:
                prob, _ = project(state, labels, "".join(bits))
            except ImpossibleBranchError as err:
                prob = err.probability
            total += prob
        assert abs(total - 1.0) <= 1e-12


@st.composite
def stacks(draw, n=None):
    """(stack, members): 1-7 Haar-random kets or random density matrices of
    any rank on 1-3 qubits, as one stacked state and as single states."""
    n = n or draw(st.integers(1, len(LABELS)))
    size = draw(st.integers(1, 7))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    layout = RegisterLayout(LABELS[:n])
    if draw(st.booleans()):
        arr = np.array([oracles.haar_ket(rng, 2 ** n) for _ in range(size)])
        return PureState(layout, arr), [PureState(layout, a) for a in arr]
    arr = np.array([oracles.random_density(rng, 2 ** n, int(rng.integers(1, 2 ** n + 1)))
                    for _ in range(size)])
    return MixedState(layout, arr), [MixedState(layout, a) for a in arr]


def _array(state):
    return state.amplitudes if isinstance(state, PureState) else state.matrix


def _same_members(stacked, singles) -> bool:
    """Member i of `stacked` equals singles[i] bit for bit."""
    return all(np.array_equal(_array(stacked)[i], _array(s)) for i, s in enumerate(singles))


class TestStacks:
    """A stack gives each member exactly what the member gives alone (==)."""

    @settings(derandomize=True, max_examples=25, deadline=None)
    @given(data=st.data())
    def test_apply_gate_matches_members(self, data):
        stack, members = data.draw(stacks())
        labels = data.draw(some_labels(stack, min(2, stack.n)))
        gate = oracles.haar_unitary(np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1))),
                                    2 ** len(labels))
        out = apply_gate(stack, gate, labels)
        assert out.stack_shape == (len(members),)
        assert _same_members(out, [apply_gate(m, gate, labels) for m in members])

    @settings(derandomize=True, max_examples=25, deadline=None)
    @given(data=st.data())
    def test_project_matches_members(self, data):
        stack, members = data.draw(stacks().filter(lambda s: s[0].n > 1))
        labels = data.draw(some_labels(stack, stack.n - 1))
        ket = oracles.haar_ket(np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1))),
                               2 ** len(labels))
        probs, post = project(stack, labels, ket)
        singles = [project(m, labels, ket) for m in members]
        assert all(probs[i] == prob for i, (prob, _) in enumerate(singles))
        assert _same_members(post, [state for _, state in singles])

    @settings(derandomize=True, max_examples=25, deadline=None)
    @given(data=st.data())
    def test_permute_to_matches_members(self, data):
        stack, members = data.draw(stacks())
        order = data.draw(st.permutations(stack.labels))
        assert _same_members(permute_to(stack, order), [permute_to(m, order) for m in members])

    @settings(derandomize=True, max_examples=25, deadline=None)
    @given(data=st.data())
    def test_partial_trace_matches_members(self, data):
        stack, members = data.draw(stacks())
        keep = data.draw(some_labels(stack, stack.n))
        assert _same_members(partial_trace(stack, keep), [partial_trace(m, keep) for m in members])

    @settings(derandomize=True, max_examples=25, deadline=None)
    @given(data=st.data())
    def test_fidelity_matches_members(self, data):
        first, first_members = data.draw(stacks())
        second, second_members = data.draw(stacks(n=first.n))
        one = second_members[0]
        values = fidelity(first, one)
        assert all(values[i] == fidelity(m, one) for i, m in enumerate(first_members))
        size = min(len(first_members), len(second_members))
        first = type(first)(first.layout, _array(first)[:size])
        second = type(second)(second.layout, _array(second)[:size])
        values = fidelity(first, second)
        assert all(values[i] == fidelity(a, b)
                   for i, (a, b) in enumerate(zip(first_members, second_members[:size])))

    def test_uhlmann_square_is_taken_per_member(self):
        # for this pair the root-eigenvalue sum squared by libm pow (a NumPy
        # scalar's ** 2) and by x * x (an array's ** 2) differ in the last bit
        rng = np.random.default_rng(69)
        rho, sigma = (oracles.random_density(rng, 2) for _ in range(2))
        layout = RegisterLayout(("a",))
        vals, vecs = np.linalg.eigh(rho)
        root = (vecs * np.sqrt(vals)) @ vecs.conj().T
        total = np.sum(np.sqrt(np.linalg.eigvalsh(root @ sigma @ root)))
        assert total ** 2 != (np.array([total]) ** 2)[0]
        single = fidelity(MixedState(layout, rho), MixedState(layout, sigma))
        stack = MixedState(layout, np.array([rho, np.eye(2) / 2, rho]))
        assert list(fidelity(stack, MixedState(layout, sigma))) == [
            single, fidelity(MixedState(layout, np.eye(2) / 2), MixedState(layout, sigma)), single]

    @pytest.mark.parametrize("bad,match", [
        (np.diag([1.5, -0.5]), "stack member 1: matrix has eigenvalue"),
        (np.eye(2), "stack member 1: trace"),
        (np.array([[0.5, 0.1], [0.0, 0.5]]), "stack member 1: matrix is not Hermitian"),
    ])
    def test_one_bad_member_raises(self, bad, match):
        good = np.eye(2) / 2
        with pytest.raises(RegisterError, match=match):
            MixedState(RegisterLayout(("a",)), np.array([good, bad, good]))

    def test_one_unnormalized_ket_raises(self):
        kets = np.array([[1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
        with pytest.raises(RegisterError, match="stack member 1: state norm"):
            PureState(RegisterLayout(("a",)), kets)

    def test_single_states_keep_their_shape(self):
        assert basis_ket("01", ("a", "b")).stack_shape == ()
        assert werner_dicke(0.5).stack_shape == ()
        assert PureState(RegisterLayout(("a", "b")), np.eye(4)[1].reshape(2, 2)).stack_shape == ()

    def test_relabelled_fidelity_permutes_every_member(self):
        rng = np.random.default_rng(12)
        layout, swapped = RegisterLayout(("a", "b", "c")), RegisterLayout(("c", "a", "b"))
        arr = np.array([oracles.random_density(rng, 8, 2) for _ in range(3)])
        other = MixedState(swapped, oracles.random_density(rng, 8))
        stack = MixedState(layout, arr)
        assert _same_members(permute_to(stack, swapped.labels),
                             [permute_to(MixedState(layout, a), swapped.labels) for a in arr])
        assert list(fidelity(other, stack)) == [fidelity(other, MixedState(layout, a)) for a in arr]

    def test_tensor_joins_the_single_factor_to_every_member(self):
        rng = np.random.default_rng(8)
        layout = RegisterLayout(("a", "b"))
        arr = np.array([oracles.random_density(rng, 4) for _ in range(3)])
        other = PureState(RegisterLayout(("c",)), oracles.haar_ket(rng, 2))
        stacked = tensor(MixedState(layout, arr), other)
        assert _same_members(stacked, [tensor(MixedState(layout, a), other) for a in arr])
        with pytest.raises(RegisterError, match="two stacks"):
            tensor(MixedState(layout, arr), PureState(RegisterLayout(("c",)), np.eye(2)))

    @pytest.mark.parametrize("single_first", [True, False], ids=["single-first", "stack-first"])
    @pytest.mark.parametrize("pure", [True, False], ids=["kets", "densities"])
    def test_tensor_member_equals_member_tensor(self, pure, single_first):
        rng = np.random.default_rng(9)
        stack_layout, single_layout = RegisterLayout(("b", "c")), RegisterLayout(("a",))
        if pure:
            stack = PureState(stack_layout, np.array([oracles.haar_ket(rng, 4) for _ in range(3)]))
            single = PureState(single_layout, oracles.haar_ket(rng, 2))
        else:
            stack = MixedState(stack_layout, np.array([oracles.random_density(rng, 4) for _ in range(3)]))
            single = MixedState(single_layout, oracles.random_density(rng, 2))
        pair = (lambda s: tensor(single, s)) if single_first else (lambda s: tensor(s, single))
        out = pair(stack)
        assert out.stack_shape == (3,)
        assert _same_members(out, [pair(stack.member(i)) for i in range(3)])

    @pytest.mark.parametrize("first_pure,second_pure", [(True, True), (True, False), (False, False)],
                             ids=["pure-pure", "pure-mixed", "mixed-mixed"])
    def test_fidelity_of_stacks_of_different_sizes_raises(self, first_pure, second_pure):
        def stack(size, pure):
            kets = PureState(RegisterLayout(("a",)), np.tile([1.0, 0.0], (size, 1)))
            return kets if pure else kets.density()

        with pytest.raises(RegisterError, match="stack shapes"):
            fidelity(stack(3, first_pure), stack(5, second_pure))
