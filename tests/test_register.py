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
from dickesim import register
from dickesim.register import (
    AXIS_BASES,
    HADAMARD,
    PAULI_X,
    PAULI_Z,
    PSD_TOL,
    pauli_matrix,
)

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


A, AB = RegisterLayout(("a",)), RegisterLayout(("a", "b"))
KET_A = np.array([1, 0], dtype=complex)


class TestShapeContracts:
    """Each shape and length check on public input raises its own message."""

    CASES = {
        "ket-length": (lambda: PureState(A, np.ones(3) / math.sqrt(3)),
                       "amplitude vector has length 3, layout needs 2"),
        "ket-rows-length": (lambda: PureState(A, np.ones((2, 3)) / math.sqrt(3)),
                            "amplitude vector has length 6, layout needs 2"),
        "empty-ket-stack": (lambda: PureState(A, np.zeros((0, 2))),
                            "a stack needs at least one member"),
        "matrix-shape": (lambda: MixedState(A, np.eye(4) / 4),
                         r"matrix shape \(4, 4\) does not match register dimension 2"),
        "matrix-ndim": (lambda: MixedState(A, np.full((2, 2, 2, 2), 0.5)),
                        r"matrix shape \(2, 2, 2, 2\) does not match register dimension 2"),
        "empty-matrix-stack": (lambda: MixedState(A, np.zeros((0, 2, 2))),
                               "a stack needs at least one member"),
        "basis-ket-length": (lambda: basis_ket("010", ("a", "b")),
                             "bitstring '010' does not match 2 qubits"),
        "term-length": (lambda: register.from_terms([("01", 1), ("1", 1)], ("a", "b")),
                        "bitstring '1' does not match 2 qubits"),
        "gate-shape": (lambda: apply_gate(PureState(A, KET_A), np.eye(4), "a"),
                       r"gate shape \(4, 4\) does not act on 1 qubits"),
        "gate-table-shape": (lambda: apply_gate(PureState(A, np.eye(2)), np.array([np.eye(2)] * 3), "a"),
                             re.escape("stack shapes (3,) and (2,) do not broadcast")),
        "gate-table-empty": (lambda: apply_gate(PureState(A, np.eye(2)), np.zeros((0, 2, 2)), "a"),
                             re.escape("stack shapes (0,) and (2,) do not broadcast")),
        "gate-stack-empty": (lambda: apply_gate(PureState(A, KET_A), np.zeros((0, 2, 2)), "a"),
                             "a gate stack needs at least one member"),
        "projection-bitstring": (lambda: project(PureState(AB, np.eye(4)[0]), "a", "01"),
                                 "projection bitstring '01' does not match 1 qubits"),
        "projection-bitstring-sign": (lambda: project(basis_ket("000", ("a", "b", "c")), ("a", "b"), "+1"),
                                      re.escape("onto='+1' is not a bitstring of 0s and 1s")),
        "projection-every-qubit": (lambda: project(bell("psi+"), ["a", "b"], "01"),
                                   re.escape("labels=['a', 'b'] leaves no qubit of ('a', 'b')")),
        "projection-ket-length": (lambda: project(PureState(AB, np.eye(4)[0]), "a", np.ones(3) / 2),
                                  "projection ket has length 3, expected 2"),
        "projection-table-width": (lambda: project(PureState(AB, np.eye(4)[0]), "a", np.eye(4)),
                                   r"projection kets have shape \(4, 4\), expected \(B, 2\)"),
        "permutation-length": (lambda: permute_to(bell("psi+"), ("a",)),
                               re.escape("label_order=('a',) is not a permutation of ('a', 'b')")),
    }

    @pytest.mark.parametrize("case", list(CASES))
    def test_raises_with_message(self, case):
        build, message = self.CASES[case]
        with pytest.raises(RegisterError, match=message):
            build()


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

    # the first and the last of 10 members
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
        with pytest.raises(RegisterError, match=re.escape("keep=() names no qubit")):
            partial_trace(bell("psi+"), ())

    @staticmethod
    def _np_trace_form(state, keep):
        """The reduction by np.trace over each dropped qubit, highest first."""
        lead, kept = state.stack_shape, sorted(state.layout.positions(keep))
        t = state.matrix.reshape(lead + (2,) * (2 * state.n))
        for p in sorted(set(range(state.n)) - set(kept), reverse=True):
            row = len(lead) + p
            t = np.trace(t, axis1=row, axis2=row + (t.ndim - len(lead)) // 2)
        return t.reshape(lead + (2 ** len(kept),) * 2)

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_mixed_equals_np_trace_form(self, n):
        """A mixed reduction sums each dropped qubit's two diagonal slices, the
        a + b that np.trace forms: every keep set, on single states, (S,) stacks
        and (K, S) stacks, gives np.trace's bytes."""
        rng = np.random.default_rng(50 + n)
        layout = RegisterLayout("abcd"[:n])
        stack = MixedState(layout, np.array([oracles.random_density(rng, 2 ** n, 2) for _ in range(5)]))
        gates = np.array([oracles.haar_unitary(rng, 2) for _ in range(3)])[:, None]
        states = [stack.member(0), stack, apply_gate(stack, gates, "a")]
        assert states[2].stack_shape == (3, 5)
        for state in states:
            for size in range(1, n + 1):
                for keep in itertools.combinations(layout.labels, size):
                    reduced = partial_trace(state, keep)
                    assert reduced.matrix.tobytes() == self._np_trace_form(state, keep).tobytes(), keep


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

    def test_python_and_numpy_scalars_square_alike(self):
        """fidelity squares each member's overlap or root sum on Python numbers
        (.tolist()); libm hypot and pow give them the bits of the NumPy scalar
        forms, signed zeros and subnormals included. Squares stay below overflow,
        as a fidelity's do."""
        rng = np.random.default_rng(61)
        size = 20000
        real = rng.normal(size=(2, size)) * 10.0 ** rng.integers(-330, 150, size=(2, size))
        special = np.array([0.0, -0.0, 5e-324, -5e-324, 2.2e-308, 1.0, -1.0, 1e-160])
        real = np.concatenate([real, np.array(np.meshgrid(special, special)).reshape(2, -1)], axis=1)
        overlaps = real[0] + 1j * real[1]
        assert (np.array([abs(x) ** 2 for x in overlaps.tolist()]).tobytes()
                == np.array([abs(x) ** 2 for x in overlaps]).tobytes())
        totals = np.abs(real[0])
        assert (np.array([min(t ** 2, 1.0) for t in totals.tolist()]).tobytes()
                == np.array([min(t ** 2, 1.0) for t in totals]).tobytes())


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

    def test_a_string_is_one_label(self):
        state = basis_ket("10", ("ab", "c"))
        assert permute_to(state, ("c", "ab")).labels == ("c", "ab")
        with pytest.raises(RegisterError, match=re.escape("label_order='ab' is not a permutation")):
            permute_to(state, "ab")


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
        # a gate stack of shape (1,) or (S,) broadcasts: member s as gate s (or gate 0) alone
        count = data.draw(st.sampled_from(sorted({1, len(members)})))
        rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1)))
        gates = np.array([oracles.haar_unitary(rng, 2 ** len(labels)) for _ in range(count)])
        assert _same_members(apply_gate(stack, gates, labels),
                             [apply_gate(m, gates[s % count], labels) for s, m in enumerate(members)])

    @settings(derandomize=True, max_examples=25, deadline=None)
    @given(data=st.data())
    def test_gate_stack_widens_a_single_state(self, data):
        single = data.draw(stacks())[1][0]
        labels = data.draw(some_labels(single, min(2, single.n)))
        rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1)))
        count = data.draw(st.integers(1, 5))
        gates = np.array([oracles.haar_unitary(rng, 2 ** len(labels)) for _ in range(count)])
        out = apply_gate(single, gates, labels)
        assert out.stack_shape == (len(gates),)
        assert _same_members(out, [apply_gate(single, g, labels) for g in gates])

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
        # a table of B kets adds a leading axis of B: row b is the stack projected onto
        # ket b, member by member, for the stack and for a single state (no stack axis)
        rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1)))
        kets = np.array([oracles.haar_ket(rng, 2 ** len(labels))
                         for _ in range(data.draw(st.integers(1, 4)))])
        for state in (stack, members[0]):
            probs, post = project(state, labels, kets)
            assert probs.shape == post.stack_shape == (len(kets),) + state.stack_shape
            alone = [state.member(s) for s in range(len(members))] if state.stack_shape else [state]
            for b, ket in enumerate(kets):
                singles = [project(m, labels, ket) for m in alone]
                assert list(probs[b].reshape(-1)) == [prob for prob, _ in singles]
                assert all(np.array_equal(_array(post.member(b).member(s)), _array(single))
                           for s, (_, single) in enumerate(singles))

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
        # the first pair whose root-eigenvalue sum squared by libm pow (a NumPy
        # scalar's ** 2) and by x * x (an array's ** 2) differ in the last bit;
        # which pair that is depends on the eigenvalue bits the BLAS kernels give
        for seed in range(4000):
            rng = np.random.default_rng(seed)
            rho, sigma = (oracles.random_density(rng, 2) for _ in range(2))
            vals, vecs = np.linalg.eigh(rho)
            root = (vecs * np.sqrt(vals)) @ vecs.conj().T
            total = np.sum(np.sqrt(np.linalg.eigvalsh(root @ sigma @ root)))
            if total ** 2 != (np.array([total]) ** 2)[0]:
                break
        else:
            pytest.fail("no seed below 4000 gives a pair whose squares by pow and by x * x differ "
                        "under the loaded BLAS kernels (see OPENBLAS_CORETYPE)")
        layout = RegisterLayout(("a",))
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


def _grid(rng, pure: bool, rows: int, size: int):
    """(grid, stack, kets): a stack of `size` random states on ("a", "b", "c")
    projected onto a table of `rows` random kets of "a", a (rows, size) stack on ("b", "c")."""
    layout = RegisterLayout(("a", "b", "c"))
    if pure:
        stack = PureState(layout, np.array([oracles.haar_ket(rng, 8) for _ in range(size)]))
    else:
        stack = MixedState(layout, np.array([oracles.random_density(rng, 8, 1 + i) for i in range(size)]))
    kets = np.array([oracles.haar_ket(rng, 2) for _ in range(rows)])
    return project(stack, "a", kets)[1], stack, kets


class TestBroadcastStacks:
    """Stack shapes meet by numpy broadcasting. On a (B, S) stack with B, S >= 2,
    where broadcasting and any cutting into blocks part ways, member (b, s) of
    every result equals the single run on member (b, s) alone, bit for bit."""

    B, S = 2, 3

    @pytest.mark.parametrize("pure", [True, False], ids=["kets", "densities"])
    def test_table_projection_rows_are_the_kets(self, pure):
        grid, stack, kets = _grid(np.random.default_rng(31), pure, self.B, self.S)
        assert grid.stack_shape == (self.B, self.S)
        for b, s in itertools.product(range(self.B), range(self.S)):
            alone = project(stack.member(s), "a", kets[b])[1]
            assert np.array_equal(_array(grid.member(b).member(s)), _array(alone))

    @pytest.mark.parametrize("pure", [True, False], ids=["kets", "densities"])
    def test_gate_stacks_broadcast_over_the_grid(self, pure):
        rng = np.random.default_rng(32)
        grid = _grid(rng, pure, self.B, self.S)[0]
        rows = np.array([[oracles.haar_unitary(rng, 4)] for _ in range(self.B)])  # (B, 1)
        cols = np.array([oracles.haar_unitary(rng, 4) for _ in range(self.S)])  # (S,)
        for gates, pick in ((rows, lambda b, s: rows[b, 0]), (cols, lambda b, s: cols[s])):
            out = apply_gate(grid, gates, ("c", "b"))
            assert out.stack_shape == (self.B, self.S)
            for b, s in itertools.product(range(self.B), range(self.S)):
                alone = apply_gate(grid.member(b).member(s), pick(b, s), ("c", "b"))
                assert np.array_equal(_array(out.member(b).member(s)), _array(alone))

    @pytest.mark.parametrize("first_pure,grid_pure", [(True, True), (True, False), (False, False)],
                             ids=["pure-pure", "pure-mixed", "mixed-mixed"])
    def test_fidelity_broadcasts_a_stack_over_the_grid(self, first_pure, grid_pure):
        rng = np.random.default_rng(33)
        grid = _grid(rng, grid_pure, self.B, self.S)[0]
        layout = RegisterLayout(("b", "c"))
        if first_pure:
            first = PureState(layout, np.array([oracles.haar_ket(rng, 4) for _ in range(self.S)]))
        else:
            first = MixedState(layout, np.array([oracles.random_density(rng, 4, 1 + i)
                                                 for i in range(self.S)]))
        for order in (lambda x, y: (x, y), lambda x, y: (y, x)):
            values = fidelity(*order(first, grid))
            assert values.shape == (self.B, self.S)
            assert all(values[b, s] == fidelity(*order(first.member(s), grid.member(b).member(s)))
                       for b, s in itertools.product(range(self.B), range(self.S)))
        if not first_pure:  # the (S,) stack's one square root serves every row: cached, read-only
            assert first.root is first.root and not first.root.flags.writeable

    @pytest.mark.parametrize("pure", [True, False], ids=["kets", "densities"])
    def test_gate_stack_widens_the_grid(self, pure):
        rng = np.random.default_rng(35)
        grid = _grid(rng, pure, self.B, self.S)[0]
        gates = np.array([[[oracles.haar_unitary(rng, 2)]] for _ in range(2)])  # (2, 1, 1)
        out = apply_gate(grid, gates, "b")
        assert out.stack_shape == (2, self.B, self.S)
        for g, b, s in itertools.product(range(2), range(self.B), range(self.S)):
            alone = apply_gate(grid.member(b).member(s), gates[g, 0, 0], "b")
            assert np.array_equal(_array(out.member(g).member(b).member(s)), _array(alone))

    def test_unbroadcastable_stacks_raise(self):
        grid = _grid(np.random.default_rng(34), False, self.B, self.S)[0]
        for shape in ((2,), (3, 1)):
            message = re.escape(f"stack shapes {shape} and (2, 3) do not broadcast")
            with pytest.raises(RegisterError, match=message):
                apply_gate(grid, np.broadcast_to(np.eye(2), shape + (2, 2)), "b")
        pair = PureState(RegisterLayout(("b", "c")), np.tile(np.eye(4)[0], (2, 1)))
        with pytest.raises(RegisterError, match=re.escape("stack shapes (2,) and (2, 3) do not broadcast")):
            fidelity(pair, grid)


FIVE = ("a", "b", "c", "d", "e")


def _spectral_member(d: int, low: float, seed: int) -> np.ndarray:
    """Unit-trace Q diag(lambda) Q^dagger with smallest eigenvalue `low`, Q Haar-random."""
    rest = np.linspace(1.0, 2.0, d - 1)
    lam = np.concatenate([[low], rest * (1.0 - low) / rest.sum()])
    q = oracles.haar_unitary(np.random.default_rng(seed), d)
    return (q * lam) @ q.conj().T


def _psd_message(m: np.ndarray) -> str:
    return f"matrix has eigenvalue {float(np.linalg.eigvalsh(m)[0])} below PSD tolerance {PSD_TOL}"


def _valid_stack() -> np.ndarray:
    """101 random 32x32 density matrices of every rank from 1 to 32."""
    rng = np.random.default_rng(21)
    return np.array([oracles.random_density(rng, 32, 1 + i % 32) for i in range(101)])


class TestPsdCertificate:
    """MixedState accepts a member exactly when eigvalsh puts its smallest eigenvalue
    at or above PSD_TOL, and rejects it with the eigvalsh message."""

    @pytest.mark.parametrize("low", [PSD_TOL - 1e-12, PSD_TOL + 1e-12, PSD_TOL - 1e-9,
                                     PSD_TOL + 1e-9, 0.0, -1e-17])
    @pytest.mark.parametrize("n", [1, 3, 5])
    def test_verdict_matches_eigvalsh(self, n, low):
        m = _spectral_member(2 ** n, low, seed=n)
        valid = np.linalg.eigvalsh(m).min() >= PSD_TOL
        assert valid == (low >= PSD_TOL)  # the spectrum lands on the intended side
        if valid:
            assert np.array_equal(MixedState(RegisterLayout(FIVE[:n]), m).matrix, m)
        else:
            with pytest.raises(RegisterError) as exc:
                MixedState(RegisterLayout(FIVE[:n]), m)
            assert str(exc.value) == _psd_message(m)

    @pytest.mark.parametrize("bad", [0, 9], ids=["first-member", "tenth-member"])
    def test_stack_names_its_bad_member(self, bad):
        members = [_spectral_member(32, 0.0, seed=i) for i in range(12)]
        members[bad] = _spectral_member(32, PSD_TOL - 1e-9, seed=99)
        with pytest.raises(RegisterError) as exc:
            MixedState(RegisterLayout(FIVE), np.array(members))
        assert str(exc.value) == f"stack member {bad}: " + _psd_message(members[bad])


class TestPsdCheckCost:
    """One eigensolve decides a stack and names its first bad member."""

    @staticmethod
    def _count_eigvalsh(monkeypatch) -> list:
        calls, eigvalsh = [], np.linalg.eigvalsh
        monkeypatch.setattr(np.linalg, "eigvalsh", lambda *a, **k: calls.append(1) or eigvalsh(*a, **k))
        return calls

    def test_invalid_stack_computes_eigenvalues_once(self, monkeypatch):
        stack = _valid_stack()
        stack[57] = _spectral_member(32, PSD_TOL - 1e-9, seed=5)
        calls = self._count_eigvalsh(monkeypatch)
        with pytest.raises(RegisterError, match="stack member 57: matrix has eigenvalue"):
            MixedState(RegisterLayout(FIVE), stack)
        assert len(calls) == 1


SIX = ("a", "b", "c", "d", "e", "f")
LAYOUTS = {
    "contiguous": np.ascontiguousarray,
    "strided": lambda arr: np.repeat(arr, 2, axis=-1)[..., ::2],  # a [:, ::2] slice
    "fortran": np.asfortranarray,  # each member strided by the stack size
}


@st.composite
def ket_stacks(draw, n=None, size=None, layouts=tuple(LAYOUTS)):
    """(n, amplitudes): 1-257 random kets on 1-6 qubits, some with zero
    amplitudes, laid out contiguously, as a [:, ::2] slice or column-major."""
    n = n or draw(st.integers(1, len(SIX)))
    size = size or draw(st.integers(1, 257))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    arr = rng.normal(size=(size, 2 ** n)) + 1j * rng.normal(size=(size, 2 ** n))
    arr[rng.random(arr.shape) < draw(st.sampled_from([0.0, 0.5, 0.9]))] = 0.0
    arr[~arr.any(axis=1), 0] = 1.0
    arr /= np.linalg.norm(arr, axis=1)[:, None]
    return n, LAYOUTS[draw(st.sampled_from(sorted(layouts)))](arr)


def _vdot_fidelities(first: np.ndarray, second: np.ndarray) -> list:
    """The pure/pure fidelity formula with one np.vdot per member."""
    first, second = np.broadcast_arrays(first, second)
    return [abs(np.vdot(a, b)) ** 2 for a, b in zip(first, second)]


class TestBatchedDots:
    """A stack's inner products equal one np.vdot per member bit for bit,
    whatever layout the stack was built from."""

    @settings(derandomize=True, max_examples=40, deadline=None)
    @given(data=st.data())
    def test_dots_are_vdot_per_member(self, data):
        # the conjugated operand is compact, as every stored or contracted ket
        # is; the other may have any strides
        n, first = data.draw(ket_stacks(layouts=("contiguous", "fortran")))
        _, second = data.draw(ket_stacks(n=n, size=len(first)))
        one = np.ascontiguousarray(second[0])
        for a, b in ((first, second), (first, second[0]), (one, first), (first, first)):
            expected = [np.vdot(x, y) for x, y in zip(*np.broadcast_arrays(a, b))]
            assert np.array_equal(register._dots(a, b), expected)

    @settings(derandomize=True, max_examples=40, deadline=None)
    @given(data=st.data())
    def test_pure_fidelity_is_vdot_per_member(self, data):
        n, first = data.draw(ket_stacks())
        _, second = data.draw(ket_stacks(n=n))
        size = min(len(first), len(second))
        layout = RegisterLayout(SIX[:n])
        stack, other = PureState(layout, first[:size]), PureState(layout, second[:size])
        assert list(fidelity(stack, other)) == _vdot_fidelities(stack.amplitudes, other.amplitudes)
        one = PureState(layout, second[0])
        assert list(fidelity(stack, one)) == _vdot_fidelities(stack.amplitudes, one.amplitudes)
        assert list(fidelity(stack, stack)) == _vdot_fidelities(stack.amplitudes, stack.amplitudes)

    @settings(derandomize=True, max_examples=40, deadline=None)
    @given(data=st.data())
    def test_ket_projection_is_vdot_per_member(self, data):
        n, arr = data.draw(ket_stacks().filter(lambda s: s[0] > 1))
        stack = PureState(RegisterLayout(SIX[:n]), arr)
        labels = data.draw(some_labels(stack, n - 1))
        ket = oracles.haar_ket(np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1))),
                               2 ** len(labels))
        # the contraction project makes, then the probability formula with one vdot per member
        lead, pos = 1, stack.layout.positions(labels)
        t = register._apply_to_axes(stack._tensor(), ket.conj()[None, :], [lead + p for p in pos], lead)
        rows = t.reshape(len(arr), -1)
        expected = np.array([np.real(np.vdot(a, a)) for a in rows])
        try:
            probs, post = project(stack, labels, ket)
        except ImpossibleBranchError as err:
            assert np.array_equal(err.probability, expected)
            return
        assert np.array_equal(probs, expected)
        assert np.array_equal(post.amplitudes, rows / np.sqrt(expected)[:, None])

    @settings(derandomize=True, max_examples=40, deadline=None)
    @given(data=st.data())
    def test_a_stack_member_reads_as_the_member_alone(self, data):
        n, first = data.draw(ket_stacks())
        _, second = data.draw(ket_stacks(n=n))
        layout = RegisterLayout(SIX[:n])
        stack, one = PureState(layout, first), PureState(layout, second[0])
        values = fidelity(stack, one)
        assert [fidelity(stack.member(i), one) for i in range(len(first))] == list(values)

    def test_equal_kets_keep_their_unclamped_self_fidelity(self):
        # the pure/pure overlap is not clamped (a known issue): equal kets may read above 1
        rng = np.random.default_rng(0)
        arr = np.array([oracles.haar_ket(rng, 4) for _ in range(200)])
        expected = _vdot_fidelities(arr, arr)
        assert max(expected) > 1.0
        stack = PureState(RegisterLayout(("a", "b")), arr)
        assert list(fidelity(stack, stack)) == expected
        above = int(np.argmax(expected))
        assert fidelity(stack.member(above), stack.member(above)) == expected[above] > 1.0


@st.composite
def single_states(draw, labels, pure, size=None):
    """A random ket or density matrix of any rank on `labels`, or a stack of
    `size` of them; kets may have zero amplitudes."""
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    layout, d = RegisterLayout(labels), 2 ** len(labels)
    shape = () if size is None else (size,)
    if pure:
        arr = np.array([oracles.haar_ket(rng, d) for _ in range(size or 1)]).reshape(shape + (d,))
        if draw(st.booleans()):
            arr = np.zeros_like(arr)
            arr[..., int(rng.integers(d))] = 1.0
        return PureState(layout, arr)
    arr = np.array([oracles.random_density(rng, d, int(rng.integers(1, d + 1))) for _ in range(size or 1)])
    return MixedState(layout, arr.reshape(shape + (d, d)))


class TestTensorIsKron:
    """tensor equals np.kron of the amplitudes, or of the density matrices
    when either factor is mixed, bit for bit, with a stack on either side."""

    @settings(derandomize=True, max_examples=40, deadline=None)
    @given(data=st.data(), kinds=st.sampled_from([(True, True), (False, False), (True, False), (False, True)]),
           stacked=st.sampled_from([None, 0, 1]))
    def test_matches_kron(self, data, kinds, stacked):
        n1, n2 = data.draw(st.integers(1, 3)), data.draw(st.integers(1, 3))
        size = data.draw(st.integers(1, 9))
        labels = (SIX[:n1], SIX[n1:n1 + n2])
        first, second = (data.draw(single_states(labels[i], kinds[i], size if stacked == i else None))
                         for i in range(2))
        out = tensor(first, second)
        if all(kinds):
            expected = np.kron(first.amplitudes, second.amplitudes)
            assert isinstance(out, PureState)
        else:  # a ket joins a density matrix as its density()
            expected = np.kron(first.density().matrix, second.density().matrix)
            assert isinstance(out, MixedState)
        assert out.labels == labels[0] + labels[1]
        assert np.array_equal(_array(out), expected)

    @pytest.mark.parametrize("pure", [True, False], ids=["kets", "densities"])
    def test_two_stacks_raise(self, pure):
        kets = np.tile([1.0, 0.0], (3, 1))
        first = PureState(RegisterLayout(("a",)), kets)
        second = PureState(RegisterLayout(("b",)), kets)
        if not pure:
            first, second = first.density(), second.density()
        with pytest.raises(RegisterError, match="two stacks"):
            tensor(first, second)


class TestDerivedStatesPassTheChecks:
    """Operations build their results unchecked. Each result is stored read-only
    in C order, and the public constructor accepts it and stores the same bytes."""

    @settings(derandomize=True, max_examples=40, deadline=None)
    @given(data=st.data(), pure=st.booleans(), stacked=st.booleans())
    def test_every_result_is_a_valid_state(self, data, pure, stacked):
        n = data.draw(st.integers(1, 5))
        size = data.draw(st.integers(1, 6)) if stacked else None
        if pure and stacked:
            state = PureState(RegisterLayout(SIX[:n]), data.draw(ket_stacks(n=n, size=size))[1])
        else:
            state = data.draw(single_states(SIX[:n], pure, size))
        other = data.draw(single_states(("f",), data.draw(st.booleans())))
        labels = data.draw(some_labels(state, min(2, n)))
        rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1)))
        d = 2 ** len(labels)
        results = [tensor(state, other), tensor(other, state),
                   apply_gate(state, oracles.haar_unitary(rng, d), labels), partial_trace(state, labels),
                   permute_to(state, data.draw(st.permutations(state.labels))), state.density(),
                   state.member(-1)]
        if stacked:  # a table of gates, one per member
            table = np.array([oracles.haar_unitary(rng, d) for _ in range(size)])
            results.append(apply_gate(state, table, labels))
        if len(labels) < n:
            kets = np.array([oracles.haar_ket(rng, d) for _ in range(2)])
            for onto in ("0" * len(labels), kets[0], kets):
                try:
                    results.append(project(state, labels, onto)[1])
                except ImpossibleBranchError:
                    pass
        for out in results:
            arr = _array(out)
            assert arr.flags.c_contiguous and not arr.flags.writeable
            # the constructors take one stack axis: a table projection's two are flattened
            if len(out.stack_shape) > 1:
                arr = arr.reshape((-1,) + arr.shape[len(out.stack_shape):])
            assert np.array_equal(_array(type(out)(out.layout, arr)), arr)


class TestReadOnlyConstants:
    def test_pauli_matrix_is_built_once_and_read_only(self):
        xz = pauli_matrix("XZ")
        assert pauli_matrix("XZ") is xz
        assert np.array_equal(xz, np.kron(PAULI_X, PAULI_Z))
        with pytest.raises(ValueError):
            xz[0, 1] = 5.0

    def test_axis_bases_are_read_only(self):
        for basis in AXIS_BASES.values():
            assert not basis.flags.writeable
