from __future__ import annotations

import dataclasses
import itertools
import math

import numpy as np
import pytest

from dickesim import (
    ClientParams,
    ImpossibleBranchError,
    MixedState,
    OdtResult,
    PureState,
    RegisterError,
    RegisterLayout,
    basis_ket,
    bell,
    bell_measure,
    client_ket,
    client_state,
    derive_correction_table,
    dicke,
    fidelity,
    partial_trace,
    permute_to,
    project,
    qtc_mixed_band,
    qtc_theory_fidelity,
    run_odt,
    run_qtc,
    tensor,
    werner_dicke,
    werner_weight_for_fidelity,
)
from dickesim import protocols
from dickesim.fixtures import load_correction_table
from dickesim.protocols import BELL_LABELS, CORRECTION_TABLE, CorrectionSearchError
from dickesim.register import CX, PAULIS, apply_gate
from dickesim.states import RESOURCE_LABELS

import oracles

WERNER_P = werner_weight_for_fidelity(0.78)


class TestBellMeasure:
    def test_discriminates_bell_state(self):
        state = tensor(bell("phi+", ("X", "b")), basis_ket("0", ("c",)))
        branches = bell_measure(state, "X", "b")
        probs = {b.outcome_label: b.probability for b in branches}
        assert probs["phi+"] == pytest.approx(1.0, abs=1e-10)
        assert all(probs[l] == pytest.approx(0.0, abs=1e-10) for l in ("phi-", "psi+", "psi-"))
        assert [b.outcome_label for b in branches] == list(BELL_LABELS)

    def test_zero_probability_branches_have_no_state(self):
        state = tensor(bell("psi-", ("X", "b")), basis_ket("1", ("c",)))
        branches = {b.outcome_label: b for b in bell_measure(state, "X", "b")}
        assert branches["psi-"].post_state is not None
        assert branches["phi+"].post_state is None

    def test_probabilities_sum_to_one_random_states(self):
        rng = np.random.default_rng(57)
        layout = RegisterLayout(("X", "a", "b", "c", "d"))
        for _ in range(10):
            state = PureState(layout, oracles.haar_ket(rng, 32))
            total = sum(b.probability for b in bell_measure(state, "X", "b"))
            assert total == pytest.approx(1.0, abs=1e-9)

    def test_mixed_input(self):
        state = tensor(client_state(ClientParams(theta=1.0, dephase_lambda=0.3)),
                       werner_dicke(0.9))
        total = sum(b.probability for b in bell_measure(state, "X", "b"))
        assert total == pytest.approx(1.0, abs=1e-9)

    def test_equal_qubits_rejected(self):
        with pytest.raises(RegisterError):
            bell_measure(dicke(4, 2), "a", "a")

    def test_branch_probabilities_off_one_are_refused(self):
        # a ket whose norm is 1.00005: its four outcomes sum to its squared norm
        state = PureState._trusted(RegisterLayout(("X", "b", "c")), np.full(8, 8 ** -0.5) * 1.00005)
        with pytest.raises(RegisterError, match=r"^branch probabilities sum to 1\.0001000025000002, not 1$"):
            bell_measure(state, "X", "b")

    def test_pre_correction_reductions_for_excited_client(self):
        """Input |1>, outcome phi+: every clone reads (2|0><0| + |1><1|)/3."""
        state = tensor(client_ket(ClientParams(theta=math.pi)), dicke(4, 2))
        branches = {b.outcome_label: b for b in bell_measure(state, "X", "b")}
        post = branches["phi+"].post_state
        expected = np.diag([2 / 3, 1 / 3])
        for label in ("a", "c", "d"):
            reduced = partial_trace(post, (label,))
            assert np.abs(reduced.matrix - expected).max() < 1e-9


class TestCorrectionTable:
    def test_expected_table(self):
        table = derive_correction_table(dicke(4, 2))
        assert table == {"psi+": "I", "phi+": "X", "phi-": "Y", "psi-": "Z"}

    def test_covers_all_outcomes(self):
        assert set(derive_correction_table(dicke(4, 2))) == set(BELL_LABELS)

    def test_matches_fixture(self):
        assert derive_correction_table(dicke(4, 2)) == load_correction_table()

    def test_requires_ideal_resource(self):
        rng = np.random.default_rng(3)
        layout = RegisterLayout(("a", "b", "c", "d"))
        with pytest.raises(RegisterError, match="ideal"):
            derive_correction_table(PureState(layout, oracles.haar_ket(rng, 16)))

    def test_port_choice(self):
        table = derive_correction_table(dicke(4, 2), port="c")
        assert set(table) == set(BELL_LABELS)

    # run_qtc reads CORRECTION_TABLE at every port and labelling: each derivation must equal it
    @pytest.mark.parametrize("port", "abcd")
    def test_every_port_gives_the_packaged_table(self, port):
        table = derive_correction_table(dicke(4, 2), port=port)
        assert table == load_correction_table() == CORRECTION_TABLE

    @pytest.mark.parametrize("port", "pqrs")
    def test_relabelled_resource_gives_the_packaged_table(self, port):
        table = derive_correction_table(dicke(4, 2, tuple("pqrs")), port=port)
        assert table == load_correction_table() == CORRECTION_TABLE

    def test_runs_read_the_table_without_deriving_it(self, monkeypatch):
        def underived(*args):
            raise AssertionError("a telecloning run derived the correction table")
        monkeypatch.setattr(protocols, "_correction_table", underived)
        pure = run_qtc(ClientParams(theta=0.8), port="c")
        assert {b.outcome_label: b.correction for b in pure.branches} == CORRECTION_TABLE
        run_qtc([ClientParams(theta=0.8, dephase_lambda=0.1)] * 2, werner_dicke(0.9))
        qtc_mixed_band([0.3, 1.2], p=0.9, dephase_lambda=0.05, p_uncertainty=0.02)

    def test_vanished_branch_names_it(self, monkeypatch):
        """A Bell outcome the sample clients never reach has no correction."""
        bell_stack = protocols._bell_stack

        def without_phi_minus(rotated, q1, q2):
            probs, post, kept = bell_stack(rotated, q1, q2)
            return probs, post.member(slice(None, None, 2)), kept[::2]
        monkeypatch.setattr(protocols, "_bell_stack", without_phi_minus)
        protocols._correction_table.cache_clear()
        with pytest.raises(CorrectionSearchError, match="no Pauli corrects outcome phi-") as exc:
            derive_correction_table(dicke(4, 2))
        assert exc.value.branch == "phi-"

    def test_no_fitting_pauli_names_the_branch(self, monkeypatch):
        # without X nothing restores phi+, the first outcome searched
        monkeypatch.setattr(protocols, "PAULIS", {k: v for k, v in PAULIS.items() if k != "X"})
        protocols._correction_table.cache_clear()
        with pytest.raises(CorrectionSearchError, match="no Pauli corrects outcome phi\\+") as exc:
            derive_correction_table(dicke(4, 2))
        assert exc.value.branch == "phi+"

    def test_bell_kets_are_built_once_and_read_only(self):
        kets = protocols._BELL_KETS
        expected = [np.kron(protocols._KETS[x], protocols._KETS[z]) for x, z in protocols._BELL_XZ]
        assert np.array_equal(kets, expected)
        assert not kets.flags.writeable
        with pytest.raises(ValueError):
            kets[0, 0] = 0.0


class TestRunQtc:
    @pytest.mark.parametrize("theta", np.linspace(0, math.pi, 7))
    def test_matches_theory_per_branch_per_clone(self, theta):
        result = run_qtc(ClientParams(theta=float(theta)))
        expected = qtc_theory_fidelity(float(theta))
        for branch_label, per_clone in result.clone_fidelities.items():
            for clone, value in per_clone.items():
                assert value == pytest.approx(expected, abs=1e-9), (branch_label, clone)
        assert result.average_clone_fidelity == pytest.approx(expected, abs=1e-9)

    def test_branch_probabilities_uniform(self):
        result = run_qtc(ClientParams(theta=0.83))
        for branch in result.branches:
            assert branch.probability == pytest.approx(0.25, abs=1e-10)

    def test_extremes(self):
        assert run_qtc(ClientParams(theta=math.pi / 2)).average_clone_fidelity == pytest.approx(5 / 6, abs=1e-9)
        assert run_qtc(ClientParams(theta=0.0)).average_clone_fidelity == pytest.approx(2 / 3, abs=1e-9)
        assert run_qtc(ClientParams(theta=math.pi)).average_clone_fidelity == pytest.approx(2 / 3, abs=1e-9)

    def test_beats_universal_cloner_at_equator(self):
        assert run_qtc(ClientParams(theta=math.pi / 2)).average_clone_fidelity > 7 / 9

    def test_phase_covariance(self):
        values = [run_qtc(ClientParams(theta=math.pi / 2, phi=phi)).average_clone_fidelity
                  for phi in np.linspace(0, 2 * math.pi, 12, endpoint=False)]
        assert max(values) - min(values) < 1e-9

    def test_clone_labels_exclude_port(self):
        result = run_qtc(ClientParams(theta=1.0), port="b")
        assert result.clone_labels == ("a", "c", "d")
        result_c = run_qtc(ClientParams(theta=1.0), port="c")
        assert result_c.clone_labels == ("a", "b", "d")
        assert result_c.average_clone_fidelity == pytest.approx(
            qtc_theory_fidelity(1.0), abs=1e-9)

    def test_werner_resource_closed_form_at_theta_zero(self):
        # clone reduces to p * ideal + (1-p) * I/2, so F = 1/2 + p/6
        for p in (0.4, WERNER_P):
            result = run_qtc(ClientParams(theta=0.0), resource=werner_dicke(p))
            assert result.average_clone_fidelity == pytest.approx(0.5 + p / 6, abs=1e-9)

    @pytest.mark.parametrize("port", ["a", "b", "c", "d"])
    def test_werner_resource_pure_client_closed_form(self, port):
        # the noise part leaves every clone at I/2, so F = p (9 - cos 2 theta)/12 + (1 - p)/2
        thetas = np.linspace(0, math.pi, 9)
        clients = [ClientParams(theta=float(theta), phi=0.9) for theta in thetas]
        for p in (0.0, 0.3, 0.8, 0.97, 1.0):
            result = run_qtc(clients, resource=werner_dicke(p), port=port)
            expected = p * (9 - np.cos(2 * thetas)) / 12 + (1 - p) / 2
            assert np.abs(result.average_clone_fidelity - expected).max() <= 1e-12, p

    def test_unknown_port(self):
        with pytest.raises(RegisterError):
            run_qtc(ClientParams(theta=1.0), port="q")

    @pytest.mark.parametrize("run,qubits", [(run_qtc, {}), (run_odt, {"receiver": "c"})])
    def test_resource_labelled_like_the_client(self, run, qubits):
        with pytest.raises(RegisterError, match="duplicate qubit label 'X'"):
            run(ClientParams(theta=1.0), dicke(4, 2, ("X", "b", "c", "d")), port="b", **qubits)


THETA_GRID = np.linspace(0, math.pi, 5).tolist()


class TestStackedTelecloning:
    """A theta grid runs as one stack; member i is the run of client i alone."""

    @pytest.mark.parametrize("dephase", [0.0, 0.05, 0.5])
    def test_matches_kron_chain_oracle(self, dephase):
        clients = [ClientParams(theta=t, phi=0.7, dephase_lambda=dephase) for t in THETA_GRID]
        for port, p in itertools.product("abcd", (0.3, 0.8, 1.0)):
            result = run_qtc(clients, resource=werner_dicke(p), port=port)
            expected = [oracles.telecloning_fidelity(t, 0.7, p, dephase, port) for t in THETA_GRID]
            assert np.abs(result.average_clone_fidelity - expected).max() <= 1e-12, (port, p)

    @pytest.mark.parametrize("dephase,resource", [
        (0.0, None), (0.0, werner_dicke(0.8)), (0.3, werner_dicke(0.8)), (0.3, dicke(4, 2))])
    def test_members_equal_single_runs(self, dephase, resource):
        clients = [ClientParams(theta=t, phi=1.9, dephase_lambda=dephase) for t in THETA_GRID]
        stacked = run_qtc(clients, resource=resource, port="c")
        for i, client in enumerate(clients):
            single, member = run_qtc(client, resource=resource, port="c"), stacked.member(i)
            assert single.average_clone_fidelity == member.average_clone_fidelity
            assert single.clone_fidelities == member.clone_fidelities
            for a, b in zip(single.branches, member.branches):
                assert (a.outcome_label, a.probability, a.correction) == (
                    b.outcome_label, b.probability, b.correction)
                assert type(a.post_state) is type(b.post_state)
                post_a, post_b = (x.post_state.amplitudes if isinstance(x.post_state, PureState)
                                  else x.post_state.matrix for x in (a, b))
                assert np.array_equal(post_a, post_b)

    def test_band_members_equal_single_bands(self):
        low, high = qtc_mixed_band(THETA_GRID, p=0.9, dephase_lambda=0.05, p_uncertainty=0.04,
                                   phi=0.3, port="d")
        for i, theta in enumerate(THETA_GRID):
            assert (low[i], high[i]) == qtc_mixed_band(theta, p=0.9, dephase_lambda=0.05,
                                                       p_uncertainty=0.04, phi=0.3, port="d")

    def test_pure_and_dephased_clients_do_not_share_a_stack(self):
        with pytest.raises(ValueError, match="all pure or all dephased"):
            run_qtc([ClientParams(theta=1.0), ClientParams(theta=1.0, dephase_lambda=0.1)])

    @pytest.mark.parametrize("mixed", [False, True], ids=["kets", "densities"])
    def test_bell_branches_keep_only_outcomes_present_for_every_member(self, mixed):
        """(X, b) reads |0>|0> or |0>|1>: the psi outcomes need b = 1, the phi outcomes b = 0."""
        def state(*bits):
            kets = PureState(RegisterLayout(("X", "b", "c")),
                             np.array([basis_ket(x, ("X", "b", "c")).amplitudes for x in bits]))
            return kets.density() if mixed else kets

        def array(s):
            return s.matrix if mixed else s.amplitudes
        single = state("001").member(0)
        for rotated, members in ((single, [single]), (state("001", "000"), None)):
            members = members or [rotated.member(s) for s in range(2)]
            branches = bell_measure(rotated, "X", "b")  # X reads 0, so its CX does nothing
            assert [b.post_state is None for b in branches] == [False, False, True, True]
            for branch, ket in zip(branches, protocols._BELL_KETS[:2]):
                singles = [project(m, ("X", "b"), ket) for m in members]
                assert list(np.reshape(branch.probability, -1)) == [prob for prob, _ in singles]
                post = array(branch.post_state).reshape((len(members), -1))
                assert all(np.array_equal(post[s], array(alone).reshape(-1))
                           for s, (_, alone) in enumerate(singles))
        with pytest.raises(RegisterError, match="Bell outcome phi\\+ vanishes for some stack members only"):
            bell_measure(state("001", "010"), "X", "b")

    def test_square_root_is_taken_once(self, monkeypatch):
        shapes = []
        eigh = np.linalg.eigh

        def counted(a, *args, **kwargs):
            shapes.append(np.shape(a))
            return eigh(a, *args, **kwargs)
        monkeypatch.setattr(np.linalg, "eigh", counted)
        clients = [ClientParams(theta=t, phi=0.4, dephase_lambda=0.2) for t in THETA_GRID]
        resource = werner_dicke(0.8)
        result = run_qtc(clients, resource=resource, port="d")
        assert shapes == [(len(THETA_GRID), 2, 2)]  # the client stack's, for all twelve fidelities
        fresh = client_state(clients)
        for branch in result.branches:
            for label in result.clone_labels:
                assert np.array_equal(fidelity(fresh, partial_trace(branch.post_state, (label,))),
                                      result.clone_fidelities[branch.outcome_label][label])
        shapes.clear()
        run_qtc([ClientParams(theta=t, phi=0.4) for t in THETA_GRID], resource=resource, port="d")
        assert shapes == []

    def test_branch_vanishing_for_some_members_only_raises(self):
        # the port reads |0>, so the psi branches vanish exactly when beta = 0
        resource = basis_ket("0000", ("a", "b", "c", "d"))
        alone = run_qtc(ClientParams(theta=0.0), resource=resource)
        assert {b.outcome_label for b in alone.branches if b.post_state is None} == {"psi+", "psi-"}
        both = run_qtc([ClientParams(theta=0.0)] * 2, resource=resource)
        assert [b.post_state is None for b in both.branches] == [
            b.post_state is None for b in alone.branches]
        with pytest.raises(RegisterError, match="some stack members only"):
            run_qtc([ClientParams(theta=0.0), ClientParams(theta=1.0)], resource=resource)


class TestTheoryFidelity:
    def test_reference_points(self):
        assert qtc_theory_fidelity(math.pi / 2) == pytest.approx(5 / 6)
        assert qtc_theory_fidelity(0.0) == pytest.approx(2 / 3)
        assert qtc_theory_fidelity(math.pi) == pytest.approx(2 / 3)

    def test_range_check(self):
        with pytest.raises(ValueError):
            qtc_theory_fidelity(-0.2)


class TestMixedBand:
    def test_ideal_collapse(self):
        low, high = qtc_mixed_band(1.1, p=1.0, dephase_lambda=0.0)
        theory = qtc_theory_fidelity(1.1)
        assert low == pytest.approx(theory, abs=1e-9)
        assert high == pytest.approx(theory, abs=1e-9)

    def test_dephasing_raises_equator_fidelity(self):
        low, _ = qtc_mixed_band(math.pi / 2, p=WERNER_P, dephase_lambda=0.18,
                                p_uncertainty=0.005 * 16 / 15)
        assert low > 5 / 6

    def test_white_noise_lowers_pole_fidelity(self):
        _, high = qtc_mixed_band(0.0, p=WERNER_P, dephase_lambda=0.18,
                                 p_uncertainty=0.005 * 16 / 15)
        assert high < 2 / 3

    def test_band_ordering(self):
        low, high = qtc_mixed_band(0.7, p=0.9, dephase_lambda=0.05, p_uncertainty=0.02)
        assert low <= high
        assert high - low > 0

    def test_negative_uncertainty_rejected(self):
        with pytest.raises(ValueError):
            qtc_mixed_band(0.5, p=0.9, dephase_lambda=0.0, p_uncertainty=-0.1)


ODT_CONFIGS = [
    ("10", 0.0, "a"), ("10", 0.0, "b"), ("01", 0.0, "a"), ("01", 0.0, "b"),
    ("10", math.pi, "a"), ("10", math.pi, "b"), ("01", math.pi, "a"), ("01", math.pi, "b"),
    ("10", 1.46, "a"), ("10", 1.46, "b"), ("01", 1.37, "a"), ("01", 1.37, "b"),
]


def _odt_port(receiver: str) -> str:
    return "b" if receiver != "b" else "a"


class TestRunOdt:
    @pytest.mark.parametrize("projection,theta,receiver", ODT_CONFIGS)
    def test_ideal_fidelity_is_one(self, projection, theta, receiver):
        result = run_odt(ClientParams(theta=theta), port=_odt_port(receiver),
                         receiver=receiver, sodt_projection=projection)
        assert result.teleport_fidelity == pytest.approx(1.0, abs=1e-9)

    def test_success_probability(self):
        result = run_odt(ClientParams(theta=1.1))
        assert result.success_probability == pytest.approx(1 / 12, abs=1e-9)

    def test_intermediate_state_matches_reference_expression(self):
        theta, phi = 1.1, 0.6
        params = ClientParams(theta=theta, phi=phi)
        alpha, beta = params.alpha, params.beta
        for projection, receiver in (("01", "a"), ("10", "a"), ("01", "b"), ("10", "b")):
            port = _odt_port(receiver)
            result = run_odt(params, port=port, receiver=receiver, sodt_projection=projection)
            ordered = permute_to(result.intermediate_state, ("X", port, receiver))
            reference = np.zeros(8, dtype=complex)
            for bits, coeff in (("001", alpha), ("010", alpha), ("111", beta), ("100", beta)):
                reference[int(bits, 2)] = coeff
            reference /= np.linalg.norm(reference)
            overlap = abs(np.vdot(reference, ordered.amplitudes)) ** 2
            assert overlap == pytest.approx(1.0, abs=1e-9)

    def test_receiver_and_projection_invariance(self):
        values = {run_odt(ClientParams(theta=0.77), port=_odt_port(r), receiver=r,
                          sodt_projection=proj).teleport_fidelity
                  for proj in ("01", "10") for r in ("a", "b")}
        assert max(values) - min(values) < 1e-9

    def test_alternative_outcomes_complete_the_branch(self):
        result = run_odt(ClientParams(theta=0.9))
        assert len(result.alternative_outcomes) == 3
        assert tuple(label for label, _ in result.alternative_outcomes) == ("+0", "-0", "-1")
        conditional_accept = result.success_probability / result.sodt_probability
        total = conditional_accept + sum(p for _, p in result.alternative_outcomes)
        assert total == pytest.approx(1.0, abs=1e-9)

    def test_vanishing_accepted_outcome_raises(self):
        # |0> on X and b = 0 leave (X, b) in |00>, which has no |+1> component
        with pytest.raises(ImpossibleBranchError) as exc:
            run_odt(ClientParams(theta=0.0), resource=basis_ket("0001", RESOURCE_LABELS))
        assert exc.value.probability == 0.0

    def test_werner_resource_closed_form(self):
        p = WERNER_P
        result = run_odt(ClientParams(theta=0.0), resource=werner_dicke(p))
        expected = (p / 12 + (1 - p) / 32) / (p / 12 + (1 - p) / 16)
        assert result.teleport_fidelity == pytest.approx(expected, abs=1e-9)
        assert result.teleport_fidelity < 1.0
        assert result.teleport_fidelity == pytest.approx(0.9065155805954777, abs=1e-9)
        # the same value at every theta: the ideal and noise branches have
        # theta-independent weights p/12 and (1-p)/16
        for p in (0.3, p, 1.0):
            expected = (p / 12 + (1 - p) / 32) / (p / 12 + (1 - p) / 16)
            for theta in np.linspace(0, math.pi, 5):
                for projection, receiver in (("01", "a"), ("10", "a"), ("01", "b"), ("10", "b")):
                    result = run_odt(ClientParams(theta=float(theta), phi=0.4), resource=werner_dicke(p),
                                     port=_odt_port(receiver), receiver=receiver,
                                     sodt_projection=projection)
                    assert abs(result.teleport_fidelity - expected) <= 1e-12, (p, theta)

    @pytest.mark.parametrize("p,dephase", [(0.3, 0.0), (0.8, 0.2), (1.0, 0.5)])
    def test_matches_kron_chain_oracle(self, p, dephase):
        for theta in np.linspace(0, math.pi, 5):
            for projection, receiver in (("01", "a"), ("10", "b")):
                port = _odt_port(receiver)
                result = run_odt(ClientParams(theta=float(theta), phi=0.4, dephase_lambda=dephase),
                                 resource=werner_dicke(p), port=port, receiver=receiver,
                                 sodt_projection=projection)
                fid, prob = oracles.odt_fidelity(float(theta), 0.4, p, dephase, port, receiver,
                                                 projection)
                assert abs(result.teleport_fidelity - fid) <= 1e-12
                assert abs(result.success_probability - prob) <= 1e-12

    def test_dephased_client(self):
        result = run_odt(ClientParams(theta=math.pi / 2, dephase_lambda=0.18))
        assert result.teleport_fidelity == pytest.approx(1.0, abs=1e-9)

    def test_validation(self):
        with pytest.raises(ValueError, match="sodt_projection"):
            run_odt(ClientParams(theta=1.0), sodt_projection="11")
        with pytest.raises(RegisterError, match="distinct"):
            run_odt(ClientParams(theta=1.0), port="b", receiver="b")
        with pytest.raises(RegisterError):
            run_odt(ClientParams(theta=1.0), receiver="q")

    def test_receiver_state_is_density(self):
        result = run_odt(ClientParams(theta=0.5))
        assert isinstance(result.receiver_state, MixedState)
        assert np.trace(result.receiver_state.matrix).real == pytest.approx(1.0, abs=1e-10)


class TestStackedOdt:
    """A client sequence runs as one stack; member i is the run of client i alone."""

    @pytest.mark.parametrize("dephase,resource", [
        (0.0, None), (0.0, werner_dicke(0.8)), (0.3, werner_dicke(0.8)), (0.3, None)])
    @pytest.mark.parametrize("projection,receiver", [("01", "a"), ("10", "a"), ("01", "b"), ("10", "b")])
    def test_members_equal_single_runs(self, dephase, resource, projection, receiver):
        clients = [ClientParams(theta=t, phi=1.9, dephase_lambda=dephase) for t in THETA_GRID]
        port = _odt_port(receiver)
        stacked = run_odt(clients, resource, port, receiver, projection)
        for i, client in enumerate(clients):
            single, member = run_odt(client, resource, port, receiver, projection), stacked.member(i)
            for field in dataclasses.fields(OdtResult):
                a, b = getattr(single, field.name), getattr(member, field.name)
                if isinstance(a, (PureState, MixedState)):
                    assert (type(a), a.labels) == (type(b), b.labels), field.name
                    array_a, array_b = (x.amplitudes if isinstance(x, PureState) else x.matrix for x in (a, b))
                    assert array_a.tobytes() == array_b.tobytes(), field.name
                else:
                    assert a == b, field.name


def _reference_register(client, resource, port):
    """The composition the one-pass builder replaces: tensor, then CX(X -> port)."""
    return apply_gate(tensor(client, resource), CX, ("X", port))


def _array(state):
    return state.amplitudes if isinstance(state, PureState) else state.matrix


def _flat(value):
    """A value's content down to the bytes of every array and state, for byte comparison."""
    if isinstance(value, (PureState, MixedState)):
        return type(value).__name__, value.labels, _flat(_array(value))
    if isinstance(value, np.ndarray):
        return value.dtype.str, value.shape, value.tobytes()
    if isinstance(value, float):
        return type(value).__name__, np.float64(value).tobytes()
    if dataclasses.is_dataclass(value):
        return tuple(_flat(getattr(value, f.name)) for f in dataclasses.fields(value))
    if isinstance(value, dict):
        return tuple((key, _flat(v)) for key, v in value.items())
    if isinstance(value, (tuple, list)):
        return tuple(map(_flat, value))
    return value


_RNG = np.random.default_rng(33)
_BUILDER_RESOURCES = {
    "dicke-ket": dicke(4, 2),
    "haar-ket": PureState(RegisterLayout(RESOURCE_LABELS), oracles.haar_ket(_RNG, 16)),
    "werner": werner_dicke(0.7),
    "random-density": MixedState(RegisterLayout(RESOURCE_LABELS), oracles.random_density(_RNG, 16)),
}
# theta 0 and pi give exact zero amplitudes, whose signs the two builds may set differently
_BUILDER_THETAS = (0.0, 0.4, math.pi / 2, 2.6, math.pi)


class TestCxRegister:
    """protocols._cx_register builds CX(X -> port) on tensor(client, resource) in one pass."""

    @pytest.mark.parametrize("resource", _BUILDER_RESOURCES.values(), ids=_BUILDER_RESOURCES)
    @pytest.mark.parametrize("mixed_client", [False, True], ids=["ket-client", "density-client"])
    @pytest.mark.parametrize("stacked", [False, True], ids=["single", "stack"])
    @pytest.mark.parametrize("port", RESOURCE_LABELS)
    def test_equals_tensor_then_cx(self, resource, mixed_client, stacked, port):
        clients = [ClientParams(theta=t, phi=0.9, dephase_lambda=0.2 if mixed_client else 0.0)
                   for t in _BUILDER_THETAS]
        for params in ([clients] if stacked else clients):
            client = (client_state if mixed_client else client_ket)(params)
            built = protocols._cx_register(client, resource, port)
            expected = _reference_register(client, resource, port)
            assert (type(built), built.labels) == (type(expected), expected.labels)
            # equal as values: the signs of some zero entries may differ
            assert np.array_equal(_array(built), _array(expected))

    @pytest.mark.parametrize("resource", [None, werner_dicke(0.8), dicke(4, 2).density()],
                             ids=["dicke", "werner", "dicke-density"])
    @pytest.mark.parametrize("dephase", [0.0, 0.3])
    @pytest.mark.parametrize("port", RESOURCE_LABELS)
    def test_protocol_results_keep_their_bytes(self, monkeypatch, resource, dephase, port):
        clients = [ClientParams(theta=t, phi=1.2, dephase_lambda=dephase) for t in _BUILDER_THETAS]
        receiver = "a" if port != "a" else "b"
        runs = [lambda: run_qtc(clients, resource, port), lambda: run_qtc(clients[1], resource, port),
                lambda: run_odt(clients, resource, port, receiver, "01"),
                lambda: run_odt(clients[3], resource, port, receiver, "10")]
        built = [_flat(run()) for run in runs]
        monkeypatch.setattr(protocols, "_cx_register", _reference_register)
        assert built == [_flat(run()) for run in runs]


def _per_label_scores(client_in, corrected, clone_labels):
    """The composition the scoring step replaces: one partial trace and one fidelity per clone."""
    return {label: fidelity(client_in, partial_trace(corrected, (label,))) for label in clone_labels}


_SCORING_RESOURCES = {**_BUILDER_RESOURCES, "dicke-density": dicke(4, 2).density()}


class TestCloneScoring:
    """protocols._score_clones traces each distinct branch row and scores each distinct
    clone once; byte-equal inputs give byte-equal outputs, so no result byte moves."""

    @pytest.mark.parametrize("resource", _SCORING_RESOURCES.values(), ids=_SCORING_RESOURCES)
    @pytest.mark.parametrize("dephase", [0.0, 0.3])
    @pytest.mark.parametrize("port", RESOURCE_LABELS)
    def test_equals_per_label_composition(self, monkeypatch, resource, dephase, port):
        clients = [ClientParams(theta=t, phi=1.2, dephase_lambda=dephase) for t in _BUILDER_THETAS]
        runs = [lambda: run_qtc(clients, resource, port), lambda: run_qtc(clients[1], resource, port)]
        scored = [_flat(run()) for run in runs]
        monkeypatch.setattr(protocols, "_score_clones", _per_label_scores)
        assert scored == [_flat(run()) for run in runs]

    @pytest.mark.parametrize("mixed", [False, True], ids=["kets", "densities"])
    def test_rows_equal_in_one_member_only_are_scored_apart(self, mixed):
        """Rows are grouped by all their bytes: two branch rows whose first members
        agree keep their own values where their second members differ."""
        labels = ("a", "c", "d")
        d1, d2 = (dicke(3, k, labels).amplitudes for k in (1, 2))
        corrected = PureState._trusted(RegisterLayout(labels), np.array([[d1, d1], [d1, d2]]))
        corrected = corrected.density() if mixed else corrected
        client = client_ket([ClientParams(theta=0.4), ClientParams(theta=2.0)])
        scores = protocols._score_clones(client, corrected, labels)
        assert _flat(scores) == _flat(_per_label_scores(client, corrected, labels))
        assert scores["a"][0, 1] != scores["a"][1, 1]

    def test_dephased_werner_run_scores_one_row(self, monkeypatch):
        """On a Werner-Dicke resource every branch and every clone of a dephased client
        is the same bytes: one partial trace per clone of one row, one fidelity call."""
        calls = []

        def counted(name, op):
            def call(*args):
                calls.append((name, *(a.stack_shape for a in args if hasattr(a, "stack_shape"))))
                return op(*args)
            return call
        monkeypatch.setattr(protocols, "partial_trace", counted("partial_trace", partial_trace))
        monkeypatch.setattr(protocols, "fidelity", counted("fidelity", fidelity))
        clients = [ClientParams(theta=t, phi=0.4, dephase_lambda=0.05) for t in THETA_GRID]
        result = run_qtc(clients, resource=werner_dicke(0.9), port="b")
        size = (len(THETA_GRID),)
        assert calls == [("partial_trace", (1, *size))] * 3 + [("fidelity", size, (1, *size))]
        assert len(result.clone_fidelities) == 4


def _numbers(value):
    """Every number of a result; states, labels, corrections and None left out."""
    if value is None or isinstance(value, (str, PureState, MixedState)):
        return []
    if dataclasses.is_dataclass(value):
        return _numbers([getattr(value, f.name) for f in dataclasses.fields(value)])
    if isinstance(value, dict):
        return _numbers(list(value.values()))
    if isinstance(value, (tuple, list)):
        return [x for item in value for x in _numbers(item)]
    return [value]


def _clients(theta, dephase):
    """One client for a number, a list of them for a sequence."""
    params = [ClientParams(t, phi=1.2, dephase_lambda=dephase) for t in np.atleast_1d(theta)]
    return params if np.ndim(theta) else params[0]


# each entry run at a theta, or stacked over a theta grid
_SPLIT_RUNS = {
    "run_qtc": lambda theta, dephase, port: run_qtc(_clients(theta, dephase), werner_dicke(0.8), port),
    "run_odt": lambda theta, dephase, port: run_odt(
        _clients(theta, dephase), werner_dicke(0.8), port, "a" if port != "a" else "b", "10"),
    "qtc_mixed_band": lambda theta, dephase, port: qtc_mixed_band(theta, 0.9, dephase, 0.03, 1.2, port),
}


class TestMemberRule:
    """protocols._member splits every stacked result: member i is client i's run alone."""

    @pytest.mark.parametrize("run", _SPLIT_RUNS.values(), ids=_SPLIT_RUNS)
    @pytest.mark.parametrize("dephase", [0.0, 0.3])
    @pytest.mark.parametrize("port", RESOURCE_LABELS)
    def test_member_equals_single_run(self, run, dephase, port):
        stacked = run(THETA_GRID, dephase, port)
        for i, theta in enumerate(THETA_GRID):
            single = run(theta, dephase, port)
            assert {type(x) for x in _numbers(single)} == {float}
            assert _flat(protocols._member(stacked, i)) == _flat(single)


class TestBranchAveragedEqualsPerBranch:
    """For the ideal resource the per-branch and averaged fidelities coincide."""

    def test_documented_equivalence(self):
        result = run_qtc(ClientParams(theta=1.3))
        per_branch = [sum(v.values()) / 3 for v in result.clone_fidelities.values()]
        assert max(per_branch) - min(per_branch) < 1e-9
        assert result.average_clone_fidelity == pytest.approx(per_branch[0], abs=1e-9)
