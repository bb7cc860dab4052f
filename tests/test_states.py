from __future__ import annotations

import itertools
import math
import re

import numpy as np
import pytest

from dickesim import (
    ClientParams,
    RegisterError,
    bell,
    client_ket,
    client_state,
    dicke,
    dicke_physical,
    fidelity,
    permute_to,
    physical_logical_permutation,
    project,
    states_close,
    werner_dicke,
    werner_weight_for_fidelity,
    xi_state,
)

import oracles

SQ6 = 1 / math.sqrt(6)


class TestDicke:
    def test_d42_structure(self):
        state = dicke(4, 2)
        nonzero = np.abs(state.amplitudes[np.abs(state.amplitudes) > 1e-12])
        assert len(nonzero) == 6
        assert np.allclose(nonzero, SQ6, atol=1e-12)

    def test_matches_permutation_oracle(self):
        for n, k in ((2, 1), (3, 1), (3, 2), (4, 2), (5, 3)):
            assert np.abs(dicke(n, k).amplitudes - oracles.dicke_by_permutations(n, k)).max() < 1e-12

    def test_d31_explicit(self):
        state = dicke(3, 1)
        for bits in ("100", "010", "001"):
            assert state.amplitude(bits) == pytest.approx(1 / math.sqrt(3))

    def test_amplitudes_are_ones_over_the_norm(self):
        for n in range(1, 9):
            for k in range(n + 1):
                amps = np.array([bin(i).count("1") == k for i in range(2 ** n)], dtype=complex)
                assert dicke(n, k).amplitudes.tobytes() == (amps / np.linalg.norm(amps)).tobytes()

    def test_d21_is_psi_plus(self):
        assert states_close(dicke(2, 1), bell("psi+"))

    def test_range_validation(self):
        with pytest.raises(ValueError, match="excitation"):
            dicke(3, 4)
        with pytest.raises(ValueError, match="excitation"):
            dicke(3, -1)
        with pytest.raises(ValueError, match="qubit count"):
            dicke(9, 2)

    def test_permutation_invariance_up_to_six(self):
        for n in range(2, 7):
            for k in range(n + 1):
                state = dicke(n, k)
                for perm in itertools.permutations(state.labels):
                    permuted = permute_to(state, perm)
                    relabeled_amps = permuted.amplitudes
                    assert np.abs(relabeled_amps - state.amplitudes).max() < 1e-12

    def test_projection_recursion(self):
        for n in range(2, 7):
            for k in range(n + 1):
                state = dicke(n, k)
                label = state.labels[0]
                if k <= n - 1:
                    _, post = project(state, label, "0")
                    assert fidelity(post, dicke(n - 1, k)) == pytest.approx(1.0, abs=1e-12)
                if k >= 1:
                    _, post = project(state, label, "1")
                    assert fidelity(post, dicke(n - 1, k - 1)) == pytest.approx(1.0, abs=1e-12)

    def test_every_pair_projects_to_psi_plus(self):
        state = dicke(4, 2)
        for i, j in itertools.combinations(range(4), 2):
            for bits in ("01", "10"):
                _, post = project(state, (state.labels[i], state.labels[j]), bits)
                assert fidelity(post, bell("psi+", post.labels)) == pytest.approx(1.0, abs=1e-12)


class TestBell:
    def test_psi_plus(self):
        state = bell("psi+")
        assert state.amplitude("01") == pytest.approx(1 / math.sqrt(2))
        assert state.amplitude("10") == pytest.approx(1 / math.sqrt(2))

    def test_phi_minus(self):
        state = bell("phi-")
        assert state.amplitude("00") == pytest.approx(1 / math.sqrt(2))
        assert state.amplitude("11") == pytest.approx(-1 / math.sqrt(2))

    def test_orthogonality(self):
        assert abs(np.vdot(bell("psi+").amplitudes, bell("phi+").amplitudes)) < 1e-12

    def test_bad_selector(self):
        with pytest.raises(ValueError, match="Bell selector"):
            bell("sigma+")


class TestXi:
    def test_normalized(self):
        assert np.linalg.norm(xi_state().amplitudes) == pytest.approx(1.0)

    def test_component_amplitudes(self):
        xi = xi_state()
        assert xi.amplitude("0001") == pytest.approx(SQ6)       # HH r l
        assert xi.amplitude("0010") == pytest.approx(-SQ6)      # HH l r
        assert xi.amplitude("1101") == pytest.approx(2 * SQ6)   # VV r l
        assert xi.amplitude("1100") == 0                        # VV r r absent

    def test_support_size(self):
        assert int(np.sum(np.abs(xi_state().amplitudes) > 1e-12)) == 3


class TestDickePhysical:
    def test_six_equal_amplitudes(self):
        state = dicke_physical()
        nonzero = np.abs(state.amplitudes[np.abs(state.amplitudes) > 1e-12])
        assert len(nonzero) == 6
        assert np.allclose(nonzero, SQ6, atol=1e-12)

    def test_equals_logical_dicke(self):
        assert fidelity(dicke_physical(), dicke(4, 2)) == pytest.approx(1.0, abs=1e-12)

    def test_permutation_search(self):
        order = physical_logical_permutation()
        assert sorted(order) == ["a", "b", "c", "d"]
        assert order == ("a", "b", "c", "d")


class TestWerner:
    def test_pure_limit(self):
        rho = werner_dicke(1.0)
        d42 = dicke(4, 2)
        assert np.abs(rho.matrix - np.outer(d42.amplitudes, d42.amplitudes.conj())).max() < 1e-12

    def test_white_noise_limit(self):
        assert np.abs(werner_dicke(0.0).matrix - np.eye(16) / 16).max() < 1e-12

    def test_p_validation(self):
        with pytest.raises(ValueError, match=re.escape("p=1.2 outside [0, 1]")):
            werner_dicke(1.2)
        with pytest.raises(ValueError):
            werner_dicke(-0.1)

    def test_fidelity_affine_in_p(self):
        d42 = dicke(4, 2)
        ps = np.linspace(0, 1, 7)
        values = np.array([fidelity(werner_dicke(float(p)), d42) for p in ps])
        slopes = np.diff(values) / np.diff(ps)
        assert np.abs(slopes - slopes[0]).max() < 1e-10

    def test_weight_inversion_for_observed_bound(self):
        p = werner_weight_for_fidelity(0.78)
        assert p == pytest.approx(0.7653333333, abs=1e-9)
        assert fidelity(werner_dicke(p), dicke(4, 2)) == pytest.approx(0.78, abs=1e-12)

    def test_weight_inversion_range(self):
        with pytest.raises(ValueError):
            werner_weight_for_fidelity(0.01)


class TestClient:
    def test_theta_zero_is_ground(self):
        for lam in (0.0, 0.5, 1.0):
            rho = client_state(ClientParams(theta=0.0, dephase_lambda=lam))
            assert np.abs(rho.matrix - np.diag([1.0, 0.0])).max() < 1e-12

    def test_plus_state(self):
        ket = client_ket(ClientParams(theta=math.pi / 2))
        plus = np.array([1, 1]) / math.sqrt(2)
        assert np.abs(ket.amplitudes - plus).max() < 1e-12

    def test_dephased_plus_fidelity(self):
        rho = client_state(ClientParams(theta=math.pi / 2, dephase_lambda=0.18))
        plus = client_ket(ClientParams(theta=math.pi / 2))
        assert fidelity(plus, rho) == pytest.approx(0.91, abs=1e-12)

    def test_phase_in_beta(self):
        params = ClientParams(theta=1.1, phi=0.8)
        ket = client_ket(params)
        assert ket.amplitudes[0] == pytest.approx(math.cos(0.55))
        assert ket.amplitudes[1] == pytest.approx(np.exp(0.8j) * math.sin(0.55))

    def test_client_ket_requires_zero_dephasing(self):
        with pytest.raises(ValueError, match="dephase"):
            client_ket(ClientParams(theta=1.0, dephase_lambda=0.1))

    def test_param_validation(self):
        with pytest.raises(ValueError, match="theta"):
            ClientParams(theta=-0.1)
        with pytest.raises(ValueError, match="theta"):
            ClientParams(theta=3.5)
        with pytest.raises(ValueError, match="dephase_lambda"):
            ClientParams(theta=1.0, dephase_lambda=1.5)

    def test_full_dephasing_kills_coherence(self):
        rho = client_state(ClientParams(theta=math.pi / 2, dephase_lambda=1.0))
        assert abs(rho.matrix[0, 1]) == 0

    def test_density_is_the_outer_product_scaled(self):
        """Each member, alone or in a stack, is the elementwise outer product with its
        off-diagonals times (1 - dephase_lambda), bit for bit."""
        params = [ClientParams(theta=t, phi=f, dephase_lambda=lam)
                  for t, f, lam in itertools.product((0.0, 0.7, 2.9, math.pi), (0.0, -1.3), (0.0, 0.18, 1.0))]
        stack = client_state(params).matrix
        for i, p in enumerate(params):
            amps = np.array([p.alpha, p.beta])
            rho, scale = np.outer(amps, amps.conj()), 1.0 - p.dephase_lambda
            expected = np.array([[rho[0, 0], rho[0, 1] * scale], [rho[1, 0] * scale, rho[1, 1]]])
            assert client_state(p).matrix.tobytes() == stack[i].tobytes() == expected.tobytes()

    def test_empty_sequence_is_an_empty_stack(self):
        for build in (client_ket, client_state):
            with pytest.raises(RegisterError, match="at least one member"):
                build([])
