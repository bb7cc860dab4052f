from __future__ import annotations

import itertools
import math
import re

import numpy as np
import pytest

from dickesim import (
    MixedState,
    Observable,
    RegisterLayout,
    WitnessReport,
    basis_ket,
    biseparable_bound,
    biseparable_bound_result,
    collective_spin,
    dicke,
    fidelity_bound_from_d3_witness,
    fidelity_bound_from_wm,
    propagate_wcs_error,
    werner_dicke,
    witness_projector_d3,
    witness_wcs,
    witness_wm,
    witness_wm_calibrated,
)
from dickesim import witnesses
from dickesim.witnesses import MEASURED_J2, MEASURED_J2_ERR, PAPER_GAMMAS, pauli_decompose, pauli_matrix

import oracles

# frozen dense-oracle values for the transcribed four-qubit witness
WM_IDEAL_TRANSCRIBED = 2.75
WM_MAXIMALLY_MIXED = 3.25


def _random_hermitian(rng: np.random.Generator, dim: int) -> np.ndarray:
    m = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    return m + m.conj().T


def _rebuilt(settings) -> np.ndarray:
    """sum_s c_s P_s over (c_s, s) pairs, each P_s an oracle Kronecker chain."""
    return sum(c * oracles.kron_chain([oracles.PAULI_BY_LETTER[ch] for ch in s]) for c, s in settings)


class TestCollectiveSpin:
    def test_single_qubit_jx(self):
        cs = collective_spin(1)
        assert np.abs(cs.jx - oracles.SX / 2).max() == 0

    def test_dicke_second_moments(self):
        cs = collective_spin(4)
        d42 = dicke(4, 2)
        jz2 = cs.jz @ cs.jz
        jxy2 = cs.jx @ cs.jx + cs.jy @ cs.jy
        assert oracles.dense_expectation(jz2, d42.amplitudes) == pytest.approx(0.0, abs=1e-10)
        assert oracles.dense_expectation(jxy2, d42.amplitudes) == pytest.approx(6.0, abs=1e-10)

    def test_s_operator_relation(self):
        # W_m as transcribed, S_k = (J_k^2 - 1)/2, from the oracle's Kronecker-chain J_k
        eye = np.eye(16)
        jx2, jy2, jz2 = (oracles.collective_j(4, s) @ oracles.collective_j(4, s)
                         for s in (oracles.SX, oracles.SY, oracles.SZ))
        expected = (24 * eye + jx2 @ (jx2 - eye) / 2 + jy2 @ (jy2 - eye) / 2
                    + jz2 @ (31 * eye - 7 * jz2)) / 12
        assert np.abs(witness_wm().matrix - expected).max() < 1e-12

    def test_squares_are_stored_read_only(self):
        cs = collective_spin(4)
        for j, j2 in ((cs.jx, cs.jx2), (cs.jy, cs.jy2), (cs.jz, cs.jz2)):
            assert j2.tobytes() == (j @ j).tobytes()
            assert not j.flags.writeable and not j2.flags.writeable

    def test_matches_oracle_sum(self):
        # byte for byte, so a build step that rounds differently or clears Y's -0.0 parts fails
        for n in range(1, 5):
            cs = collective_spin(n)
            for name, sigma in (("jx", oracles.SX), ("jy", oracles.SY), ("jz", oracles.SZ)):
                assert getattr(cs, name).tobytes() == oracles.collective_j(n, sigma).tobytes(), (n, name)

    def test_range(self):
        with pytest.raises(ValueError):
            collective_spin(0)
        with pytest.raises(ValueError):
            collective_spin(9)

    def test_sum_does_not_touch_the_shared_paulis(self):
        # each J sums into its own array; the cached Pauli strings it adds stay as built
        expected = np.zeros((8, 8), dtype=complex)
        for i in range(3):
            term = np.eye(1)
            for ch in "I" * i + "Y" + "I" * (2 - i):
                term = np.kron(term, {"I": np.eye(2), "Y": oracles.SY}[ch])
            expected += term
        first = witnesses._collective_matrix(3, "Y")
        assert np.array_equal(witnesses._collective_matrix(3, "Y"), first)
        assert np.array_equal(first, expected / 2.0)
        assert np.array_equal(collective_spin(3).jy, first)
        assert np.array_equal(pauli_matrix("IYI"), np.kron(np.kron(np.eye(2), oracles.SY), np.eye(2)))


class TestPauliTools:
    def test_pauli_matrix_matches_kron(self):
        # all 340 strings of length 1-4, byte for byte against the oracle's np.kron chain
        strings = ["".join(p) for n in range(1, 5) for p in itertools.product("IXYZ", repeat=n)]
        assert len(strings) == 340
        for string in strings:
            expected = oracles.kron_chain([oracles.PAULI_BY_LETTER[ch] for ch in string])
            assert pauli_matrix(string).tobytes() == expected.tobytes(), string

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_decompose_matches_oracle(self, n):
        herm = _random_hermitian(np.random.default_rng(40 + n), 2 ** n)
        terms, expected = pauli_decompose(herm), oracles.pauli_coefficients(herm)
        assert [s for _, s in terms] == [s for _, s in expected]
        assert max(abs(c - e) for (c, _), (e, _) in zip(terms, expected)) < 1e-12

    @pytest.mark.parametrize("make", [witness_wm, witness_wm_calibrated,
                                      lambda: witness_wcs(-2.5, 129 / 32),
                                      lambda: witness_projector_d3(1), lambda: witness_projector_d3(2)],
                             ids=["wm", "wm-calibrated", "wcs", "d3-k1", "d3-k2"])
    def test_witness_settings_equal_oracle(self, make):
        obs = make()
        assert list(obs.settings) == oracles.pauli_coefficients(np.asarray(obs.matrix))

    def test_tiny_component_dropped(self):
        mat = (oracles.kron_chain([oracles.SZ, oracles.SX])
               + 1e-13 * oracles.kron_chain([oracles.SX, oracles.SY]))
        assert pauli_decompose(mat) == [(1.0, "ZX")]

    @pytest.mark.parametrize("shape", [(3, 3), (6, 6), (4, 2), (1, 1)])
    def test_decompose_rejects_shape(self, shape):
        with pytest.raises(ValueError, match=re.escape(str(shape))):
            pauli_decompose(np.zeros(shape))


class TestWitnessWm:
    def test_transcribed_values(self):
        wm = witness_wm()
        assert wm.expectation(dicke(4, 2)) == pytest.approx(WM_IDEAL_TRANSCRIBED, abs=1e-10)
        mmix = MixedState(RegisterLayout(("a", "b", "c", "d")), np.eye(16) / 16)
        assert wm.expectation(mmix) == pytest.approx(WM_MAXIMALLY_MIXED, abs=1e-10)

    def test_transcribed_is_never_negative(self):
        # the literal transcription cannot flag anything: its spectrum is positive
        assert np.linalg.eigvalsh(np.asarray(witness_wm().matrix)).min() > 1.9

    def test_three_settings_only(self):
        wm = witness_wm()
        axes = {frozenset(set(s) - {"I"}) for _, s in wm.settings if set(s) != {"I"}}
        assert axes <= {frozenset("X"), frozenset("Y"), frozenset("Z")}
        assert np.abs(_rebuilt(wm.settings) - wm.matrix).max() < 1e-12

    def test_calibrated_reaches_minus_one(self):
        cal = witness_wm_calibrated()
        assert cal.name == "W_m (reconstructed)"
        assert cal.expectation(dicke(4, 2)) == pytest.approx(-1.0, abs=1e-10)

    def test_calibrated_is_constant_shift(self):
        diff = np.asarray(witness_wm_calibrated().matrix) - np.asarray(witness_wm().matrix)
        off = diff - diff[0, 0] * np.eye(16)
        assert np.abs(off).max() < 1e-10


class TestFidelityBounds:
    def test_reference_value(self):
        bound = fidelity_bound_from_wm(-0.341)
        assert bound.value == pytest.approx(0.780, abs=0.001)
        assert not bound.clamped

    def test_boundaries(self):
        assert fidelity_bound_from_wm(2.0).value == pytest.approx(0.0, abs=1e-12)
        assert fidelity_bound_from_wm(-1.0).value == pytest.approx(1.0, abs=1e-12)

    def test_clamping_flagged(self):
        high = fidelity_bound_from_wm(-2.0)
        assert high.value == 1.0 and high.clamped
        low = fidelity_bound_from_wm(5.0)
        assert low.value == 0.0 and low.clamped

    def test_affine_order_reversing(self):
        values = np.linspace(-0.9, 1.9, 9)
        bounds = [fidelity_bound_from_wm(float(v)).value for v in values]
        diffs = np.diff(bounds)
        assert np.all(diffs < 0)
        assert np.abs(np.diff(diffs)).max() < 1e-12

    def test_d3_bound_map(self):
        assert fidelity_bound_from_d3_witness(-0.21).value == pytest.approx(0.876, abs=0.002)
        assert fidelity_bound_from_d3_witness(-0.24).value == pytest.approx(0.908, abs=0.002)

    @pytest.mark.parametrize("bound", [fidelity_bound_from_wm, fidelity_bound_from_d3_witness])
    def test_non_finite_value_refused(self, bound):
        """A NaN or infinite witness value has no bound to clamp, so it is refused."""
        for value, raw in ((math.nan, "nan"), (math.inf, "-inf"), (-math.inf, "inf")):
            with pytest.raises(ValueError, match=f"fidelity bound {raw} .*not finite"):
                bound(value)


class TestWitnessWcs:
    def test_matrix_form(self):
        gamma, b4 = -1.3, 4.9
        w = witness_wcs(gamma, b4)
        jx = oracles.collective_j(4, oracles.SX)
        jy = oracles.collective_j(4, oracles.SY)
        jz = oracles.collective_j(4, oracles.SZ)
        expected = b4 * np.eye(16) - (jx @ jx + jy @ jy + gamma * jz @ jz)
        assert np.abs(np.asarray(w.matrix) - expected).max() < 1e-12

    def test_gamma_zero_reduces_to_standard(self):
        w = witness_wcs(0.0, 5.0)
        jx = oracles.collective_j(4, oracles.SX)
        jy = oracles.collective_j(4, oracles.SY)
        assert np.abs(np.asarray(w.matrix) - (5.0 * np.eye(16) - jx @ jx - jy @ jy)).max() < 1e-12

    def test_ideal_expectation(self):
        b4 = biseparable_bound(-1.0)
        w = witness_wcs(-1.0, b4)
        assert w.expectation(dicke(4, 2)) == pytest.approx(b4 - 6.0, abs=1e-9)

    def test_si_table_arithmetic(self):
        gamma = -2.5
        b4 = 4.03125
        value = b4 - (MEASURED_J2["jx2"] + MEASURED_J2["jy2"] + gamma * MEASURED_J2["jz2"])
        assert value == pytest.approx(b4 - 5.0875, abs=1e-12)


class TestPropagateError:
    def test_gamma_zero(self):
        delta = propagate_wcs_error(0.0, 0.015, 0.011, 0.028)
        assert delta == pytest.approx(math.sqrt(0.015 ** 2 + 0.011 ** 2), abs=1e-12)
        assert delta == pytest.approx(0.0186, abs=1e-4)

    def test_gamma_negative(self):
        delta = propagate_wcs_error(-2.5, 0.015, 0.011, 0.028)
        assert delta == pytest.approx(math.sqrt(0.015 ** 2 + 0.011 ** 2 + 6.25 * 0.028 ** 2), abs=1e-12)
        assert delta == pytest.approx(0.0724, abs=1e-4)

    def test_zero_deviations(self):
        assert propagate_wcs_error(-1.0, 0.0, 0.0, 0.0) == 0.0

    def test_negative_deviation_rejected(self):
        with pytest.raises(ValueError):
            propagate_wcs_error(0.0, -0.1, 0.0, 0.0)

    def test_nan_deviation_rejected(self):
        with pytest.raises(ValueError, match="d_jx2=nan"):
            propagate_wcs_error(-1.0, math.nan, 0.0, 0.0)

    @pytest.mark.parametrize("gamma", [math.nan, math.inf, -math.inf])
    def test_non_finite_gamma_rejected(self, gamma):
        with pytest.raises(ValueError, match=f"gamma={gamma} "):
            propagate_wcs_error(gamma, 0.1, 0.1, 0.1)


class TestBiseparableBound:
    def test_b4_zero_bracket(self):
        b4 = biseparable_bound(0.0)
        assert 5.185 <= b4 < 6.0
        assert b4 == pytest.approx(3.5 + math.sqrt(3), abs=1e-6)

    def test_known_values(self):
        # gamma = -1 lands on 2 + sqrt(7), a 1|3 optimum; gamma = -2.5 on the
        # 2|2 family value 129/32, which the certified oracle bracket in
        # tests/oracles.py pins to within 1e-9 (see acceptance C03c)
        assert biseparable_bound(-1.0) == pytest.approx(2 + math.sqrt(7), abs=1e-6)
        assert biseparable_bound(-2.5) == pytest.approx(129 / 32, abs=1e-6)
        assert biseparable_bound(-2.5) >= 129 / 32 - 1e-9

    def test_monotone_in_gamma(self):
        values = [biseparable_bound(g) for g in (0.0, -0.5, -1.0, -2.0, -2.5)]
        assert all(a >= b - 1e-9 for a, b in zip(values, values[1:]))

    def test_convex_and_nondecreasing_in_gamma(self):
        # b4 and each class's curve are maxima of functions affine in gamma with
        # slope <Jz^2> >= 0, so both properties hold up to rounding. The values
        # are eigenvalues of matrices of norm below 12, each within a few ulps of
        # 12, about 1e-14. Over the grid's smallest spacing, 0.12, that moves a
        # slope by about 2e-13 and a change of slope by about 4e-13. A maximum
        # missed by d at one gamma moves the slopes beside it by d / spacing, so
        # the check sees it where the curve runs straight (the flat 1|3 part
        # below -2.3), not where the slope changes by more than that.
        allowance = 1e-12
        gammas = np.unique(np.concatenate([np.linspace(-3, 0, 10), PAPER_GAMMAS]))
        curves = [dict(r.per_bipartition, b4=r.value)
                  for r in (biseparable_bound_result(float(g)) for g in gammas)]
        for name in ("b4", "0|123", "01|23"):
            values = [curve[name] for curve in curves]
            slopes = np.diff(values) / np.diff(gammas)
            assert np.diff(values).min() >= -allowance, name
            assert np.diff(slopes).min() >= -allowance, name

    def test_result_carries_both_estimates(self):
        # one entry per bipartition class; at gamma = -1 the 1|3 class holds
        # 2 + sqrt(7) and the 2|2 class the product-family value 4.5
        result = biseparable_bound_result(-1.0)
        per_class = dict(result.per_bipartition)
        assert list(per_class) == ["0|123", "01|23"]
        assert result.value == max(per_class.values())
        assert per_class["0|123"] == pytest.approx(2 + math.sqrt(7), abs=1e-9)
        assert per_class["01|23"] == pytest.approx(oracles.b4_family_lower(-1.0), abs=1e-9)

    def test_cache_is_bounded(self):
        # a long-lived process scanning many gammas keeps at most 64 results
        assert biseparable_bound_result.cache_info().maxsize == 64

    def test_gamma_validation(self):
        with pytest.raises(ValueError):
            biseparable_bound(0.5)
        with pytest.raises(ValueError):
            biseparable_bound(-11.0)

    def test_no_violation_by_random_biseparable_states(self):
        xy, zz = oracles.random_biseparable_moments(2000, seed=101)
        for gamma in (0.0, -0.12, -1.0, -2.5):
            bound = biseparable_bound(gamma)
            assert float(np.max(xy + gamma * zz)) <= bound + 1e-9

    def test_moments_deterministic(self):
        a = oracles.random_biseparable_moments(50, seed=3)
        b = oracles.random_biseparable_moments(50, seed=3)
        assert np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1])

    @pytest.mark.parametrize("gamma", [0.0, -0.12, -1.0, -1.7, -2.0, -2.5, -2.9])
    def test_within_certified_upper_bound(self, gamma):
        # the certified bracket's upper end; at -1.7 its 1|3 polygon slack is
        # about 6e-8, so the lower side allows 1e-7
        up = max(oracles.b4_one_three_upper(gamma),
                 oracles.b4_two_two_upper(gamma, oracles.b4_family_lower(gamma)))
        assert up - 1e-7 <= biseparable_bound(gamma) <= up + 1e-9


class TestProjectorWitness:
    def test_on_own_dicke_state(self):
        for k in (1, 2):
            w = witness_projector_d3(k)
            assert w.expectation(dicke(3, k)) == pytest.approx(-1 / 3, abs=1e-10)

    def test_on_ground_state(self):
        w = witness_projector_d3(1)
        assert w.expectation(basis_ket("000", ("a", "b", "c"))) == pytest.approx(2 / 3, abs=1e-12)

    def test_rearranged_decomposition_rebuilds(self):
        for k in (1, 2):
            w = witness_projector_d3(k)
            assert np.abs(_rebuilt(w.settings) - w.matrix).max() < 1e-12

    def test_five_setting_decomposition_rebuilds(self):
        # the published five-setting form, as the oracles expand it, rebuilds the witness
        for k in (1, 2):
            five = [(c, s) for s, c in oracles.d3_five_setting_terms(k).items()]
            assert np.abs(_rebuilt(five) - witness_projector_d3(k).matrix).max() < 1e-12

    def test_five_setting_form_is_eight_group_form(self):
        """Read with ZZ for its unlabelled product term, the five-setting form
        expands to the eight-group form term for term, and both are the
        library's decomposition: the same 20 strings, coefficients within rounding."""
        for k in (1, 2):
            five, groups = oracles.d3_five_setting_terms(k), oracles.d3_eight_group_terms(k)
            assert five == groups
            settings = witness_projector_d3(k).settings
            library = {s: c for c, s in settings}
            assert len(library) == len(settings) == 20 and library.keys() == groups.keys()
            assert max(abs(library[s] - groups[s]) for s in groups) < 1e-15

    def test_group_bookkeeping_on_d31(self):
        """Per-group expectations on the one-excitation state sum to -8/24."""
        d31 = dicke(3, 1).amplitudes
        groups = {}
        for coeff, string in witness_projector_d3(1).settings:
            key = (round(coeff * 24), "".join(sorted(string)))
            value = oracles.dense_expectation(pauli_matrix(string), d31)
            groups[key] = groups.get(key, 0.0) + coeff * 24 * value
        contributions = sorted(round(v, 6) for v in groups.values())
        assert contributions == [-4.0, -4.0, -4.0, -4.0, -3.0, -1.0, -1.0, 13.0]
        assert sum(contributions) == pytest.approx(-8.0)

    def test_k_validation(self):
        with pytest.raises(ValueError):
            witness_projector_d3(3)
        with pytest.raises(ValueError):
            witness_projector_d3(0)

    def test_werner_projection_value(self):
        # projecting qubit d of the Werner resource leaves a 3-qubit Werner
        # state with the same weight; witness value is affine in p
        from dickesim import project

        p = 0.7653333333333333
        _, post = project(werner_dicke(p), "d", "1")
        w = witness_projector_d3(1)
        assert w.expectation(post) == pytest.approx(-p / 3 + (1 - p) * 13 / 24, abs=1e-10)


class TestObservable:
    @pytest.mark.parametrize("matrix", [[[0.0, 1.0], [0.0, 0.0]], np.full((2, 2), np.nan)],
                             ids=["non-hermitian", "nan"])
    def test_rejected_matrix(self, matrix):
        with pytest.raises(ValueError, match="Hermitian"):
            Observable(np.array(matrix))

    @pytest.mark.parametrize("state", [lambda: dicke(4, 2), lambda: werner_dicke(0.9)],
                             ids=["pure", "mixed"])
    def test_expectation_refuses_a_state_of_another_size(self, state):
        # a three-qubit witness on the four-qubit resource names both dimensions
        with pytest.raises(ValueError, match=re.escape("dimension 8 on a 4-qubit state of dimension 16")):
            witness_projector_d3(1).expectation(state())


class TestDecompositionCheck:
    """An observable's settings are its matrix's Pauli decomposition, which the
    oracle's Kronecker chains rebuild."""

    def test_identity_observable(self):
        assert Observable(np.eye(8)).settings == ((1.0, "III"),)

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_round_trip(self, n):
        herm = _random_hermitian(np.random.default_rng(50 + n), 2 ** n)
        settings = Observable(herm).settings
        assert settings == tuple(pauli_decompose(herm))
        assert np.abs(_rebuilt(settings) - herm).max() < 1e-12

    def test_settings_need_a_qubit_operator(self):
        # a 3 x 3 observable is built; only reading its settings is refused
        obs = Observable(np.eye(3))
        assert np.array_equal(obs.matrix, np.eye(3))
        with pytest.raises(ValueError, match=re.escape("(3, 3)")):
            obs.settings


class TestWitnessReport:
    def test_verdict_rule(self):
        assert WitnessReport.build("w", -0.3, 0.1).verdict == "multipartite-entangled"
        assert WitnessReport.build("w", -0.3, 0.4).verdict == "inconclusive"
        assert WitnessReport.build("w", 0.1, 0.0).verdict == "inconclusive"

    def test_negative_uncertainty_rejected(self):
        with pytest.raises(ValueError):
            WitnessReport.build("w", 0.0, -0.1)

    def test_nan_uncertainty_rejected(self):
        with pytest.raises(ValueError, match="uncertainty=nan "):
            WitnessReport.build("w", 0.1, math.nan)

    def test_nan_value_rejected(self):
        with pytest.raises(ValueError, match="value=nan "):
            WitnessReport.build("w", math.nan, 0.1)


class TestSignificanceReproduction:
    """Significance of the reference measured moments with the computed bounds."""

    def test_minus_012_exceeds_one_sigma(self):
        gamma = -0.12
        value = biseparable_bound(gamma) - (
            MEASURED_J2["jx2"] + MEASURED_J2["jy2"] + gamma * MEASURED_J2["jz2"])
        delta = propagate_wcs_error(gamma, MEASURED_J2_ERR["jx2"],
                                    MEASURED_J2_ERR["jy2"], MEASURED_J2_ERR["jz2"])
        assert value / delta <= -1.0

    def test_minus_25_ratio_recorded(self):
        """The -2.5 ratio computes to about -14.58, short of the -15 milestone.

        The bound is dominated by the 2|2 bipartition (129/32 = 4.03125,
        reached by an explicit analytic family); a bound restricted to the
        1|3 splits would give 4.0 and a ratio of -15.01. Both numbers are
        asserted here from the library's own per-bipartition values; the
        acceptance criterion C03c checks the computed b4(-2.5) against the
        certified oracle bracket.
        """
        gamma = -2.5
        value = biseparable_bound(gamma) - (
            MEASURED_J2["jx2"] + MEASURED_J2["jy2"] + gamma * MEASURED_J2["jz2"])
        delta = propagate_wcs_error(gamma, MEASURED_J2_ERR["jx2"],
                                    MEASURED_J2_ERR["jy2"], MEASURED_J2_ERR["jz2"])
        ratio = value / delta
        assert ratio == pytest.approx(-14.58, abs=0.02)
        one_three_best = max(v for label, v in biseparable_bound_result(gamma).per_bipartition
                             if len(label.split("|")[0]) == 1)
        assert (one_three_best - 5.0875) / delta <= -15.0
