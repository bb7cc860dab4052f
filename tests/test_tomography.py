from __future__ import annotations

import itertools
import json
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dickesim import (
    CountsRecord,
    MissingSettingError,
    MixedState,
    PureState,
    RegisterLayout,
    basis_ket,
    bell,
    born_probabilities,
    dicke,
    estimate_correlator,
    estimate_witness,
    exact_counts,
    fidelity,
    fidelity_with_error,
    project,
    simulate_counts,
    single_qubit,
    tomography_linear,
    witness_projector_d3,
)
from dickesim import cli, tomography
from dickesim.witnesses import Observable, pauli_matrix

import oracles


def all_settings(k: int) -> list[str]:
    return ["".join(axes) for axes in itertools.product("XYZ", repeat=k)]


def exact_records(state, k: int) -> list[CountsRecord]:
    return [exact_counts(state, s) for s in all_settings(k)]


def poisson_records(state, k: int, n: int, seed: int) -> list[CountsRecord]:
    return [simulate_counts(state, s, n, seed=seed * 100 + i)
            for i, s in enumerate(all_settings(k))]


class TestSettings:
    def test_letters(self):
        """A setting is its string of X, Y or Z per qubit, kept as given."""
        setting = CountsRecord("XZ", {"00": 1}, 1.0, seed=0).setting
        assert setting == "XZ"
        assert tuple(setting) == ("X", "Z")

    def test_invalid_axis(self, monkeypatch):
        """Every string other than one X, Y or Z per qubit is refused where it enters,
        naming the setting, and simulate_counts refuses before it draws."""
        def no_draw(*args):
            raise AssertionError("simulate_counts drew before checking its settings")
        monkeypatch.setattr(np.random, "default_rng", no_draw)
        state = basis_ket("0", ("a",))
        for bad in ("Q", "", "XQ"):
            for enter in (lambda: CountsRecord(bad, {}, 1.0, seed=0),
                          lambda: born_probabilities(state, bad),
                          lambda: born_probabilities(state, ["Z", bad]),
                          lambda: simulate_counts(state, bad, 100, seed=1),
                          lambda: simulate_counts(state, ["Z", bad], 100, seed=1)):
                with pytest.raises(ValueError, match=re.escape(f"measurement setting {bad!r}")):
                    enter()

    def test_exact_counts_takes_one_setting(self):
        """A sequence of settings is refused by name, not by numpy's scalar conversion."""
        with pytest.raises(ValueError, match=re.escape("measurement setting ['ZZ', 'XX']")):
            exact_counts(bell("psi+"), ["ZZ", "XX"])


class TestBornProbabilities:
    def test_computational(self):
        probs = born_probabilities(basis_ket("0", ("a",)), "Z")
        assert np.allclose(probs, [1.0, 0.0])

    def test_plus_in_z(self):
        plus = single_qubit(np.array([1, 1]) / math.sqrt(2), "a")
        assert np.allclose(born_probabilities(plus, "Z"), [0.5, 0.5])

    def test_plus_in_its_own_basis(self):
        plus = single_qubit(np.array([1, 1]) / math.sqrt(2), "a")
        assert np.allclose(born_probabilities(plus, "X"), [1.0, 0.0])

    def test_mixed_state(self):
        rho = MixedState(RegisterLayout(("a",)), np.diag([0.25, 0.75]))
        assert np.allclose(born_probabilities(rho, "Z"), [0.25, 0.75])

    def test_size_mismatch(self):
        with pytest.raises(ValueError):
            born_probabilities(bell("psi+"), "Z")

    STACKS = {
        "kets": lambda: PureState(RegisterLayout(("a",)), np.eye(2)),
        "densities": lambda: PureState(RegisterLayout(("a",)), np.eye(2)).density(),
        # a (2, 2) table projection: two Bell states, "a" projected onto |0> and |1>
        "table-projection": lambda: project(
            PureState(RegisterLayout(("a", "b")), np.array([bell("phi+").amplitudes, bell("psi+").amplitudes])),
            "a", np.eye(2))[1],
    }

    @pytest.mark.parametrize("stack", list(STACKS))
    def test_a_stack_is_refused(self, stack):
        state = self.STACKS[stack]()
        setting = "Z"
        message = re.escape(f"not a stack of shape {state.stack_shape}")
        for measure in (lambda: born_probabilities(state, setting), lambda: exact_counts(state, setting),
                        lambda: simulate_counts(state, setting, 100, seed=1)):
            with pytest.raises(ValueError, match="tomography measures a single state, " + message):
                measure()
        with pytest.raises(ValueError, match="an expectation takes a single state, " + message):
            Observable(pauli_matrix("Z")).expectation(state)


class TestSimulateCounts:
    def test_deterministic_outcome_lands_on_one_bin(self):
        record = simulate_counts(basis_ket("0", ("a",)), "Z", 5000, seed=4)
        assert record.counts["1"] == 0
        assert record.counts["0"] > 4000

    def test_seed_reproducibility(self):
        a = simulate_counts(bell("psi+"), "XY", 1000, seed=11)
        b = simulate_counts(bell("psi+"), "XY", 1000, seed=11)
        assert a.counts == b.counts

    def test_frequencies_converge(self):
        plus = single_qubit(np.array([1, 1]) / math.sqrt(2), "a")
        record = simulate_counts(plus, "Z", 10 ** 6, seed=2)
        freq = record.counts["0"] / record.total
        assert abs(freq - 0.5) < 3 * 0.5 / math.sqrt(10 ** 6) * 2

    def test_born_convergence_random_states(self):
        rng = np.random.default_rng(8)
        n = 10 ** 6
        for trial in range(20):
            psi = PureState(RegisterLayout(("a", "b")), oracles.haar_ket(rng, 4))
            setting = all_settings(2)[int(rng.integers(9))]
            probs = born_probabilities(psi, setting)
            record = simulate_counts(psi, setting, n, seed=500 + trial)
            total = record.total
            for idx, outcome in enumerate(sorted(record.counts)):
                sigma = math.sqrt(max(probs[idx] * (1 - probs[idx]) / n, 1e-12))
                assert abs(record.counts[outcome] / total - probs[idx]) < 5 * sigma + 5 / n

    def test_invalid_n(self):
        with pytest.raises(ValueError):
            simulate_counts(bell("psi+"), "ZZ", 0, seed=1)

    def test_nan_n_rejected(self):
        with pytest.raises(ValueError, match="n=nan "):
            simulate_counts(bell("psi+"), "ZZ", math.nan, seed=1)

    def test_integer_counts_enforced(self):
        with pytest.raises(ValueError, match="integers"):
            CountsRecord("Z", {"0": 0.5, "1": 0.5}, 1, seed=0)

    def test_nan_exact_count_rejected(self):
        with pytest.raises(ValueError, match=re.escape("counts['0']=nan ")):
            CountsRecord("Z", {"0": math.nan, "1": 5.0}, 5.0, seed=None, exact=True)

    def test_infinite_stochastic_count_rejected(self):
        with pytest.raises(ValueError, match=re.escape("counts['0']=inf ")):
            CountsRecord("Z", {"0": math.inf, "1": 5}, 5.0, seed=0)


def _random_state(rng, n: int, pure: bool):
    """A Haar-random ket, or a random rank-2 density matrix, on n qubits."""
    layout = RegisterLayout(("a", "b", "c")[:n])
    if pure:
        return PureState(layout, oracles.haar_ket(rng, 2 ** n))
    return MixedState(layout, oracles.random_density(rng, 2 ** n, 2))


def _settings_with_repeats(rng, n: int) -> list[str]:
    """Every X/Y/Z setting on n qubits, then three drawn again at random, so a stack repeats settings."""
    return all_settings(n) + ["".join(rng.choice(list("XYZ"), size=n)) for _ in range(3)]


class TestStackedSettings:
    """A sequence of settings is measured as one stack: row i of born_probabilities,
    and record i of simulate_counts, equal the call on setting i alone, bit for bit."""

    @pytest.mark.parametrize("n", [1, 2, 3])
    @pytest.mark.parametrize("pure", [True, False], ids=["kets", "densities"])
    def test_rows_equal_single_settings(self, n, pure):
        rng = np.random.default_rng(40 + n)
        for _ in range(4):
            state, table = _random_state(rng, n, pure), _settings_with_repeats(rng, n)
            rows = born_probabilities(state, table)
            assert rows.shape == (len(table), 2 ** n)
            for row, setting in zip(rows, table):
                assert np.array_equal(row, born_probabilities(state, setting))

    @pytest.mark.parametrize("n", [1, 2, 3])
    @pytest.mark.parametrize("pure", [True, False], ids=["kets", "densities"])
    def test_records_equal_single_settings(self, n, pure):
        rng = np.random.default_rng(50 + n)
        state, table = _random_state(rng, n, pure), _settings_with_repeats(rng, n)
        records = simulate_counts(state, iter(table), 500, seed=17)  # any iterable, read once
        assert len(records) == len(table)
        for i, (record, setting) in enumerate(zip(records, table)):
            alone = simulate_counts(state, setting, 500, seed=17 + i)
            assert record.setting == alone.setting and record.seed == alone.seed == 17 + i
            assert list(record.counts.items()) == list(alone.counts.items())
            assert record.total_requested == alone.total_requested

    def test_empty_settings_refused(self):
        for measure in (lambda: born_probabilities(bell("psi+"), []),
                        lambda: simulate_counts(bell("psi+"), (), 100, seed=1)):
            with pytest.raises(ValueError, match="no measurement settings supplied"):
                measure()

    def test_a_setting_of_the_wrong_size_refused(self):
        table = ["ZZ", "Z"]
        with pytest.raises(ValueError, match="setting covers 1 qubits, state has 2"):
            born_probabilities(bell("psi+"), table)


class TestEstimateCorrelator:
    def test_exact_deterministic(self):
        records = [exact_counts(basis_ket("0000", ("a", "b", "c", "d")), "ZZZZ")]
        value, unc = estimate_correlator(records, "ZZZZ")
        assert value == pytest.approx(1.0, abs=1e-12)
        assert unc == 0.0

    def test_uncertainty_shrinks_with_n(self):
        state = bell("psi+")
        setting = "ZX"
        uncs = []
        for n in (10 ** 3, 10 ** 5):
            record = simulate_counts(state, setting, n, seed=21)
            uncs.append(estimate_correlator([record], "ZX")[1])
        assert uncs[1] < uncs[0] / 5

    def test_pooling_over_compatible_settings(self):
        state = bell("psi+")
        records = [exact_counts(state, s, n=100) for s in all_settings(2)]
        # XI is compatible with XX, XY, XZ; pooled total is 300
        matching = [r for r in records if r.setting[0] == "X"]
        assert len(matching) == 3
        value, _ = estimate_correlator(records, "XI")
        assert value == pytest.approx(0.0, abs=1e-12)

    def test_marginalization_matches_dense_expectation(self):
        rng = np.random.default_rng(29)
        psi = PureState(RegisterLayout(("a", "b")), oracles.haar_ket(rng, 4))
        records = exact_records(psi, 2)
        for combo in itertools.product("IXYZ", repeat=2):
            string = "".join(combo)
            if string == "II":
                continue
            value, unc = estimate_correlator(records, string)
            expected = oracles.dense_expectation(pauli_matrix(string), psi.amplitudes)
            assert value == pytest.approx(expected, abs=1e-10), string
            assert unc == 0.0

    def test_pooling_over_exact_and_poisson_records(self):
        rng = np.random.default_rng(37)
        rho = MixedState(RegisterLayout(("a", "b")), oracles.random_density(rng, 4))
        # X-first settings exact only; ZZ both exact and Poisson; the rest Poisson only
        records = [exact_counts(rho, s, 1000.0) if s[0] == "X"
                   else simulate_counts(rho, s, 1000, seed=700 + i)
                   for i, s in enumerate(all_settings(2))]
        records.append(exact_counts(rho, "ZZ", 1000.0))
        strings = ["".join(combo) for combo in itertools.product("IXYZ", repeat=2)]
        coeffs = rng.normal(size=len(strings))
        observable = Observable(sum(c * pauli_matrix(s) for c, s in zip(coeffs, strings)))
        singles = [estimate_correlator(records, s) for s in strings[1:]]
        report = estimate_witness(records, observable)
        value = coeffs[0] + sum(c * v for c, (v, _) in zip(coeffs[1:], singles))
        assert report.value == pytest.approx(value, abs=1e-12)
        uncertainty = math.sqrt(sum((c * u) ** 2 for c, (_, u) in zip(coeffs[1:], singles)))
        assert report.uncertainty == pytest.approx(uncertainty, abs=1e-12)
        for string in ("ZZ", "ZI", "IZ"):
            assert estimate_correlator(records, string)[1] > 0, string
        for string in ("XX", "XY", "XZ", "XI"):
            assert estimate_correlator(records, string)[1] == 0.0, string

    def test_missing_setting(self):
        records = [exact_counts(bell("psi+"), "ZZ")]
        with pytest.raises(MissingSettingError) as exc:
            estimate_correlator(records, "XX")
        assert exc.value.missing == ("XX",)

    def test_zero_counts_are_a_missing_setting(self):
        records = [CountsRecord("ZZ", dict.fromkeys(("00", "01", "10", "11"), 0), 1000.0, seed=None)]
        with pytest.raises(MissingSettingError) as exc:
            estimate_correlator(records, "ZZ")
        assert exc.value.missing == ("ZZ",)
        strings = ("XX", "ZI", "ZZ")
        observable = Observable(sum(pauli_matrix(s) for s in strings))
        with pytest.raises(MissingSettingError) as exc:
            estimate_witness(records, observable)
        assert exc.value.missing == strings

    def test_overflowing_counts_refused(self):
        # the two X records pool to inf / inf, which no estimate may return as nan
        records = [CountsRecord(axis, {"0": 1.7e308, "1": 0.0}, 1.0,
                                seed=None, exact=True) for axis in "XXYZ"]
        observable = Observable(pauli_matrix("X") + pauli_matrix("Z"))
        for estimate in (lambda: estimate_correlator(records, "X"),
                         lambda: estimate_witness(records, observable)):
            with np.errstate(all="ignore"), pytest.raises(ValueError, match="not finite"):
                estimate()

    # the parity table mixes records of two qubit counts, and a stochastic
    # record that drew nothing adds no column beside an exact one
    EDGE_RECORDS = {
        "two-sizes": lambda: [
            simulate_counts(bell("psi+"), "ZZ", 100, seed=1),
            simulate_counts(basis_ket("0", ("a",)), "Z", 100, seed=2)],
        "empty-stochastic": lambda: [
            exact_counts(basis_ket("0", ("a",)), "Z"),
            CountsRecord("Z", {}, 100.0, seed=3)],
    }

    @pytest.mark.parametrize("case, string, expected", [
        ("two-sizes", "ZZ", (-1.0, 0.0)),
        ("two-sizes", "Z", (1.0, 0.0)),
        ("empty-stochastic", "Z", (1.0, 0.0)),
    ])
    def test_parity_table_edge_cases(self, case, string, expected):
        assert estimate_correlator(self.EDGE_RECORDS[case](), string) == expected


class TestEstimateWitness:
    def test_ideal_d3_exact(self):
        witness = witness_projector_d3(1)
        records = [exact_counts(dicke(3, 1), "".join(axes))
                   for axes in itertools.product("XYZ", repeat=3)]
        report = estimate_witness(records, witness)
        assert report.value == pytest.approx(-1 / 3, abs=1e-10)
        assert report.uncertainty == 0.0
        assert report.verdict == "multipartite-entangled"

    def test_ground_state_exact(self):
        witness = witness_projector_d3(1)
        records = [exact_counts(basis_ket("000", ("a", "b", "c")), "".join(axes))
                   for axes in itertools.product("XYZ", repeat=3)]
        report = estimate_witness(records, witness)
        assert report.value == pytest.approx(2 / 3, abs=1e-10)
        assert report.verdict == "inconclusive"

    def test_exact_records_match_dense_expectation(self):
        rng = np.random.default_rng(31)
        witness = witness_projector_d3(2)
        rho = MixedState(RegisterLayout(("a", "b", "c")), oracles.random_density(rng, 8))
        records = [exact_counts(rho, "".join(axes))
                   for axes in itertools.product("XYZ", repeat=3)]
        report = estimate_witness(records, witness)
        assert report.value == pytest.approx(witness.expectation(rho), abs=1e-10)

    def test_noisy_d3_plausibility_corridor(self):
        # three-qubit Werner mixture at fidelity 0.88 with the target state
        q = (0.88 - 1 / 8) / (7 / 8)
        d31 = dicke(3, 1)
        mat = q * np.outer(d31.amplitudes, d31.amplitudes.conj()) + (1 - q) * np.eye(8) / 8
        rho = MixedState(RegisterLayout(("a", "b", "c")), mat)
        records = [simulate_counts(rho, "".join(axes), 20000, seed=900 + i)
                   for i, axes in enumerate(itertools.product("XYZ", repeat=3))]
        report = estimate_witness(records, witness_projector_d3(1))
        assert -0.26 <= report.value <= -0.17
        assert 0.0 < report.uncertainty < 0.05

    def test_missing_settings_enumerated(self):
        witness = witness_projector_d3(1)
        records = [exact_counts(dicke(3, 1), "ZZZ")]
        with pytest.raises(MissingSettingError) as exc:
            estimate_witness(records, witness)
        assert len(exc.value.missing) > 0

    def test_requires_settings(self):
        with pytest.raises(ValueError):
            estimate_witness([], Observable(np.eye(4)))

    def test_refuses_no_records(self):
        # an identity-only observable would otherwise return its coefficient from no data
        with pytest.raises(ValueError, match="no records supplied"):
            estimate_witness([], Observable(np.eye(2)))

    def test_identity_only_observable(self):
        # no string left to estimate: an empty parity table, the identity's coefficient alone
        records = [exact_counts(basis_ket("0", ("a",)), "Z")]
        report = estimate_witness(records, Observable(np.eye(2)))
        assert (report.value, report.uncertainty) == (1.0, 0.0)
        assert report.parameters == {"n_settings": 0}


class TestJz2Estimation:
    def test_dicke_jz2_within_five_sigma(self):
        state = dicke(4, 2)
        record = simulate_counts(state, "Z" * 4, 10 ** 5, seed=77)
        value = 1.0
        variance = 0.0
        for i, j in itertools.combinations(range(4), 2):
            string = "".join("Z" if q in (i, j) else "I" for q in range(4))
            v, u = estimate_correlator([record], string)
            value += 0.5 * v
            variance += (0.5 * u) ** 2
        sigma = math.sqrt(variance)
        assert sigma > 0
        assert abs(value) <= 5 * sigma

    def test_si_scale_uncertainties(self):
        from dickesim import werner_dicke

        state = werner_dicke(0.8)
        for axis, seed in (("X", 1), ("Y", 2)):
            record = simulate_counts(state, axis * 4, 10 ** 4, seed=seed)
            variance = 0.0
            for i, j in itertools.combinations(range(4), 2):
                string = "".join(axis if q in (i, j) else "I" for q in range(4))
                _, u = estimate_correlator([record], string)
                variance += (0.5 * u) ** 2
            assert 0.005 <= math.sqrt(variance) <= 0.06


class TestLinearInversion:
    def test_exact_inverse_random_states(self):
        rng = np.random.default_rng(41)
        for _ in range(10):
            psi1 = PureState(RegisterLayout(("q0",)), oracles.haar_ket(rng, 2))
            rho1 = tomography_linear(exact_records(psi1, 1))
            assert fidelity(rho1, psi1) >= 1 - 1e-9
            psi2 = PureState(RegisterLayout(("q0", "q1")), oracles.haar_ket(rng, 4))
            rho2 = tomography_linear(exact_records(psi2, 2))
            assert fidelity(rho2, psi2) >= 1 - 1e-9

    def test_bell_reconstruction_poisson(self):
        records = poisson_records(bell("psi+"), 2, 10 ** 4, seed=5)
        rho = tomography_linear(records, labels=("a", "b"))
        assert fidelity(rho, bell("psi+")) >= 0.99

    def test_clone_state_recovery(self):
        target = MixedState(RegisterLayout(("a",)), np.diag([2 / 3, 1 / 3]))
        rho = tomography_linear([exact_counts(target, s) for s in all_settings(1)],
                                labels=("a",))
        assert np.abs(rho.matrix - target.matrix).max() < 1e-10

    def test_output_is_physical(self):
        records = poisson_records(bell("phi-"), 2, 500, seed=13)
        rho = tomography_linear(records)
        vals = np.linalg.eigvalsh(rho.matrix)
        assert vals.min() >= -1e-12
        assert np.trace(rho.matrix).real == pytest.approx(1.0, abs=1e-10)

    def test_overflowing_counts_refused(self):
        # the two X records pool to inf / inf, which no estimate may carry into the register
        records = [CountsRecord(axis, {"0": 1.7e308, "1": 0.0}, 1.0,
                                seed=None, exact=True) for axis in "XXYZ"]
        with np.errstate(all="ignore"), pytest.raises(ValueError, match="not finite"):
            tomography_linear(records)

    def test_psd_projection_bounded_by_trace_distance(self):
        rng = np.random.default_rng(59)
        for trial in range(100):
            psi = PureState(RegisterLayout(("a", "b")), oracles.haar_ket(rng, 4))
            records = poisson_records(psi, 2, 300, seed=3000 + trial)
            raw = np.zeros((4, 4), dtype=complex)
            for combo in itertools.product("IXYZ", repeat=2):
                string = "".join(combo)
                value = 1.0 if string == "II" else estimate_correlator(records, string)[0]
                raw += value * pauli_matrix(string)
            raw /= 4
            projected = tomography_linear(records, labels=("a", "b"))
            f_raw = float(np.real(psi.amplitudes.conj() @ raw @ psi.amplitudes))
            f_psd = fidelity(projected, psi)
            trace_norm = float(np.abs(np.linalg.eigvalsh(raw - projected.matrix)).sum())
            assert abs(f_psd - f_raw) <= trace_norm + 1e-9

    def test_missing_settings_listed(self):
        records = [exact_counts(bell("psi+"), "ZZ")]
        with pytest.raises(MissingSettingError) as exc:
            tomography_linear(records)
        assert "XX" in exc.value.missing

    def test_settings_without_counts_listed(self):
        records = poisson_records(bell("psi+"), 2, 1000, seed=2)
        records[4] = CountsRecord(records[4].setting, dict.fromkeys(records[4].counts, 0),
                                  1000.0, seed=None)
        for call in (lambda: tomography_linear(records),
                     lambda: fidelity_with_error(records, bell("psi+"), trials=10)):
            with pytest.raises(MissingSettingError) as exc:
                call()
            assert exc.value.missing == ("YY",)

    def test_absent_and_countless_settings_named_together(self):
        records = [r for r in poisson_records(bell("psi+"), 2, 1000, seed=4)
                   if r.setting != "XX"]
        records[0] = CountsRecord(records[0].setting, dict.fromkeys(records[0].counts, 0),
                                  1000.0, seed=None)
        assert records[0].setting == "XY"
        without_x = [r for r in records if r.setting[0] != "X"]
        for kept, missing in ((records, ("XX", "XY")), (without_x, ("XX", "XY", "XZ"))):
            for call in (lambda: tomography_linear(kept),
                         lambda: fidelity_with_error(kept, bell("psi+"), trials=10)):
                with pytest.raises(MissingSettingError) as exc:
                    call()
                assert exc.value.missing == missing

    def test_too_many_qubits(self):
        records = [exact_counts(dicke(3, 1), "ZZZ")]
        with pytest.raises(ValueError, match="1 or 2"):
            tomography_linear(records)

    def test_label_count_must_match(self):
        records = exact_records(basis_ket("0", ("a",)), 1)
        with pytest.raises(ValueError, match="3 labels given for a 1-qubit reconstruction"):
            tomography_linear(records, labels=("a", "b", "c"))


class TestFidelityWithError:
    def test_exact_records_zero_width(self):
        records = exact_records(bell("psi+"), 2)
        fid, unc = fidelity_with_error(records, bell("psi+"), trials=20)
        assert fid == pytest.approx(1.0, abs=1e-9)
        assert unc == 0.0

    def test_poisson_uncertainty_scale(self):
        records = poisson_records(bell("psi+"), 2, 10 ** 4, seed=9)
        _, unc = fidelity_with_error(records, bell("psi+"), trials=40, seed=1)
        assert 1e-4 < unc < 5e-2

    def test_inverse_sqrt_n_scaling(self):
        uncs = []
        for idx, n in enumerate((10 ** 3, 10 ** 4, 10 ** 5)):
            records = poisson_records(bell("psi+"), 2, n, seed=40 + idx)
            uncs.append(fidelity_with_error(records, bell("psi+"), trials=40, seed=2)[1])
        for ratio in (uncs[0] / uncs[1], uncs[1] / uncs[2]):
            assert math.sqrt(10) / 2 <= ratio <= 2 * math.sqrt(10)

    def test_trials_floor(self):
        with pytest.raises(ValueError):
            fidelity_with_error(exact_records(bell("psi+"), 2), bell("psi+"), trials=5)

    def test_nan_trials_rejected(self):
        with pytest.raises(ValueError, match="trials=nan "):
            fidelity_with_error(exact_records(bell("psi+"), 2), bell("psi+"), trials=math.nan)

    def test_bootstrap_deterministic(self):
        records = poisson_records(bell("psi+"), 2, 2000, seed=3)
        first = fidelity_with_error(records, bell("psi+"), trials=15, seed=8)
        second = fidelity_with_error(records, bell("psi+"), trials=15, seed=8)
        assert first == second

    def test_target_size_must_match(self, monkeypatch):
        records = poisson_records(basis_ket("0", ("a",)), 1, 100, seed=6)
        monkeypatch.setattr(tomography, "_redraw", lambda *args: pytest.fail("a trial was drawn"))
        with pytest.raises(ValueError, match="target has 2 qubits, the records 1"):
            fidelity_with_error(records, bell("psi+"), trials=10)


class TestEntryChecks:
    """A bad seed or trial count is refused by name before anything is drawn."""

    @staticmethod
    def forbid_draws(monkeypatch):
        monkeypatch.setattr(tomography, "_redraw", lambda *args: pytest.fail("a trial was drawn"))
        monkeypatch.setattr(np.random, "default_rng", lambda *args: pytest.fail("a generator was built"))

    @pytest.mark.parametrize("seed", [-2, 1.5, np.float64(3.0), "3", None])
    def test_bad_seed_refused(self, monkeypatch, seed):
        records = poisson_records(bell("psi+"), 2, 100, seed=1)
        self.forbid_draws(monkeypatch)
        with pytest.raises(ValueError, match=re.escape(f"seed={seed!r} ")):
            fidelity_with_error(records, bell("psi+"), trials=10, seed=seed)
        with pytest.raises(ValueError, match=re.escape(f"seed={seed!r} ")):
            simulate_counts(bell("psi+"), "ZZ", 100, seed=seed)

    @pytest.mark.parametrize("trials", [10.5, 20.0, "20"])
    def test_non_integer_trials_refused(self, monkeypatch, trials):
        records = poisson_records(bell("psi+"), 2, 100, seed=1)
        self.forbid_draws(monkeypatch)
        with pytest.raises(ValueError, match=re.escape(f"trials={trials!r} ")):
            fidelity_with_error(records, bell("psi+"), trials=trials)

    def test_numpy_integers_accepted(self):
        records = poisson_records(bell("psi+"), 2, 100, seed=1)
        assert (fidelity_with_error(records, bell("psi+"), trials=np.int64(12), seed=np.uint64(4))
                == fidelity_with_error(records, bell("psi+"), trials=12, seed=4))
        assert (simulate_counts(bell("psi+"), "ZZ", 100, seed=np.int32(5)).counts
                == simulate_counts(bell("psi+"), "ZZ", 100, seed=5).counts)


def _redraw_oracle(records, trials, seed):
    """The per-trial loop: trial t draws every stochastic column with its own
    default_rng((seed, t)); a record whose draw totals zero keeps its counts.
    Returns the counts and how many (trial, record) pairs kept theirs."""
    observed = np.array([c for r in records for c in r.counts.values()], dtype=float)
    drawn = np.array([not r.exact for r in records for _ in r.counts])
    bounds = np.cumsum([0] + [len(r.counts) for r in records])
    rows, kept = [], 0
    for t in range(trials):
        row = observed.copy()
        row[drawn] = np.random.default_rng((seed, t)).poisson(observed[drawn])
        for start, stop in zip(bounds[:-1], bounds[1:]):
            if row[start:stop].sum() == 0:
                row[start:stop] = observed[start:stop]
                kept += 1
        rows.append(row)
    return np.array(rows), kept


class TestBootstrapDraws:
    """Trial t's draws are default_rng((seed, t))'s, computed without building it."""

    @pytest.mark.parametrize("seed", [0, 1, 2 ** 32 - 1, 2 ** 32, 2 ** 64 + 5, 2 ** 100 + 3])
    def test_states_equal_the_per_trial_generators(self, seed):
        trials = 2 ** 16 + 2
        wanted = {0, 1, 2 ** 16, trials - 1}
        states = {t: state for t, state in enumerate(tomography._trial_states(seed, trials))
                  if t in wanted}
        assert states == {t: np.random.default_rng((seed, t)).bit_generator.state for t in wanted}

    @pytest.mark.parametrize("seed", [0, 7, 2 ** 64 + 5])
    def test_redraw_equals_the_per_trial_loop(self, seed):
        plus = single_qubit(np.array([1, 1]) / math.sqrt(2), "a")
        records = (exact_counts(plus, "X", n=300.0),
                   CountsRecord("Z", {"0": 1, "1": 0}, 1.0, seed=None),  # often redraws to zero
                   simulate_counts(plus, "Y", 300, seed=4))
        expected, kept = _redraw_oracle(records, 200, seed)
        assert kept > 0
        assert tomography._redraw(records, 200, seed).tobytes() == expected.tobytes()

    def test_generators_built(self, monkeypatch):
        """The bootstrap builds no default_rng; simulate_counts one per setting."""
        records = poisson_records(bell("psi+"), 2, 1000, seed=2)
        built, default_rng = [], np.random.default_rng
        monkeypatch.setattr(np.random, "default_rng",
                            lambda *args: built.append(args) or default_rng(*args))
        fidelity_with_error(records, bell("psi+"), trials=500, seed=3)
        assert built == []
        simulate_counts(bell("psi+"), all_settings(2), 100, seed=3)
        assert built == [(3 + i,) for i in range(9)]


class TestTrustedEstimates:
    """An estimate enters the register unchecked, as _project_psd builds it. At
    low counts, where the projection clips, every estimate still passes the
    public MixedState checks, which store the same bytes."""

    @settings(derandomize=True, max_examples=20, deadline=None)
    @given(n=st.integers(1, 2), shots=st.integers(10, 40), seed=st.integers(0, 2 ** 16))
    def test_estimates_pass_the_public_checks(self, n, shots, seed):
        target = _random_state(np.random.default_rng(seed), n, pure=True)
        records = simulate_counts(target, all_settings(n), shots, seed=seed)
        estimates = [tomography_linear(records, target.labels)]
        with pytest.MonkeyPatch.context() as patch:  # the bootstrap's stack of members
            patch.setattr(tomography, "fidelity", lambda s1, s2: estimates.append(s1) or fidelity(s1, s2))
            fidelity_with_error(records, target, trials=20, seed=seed)
        assert len(estimates) == 2 and estimates[1].stack_shape == (20,)
        for estimate in estimates:
            checked = MixedState(estimate.layout, estimate.matrix)
            assert checked.matrix.tobytes() == estimate.matrix.tobytes()
        # a pure target at these counts drives some member past the PSD boundary
        assert (np.linalg.eigvalsh(estimates[1].matrix)[:, 0] < 1e-12).any()


def _one_qubit_records():
    rho = MixedState(RegisterLayout(("a",)), oracles.random_density(np.random.default_rng(3), 2))
    return [simulate_counts(rho, s, 200, seed=10 + i) for i, s in enumerate(all_settings(1))], rho


def _two_qubit_records():
    psi = PureState(RegisterLayout(("a", "b")), oracles.haar_ket(np.random.default_rng(4), 4))
    return poisson_records(psi, 2, 300, seed=6), psi


def _shuffled_outcomes():
    records, psi = _two_qubit_records()
    return [CountsRecord(r.setting, dict(reversed(list(r.counts.items()))), r.total_requested,
                         r.seed) for r in records], psi


def _missing_outcomes():
    records = poisson_records(bell("psi+"), 2, 300, seed=7)
    # ZZ never yields 00 or 11 on psi+; drop those keys rather than count them as 0
    records[8] = CountsRecord(records[8].setting, {"10": 140, "01": 155}, 300.0, seed=None)
    assert records[8].setting == "ZZ"
    return records, bell("psi+")


def _exact_and_stochastic():
    state = bell("phi-")
    return [exact_counts(state, s, n=300.0) if i % 2 else simulate_counts(state, s, 300, seed=i)
            for i, s in enumerate(all_settings(2))], state


def _small_counts():
    plus = single_qubit(np.array([1, 1]) / math.sqrt(2), "a")
    counts = ({"0": 1, "1": 0}, {"1": 1, "0": 1}, {"0": 0, "1": 2})
    return [CountsRecord(s, c, 2.0, seed=None) for s, c in zip(all_settings(1), counts)], plus


class TestBootstrapOracle:
    """The batched inversion and bootstrap against a per-trial oracle that
    redraws one outcome at a time."""

    CASES = {"one-qubit": _one_qubit_records, "two-qubit": _two_qubit_records,
             "shuffled-outcomes": _shuffled_outcomes, "missing-outcomes": _missing_outcomes,
             "exact-and-stochastic": _exact_and_stochastic, "small-counts": _small_counts}

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_matches_per_trial_oracle(self, case):
        records, target = self.CASES[case]()
        plain = [(r.setting, r.counts, r.exact) for r in records]
        dense = target.amplitudes if isinstance(target, PureState) else target.matrix
        rho = tomography_linear(records, labels=target.labels).matrix
        assert np.abs(rho - oracles.linear_inversion(plain)).max() <= 1e-12
        fid, unc = fidelity_with_error(records, target, trials=40, seed=3)
        mean, std, kept = oracles.bootstrap_fidelity(plain, dense, trials=40, seed=3)
        assert fid == pytest.approx(mean, abs=1e-12)
        assert unc == pytest.approx(std, abs=1e-12)
        assert unc > 0
        if case == "small-counts":
            assert kept > 0


class TestRecordContracts:
    """Each check on a record list raises its own message."""

    CASES = {
        "outcome-not-binary": (lambda: CountsRecord("Z", {"0": 3, "2": 1}, 4.0, None),
                               "bad outcome key '2'"),
        "outcome-length": (lambda: CountsRecord("Z", {"01": 1}, 1.0, None),
                           "bad outcome key '01'"),
        "no-records": (lambda: tomography_linear([]), "no records supplied"),
    }

    @pytest.mark.parametrize("case", list(CASES))
    def test_raises_with_message(self, case):
        build, message = self.CASES[case]
        with pytest.raises(ValueError, match=message):
            build()

    @pytest.mark.parametrize("case", ["no-records", "three-qubits", "missing-setting"])
    def test_inversion_errors_come_before_any_draw(self, monkeypatch, case):
        """No records, then more than two qubits, then missing settings; the
        bootstrap draws nothing before any of them."""
        records = {
            "no-records": [],
            # three qubits and missing settings: the qubit count is named
            "three-qubits": [simulate_counts(dicke(3, 1), "ZZZ", 100, seed=1)],
            "missing-setting": poisson_records(bell("psi+"), 2, 100, seed=1)[1:],
        }[case]

        def no_draw(*args):
            raise AssertionError("bootstrap drew before the inversion checks")
        monkeypatch.setattr(np.random, "default_rng", no_draw)
        expected = {"no-records": pytest.raises(ValueError, match="no records supplied"),
                    "three-qubits": pytest.raises(ValueError, match="1 or 2 qubits"),
                    "missing-setting": pytest.raises(MissingSettingError, match=r"\['XX'\]")}
        with expected[case]:
            fidelity_with_error(records, bell("psi+"), trials=10)


class TestReadOnlyCounts:
    """A record keeps its own read-only copy of the counts, so it is a value:
    what it holds does not change after it is built."""

    def test_item_assignment_raises(self):
        record = simulate_counts(bell("psi+"), "XY", 100, seed=1)
        with pytest.raises(TypeError):
            record.counts["01"] += 500
        with pytest.raises(TypeError):
            del record.counts["01"]

    def test_editing_the_callers_dict_leaves_the_record(self):
        records = poisson_records(bell("psi+"), 2, 2000, seed=5)
        given = dict(records[0].counts)
        records[0] = CountsRecord(records[0].setting, given, 2000.0, seed=None)
        before = fidelity(tomography_linear(records, ("a", "b")), bell("psi+"))
        given["01"] += 500
        assert records[0].counts["01"] == given["01"] - 500
        fresh = [CountsRecord(r.setting, r.counts, r.total_requested, r.seed) for r in records]
        assert fidelity(tomography_linear(records, ("a", "b")), bell("psi+")) == before
        assert fidelity(tomography_linear(fresh, ("a", "b")), bell("psi+")) == before

    def test_csv_and_json_unchanged(self, monkeypatch):
        """tomography-demo lays a record out sorted by outcome, whatever the caller's order."""
        records = [CountsRecord("".join(s), {"11": 7, "00": 93}, 100.0, seed=1)
                   for s in itertools.product("XYZ", repeat=2)]
        monkeypatch.setattr(cli, "_pauli_records", lambda *args: records)
        cfg = cli.parse_params("tomography-demo", {"trials": 10})
        data, header, rows, _ = cli.cmd_tomography_demo(cfg, cli.parse_args(["tomography-demo"]))
        assert header == ["setting", "outcome", "count"]
        assert rows[4:6] == [["X|Z", "00", "93"], ["X|Z", "11", "7"]]
        assert json.dumps(data["counts"][2]) == (
            '{"setting": "X|Z", "counts": {"00": 93, "11": 7}, "total_requested": 100.0, '
            '"seed": 1, "exact": false}')
        assert list(records[2].counts) == ["11", "00"]  # the caller's order, as before
