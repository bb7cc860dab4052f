"""Finite-statistics layer: Poisson coincidence counts, correlator and witness
estimation, and linear-inversion state tomography with a PSD projection.

Counts are drawn per outcome as Poisson(N * p), matching coincidence
counting; every stochastic record carries its seed. Exact records (counts
equal to N * p) represent the infinite-statistics limit and propagate zero
uncertainty.
"""
from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Sequence

import numpy as np

from .register import (
    HADAMARD,
    MixedState,
    PAULI_I,
    PureState,
    RegisterLayout,
    State,
    apply_gate,
    fidelity,
    pauli_matrix,
)
from .witnesses import Observable, WitnessReport

_AXIS_TOL = 1e-12


class MissingSettingError(LookupError):
    """Records do not cover a setting required by the estimator."""

    def __init__(self, message: str, missing: tuple[str, ...]):
        super().__init__(message)
        self.missing = missing


def _axis_letter(axis) -> str:
    """Normalize an axis spec to X/Y/Z; path-phase angles map onto the equator."""
    if isinstance(axis, str):
        return axis
    phi = float(axis)
    if abs(phi) < _AXIS_TOL:
        return "X"
    if abs(phi - math.pi / 2) < _AXIS_TOL:
        return "Y"
    return f"P({phi!r})"


def _axis_unitary(axis) -> np.ndarray:
    """Basis-change unitary whose rows are the measurement bras."""
    if isinstance(axis, str):
        if axis == "Z":
            return PAULI_I
        if axis == "X":
            return HADAMARD
        if axis == "Y":
            return np.array([[1, -1j], [1, 1j]]) / np.sqrt(2)
        raise ValueError(f"unknown measurement axis {axis!r}")
    phi = float(axis)
    return np.array([[1, np.exp(-1j * phi)], [1, -np.exp(-1j * phi)]]) / np.sqrt(2)


@dataclass(frozen=True)
class MeasurementSetting:
    """Per-qubit measurement bases: X, Y, Z, or a path-phase angle in radians."""

    axes: tuple

    def __post_init__(self):
        axes = tuple(self.axes)
        for axis in axes:
            _axis_unitary(axis)
        object.__setattr__(self, "axes", axes)

    @property
    def n(self) -> int:
        return len(self.axes)

    def letters(self) -> tuple[str, ...]:
        return tuple(_axis_letter(a) for a in self.axes)

    def key(self) -> str:
        return "|".join(self.letters())


@dataclass(frozen=True, eq=False)
class CountsRecord:
    """Simulated coincidence counts for one measurement setting."""

    setting: MeasurementSetting
    counts: dict
    total_requested: float
    seed: int | None
    exact: bool = False

    def __post_init__(self):
        for outcome, value in self.counts.items():
            if len(outcome) != self.setting.n or set(outcome) - {"0", "1"}:
                raise ValueError(f"bad outcome key {outcome!r}")
            if not (math.isfinite(value) and value >= 0):
                raise ValueError(
                    f"count {value!r} for outcome {outcome!r} is not finite and non-negative")
            if not self.exact and value != int(value):
                raise ValueError("stochastic counts must be integers")

    @property
    def total(self) -> float:
        return float(sum(self.counts.values()))

    def to_csv_rows(self) -> list[tuple[str, str, str]]:
        key = self.setting.key()
        return [(key, outcome, repr(self.counts[outcome])) for outcome in sorted(self.counts)]

    def to_json_dict(self) -> dict:
        return {
            "setting": self.setting.key(),
            "counts": {k: self.counts[k] for k in sorted(self.counts)},
            "total_requested": self.total_requested,
            "seed": self.seed,
            "exact": self.exact,
        }


def born_probabilities(state: State, setting: MeasurementSetting) -> np.ndarray:
    """Outcome probabilities of measuring every qubit in the setting's bases."""
    if setting.n != state.n:
        raise ValueError(f"setting covers {setting.n} qubits, state has {state.n}")
    rotated = state
    for label, axis in zip(state.labels, setting.axes):
        rotated = apply_gate(rotated, _axis_unitary(axis), (label,))
    if isinstance(rotated, PureState):
        probs = np.abs(rotated.amplitudes) ** 2
    else:
        probs = np.real(np.diag(rotated.matrix))
    probs = np.clip(probs, 0.0, None)
    return probs / probs.sum()


def _outcome_strings(n: int) -> list[str]:
    return [format(i, f"0{n}b") for i in range(2 ** n)]


def simulate_counts(state: State, setting: MeasurementSetting, n: int, seed: int) -> CountsRecord:
    """Poisson(N * p) draw per outcome; deterministic under the given seed."""
    if n < 1:
        raise ValueError("total_requested must be at least 1")
    probs = born_probabilities(state, setting)
    rng = np.random.default_rng(seed)
    draws = rng.poisson(n * probs)
    counts = {o: int(c) for o, c in zip(_outcome_strings(setting.n), draws)}
    return CountsRecord(setting=setting, counts=counts, total_requested=float(n), seed=seed)


def exact_counts(state: State, setting: MeasurementSetting, n: float = 1.0) -> CountsRecord:
    """Infinite-statistics record: counts equal N * p exactly."""
    probs = born_probabilities(state, setting)
    counts = {o: float(n * p) for o, p in zip(_outcome_strings(setting.n), probs)}
    return CountsRecord(setting=setting, counts=counts, total_requested=float(n),
                        seed=None, exact=True)


def _parity_table(records: Sequence[CountsRecord], strings: Sequence[str]) -> np.ndarray:
    """(columns x strings) parity weights; a column is one (record, outcome)
    pair in record and dict order. An entry is the outcome's parity (+1 or -1)
    over the string's non-identity positions, or 0 where the record's setting
    cannot estimate the string; identity positions marginalize, so XI pools
    XX, XY and XZ. The pooling weights are the absolute values.
    MissingSettingError names every string that no record with counts covers."""
    table = np.zeros((sum(len(r.counts) for r in records), len(strings)))
    for j, string in enumerate(strings):
        active = [i for i, p in enumerate(string) if p != "I"]
        start = 0
        for record in records:
            letters = record.setting.letters()
            if len(letters) == len(string) and all(p in ("I", l) for p, l in zip(string, letters)):
                table[start:start + len(record.counts), j] = [
                    -1.0 if sum(int(outcome[i]) for i in active) % 2 else 1.0
                    for outcome in record.counts]
            start += len(record.counts)
    covered = _column_counts(records) @ np.abs(table) > 0
    missing = tuple(s for s, ok in zip(strings, covered) if not ok)
    if missing:
        raise MissingSettingError(
            f"no record with counts covers Pauli strings {list(missing)}", missing)
    return table


def _column_counts(records: Sequence[CountsRecord]) -> np.ndarray:
    return np.array([count for r in records for count in r.counts.values()], dtype=float)


def _pooled(records: Sequence[CountsRecord], strings: Sequence[str]) -> tuple[np.ndarray, np.ndarray]:
    """estimate_correlator's values and uncertainties for several strings at once."""
    parity = _parity_table(records, strings)
    counts = _column_counts(records)
    totals = counts @ np.abs(parity)
    values = counts @ parity / totals
    stochastic = np.array([not r.exact for r in records for _ in r.counts], dtype=float)
    noise = np.sqrt(np.clip(1.0 - values ** 2, 0.0, None) / totals)
    return values, np.where(stochastic @ np.abs(parity) > 0, noise, 0.0)


def estimate_correlator(records: Iterable[CountsRecord], pauli_string: str) -> tuple[float, float]:
    """Estimate <P> for a Pauli string, pooling every compatible record.

    Identity positions marginalize, so a string like XI is estimated from all
    of XX, XY, XZ. Value is the parity-weighted count ratio over the pooled
    counts T; the uncertainty follows from Poisson fluctuations of the two
    parity classes, sqrt((1 - v^2)/T), and is 0 when only exact records cover
    the string. MissingSettingError names the string when no record with
    counts covers it.
    """
    values, uncertainties = _pooled(list(records), (pauli_string,))
    return float(values[0]), float(uncertainties[0])


def estimate_witness(records: Iterable[CountsRecord], observable: Observable) -> WitnessReport:
    """Witness expectation from local-setting records, errors in quadrature."""
    if observable.settings is None:
        raise ValueError("observable carries no settings decomposition")
    terms = [(c, s) for c, s in observable.settings if set(s) != {"I"}]
    values, uncertainties = _pooled(list(records), [s for _, s in terms])
    coeffs = np.array([c for c, _ in terms])
    return WitnessReport.build(
        witness=observable.name or "witness",
        value=sum(c for c, s in observable.settings if set(s) == {"I"}) + float(coeffs @ values),
        uncertainty=math.sqrt(float(((coeffs * uncertainties) ** 2).sum())),
        parameters={"n_settings": len({s for _, s in terms})},
    )


class _Inversion:
    """Linear inversion rho = 2^-k sum <P> P of one record list, built once and
    applied to any stack of count vectors over its columns (one (record,
    outcome) pair each, in record and dict order)."""

    def __init__(self, records: Iterable[CountsRecord]):
        records = list(records)
        if not records:
            raise ValueError("no records supplied")
        self.k = k = records[0].setting.n
        if k > 2:
            raise ValueError("linear inversion is provided for 1 or 2 qubits")
        # a string with an I pools these, so they name every missing setting
        _parity_table(records, ["".join(s) for s in itertools.product("XYZ", repeat=k)])
        self.records = records
        # the identity string comes first; its expectation is 1
        strings = ["".join(combo) for combo in itertools.product("IXYZ", repeat=k)]
        self.paulis = [pauli_matrix(s) for s in strings]
        self.parity = _parity_table(records, strings[1:])
        self.counts = _column_counts(records)
        self.owner = np.repeat(np.arange(len(records)), [len(r.counts) for r in records])
        self.exact = np.array([r.exact for r in records])[self.owner]

    def matrices(self, counts: np.ndarray) -> np.ndarray:
        """PSD reconstructions (trials x 2^k x 2^k), one per row of `counts`."""
        values = np.ones((len(counts), len(self.paulis)))
        # stochastic counts are integers, so these sums are exact in any order
        values[:, 1:] = (counts @ self.parity) / (counts @ np.abs(self.parity))
        dim = 2 ** self.k
        rho = np.zeros((len(counts), dim, dim), dtype=complex)
        for value, pauli in zip(values.T, self.paulis):
            rho += value[:, None, None] * pauli
        rho /= dim
        return _project_psd(rho)

    def redraw(self, trials: int, seed: int) -> np.ndarray:
        """(trials x columns) parametric bootstrap counts.

        Trial t redraws every stochastic column from Poisson(observed) with
        default_rng((seed, t)), in column order; exact columns stay, and a
        record whose redraw totals zero keeps its observed counts.
        """
        counts = np.tile(self.counts, (trials, 1))
        stochastic = ~self.exact
        for t in range(trials):
            counts[t, stochastic] = np.random.default_rng((seed, t)).poisson(
                self.counts[stochastic])
        totals = counts @ (self.owner[:, None] == np.arange(len(self.records)))
        keep = (totals == 0)[:, self.owner]
        counts[keep] = np.broadcast_to(self.counts, counts.shape)[keep]
        return counts


@lru_cache(maxsize=1)
def _inversion(records: tuple[CountsRecord, ...]) -> _Inversion:
    """_Inversion(records), kept for a bootstrap of the same record objects."""
    return _Inversion(records)


def tomography_linear(records: Iterable[CountsRecord],
                      labels: Sequence[str] | None = None) -> MixedState:
    """Linear-inversion reconstruction rho = 2^-k sum <P> P, then PSD clip.

    Requires records covering all 3^k Pauli settings for k <= 2 qubits, each
    with counts; MissingSettingError names the settings that are absent or
    have none. Negative eigenvalues from shot noise are clipped to zero and
    the trace renormalized.
    """
    inversion = _inversion(tuple(records))
    layout = RegisterLayout(tuple(labels) if labels is not None
                            else tuple(f"q{i}" for i in range(inversion.k)))
    return MixedState(layout, inversion.matrices(inversion.counts[None])[0])


def _project_psd(rho: np.ndarray) -> np.ndarray:
    """Clip negative eigenvalues and restore the trace, over a stack of matrices.

    Each clipped deficit is spread uniformly over the remaining (larger)
    eigenvalues, walking them in ascending order; this is the standard
    trace-restoring projection and loses less fidelity than a global
    rescale of the spectrum.
    """
    rho = (rho + rho.conj().swapaxes(-1, -2)) / 2
    lam, vecs = np.linalg.eigh(rho)
    dim = lam.shape[-1]
    for i in range(dim):
        neg = lam[:, i] < 0
        if i + 1 < dim:
            lam[neg, i + 1:] += lam[neg, i, None] / (dim - i - 1)
        lam[neg, i] = 0.0
    lam = np.clip(lam, 0.0, None)
    total = lam.sum(axis=-1, keepdims=True)
    if np.any(total <= 0):
        raise ValueError("reconstruction collapsed to the zero matrix")
    lam /= total
    return (vecs * lam[:, None, :]) @ vecs.conj().swapaxes(-1, -2)


def fidelity_with_error(records: Iterable[CountsRecord], target: State,
                        trials: int = 100, seed: int = 0) -> tuple[float, float]:
    """Reconstruction fidelity against a target with a parametric bootstrap.

    Each trial redraws every outcome count from Poisson centered on the
    observed value and repeats the inversion; exact records bootstrap to a
    zero-width uncertainty. Trial seeds derive from (seed, trial index).
    """
    if trials < 10:
        raise ValueError("need at least 10 bootstrap trials")
    inversion = _inversion(tuple(records))
    layout = RegisterLayout(target.labels)
    if inversion.exact.all():
        return fidelity(MixedState(layout, inversion.matrices(inversion.counts[None])[0]), target), 0.0
    # every trial's rho is one member of a stack: one checked MixedState, one fidelity call
    values = fidelity(MixedState(layout, inversion.matrices(inversion.redraw(trials, seed))), target)
    return float(np.mean(values)), float(np.std(values))


def records_to_csv(records: Iterable[CountsRecord]) -> str:
    lines = ["setting,outcome,count"]
    for record in records:
        for setting, outcome, count in record.to_csv_rows():
            lines.append(f"{setting},{outcome},{count}")
    return "\n".join(lines) + "\n"


def records_to_json(records: Iterable[CountsRecord]) -> str:
    return json.dumps([r.to_json_dict() for r in records], indent=2, sort_keys=True)
