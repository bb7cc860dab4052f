"""Finite-statistics layer: Poisson coincidence counts, correlator and witness
estimation, and linear-inversion state tomography with a PSD projection.

Counts are drawn per outcome as Poisson(N * p), matching coincidence
counting; every stochastic record carries its seed. Exact records (counts
equal to N * p) represent the infinite-statistics limit and propagate zero
uncertainty. A measurement setting is its Pauli string, one X, Y or Z per
qubit such as "XZ" (James, Kwiat, Munro & White, PRA 64, 052312 (2001)).
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from types import MappingProxyType
from typing import Iterable, Iterator, Mapping, Sequence

import numpy as np

from .register import (
    AXIS_BASES,
    MixedState,
    PureState,
    RegisterLayout,
    State,
    apply_gate,
    check_integer,
    check_number,
    fidelity,
    pauli_matrix,
)
from .witnesses import Observable, WitnessReport

# the fewest bootstrap trials fidelity_with_error takes
MIN_TRIALS = 10
# the most shots per setting: below numpy's Poisson limit (~9.2e18), and three
# records pooled for one Pauli string still sum below 2^53, exact in any order
MAX_SHOTS = 10 ** 15


class MissingSettingError(LookupError):
    """Records do not cover a setting required by the estimator."""

    def __init__(self, message: str, missing: tuple[str, ...]):
        super().__init__(message)
        self.missing = missing


def _check_setting(setting: str) -> str:
    """A measurement setting is its Pauli string: one axis letter of AXIS_BASES per qubit."""
    if not (isinstance(setting, str) and setting and set(setting) <= set(AXIS_BASES)):
        raise ValueError(f"measurement setting {setting!r} is not one of X, Y, Z per qubit")
    return setting


@dataclass(frozen=True, eq=False)
class CountsRecord:
    """Simulated coincidence counts for one measurement setting. `counts` is kept
    as a read-only copy, so a record is a value: neither an edit of the caller's
    dict nor one through the record can change what it holds."""

    setting: str
    counts: Mapping[str, float]
    total_requested: float
    seed: int | None
    exact: bool = False

    def __post_init__(self):
        _check_setting(self.setting)
        object.__setattr__(self, "counts", MappingProxyType(dict(self.counts)))
        for outcome, value in self.counts.items():
            if len(outcome) != len(self.setting) or set(outcome) - {"0", "1"}:
                raise ValueError(f"bad outcome key {outcome!r}")
            check_number(f"counts[{outcome!r}]", value, 0.0)
            if not self.exact and value != int(value):
                raise ValueError("stochastic counts must be integers")

    @property
    def total(self) -> float:
        return float(sum(self.counts.values()))


def _settings(settings: str | Iterable[str]) -> tuple[str, ...]:
    """One setting, or a sequence of them, as a non-empty tuple of checked settings."""
    table = (settings,) if isinstance(settings, str) else tuple(settings)
    if not table:
        raise ValueError("no measurement settings supplied")
    return tuple(map(_check_setting, table))


def born_probabilities(state: State, settings: str | Iterable[str]) -> np.ndarray:
    """Outcome probabilities of measuring every qubit in the setting's bases. A
    sequence of M settings is one stack, each qubit turned by one (M, 2, 2) stack
    of AXIS_BASES unitaries; row i of the (M, 2^n) result is setting i's alone, bit for bit."""
    if state.stack_shape:
        raise ValueError(f"tomography measures a single state, not a stack of shape {state.stack_shape}")
    table = _settings(settings)
    for setting in table:
        if len(setting) != state.n:
            raise ValueError(f"setting covers {len(setting)} qubits, state has {state.n}")
    rotated = state
    for q, label in enumerate(state.labels):
        rotated = apply_gate(rotated, np.array([AXIS_BASES[s[q]] for s in table]), label)
    if isinstance(rotated, PureState):
        probs = np.abs(rotated.amplitudes) ** 2
    else:
        probs = np.real(np.diagonal(rotated.matrix, axis1=-2, axis2=-1))
    probs = np.clip(probs, 0.0, None)
    probs = probs / probs.sum(axis=-1, keepdims=True)
    return probs[0] if isinstance(settings, str) else probs


def _outcome_strings(n: int) -> list[str]:
    return [format(i, f"0{n}b") for i in range(2 ** n)]


def simulate_counts(state: State, settings: str | Iterable[str], n: int,
                    seed: int) -> CountsRecord | list[CountsRecord]:
    """Poisson(n * p) draw per outcome for n in [1, MAX_SHOTS]; deterministic under the
    given seed. A sequence of settings gives a list, record i drawn from its Born row
    with default_rng(seed + i)."""
    seed = check_integer("seed", seed, 0)
    check_number("n", n, 1.0, MAX_SHOTS)
    table = _settings(settings)
    records = []
    for i, (setting, probs) in enumerate(zip(table, born_probabilities(state, table))):
        draws = np.random.default_rng(seed + i).poisson(n * probs)
        counts = {o: int(c) for o, c in zip(_outcome_strings(len(setting)), draws)}
        records.append(CountsRecord(setting=setting, counts=counts, total_requested=float(n), seed=seed + i))
    return records[0] if isinstance(settings, str) else records


def exact_counts(state: State, setting: str, n: float = 1.0) -> CountsRecord:
    """Infinite-statistics record: counts equal N * p exactly."""
    check_number("n", n, 0.0)
    probs = born_probabilities(state, _check_setting(setting))
    counts = {o: float(n * p) for o, p in zip(_outcome_strings(len(setting)), probs)}
    return CountsRecord(setting=setting, counts=counts, total_requested=float(n),
                        seed=None, exact=True)


def _columns(records: Sequence[CountsRecord]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """One column per (record, outcome) pair in record and dict order: its count,
    its record's index, and whether it was drawn (the record is not exact)."""
    counts = np.array([count for r in records for count in r.counts.values()], dtype=float)
    owner = np.repeat(np.arange(len(records)), [len(r.counts) for r in records])
    return counts, owner, ~np.array([r.exact for r in records], dtype=bool)[owner]


def _parity_table(records: Sequence[CountsRecord], strings: Sequence[str]) -> np.ndarray:
    """(columns x strings) parity weights over _columns' columns: the parity
    (+1 or -1) of the outcome bits under the string's non-identity mask, or 0
    where the record's setting cannot estimate the string. Identity positions
    marginalize, so XI pools XX, XY and XZ; the pooling weights are the absolute
    values. Bits and masks share one width, so records of several sizes mix.
    MissingSettingError names every string that no record with counts covers."""
    counts, owner, _ = _columns(records)
    outcomes = [outcome for r in records for outcome in r.counts]
    width = max(map(len, [*outcomes, *strings]), default=0)
    bits = np.array([[b == "1" for b in o.ljust(width, "0")] for o in outcomes], dtype=int)
    mask = np.array([[p != "I" for p in s.ljust(width, "I")] for s in strings], dtype=int)
    fits = np.array([[len(s) == len(r.setting) and all(p in ("I", l) for p, l in zip(s, r.setting))
                      for s in strings] for r in records], dtype=bool)
    parity = bits.reshape(len(outcomes), width) @ mask.reshape(len(strings), width).T % 2
    table = np.where(fits.reshape(len(records), len(strings))[owner], 1.0 - 2.0 * parity, 0.0)
    missing = tuple(s for s, ok in zip(strings, counts @ np.abs(table) > 0) if not ok)
    if missing:
        raise MissingSettingError(
            f"no record with counts covers Pauli strings {list(missing)}", missing)
    return table


def _estimate(counts: np.ndarray, parity: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(values, pooled totals) of the parity table's strings: counts @ parity over
    counts @ |parity|, for a count vector or a stack of them. A value that is not
    finite (pooled counts overflowing a float) is refused."""
    # stochastic counts are integers, so these sums are exact in any order
    totals = counts @ np.abs(parity)
    values = counts @ parity / totals
    if not np.isfinite(values).all():
        raise ValueError("pooled counts overflow: a Pauli estimate is not finite")
    return values, totals


def _pooled(records: Sequence[CountsRecord], strings: Sequence[str]) -> tuple[np.ndarray, np.ndarray]:
    """estimate_correlator's values and uncertainties for several strings at once."""
    counts, _, drawn = _columns(records)
    parity = _parity_table(records, strings)
    values, totals = _estimate(counts, parity)
    noise = np.sqrt(np.clip(1.0 - values ** 2, 0.0, None) / totals)
    return values, np.where(drawn @ np.abs(parity) > 0, noise, 0.0)


def estimate_correlator(records: Iterable[CountsRecord], pauli_string: str) -> tuple[float, float]:
    """Estimate <P> for a Pauli string, pooling every compatible record.

    Identity positions marginalize, so a string like XI is estimated from all
    of XX, XY, XZ. Value is the parity-weighted count ratio over the pooled
    counts T; the uncertainty follows from Poisson fluctuations of the two
    parity classes, sqrt((1 - v^2)/T), and is 0 when only exact records cover
    the string. MissingSettingError names the string when no record with
    counts covers it; pooled counts that overflow a float raise ValueError.
    """
    values, uncertainties = _pooled(list(records), (pauli_string,))
    return float(values[0]), float(uncertainties[0])


def estimate_witness(records: Iterable[CountsRecord], observable: Observable) -> WitnessReport:
    """Witness expectation from local-setting records, errors in quadrature."""
    records = list(records)
    if not records:
        raise ValueError("no records supplied")
    terms = [(c, s) for c, s in observable.settings if set(s) != {"I"}]
    values, uncertainties = _pooled(records, [s for _, s in terms])
    coeffs = np.array([c for c, _ in terms])
    return WitnessReport.build(
        witness=observable.name or "witness",
        value=sum(c for c, s in observable.settings if set(s) == {"I"}) + float(coeffs @ values),
        uncertainty=math.sqrt(float(((coeffs * uncertainties) ** 2).sum())),
        parameters={"n_settings": len({s for _, s in terms})},
    )


def _inversion_parity(records: tuple[CountsRecord, ...]) -> tuple[int, np.ndarray]:
    """(k, parity table) of the linear inversion of k <= 2 qubits, one table
    column per non-identity Pauli string in product("IXYZ") order. Raises when
    there are no records, then when k > 2, then naming every missing setting."""
    if not records:
        raise ValueError("no records supplied")
    k = len(records[0].setting)
    if k > 2:
        raise ValueError("linear inversion is provided for 1 or 2 qubits")
    # a string with an I pools these, so they name every missing setting
    _parity_table(records, ["".join(s) for s in itertools.product("XYZ", repeat=k)])
    return k, _parity_table(records, ["".join(s) for s in itertools.product("IXYZ", repeat=k)][1:])


def _invert(k: int, parity: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """PSD reconstructions rho = 2^-k sum <P> P (trials x 2^k x 2^k), one per
    row of `counts`, a stack of count vectors over the parity table's columns."""
    # the identity string comes first; its expectation is 1
    values = np.ones((len(counts), 4 ** k))
    values[:, 1:] = _estimate(counts, parity)[0]
    rho = np.zeros((len(counts), 2 ** k, 2 ** k), dtype=complex)
    for value, string in zip(values.T, itertools.product("IXYZ", repeat=k)):
        rho += value[:, None, None] * pauli_matrix("".join(string))
    rho /= 2 ** k
    return _project_psd(rho)


# numpy's SeedSequence hash constants (numpy/random/bit_generator.pyx) and the
# PCG64 multiplier of its setseq step (numpy/random/src/pcg64/pcg64.h); NEP 19
# keeps both fixed across numpy versions.
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_PCG64_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_MASK32, _MASK128 = (1 << 32) - 1, (1 << 128) - 1


def _trial_states(seed: int, trials: int) -> Iterator[dict]:
    """default_rng((seed, t)).bit_generator.state for t in range(trials), in order.

    SeedSequence((seed, t))'s pool mix and generate_state(4, uint64) run once
    over all trials on (trials,) uint32 arrays, the entropy being seed's 32-bit
    words, low first, then t's one word; each trial's 128-bit PCG64 seeding
    (pcg64_set_seed: inc = 2 * seq + 1, state = (inc + init) * mult + inc)
    runs as it is read, so no per-trial list is held.
    """
    entropy = [np.full(trials, seed >> shift & _MASK32, dtype=np.uint32)
               for shift in range(0, max(seed.bit_length(), 1), 32)]
    entropy.append(np.arange(trials, dtype=np.uint32))

    def hasher(const, mult):
        def hash_(value):
            nonlocal const
            value = value ^ const
            const = const * mult & _MASK32
            value = value * const
            return value ^ value >> 16
        return hash_

    def mix(x, y):
        result = _MIX_MULT_L * x - _MIX_MULT_R * y
        return result ^ result >> 16

    hashmix = hasher(_INIT_A, _MULT_A)
    pool = [hashmix(entropy[i] if i < len(entropy) else np.zeros(trials, np.uint32)) for i in range(4)]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in entropy[4:]:
        for dst in range(4):
            pool[dst] = mix(pool[dst], hashmix(word))
    # generate_state hashes the pool's words in turn, 8 of them, and pairs them
    # little-endian into the uint64 words init_hi, init_lo, seq_hi, seq_lo
    out = hasher(_INIT_B, _MULT_B)
    halves = [out(pool[i]).astype(np.uint64) | out(pool[i + 1]).astype(np.uint64) << 32 for i in (0, 2, 0, 2)]
    for init_hi, init_lo, seq_hi, seq_lo in zip(*halves):
        inc = ((int(seq_hi) << 64 | int(seq_lo)) << 1 | 1) & _MASK128
        state = ((inc + (int(init_hi) << 64 | int(init_lo))) * _PCG64_MULT + inc) & _MASK128
        yield {"bit_generator": "PCG64", "state": {"state": state, "inc": inc},
               "has_uint32": 0, "uinteger": 0}


def _redraw(records: tuple[CountsRecord, ...], trials: int, seed: int) -> np.ndarray:
    """(trials x columns) parametric bootstrap counts.

    Trial t redraws every stochastic column from Poisson(observed) with
    default_rng((seed, t))'s stream, in column order; one generator is reset
    to each trial's state in turn. Exact columns stay, and a record whose
    redraw totals zero keeps its observed counts.
    """
    observed, owner, drawn = _columns(records)
    counts = np.tile(observed, (trials, 1))
    bits = np.random.PCG64()
    gen, lam = np.random.Generator(bits), observed[drawn]
    for t, state in enumerate(_trial_states(seed, trials)):
        bits.state = state
        counts[t, drawn] = gen.poisson(lam)
    totals = counts @ (owner[:, None] == np.arange(len(records)))
    keep = (totals == 0)[:, owner]
    counts[keep] = np.broadcast_to(observed, counts.shape)[keep]
    return counts


def tomography_linear(records: Iterable[CountsRecord],
                      labels: Sequence[str] | None = None) -> MixedState:
    """Linear-inversion reconstruction rho = 2^-k sum <P> P, then PSD clip.

    Requires records covering all 3^k Pauli settings for k <= 2 qubits, each
    with counts; MissingSettingError names the settings that are absent or
    have none. Negative eigenvalues from shot noise are clipped to zero and
    the trace renormalized.
    """
    records = tuple(records)
    k, parity = _inversion_parity(records)
    labels = tuple(labels) if labels is not None else tuple(f"q{i}" for i in range(k))
    if len(labels) != k:
        raise ValueError(f"{len(labels)} labels given for a {k}-qubit reconstruction")
    return MixedState._trusted(RegisterLayout(labels), _invert(k, parity, _columns(records)[0][None])[0])


def _project_psd(rho: np.ndarray) -> np.ndarray:
    """Clip negative eigenvalues and restore the trace, over a stack of matrices.

    Each clipped deficit is spread uniformly over the remaining (larger)
    eigenvalues in ascending order, which loses less fidelity than a global
    rescale (Smolin, Gambetta & Smith, PRL 108, 070502 (2012)). The result is
    PSD with unit trace by construction, so it enters the register unchecked.
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
    lam /= lam.sum(axis=-1, keepdims=True)
    return (vecs * lam[:, None, :]) @ vecs.conj().swapaxes(-1, -2)


def fidelity_with_error(records: Iterable[CountsRecord], target: State,
                        trials: int, seed: int = 0) -> tuple[float, float]:
    """Reconstruction fidelity against a target with a parametric bootstrap.

    Each trial redraws every outcome count from Poisson centered on the
    observed value and repeats the inversion; exact records bootstrap to a
    zero-width uncertainty. Trial seeds derive from (seed, trial index).
    """
    trials = check_integer("trials", trials, MIN_TRIALS)
    seed = check_integer("seed", seed, 0)
    if target.stack_shape:
        raise ValueError(f"target must be a single state, not a stack of shape {target.stack_shape}")
    records = tuple(records)
    k, parity = _inversion_parity(records)  # every inversion error comes before any draw
    if target.n != k:
        raise ValueError(f"target has {target.n} qubits, the records {k}")
    exact = all(r.exact for r in records)
    counts = _columns(records)[0][None] if exact else _redraw(records, trials, seed)
    # every trial's rho is one member of a stack, valid as _project_psd builds it: one fidelity call
    values = fidelity(MixedState._trusted(RegisterLayout(target.labels), _invert(k, parity, counts)), target)
    return float(np.mean(values)), float(np.std(values))
