"""The benchmark's four workloads: fixed operation lists drawn from a seed.

An operation is one `dickesim` CLI invocation: a command, a config written
to a file, and a `--seed`. The program sees nothing else of the seed.
Each operation carries a class name; the classes are what the self-check
uses to show where the median operation time falls.
"""
from __future__ import annotations

import math
import random
from dataclasses import dataclass, field

# ROADMAP's 10-point witness-scan grid over [-3, 0], plus the paper's gammas.
GAMMA_GRID = tuple(-3.0 + 3.0 * k / 9 for k in range(10))
PAPER_GAMMAS = (-0.12, -2.5)
# Random gammas are drawn on a 0.01 grid so each one has a recorded reference
# b4 value (reference.json). The fast pool keeps the median operation inside
# the fast solver regime; the slow pool stays clear of the cap at -3.
FAST_GAMMA_POOL = tuple(-k / 100 for k in range(1, 100))
SLOW_GAMMA_POOL = tuple(-k / 100 for k in range(180, 291))


@dataclass(frozen=True)
class Operation:
    cls: str
    command: str
    config: dict = field(default_factory=dict)
    seed: int = 0


@dataclass(frozen=True)
class Workload:
    name: str
    operations: tuple[Operation, ...]


def gamma_class(gamma: float) -> str:
    if gamma <= -3.0:
        return "witness-scan/cap"
    return "witness-scan/fast" if gamma >= -1.7 else "witness-scan/slow"


def _cli_seed(rng: random.Random) -> int:
    return rng.randrange(1, 2 ** 31)


def _witness(rng: random.Random) -> Workload:
    gammas = list(GAMMA_GRID) + list(PAPER_GAMMAS)
    gammas += [rng.choice(FAST_GAMMA_POOL), rng.choice(SLOW_GAMMA_POOL)]
    ops = [Operation(gamma_class(g), "witness-scan",
                     {"gammas": [g], "source": "measured"}, _cli_seed(rng)) for g in gammas]
    ops.append(Operation("resource-check", "resource-check",
                         {"werner_p": rng.uniform(0.8, 1.0)}, _cli_seed(rng)))
    return Workload("witness", tuple(ops))


def _noisy_sweep(rng: random.Random) -> dict:
    return {
        "theta_points": 101,
        "theta_min": 0.0,
        "theta_max": math.pi,
        "p": rng.uniform(0.8, 0.99),
        "dephase_lambda": rng.uniform(0.01, 0.1),
        "p_uncertainty": rng.uniform(0.01, 0.05),
        "phi": rng.uniform(0.0, 2 * math.pi),
        "port": rng.choice("abcd"),
    }


def _qtc_noisy(rng: random.Random) -> Workload:
    ops = [Operation("qtc-sweep/mixed", "qtc-sweep", _noisy_sweep(rng), _cli_seed(rng))
           for _ in range(6)]
    ops += [Operation("odt-table/bootstrap", "odt-table",
                      {"werner_p": rng.uniform(0.8, 0.99),
                       "dephase_lambda": rng.uniform(0.01, 0.1),
                       "n_per_setting": 2000, "trials": 50}, _cli_seed(rng))
            for _ in range(3)]
    return Workload("qtc-noisy", tuple(ops))


def _tomography(rng: random.Random) -> Workload:
    states = ["bell-psi+"] * 5 + ["clone-mix", "plus"]
    ops = [Operation(f"tomography-demo/{s}", "tomography-demo",
                     {"state": s, "n_per_setting": 10000, "trials": 500}, _cli_seed(rng))
           for s in states]
    return Workload("tomography-bootstrap", tuple(ops))


def _ideal(rng: random.Random) -> Workload:
    ops = [Operation("qtc-sweep/pure", "qtc-sweep",
                     {"theta_points": 251, "phi": rng.uniform(0.0, 2 * math.pi),
                      "port": rng.choice("abcd")}, _cli_seed(rng))
           for _ in range(5)]
    ops.append(Operation("odt-table/default", "odt-table", {}, _cli_seed(rng)))
    return Workload("ideal-protocols", tuple(ops))


WORKLOADS = {
    "witness": _witness,
    "qtc-noisy": _qtc_noisy,
    "tomography-bootstrap": _tomography,
    "ideal-protocols": _ideal,
}


def build(name: str, seed: int) -> Workload:
    """The operation list of workload `name` for benchmark seed `seed`."""
    return WORKLOADS[name](random.Random(f"{name}:{seed}"))


def reference_gammas() -> tuple[float, ...]:
    """Every gamma a witness operation can ask for."""
    return tuple(sorted(set(GAMMA_GRID + PAPER_GAMMAS + FAST_GAMMA_POOL + SLOW_GAMMA_POOL)))
