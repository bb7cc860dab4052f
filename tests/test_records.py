"""The library's frozen records: register.Record and the fourteen classes built on it.

They were frozen dataclasses. Each now writes its __init__ in the source, and
must keep what the dataclass form gave: the constructor's signature, refusal
of assignment and deletion, equality and hashing by fields (or by identity,
for the eq=False classes), a repr of the fields in order, and the
cached_property attributes some of them carry.
"""
from __future__ import annotations

import inspect
import os
import subprocess
import sys
from dataclasses import FrozenInstanceError
from pathlib import Path

import numpy as np
import pytest

from dickesim.circuits import Circuit, ConversionSearch, GateSpec
from dickesim.cli import Invocation
from dickesim.register import MixedState, PureState, Record, RegisterLayout, _State, pauli_matrix
from dickesim.states import ClientParams
from dickesim.tomography import CountsRecord
from dickesim.witnesses import BisepBoundResult, CollectiveSpinSet, Observable, WitnessReport

ROOT = Path(__file__).resolve().parents[1]

# class -> its constructor's parameters as the dataclass form printed them (whose
# generated __init__ also carried the return annotation `-> None`)
SIGNATURES = {
    RegisterLayout: "(labels: 'tuple[str, ...]')",
    _State: "(layout: 'RegisterLayout')",
    PureState: "(layout: 'RegisterLayout', amplitudes: 'np.ndarray')",
    MixedState: "(layout: 'RegisterLayout', matrix: 'np.ndarray')",
    ClientParams: "(theta: 'float', phi: 'float' = 0.0, dephase_lambda: 'float' = 0.0)",
    GateSpec: "(kind: 'str', target: 'str', control: 'str | None' = None, phi: 'float | None' = None)",
    Circuit: "(steps: 'tuple[GateSpec, ...]' = ())",
    ConversionSearch: "(found: 'bool', circuit: 'Circuit | None', fidelity: 'float', "
                      "best_fidelity: 'float', best_circuit: 'Circuit', states_explored: 'int')",
    Observable: "(matrix: 'np.ndarray', name: 'str' = '')",
    CollectiveSpinSet: "(n: 'int', jx: 'np.ndarray', jy: 'np.ndarray', jz: 'np.ndarray', "
                       "jx2: 'np.ndarray', jy2: 'np.ndarray', jz2: 'np.ndarray')",
    BisepBoundResult: "(gamma: 'float', value: 'float', scanned: 'tuple[tuple[str, float | None], ...]')",
    WitnessReport: "(witness: 'str', parameters: 'dict', value: 'float', uncertainty: 'float', verdict: 'str')",
    CountsRecord: "(setting: 'str', counts: 'Mapping[str, float]', total_requested: 'float', "
                  "seed: 'int | None', exact: 'bool' = False)",
    Invocation: "(command: 'str', config: 'Path | None' = None, seed: 'int' = 0, out: 'Path | None' = None, "
                "format: 'str | None' = None, fixtures_dir: 'Path | None' = None)",
}

# class -> a function that builds one instance, and that instance's repr as the
# dataclass form printed it (None where it holds numpy arrays)
INSTANCES = {
    RegisterLayout: (lambda: RegisterLayout("ab"), "RegisterLayout(labels=('a', 'b'))"),
    _State: (lambda: _State(RegisterLayout("a")), "_State(layout=RegisterLayout(labels=('a',)))"),
    PureState: (lambda: PureState(RegisterLayout("a"), [1, 0]), None),
    MixedState: (lambda: MixedState(RegisterLayout("a"), np.diag([1.0, 0.0])), None),
    ClientParams: (lambda: ClientParams(1.0, dephase_lambda=0.5),
                   "ClientParams(theta=1.0, phi=0.0, dephase_lambda=0.5)"),
    GateSpec: (lambda: GateSpec("CX", "a", control="c"), "GateSpec(kind='CX', target='a', control='c', phi=None)"),
    Circuit: (lambda: Circuit((GateSpec("PHASE", "c", phi=1.5),)),
              "Circuit(steps=(GateSpec(kind='PHASE', target='c', control=None, phi=1.5),))"),
    ConversionSearch: (lambda: ConversionSearch(False, None, 0.0, 0.5, Circuit(), 3),
                       "ConversionSearch(found=False, circuit=None, fidelity=0.0, best_fidelity=0.5, "
                       "best_circuit=Circuit(steps=()), states_explored=3)"),
    Observable: (lambda: Observable(np.eye(2), "one"), None),
    CollectiveSpinSet: (lambda: CollectiveSpinSet(1, *(np.eye(2),) * 6), None),
    BisepBoundResult: (lambda: BisepBoundResult(-1.0, 4.0, (("0|123", 4.0), ("01|23", None))),
                       "BisepBoundResult(gamma=-1.0, value=4.0, scanned=(('0|123', 4.0), ('01|23', None)))"),
    WitnessReport: (lambda: WitnessReport.build("w", 0.5, 0.1, {"gamma": -1.0}),
                    "WitnessReport(witness='w', parameters={'gamma': -1.0}, value=0.5, uncertainty=0.1, "
                    "verdict='inconclusive')"),
    CountsRecord: (lambda: CountsRecord("Z", {"0": 1, "1": 2}, 3.0, 7),
                   "CountsRecord(setting='Z', counts=mappingproxy({'0': 1, '1': 2}), total_requested=3.0, "
                   "seed=7, exact=False)"),
    Invocation: (lambda: Invocation("witness-scan", seed=3, out=Path("r.csv")),
                 "Invocation(command='witness-scan', config=None, seed=3, out=PosixPath('r.csv'), format=None, "
                 "fixtures_dir=None)"),
}
# the classes the dataclass form declared with eq=False
BY_IDENTITY = {_State, PureState, MixedState, Observable, CollectiveSpinSet, CountsRecord}
CLASSES = list(SIGNATURES)
IDS = [cls.__name__ for cls in CLASSES]


def test_the_tables_cover_the_same_records():
    assert set(INSTANCES) == set(SIGNATURES) and len(CLASSES) == 14
    assert all(issubclass(cls, Record) for cls in CLASSES)


@pytest.mark.parametrize("cls", CLASSES, ids=IDS)
def test_signature(cls):
    assert str(inspect.signature(cls)) == SIGNATURES[cls]
    assert cls.FIELDS == tuple(inspect.signature(cls).parameters)


@pytest.mark.parametrize("cls", CLASSES, ids=IDS)
def test_assignment_and_deletion_are_refused(cls):
    record = INSTANCES[cls][0]()
    for name in (*cls.FIELDS, "other"):
        before = vars(record).get(name)
        with pytest.raises(FrozenInstanceError, match=repr(name)):
            setattr(record, name, 1)
        with pytest.raises(FrozenInstanceError, match=repr(name)):
            delattr(record, name)
        assert vars(record).get(name) is before


@pytest.mark.parametrize("cls", CLASSES, ids=IDS)
def test_equality_and_hash(cls):
    make = INSTANCES[cls][0]
    a, b = make(), make()
    assert a == a and not a != a
    assert a != object() and a != (*(getattr(a, f) for f in cls.FIELDS),)
    if cls in BY_IDENTITY:
        assert a != b and hash(a) == object.__hash__(a)
    elif cls is WitnessReport:  # its parameters are a dict, as the dataclass form's were
        assert a == b
        with pytest.raises(TypeError, match="dict"):
            hash(a)
    else:
        assert a == b and hash(a) == hash(b) == hash(tuple(getattr(a, f) for f in cls.FIELDS))


def test_equality_reads_every_field():
    assert RegisterLayout("ab") != RegisterLayout("ba")
    assert GateSpec("H", "a") != GateSpec("H", "b")
    assert ClientParams(1.0) != ClientParams(1.0, phi=0.5)
    assert Invocation("qtc-sweep") != Invocation("qtc-sweep", seed=1)
    # an instance of a subclass is not equal to one of its base with the same fields
    assert type("Layout", (RegisterLayout,), {})("ab") != RegisterLayout("ab")


@pytest.mark.parametrize("cls", CLASSES, ids=IDS)
def test_repr_lists_the_fields_in_order(cls):
    make, expected = INSTANCES[cls]
    text = repr(make())
    if expected is not None:
        assert text == expected
    assert text.startswith(f"{cls.__qualname__}(") and text.endswith(")")
    starts = [text.index(f"{name}=") for name in cls.FIELDS]
    assert starts == sorted(starts)


def test_cached_properties_are_computed_once_and_kept():
    result = BisepBoundResult(-1.0, 4.0, (("0|123", 4.0), ("01|23", 3.5)))
    assert "per_bipartition" not in vars(result)
    assert result.per_bipartition == (("0|123", 4.0), ("01|23", 3.5))
    assert vars(result)["per_bipartition"] is result.per_bipartition
    assert result == BisepBoundResult(-1.0, 4.0, (("0|123", 4.0), ("01|23", 3.5)))
    observable = Observable(pauli_matrix("XZ"))
    assert observable.settings == ((1.0, "XZ"),)
    assert vars(observable)["settings"] is observable.settings
    state = MixedState(RegisterLayout("a"), np.diag([0.25, 0.75]))
    assert np.allclose(state.root, np.diag([0.5, np.sqrt(0.75)])) and state.root is state.root


def test_trusted_states_carry_every_field():
    state = PureState(RegisterLayout("a"), [1, 0]).density()
    assert type(state) is MixedState and set(vars(state)) == set(MixedState.FIELDS)
    assert not state.matrix.flags.writeable


def _child(code: str) -> list[str]:
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True,
                          env={**os.environ, "PYTHONPATH": str(ROOT / "src")})
    return proc.stdout.split()


def test_importing_the_cli_generates_three_dataclasses():
    # a fresh interpreter: only the protocol results, which tests take apart with
    # dataclasses.replace and fields, are dataclasses
    classes = _child("""
import dataclasses
built = []
process = dataclasses._process_class
dataclasses._process_class = lambda cls, *a, **k: built.append(cls) or process(cls, *a, **k)
import dickesim.cli
print(*(f"{cls.__module__}.{cls.__qualname__}" for cls in built))
""")
    assert classes == ["dickesim.protocols.BranchOutcome", "dickesim.protocols.QtcResult",
                       "dickesim.protocols.OdtResult"]
