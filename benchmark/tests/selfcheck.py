"""Self-check of the benchmark itself. Not part of the package's test suite.

    python3 -m pytest -q benchmark/tests/selfcheck.py

The first three tests run no workload. The last two run one
untraced and one traced pass of every workload (about two minutes) and check
that each layer function the workload is meant to exercise records a call,
and that the median operation time falls inside one operation class.
"""
from __future__ import annotations

import collections
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

REGISTER = ("apply_gate", "project", "partial_trace", "fidelity", "tensor",
            "MixedState", "PureState")
PROTOCOLS = ("run_qtc", "qtc_mixed_band", "bell_measure", "run_odt", "derive_correction_table")
TOMOGRAPHY = ("simulate_counts", "tomography_linear", "estimate_correlator", "fidelity_with_error")
WITNESSES = ("biseparable_bound_result", "_seesaw_once", "_grid_bound", "pauli_decompose",
             "pauli_matrix")


def _names(module: str, functions) -> list[str]:
    return [f"{module}.{f}" for f in functions]


# The functions each workload must reach (the layer table in README.md).
EXPECTED_CALLS = {
    "witness": _names("witnesses", WITNESSES)
    + ["circuits.run_circuit", "reporting.render_csv", "reporting.render_json", "cli.main"],
    "qtc-noisy": _names("register", REGISTER) + _names("protocols", PROTOCOLS)
    + _names("tomography", TOMOGRAPHY)
    + _names("states", ("dicke", "werner_dicke", "client_state"))
    + ["reporting.render_csv", "cli.main"],
    "tomography-bootstrap": _names("tomography", TOMOGRAPHY)
    + ["reporting.render_json", "cli.main"],
    "ideal-protocols": _names("register", REGISTER) + _names("protocols", PROTOCOLS)
    + ["reporting.render_csv", "cli.main"],
}
MEDIAN_CLASS = {
    "witness": "witness-scan/fast",
    "qtc-noisy": "qtc-sweep/mixed",
    "tomography-bootstrap": "tomography-demo/bell-psi+",
    "ideal-protocols": "qtc-sweep/pure",
}


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_seeds_change_inputs_not_operation_counts(name):
    built = [workloads.build(name, seed) for seed in (1, 2, 3)]
    counts = [collections.Counter(op.cls for op in w.operations) for w in built]
    assert counts[0] == counts[1] == counts[2]
    assert built[0].operations != built[1].operations
    assert built[0] == workloads.build(name, 1)


def test_every_drawn_gamma_has_a_reference():
    ref = checks.Reference(HERE / "reference.json")
    for gamma in workloads.reference_gammas():
        assert gamma in ref.golden or gamma in ref.recorded, gamma


def test_missing_function_is_reported_absent():
    script = (
        "import json, sys\n"
        f"sys.path[:0] = [{str(run.ROOT / 'src')!r}, {str(HERE)!r}]\n"
        "import dickesim.cli, dickesim.witnesses\n"
        "del dickesim.witnesses._seesaw_once\n"
        "from tracer import Tracer\n"
        "print(json.dumps(Tracer().install().report()['absent']))\n"
    )
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          check=True, timeout=60)
    assert json.loads(proc.stdout) == ["witnesses._seesaw_once"]


@pytest.fixture(scope="module")
def traced_runs():
    ref = checks.Reference(HERE / "reference.json")
    work_root = run.ROOT / ".bench_work" / "selfcheck"
    out = {}
    try:
        for name in workloads.WORKLOADS:
            work = work_root / name
            work.mkdir(parents=True, exist_ok=True)
            runner = run.Runner(workloads.build(name, 1), work, ref)
            out[name] = (runner.workload, *run.traced_run(runner))
    finally:
        shutil.rmtree(work_root, ignore_errors=True)
    return out


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_each_listed_function_is_called(traced_runs, name):
    _, results, metrics, info = traced_runs[name]
    assert not [r.problems for r in results if r.problems]
    assert not info["absent"]
    missing = [f for f in EXPECTED_CALLS[name] if metrics[f"{f}.calls"]["value"] < 1]
    assert not missing


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_median_operation_sits_inside_one_class(traced_runs, name):
    workload, results, _, _ = traced_runs[name]
    untraced = results[:len(workload.operations)]
    ranked = sorted(untraced, key=lambda r: r.op_s * r.speed)  # as op_p50_s ranks them
    n = len(ranked)
    middle = ranked[(n - 1) // 2: n // 2 + 1]
    classes = {workload.operations[r.index].cls for r in middle}
    assert classes == {MEDIAN_CLASS[name]}
