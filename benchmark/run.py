"""Benchmark for the dickesim CLI: four cold-start workloads, one operation at a time.

    python3 benchmark/run.py --workload witness --seed 1 --seconds 30 --trace 0

Run from a source checkout; the program is imported from ./src. Every
operation is one `dickesim.cli.main(argv)` call in a fresh interpreter
(child.py) with BLAS and OpenMP pinned to one thread, so the package's
lru_caches start empty as they do for a CLI user. The workload's operation
list (workloads.py) is run in passes, closed loop with one client, until
`--seconds` would be exceeded; at least two passes run, and every report of
a later pass must match the first pass's byte for byte.

--trace 0 prints the end-to-end metrics; --trace 1 runs one untraced and one
traced pass and prints the per-layer metrics of tracer.py plus the tracing
overhead. The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics. See README.md in this directory.

Timings are reported in reference-speed seconds: each measured time is
multiplied by PROBE_REF_S / p, where p is the median time of child.py's speed
probe over the same interval. On a shared host whose CPU speed drifts this
removes most of the run-to-run spread; the unscaled figures are printed on a
`#` line.
"""
from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

import checks  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

OP_TIMEOUT_S = 150
# Speed probe loop time on the host that recorded baseline.json when quiet
# (2 vCPUs, x86_64, Python 3.11.7); only sets the scale of reported seconds.
PROBE_REF_S = 0.0001
THREAD_PIN = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "op_p50_s": "s",
                    "peak_rss_mb": "MB", "pass_rate": "ratio"}


@dataclass
class OpResult:
    index: int
    code: int | None = None
    setup_s: float = 0.0
    op_s: float = 0.0
    probe_setup_s: float = PROBE_REF_S
    probe_op_s: float = PROBE_REF_S
    peak_rss_mb: float = 0.0
    report: str | None = None
    trace: dict | None = None
    env: dict | None = None
    problems: list[str] = field(default_factory=list)

    @property
    def speed(self) -> float:
        """Factor that scales this operation's call time to the reference speed."""
        return PROBE_REF_S / self.probe_op_s

    @property
    def setup_speed(self) -> float:
        return PROBE_REF_S / self.probe_setup_s


class Runner:
    """Runs single operations of one workload in fresh child interpreters."""

    def __init__(self, workload: workloads.Workload, work: Path, ref: checks.Reference):
        self.workload = workload
        self.work = work
        self.ref = ref
        self.env = {**os.environ, **THREAD_PIN}
        for index, op in enumerate(workload.operations):
            (work / f"op{index}.json").write_text(json.dumps(op.config))

    def run(self, index: int, trace: bool = False, env: bool = False) -> OpResult:
        op = self.workload.operations[index]
        out = self.work / f"op{index}.out"
        flags = (["--trace"] if trace else []) + (["--env"] if env else [])
        argv = [sys.executable, str(HERE / "child.py"), str(ROOT), *flags, "--",
                op.command, "--config", str(self.work / f"op{index}.json"),
                "--seed", str(op.seed), "--out", str(out)]
        result = OpResult(index)
        try:
            proc = subprocess.run(argv, capture_output=True, text=True, cwd=ROOT,
                                  env=self.env, timeout=OP_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            result.problems.append(f"timed out after {OP_TIMEOUT_S} s")
            return result
        lines = proc.stdout.strip().splitlines()
        try:
            child = json.loads(lines[-1])
        except (IndexError, json.JSONDecodeError):
            tail = proc.stderr.strip().splitlines()[-1:] or ["no output"]
            result.problems.append(f"child exited {proc.returncode}: {tail[0]}")
            return result
        result.code = child["code"]
        result.setup_s = child["setup_s"]
        result.op_s = child["op_s"]
        result.probe_setup_s = child["probe_setup_s"]
        result.probe_op_s = child["probe_op_s"]
        result.peak_rss_mb = child["peak_rss_mb"]
        result.trace = child.get("trace")
        result.env = child.get("env")
        if Path(child["module"]).resolve().parent != (ROOT / "src" / "dickesim").resolve():
            result.problems.append(f"imported dickesim from {child['module']}, not ./src")
        if child["error"]:
            result.problems.append(child["error"])
        if out.exists():
            result.report = out.read_text()
            out.unlink()
        result.problems += checks.report_problems(op.command, result.code, result.report, self.ref)
        return result

    def run_pass(self, trace: bool = False, env: bool = False) -> list[OpResult]:
        return [self.run(i, trace=trace, env=env and i == 0)
                for i in range(len(self.workload.operations))]


def _check_rerun(results: list[OpResult], firsts: list[OpResult]) -> None:
    """Flag every operation whose report differs from its first run's."""
    for result, first in zip(results, firsts):
        if result.report != first.report:
            result.problems.append(f"report of operation {result.index} differs on re-run")


def timed_run(runner: Runner, seconds: float) -> tuple[list[OpResult], dict, dict]:
    passes = []
    start = time.perf_counter()
    while True:
        passes.append(runner.run_pass(env=not passes))
        elapsed = time.perf_counter() - start
        if len(passes) >= 2 and elapsed / len(passes) * (len(passes) + 1) > seconds:
            break
    for later in passes[1:]:
        _check_rerun(later, passes[0])
    results = [r for p in passes for r in p]
    failed = sum(1 for r in results if r.problems)
    metrics = _end_to_end(passes, results, scaled=True)
    metrics["peak_rss_mb"] = max(r.peak_rss_mb for r in results)
    metrics["pass_rate"] = 1.0 - failed / len(results)
    info = {"passes": len(passes), "env": passes[0][0].env,
            "unscaled": _end_to_end(passes, results, scaled=False),
            "probe_s": statistics.median(r.probe_op_s for r in results)}
    return results, _with_units(metrics, END_TO_END_UNITS), info


def _end_to_end(passes: list[list[OpResult]], results: list[OpResult], scaled: bool) -> dict:
    def op_s(r: OpResult) -> float:
        return r.op_s * r.speed if scaled else r.op_s

    return {
        "setup_s": statistics.median(r.setup_s * (r.setup_speed if scaled else 1.0)
                                     for r in results),
        "wall_s": statistics.median(sum(op_s(r) for r in p) for p in passes),
        "op_p50_s": statistics.median(op_s(r) for p in passes for r in p),
    }


def traced_run(runner: Runner) -> tuple[list[OpResult], dict, dict]:
    untraced = runner.run_pass(env=True)
    traced = runner.run_pass(trace=True)
    _check_rerun(traced, untraced)
    units = {**tracer.metric_units(), "trace.overhead_s": "s"}
    totals = dict.fromkeys(tracer.metric_units(), 0)
    absent = set()
    for r in traced:
        if r.trace is None:
            continue
        for name, value in r.trace["metrics"].items():
            totals[name] += value * r.speed if name.endswith("_s") else value
        absent.update(r.trace["absent"])
    totals["trace.overhead_s"] = (sum(r.op_s * r.speed for r in traced)
                                  - sum(r.op_s * r.speed for r in untraced))
    info = {"passes": 2, "env": untraced[0].env, "absent": sorted(absent)}
    return untraced + traced, _with_units(totals, units), info


def _with_units(values: dict, units: dict) -> dict:
    return {name: {"value": values[name], "unit": unit} for name, unit in units.items()}


def _revision() -> str:
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
    return proc.stdout.strip() or "unknown"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "dickesim" / "cli.py").is_file():
        print(f"benchmark: no dickesim source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    ref = checks.Reference(HERE / "reference.json")
    workload = workloads.build(args.workload, args.seed)
    work = ROOT / ".bench_work" / f"{args.workload}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        runner = Runner(workload, work, ref)
        if args.trace:
            results, metrics, info = traced_run(runner)
        else:
            results, metrics, info = timed_run(runner, args.seconds)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    env = {**(info["env"] or {}), "nproc": os.cpu_count(), "thread_pin": THREAD_PIN,
           "revision": _revision()}
    failed = [r for r in results if r.problems]
    print(f"# env {json.dumps(env, sort_keys=True)}")
    print(f"# workload {args.workload} seed {args.seed}: {len(workload.operations)} operations"
          f" x {info['passes']} passes, {len(results)} attempted, {len(failed)} failed")
    for r in failed:
        op = workload.operations[r.index]
        print(f"# FAIL operation {r.index} ({op.cls}): {'; '.join(r.problems)}")
    if "unscaled" in info:
        raw = " ".join(f"{k}={v:.4f}" for k, v in info["unscaled"].items())
        print(f"# unscaled seconds: {raw}; median speed probe {info['probe_s']:.3e} s"
              f" (reference {PROBE_REF_S} s)")
    if info.get("absent"):
        print(f"# absent at this commit: {', '.join(info['absent'])}")
    print(json.dumps({"correct": not failed, "attempted": len(results),
                      "failed": len(failed), "metrics": metrics}))
    return 0 if not failed else 1


if __name__ == "__main__":
    sys.exit(main())
