"""Run one dickesim CLI invocation in this fresh interpreter and report its cost.

    python3 benchmark/child.py ROOT [--trace] [--env] -- COMMAND ARGS...

Imports `dickesim.cli` from ROOT/src, calls `dickesim.cli.main(ARGS)` once
and prints one JSON line: the exit code, the import time (`setup_s`), the
call time (`op_s`), the CPU speed probe medians over each (`probe_setup_s`,
`probe_op_s`), the peak resident memory, and with --trace the per-layer
counts of tracer.py. With --env it also reports the numpy build.

The speed probe times a short fixed pure-Python loop every 20 ms of wall time
(SIGALRM) while the import and the call run, and five times each before the
import and after the call. Its median over an interval tracks how fast the
CPU ran for this process there; run.py uses it to scale the timings to a
reference speed. It adds about 1% to the measured times.
"""
from __future__ import annotations

import json
import resource
import signal
import statistics
import sys
import time
from pathlib import Path

PROBE_INTERVAL_S = 0.02


def _probe_loop() -> int:
    acc = 0
    for i in range(1500):
        acc += (i * i) % 7
    return acc


class SpeedProbe:
    def __init__(self):
        self.samples: list[tuple[float, float]] = []  # (start, seconds)

    def sample(self, *_signal_args) -> None:
        start = time.perf_counter()
        _probe_loop()
        self.samples.append((start, time.perf_counter() - start))

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)

    def median(self, begin: float, end: float = float("inf")) -> float:
        return statistics.median(d for t, d in self.samples if begin <= t <= end)

def _environment() -> dict:
    import platform

    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas_name = "unknown"
    return {"python": platform.python_version(), "numpy": np.__version__, "blas": blas_name}


def main(argv: list[str]) -> int:
    split = argv.index("--")
    root, flags, cli_args = Path(argv[0]), set(argv[1:split]), argv[split + 1:]
    sys.path.insert(0, str(root / "src"))

    probe = SpeedProbe()
    begin = time.perf_counter()
    for _ in range(5):
        probe.sample()
    probe.start()
    start = time.perf_counter()
    import dickesim.cli
    imported = time.perf_counter()
    setup_s = imported - start

    tracer = None
    if "--trace" in flags:
        from tracer import Tracer
        tracer = Tracer().install()

    error = None
    op_start = time.perf_counter()
    try:
        code = dickesim.cli.main(cli_args)
    except Exception as exc:  # reported as a failed operation, not a crash
        code, error = None, f"{type(exc).__name__}: {exc}"
    op_s = time.perf_counter() - op_start
    probe.stop()
    for _ in range(5):
        probe.sample()

    out = {
        "code": code,
        "error": error,
        "setup_s": setup_s,
        "op_s": op_s,
        "probe_setup_s": probe.median(begin, imported),
        "probe_op_s": probe.median(op_start),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "module": dickesim.cli.__file__,
    }
    if tracer is not None:
        out["trace"] = tracer.report()
    if "--env" in flags:
        out["env"] = _environment()
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
