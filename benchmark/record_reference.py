"""Record the reference b4(gamma) values the benchmark checks witness-scan against.

Run from the repository root at the commit whose values become the reference:

    python3 benchmark/record_reference.py

It writes benchmark/reference.json: the golden fixture values (checked at
1e-9) and b4 at every other gamma a workload can draw (checked at 1e-6, the
solver's own stopping tolerance at the iteration cap). Takes a few minutes.
"""
from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import workloads  # noqa: E402


def main() -> None:
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    from dickesim.witnesses import biseparable_bound_result

    fixture = json.loads((ROOT / "src/dickesim/fixtures/b4_samples.json").read_text())
    golden = {repr(float(g)): v for g, v in fixture["samples"].items()}
    recorded = {}
    for gamma in workloads.reference_gammas():
        if repr(gamma) not in golden:
            recorded[repr(gamma)] = biseparable_bound_result(gamma).value
    revision = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True).stdout.strip() or "unknown"
    out = {
        "golden": golden,
        "golden_tol": 1e-9,
        "recorded": recorded,
        "recorded_tol": 1e-6,
        "recorded_at": revision,
    }
    (HERE / "reference.json").write_text(json.dumps(out, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
