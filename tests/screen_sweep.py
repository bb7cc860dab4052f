"""Check that screening the b4 scan moves no bit of either class maximum.

    python tests/screen_sweep.py

Runs witnesses._one_three_max and _two_two_max twice at every gamma of the
sweep: as the library runs them, and with _zoom_max given a screen that keeps
every grid point, so LAPACK evaluates the whole grid as it did before the
screen existed. It prints the number of gammas compared and exits 1, naming
each gamma whose bits moved, if any did. The sweep is benchmark/reference.json's
recorded gammas (read, never written), the 10-point witness-scan grid on
[-3, 0], the paper's four and 401 evenly spaced on [-10, 0].

pytest does not collect this file. Each OpenBLAS kernel set rounds LAPACK's
values in its own way, and the screen must keep each one's bits, so CI runs it
under every kernel set it tests (OPENBLAS_CORETYPE). The tier-1 suite checks a
few of these gammas with the same helpers (tests/test_witnesses.py).
"""
from __future__ import annotations

import json
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

from dickesim import witnesses  # noqa: E402


def keep_all(cx: np.ndarray, cz: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """A screen that brackets no value, so every grid point is evaluated."""
    return np.full(cx.shape, -np.inf), np.full(cx.shape, np.inf)


def unscreened(zoom_max):
    """zoom_max with keep_all in place of the screen it is given."""
    return lambda coeffs_at, screen, values_at, *box: zoom_max(coeffs_at, keep_all, values_at, *box)


def class_maxima(gamma: float) -> tuple[str, str]:
    """The 1|3 and 2|2 maxima at gamma, as float.hex."""
    return witnesses._one_three_max(gamma).hex(), witnesses._two_two_max(gamma).hex()


def sweep_gammas() -> list[float]:
    with open(ROOT / "benchmark" / "reference.json") as f:
        recorded = json.load(f)["recorded"]
    return sorted({float(g) for g in recorded} | {-3.0 + 3.0 * k / 9 for k in range(10)}
                  | set(witnesses.PAPER_GAMMAS) | {float(g) for g in np.linspace(-10.0, 0.0, 401)})


def main() -> int:
    gammas = sweep_gammas()
    screened = [class_maxima(g) for g in gammas]
    zoom_max = witnesses._zoom_max
    witnesses._zoom_max = unscreened(zoom_max)
    try:
        full = [class_maxima(g) for g in gammas]
    finally:
        witnesses._zoom_max = zoom_max
    moved = [(g, s, f) for g, s, f in zip(gammas, screened, full) if s != f]
    for gamma, s, f in moved:
        print(f"gamma={gamma!r}: screened (1|3, 2|2) {s}, unscreened {f}")
    print(f"{len(gammas)} gammas compared, {len(moved)} moved")
    return 1 if moved else 0


if __name__ == "__main__":
    sys.exit(main())
