"""Check that screening the b4 scan and skipping a class move no bit of b4.

    python tests/screen_sweep.py

Runs witnesses._one_three_max and _two_two_max twice at every gamma of the
sweep: as the library runs them, and with _zoom_max given a screen that keeps
every grid point, so LAPACK evaluates the whole grid as it did before the
screen existed. At each gamma it also checks that each class's upper bound
(_one_three_bound, _two_two_bound) is at least both of that class's scan
values up to rounding, and that biseparable_bound_result's value, which
skips a class whose bound lies below the other's scan, is the larger class
scan bit for bit. It prints the number of gammas compared and how many
skipped each class, and exits 1, naming each gamma that failed, if any did.
The sweep is benchmark/reference.json's recorded gammas (read, never
written), the 10-point witness-scan grid on [-3, 0], the paper's four and 401
evenly spaced on [-10, 0].

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


def class_bounds(gamma: float) -> tuple[float, float]:
    """The 1|3 and 2|2 upper bounds at gamma."""
    return witnesses._one_three_bound(gamma), witnesses._two_two_bound(gamma)


def rounding(gamma: float) -> float:
    """How far a bound may round below its class's scan: each is an eigenvalue of
    a matrix of norm below 6 + 4 |gamma| plus a few terms of that size, within a
    few ulps of it (about 1e-14 at gamma = -10). The skip rule's margin,
    1e-6 (1 + |gamma|), lies far above this."""
    return 1e-12 * (1 + abs(gamma))


def two_two_bound_by_lapack(gamma: float) -> float:
    """witnesses._two_two_bound's corner bound with each corner's top eigenvalue
    taken by LAPACK from the 4x4 matrix F_2 + 2 s Jx + 2 |gamma| t Jz, and no margin."""
    f2, jx, jz = witnesses._spin_parts(2, gamma)
    g, k = abs(gamma), witnesses.TWO_TWO_SLOPES - 1
    s = np.linspace(0.0, 1.0, k + 1)
    sx, tz = np.meshgrid(s, s, indexing="ij")
    tops = np.linalg.eigvalsh(f2 + 2 * sx.reshape(-1, 1, 1) * jx + 2 * g * tz.reshape(-1, 1, 1) * jz)[:, -1]
    tops = tops.reshape(sx.shape)
    mid = (s[:-1] + s[1:]) / 2
    corners = [tops[i:i + k, j:j + k] - 2 * mid[:, None] * s[i:i + k, None] - 2 * g * mid * s[j:j + k]
               for i in (0, 1) for j in (0, 1)]
    return 2 * float((np.max(corners, axis=0) + mid[:, None] ** 2 + g * mid ** 2).max())


def two_two_bound_failure(gamma: float, bound: float) -> list[str]:
    """The 2|2 bound if it lies below its LAPACK form, or above it by more than
    twice each corner's margin 1e-11 (4 + 4 |gamma|) plus rounding."""
    reference = two_two_bound_by_lapack(gamma)
    if reference <= bound <= reference + 2e-11 * (4 + 4 * abs(gamma)) + rounding(gamma):
        return []
    return [f"2|2 bound {bound!r}, its LAPACK form {reference!r}"]


def bound_failures(gamma: float, bounds, *maxima) -> list[str]:
    """Each class whose bound lies below one of its scan values by more than rounding."""
    return [f"{name} bound {bound!r} below its scan {float.fromhex(m[k])!r}"
            for k, (name, bound) in enumerate(zip(("1|3", "2|2"), bounds))
            for m in maxima if bound + rounding(gamma) < float.fromhex(m[k])]


def recorded_gammas() -> tuple[float, ...]:
    """The gammas benchmark/reference.json records b4 at."""
    with open(ROOT / "benchmark" / "reference.json") as f:
        return tuple(float(g) for g in json.load(f)["recorded"])


def sweep_gammas() -> list[float]:
    return sorted(set(recorded_gammas()) | {-3.0 + 3.0 * k / 9 for k in range(10)}
                  | set(witnesses.PAPER_GAMMAS) | {float(g) for g in np.linspace(-10.0, 0.0, 401)})


# how many of the sweep's gammas skip the 1|3 and the 2|2 scan
EXPECTED_SKIPS = [133, 189]


def main() -> int:
    gammas = sweep_gammas()
    screened = [class_maxima(g) for g in gammas]
    bounds = [class_bounds(g) for g in gammas]
    results = [witnesses.biseparable_bound_result(g) for g in gammas]
    zoom_max = witnesses._zoom_max
    witnesses._zoom_max = unscreened(zoom_max)
    try:
        full = [class_maxima(g) for g in gammas]
    finally:
        witnesses._zoom_max = zoom_max
    failed = 0
    for g, s, f, b, r in zip(gammas, screened, full, bounds, results):
        problems = bound_failures(g, b, s, f) + two_two_bound_failure(g, b[1])
        if s != f:
            problems.append(f"screened (1|3, 2|2) {s}, unscreened {f}")
        if r.value.hex() != max(s, key=float.fromhex):
            problems.append(f"value {r.value.hex()}, class scans {s}")
        for problem in problems:
            print(f"gamma={g!r}: {problem}")
        failed += bool(problems)
    skips = [sum(r.scanned[k][1] is None for r in results) for k in (0, 1)]
    print(f"{len(gammas)} gammas compared, {failed} failed; "
          f"the 1|3 scan was skipped at {skips[0]}, the 2|2 scan at {skips[1]}")
    if skips != EXPECTED_SKIPS:
        print(f"skip counts {skips}, expected {EXPECTED_SKIPS}")
    return 1 if failed or skips != EXPECTED_SKIPS else 0


if __name__ == "__main__":
    sys.exit(main())
