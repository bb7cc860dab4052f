"""Independent oracle implementations used to check the package.

Everything here is deliberately written along a different path than the
library: explicit Kronecker chains, permutation enumeration, and index
arithmetic instead of axis contractions.
"""
from __future__ import annotations

import itertools

import numpy as np

I2 = np.eye(2, dtype=complex)
SX = np.array([[0, 1], [1, 0]], dtype=complex)
SY = np.array([[0, -1j], [1j, 0]], dtype=complex)
SZ = np.array([[1, 0], [0, -1]], dtype=complex)
HG = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)


def kron_chain(ops):
    out = np.array([[1.0 + 0j]])
    for op in ops:
        out = np.kron(out, op)
    return out


def embed_unitary(gate: np.ndarray, positions, n: int) -> np.ndarray:
    """Full 2^n embedding of a k-qubit gate by explicit basis-index mapping."""
    k = len(positions)
    dim = 2 ** n
    full = np.zeros((dim, dim), dtype=complex)
    for col in range(dim):
        bits = [(col >> (n - 1 - q)) & 1 for q in range(n)]
        sub_col = 0
        for pos in positions:
            sub_col = (sub_col << 1) | bits[pos]
        for sub_row in range(2 ** k):
            amp = gate[sub_row, sub_col]
            if amp == 0:
                continue
            new_bits = list(bits)
            for idx, pos in enumerate(positions):
                new_bits[pos] = (sub_row >> (k - 1 - idx)) & 1
            row = 0
            for b in new_bits:
                row = (row << 1) | b
            full[row, col] += amp
    return full


def dicke_by_permutations(n: int, k: int) -> np.ndarray:
    """Dicke ket built by enumerating distinct permutations of a bitstring."""
    strings = sorted(set(itertools.permutations("1" * k + "0" * (n - k))))
    vec = np.zeros(2 ** n, dtype=complex)
    for bits in strings:
        vec[int("".join(bits), 2)] = 1.0
    return vec / np.linalg.norm(vec)


def haar_unitary(rng: np.random.Generator, dim: int) -> np.ndarray:
    z = (rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))) / np.sqrt(2)
    q, r = np.linalg.qr(z)
    return q * (np.diagonal(r) / np.abs(np.diagonal(r)))


def haar_ket(rng: np.random.Generator, dim: int) -> np.ndarray:
    v = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    return v / np.linalg.norm(v)


def random_density(rng: np.random.Generator, dim: int, rank: int | None = None) -> np.ndarray:
    rank = rank or dim
    m = rng.normal(size=(dim, rank)) + 1j * rng.normal(size=(dim, rank))
    rho = m @ m.conj().T
    return rho / np.trace(rho)


def partial_trace_indices(rho: np.ndarray, keep, n: int) -> np.ndarray:
    """Reduced matrix by explicit double loops over basis indices."""
    keep = list(keep)
    drop = [q for q in range(n) if q not in keep]
    dk = 2 ** len(keep)
    out = np.zeros((dk, dk), dtype=complex)
    for row in range(2 ** n):
        rbits = [(row >> (n - 1 - q)) & 1 for q in range(n)]
        for col in range(2 ** n):
            cbits = [(col >> (n - 1 - q)) & 1 for q in range(n)]
            if any(rbits[q] != cbits[q] for q in drop):
                continue
            r_idx = 0
            c_idx = 0
            for q in keep:
                r_idx = (r_idx << 1) | rbits[q]
                c_idx = (c_idx << 1) | cbits[q]
            out[r_idx, c_idx] += rho[row, col]
    return out


def dense_expectation(operator: np.ndarray, vec: np.ndarray) -> float:
    return float(np.real(vec.conj() @ operator @ vec))


def collective_j(n: int, sigma: np.ndarray) -> np.ndarray:
    total = np.zeros((2 ** n, 2 ** n), dtype=complex)
    for i in range(n):
        total += kron_chain([sigma if j == i else I2 for j in range(n)])
    return total / 2.0


# --- tomography: linear inversion and its bootstrap, one trial at a time ----
#
# A record is (letters, counts, exact): the per-qubit axes "X"/"Y"/"Z", a dict
# outcome bitstring -> count, and whether the counts are infinite-statistics
# values that the bootstrap leaves alone.

PAULI_BY_LETTER = {"I": I2, "X": SX, "Y": SY, "Z": SZ}


def linear_inversion(records) -> np.ndarray:
    """rho = 2^-k sum_P <P> P over kron-built Pauli strings, then the walking clip.

    <P> pools every record whose letters agree with P off its identity
    positions: sum of (-1)^(bits on P's positions) * count over total count.
    """
    k = len(records[0][0])
    rho = np.zeros((2 ** k, 2 ** k), dtype=complex)
    for combo in itertools.product("IXYZ", repeat=k):
        signed = total = 0.0
        for letters, counts, _ in records:
            if all(p == "I" or p == l for p, l in zip(combo, letters)):
                for outcome, count in counts.items():
                    bits = [int(outcome[q]) for q in range(k) if combo[q] != "I"]
                    signed += (-1) ** sum(bits) * count
                    total += count
        value = 1.0 if set(combo) == {"I"} else signed / total
        rho += value * kron_chain([PAULI_BY_LETTER[p] for p in combo])
    rho /= 2 ** k
    vals, vecs = np.linalg.eigh((rho + rho.conj().T) / 2)
    vals = list(vals)
    for i in range(len(vals)):
        if vals[i] < 0:
            for j in range(i + 1, len(vals)):
                vals[j] += vals[i] / (len(vals) - i - 1)
            vals[i] = 0.0
    vals = np.clip(vals, 0.0, None)
    vals = vals / vals.sum()
    return sum(v * np.outer(vecs[:, i], vecs[:, i].conj()) for i, v in enumerate(vals))


def overlap_fidelity(rho: np.ndarray, target: np.ndarray) -> float:
    """<psi|rho|psi> for a target ket, Uhlmann (tr sqrt(sqrt(rho) sigma sqrt(rho)))^2
    for a target density matrix."""
    if target.ndim == 1:
        return min(max(float(np.real(target.conj() @ rho @ target)), 0.0), 1.0)
    vals, vecs = np.linalg.eigh(rho)
    root = vecs @ np.diag(np.sqrt(np.clip(vals, 0.0, None))) @ vecs.conj().T
    inner = np.linalg.eigvalsh(root @ target @ root)
    return min(float(np.sum(np.sqrt(np.clip(inner, 0.0, None))) ** 2), 1.0)


def bootstrap_fidelity(records, target: np.ndarray, trials: int, seed: int):
    """(mean, std, kept) of the reconstruction fidelity over parametric bootstrap trials.

    Trial t seeds default_rng((seed, t)) and redraws each stochastic outcome,
    record by record in dict order, with one scalar Poisson draw centred on
    its count; a record whose redraw totals zero keeps its observed counts,
    and `kept` counts how often that happened. All-exact records give the
    point fidelity with zero spread.
    """
    if all(exact for _, _, exact in records):
        return overlap_fidelity(linear_inversion(records), target), 0.0, 0
    values, kept = [], 0
    for t in range(trials):
        rng = np.random.default_rng((seed, t))
        redrawn = []
        for letters, counts, exact in records:
            if not exact:
                drawn = {o: int(rng.poisson(c)) for o, c in counts.items()}
                if sum(drawn.values()) == 0:
                    kept += 1
                else:
                    counts = drawn
            redrawn.append((letters, counts, exact))
        values.append(overlap_fidelity(linear_inversion(redrawn), target))
    return float(np.mean(values)), float(np.std(values)), kept


# --- certified bracket for b4(gamma) ---------------------------------------
#
# For a product |a>|b> over a bipartition A|B the operator
# Jx^2 + Jy^2 + gamma Jz^2 has expectation
#     <F_A> + <F_B> + 2 (<J_Ax><J_Bx> + <J_Ay><J_By> + gamma <J_Az><J_Bz>),
# with F = Jx^2 + Jy^2 + gamma Jz^2 on each part. The operator commutes with
# collective z-rotations, so one part's mean spin may be rotated into the
# (x, z) half-plane x >= 0. Permutation symmetry leaves two cases: 1|3, 2|2.

POLYGON_SIDES = 4096     # 1|3: vertices of the polygon round the half-circle
BB_EPS = 1e-9            # 2|2: a cell closes when its bound is within this of `lower`
BB_MAX_ROUNDS = 40       # 2|2: rounds of splitting before giving up
BB_MAX_CELLS = 16384     # 2|2: open cells before giving up

def _spin_parts(n: int, gamma: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(F, Jx, Jz) on n qubits, F = Jx^2 + Jy^2 + gamma Jz^2."""
    jx, jy, jz = (collective_j(n, s) for s in (SX, SY, SZ))
    return jx @ jx + jy @ jy + gamma * (jz @ jz), jx, jz


def _top_eigvals(base: np.ndarray, jx: np.ndarray, jz: np.ndarray,
                 cx: np.ndarray, cz: np.ndarray) -> np.ndarray:
    """Largest eigenvalue of base + cx Jx + cz Jz for each pair (cx, cz)."""
    mats = base + cx[:, None, None] * jx + cz[:, None, None] * jz
    return np.linalg.eigvalsh(mats)[:, -1]


def b4_family_lower(gamma: float) -> float:
    """Expectation on a 2|2 product state: a feasible value, so b4 >= it.

    Each pair (0,1) and (2,3) holds sqrt(1-u)|T0> + sqrt(u)(|00>+|11>)/sqrt(2)
    with |T0> = (|01>+|10>)/sqrt(2). The expectation is
    4 + (2 gamma + 6) u - 8 u^2, maximal at u = (gamma + 3)/8; at
    gamma = -2.5 that is u = 1/16 and the value 129/32.
    """
    u = min(max((gamma + 3) / 8, 0.0), 1.0)
    zero, one = np.array([1, 0], dtype=complex), np.array([0, 1], dtype=complex)
    t0 = (np.kron(zero, one) + np.kron(one, zero)) / np.sqrt(2)
    phi = (np.kron(zero, zero) + np.kron(one, one)) / np.sqrt(2)
    pair = np.sqrt(1 - u) * t0 + np.sqrt(u) * phi
    op, _, _ = _spin_parts(4, gamma)
    return dense_expectation(op, np.kron(pair, pair))


def b4_one_three_upper(gamma: float) -> float:
    """Proven upper bound on the 1|3 maximum.

    The lone qubit has <J_A> = r/2 with r on the Bloch sphere, rotated to
    (sin t, 0, cos t), t in [0, pi]. The best value for fixed r is
    (2 + gamma)/4 + lambda_max(F_B + r_x J_Bx + gamma r_z J_Bz), a convex
    function of r, so its maximum over the half-circle is at most its
    maximum over the vertices of a circumscribing polygon: (0, +-1) and
    POLYGON_SIDES points at radius 1/cos(pi/(2 POLYGON_SIDES)).
    """
    f_b, jx, jz = _spin_parts(3, gamma)
    angles = (np.arange(POLYGON_SIDES) + 0.5) * np.pi / POLYGON_SIDES
    radius = 1.0 / np.cos(np.pi / (2 * POLYGON_SIDES))
    rx = np.concatenate([[0.0, 0.0], radius * np.sin(angles)])
    rz = np.concatenate([[1.0, -1.0], radius * np.cos(angles)])
    return (2 + gamma) / 4 + float(np.max(_top_eigvals(f_b, jx, jz, rx, gamma * rz)))


def b4_two_two_upper(gamma: float, lower: float) -> float:
    """Proven upper bound on the 2|2 maximum by branch-and-bound.

    With b = <J_B> rotated to (b_x >= 0, 0, b_z) and |b| <= 1, the value is
    at most g(b) + <F_B>, g(b) = lambda_max(F_A + 2 b_x J_Ax + 2 gamma b_z J_Az)
    convex. On a rectangular cell and for any slope s, g(b) - s.b is convex,
    so at most its largest corner value, and <F_B> + s.b is at most
    lambda_max(F_B + s.J_B). The slope is the gradient of g at the cell
    centre. Cells whose bound is within BB_EPS of `lower` are closed, the
    rest split in four; `lower` must be a feasible value within BB_EPS of the
    2|2 maximum, else cells stay open and this raises once more than
    BB_MAX_CELLS are open or BB_MAX_ROUNDS rounds have passed. A return is
    therefore the certificate: the result is at most `lower` + BB_EPS.
    """
    f2, jx, jz = _spin_parts(2, gamma)
    closed = lower
    cells = np.array([[0.0, 1.0, -1.0, 1.0]])      # rows: x0, x1, z0, z1
    for _ in range(BB_MAX_ROUNDS):
        x0, x1, z0, z1 = cells.T
        # a cell with no point of the unit disc holds no feasible b
        cells = cells[x0 ** 2 + np.clip(0.0, z0, z1) ** 2 <= 1.0]
        x0, x1, z0, z1 = cells.T
        top = np.linalg.eigh(f2 + 2 * ((x0 + x1) / 2)[:, None, None] * jx
                             + 2 * gamma * ((z0 + z1) / 2)[:, None, None] * jz)[1][:, :, -1]
        sx = 2 * np.real(np.einsum("ki,ij,kj->k", top.conj(), jx, top))
        sz = 2 * gamma * np.real(np.einsum("ki,ij,kj->k", top.conj(), jz, top))
        corner = np.full(len(cells), -np.inf)
        for vx, vz in ((x0, z0), (x0, z1), (x1, z0), (x1, z1)):
            corner = np.maximum(
                corner, _top_eigvals(f2, jx, jz, 2 * vx, 2 * gamma * vz) - sx * vx - sz * vz)
        bound = corner + _top_eigvals(f2, jx, jz, sx, sz)
        done = bound <= lower + BB_EPS
        closed = max(closed, float(bound[done].max(initial=-np.inf)))
        cells = cells[~done]
        if len(cells) == 0:
            return closed
        if 4 * len(cells) > BB_MAX_CELLS:
            break
        x0, x1, z0, z1 = cells.T
        xm, zm = (x0 + x1) / 2, (z0 + z1) / 2
        cells = np.concatenate([np.stack(c, axis=1) for c in (
            (x0, xm, z0, zm), (xm, x1, z0, zm), (x0, xm, zm, z1), (xm, x1, zm, z1))])
    raise RuntimeError(f"2|2 branch-and-bound left {len(cells)} cells open")

