"""Independent reference computations. The test suite checks the library
against them, and two experiments do so at run time: moment-check against
haar_moment_exact, spectrum-check against rho_u_numeric.

Everything here is computed by a different route than the library code it
checks: permutation-sum projectors instead of occupation bases, exhaustive
enumeration instead of closed-form moments, quadrature instead of algebra.
Nothing in this module imports a computation from the estimator or
symmetric-subspace modules; it takes only the shared budget guard.
"""

from __future__ import annotations

import itertools
import math
from functools import reduce

import numpy as np

from .symmetric import check_budget

__all__ = [
    "haar_moment_exact",
    "perp_moment_exact",
    "phase_average_fourth_power",
    "phase_average_fourth_power_quadrature",
    "sym_projector_perm_sum",
    "rho_u_numeric",
    "exhaustive_collision_variance",
    "collision_variance_exact",
]


def _cycles(pi: tuple[int, ...]) -> list[list[int]]:
    """Cycles of pi traversed against its direction, so that the product
    of matrices along each cycle reproduces Tr((A_1 x ... x A_k) P(pi))."""
    k = len(pi)
    inv = [0] * k
    for src, dst in enumerate(pi):
        inv[dst] = src
    seen = [False] * k
    out = []
    for start in range(k):
        if seen[start]:
            continue
        cyc = []
        j = start
        while not seen[j]:
            seen[j] = True
            cyc.append(j)
            j = inv[j]
        out.append(cyc)
    return out


def haar_moment_exact(mats: list[np.ndarray]) -> complex:
    """E_psi prod_i <psi|A_i|psi> over Haar-random psi, exact.

    Permutation sum over S_k of products of traces along cycles, divided
    by the rising factorial d(d+1)...(d+k-1). Intended for k <= 4.
    """
    k = len(mats)
    if k == 0:
        return 1.0
    d = mats[0].shape[0]
    if k > 4:
        raise ValueError("k > 4 not supported")
    total = 0.0 + 0.0j
    for pi in itertools.permutations(range(k)):
        term = 1.0 + 0.0j
        for cyc in _cycles(pi):
            prod = mats[cyc[0]]
            for j in cyc[1:]:
                prod = prod @ mats[j]
            term *= np.trace(prod)
        total += term
    den = math.prod(range(d, d + k))
    return total / den


def perp_moment_exact(psi: np.ndarray, mats: list[np.ndarray]) -> complex:
    """E prod_i <phi|A_i|phi> over phi Haar-random in the orthocomplement
    of psi, for one or two observables."""
    d = psi.shape[0]
    if d < 2:
        raise ValueError("no orthocomplement at d=1")
    q = np.eye(d) - np.outer(psi, psi.conj())
    if len(mats) == 1:
        return np.trace(q @ mats[0] @ q) / (d - 1)
    if len(mats) == 2:
        a = q @ mats[0] @ q
        b = q @ mats[1] @ q
        return (np.trace(a) * np.trace(b) + np.trace(a @ b)) / (d * (d - 1))
    raise ValueError("only one or two observables supported")


def phase_average_fourth_power(q: complex, g: complex, h: complex, l: complex) -> float:
    """Closed form of the two-phase average of
    |e^{i(phi-theta)} q + e^{i phi} g + e^{-i theta} h + l|^4."""
    aq, ag, ah, al = abs(q) ** 2, abs(g) ** 2, abs(h) ** 2, abs(l) ** 2
    quartic = aq**2 + ag**2 + ah**2 + al**2
    pairs = ag * ah + al * ag + al * ah + aq * ag + aq * ah + aq * al
    cross = (q * l * np.conj(g) * np.conj(h) + g * h * np.conj(q) * np.conj(l)).real
    return float(quartic + 4.0 * (pairs + cross))


def phase_average_fourth_power_quadrature(
    q: complex, g: complex, h: complex, l: complex, grid: int = 256
) -> float:
    """Same average by midpoint quadrature on a grid x grid phase lattice.

    The integrand is a trigonometric polynomial of degree two in each
    phase, so any grid with at least five points per axis is exact up to
    rounding.
    """
    ang = (np.arange(grid) + 0.5) * (2.0 * np.pi / grid)
    eith = np.exp(1j * ang)[:, None]  # theta axis
    eiph = np.exp(1j * ang)[None, :]  # phi axis
    vals = np.abs(eiph / eith * q + eiph * g + h / eith + l) ** 4
    return float(vals.mean())


def _perm_operator(pi: tuple[int, ...], d: int) -> np.ndarray:
    k = len(pi)
    inv = [0] * k
    for src, dst in enumerate(pi):
        inv[dst] = src
    n = d**k
    op = np.zeros((n, n))
    powers = [d ** (k - 1 - j) for j in range(k)]
    for col, idx in enumerate(itertools.product(range(d), repeat=k)):
        row = sum(idx[inv[j]] * powers[j] for j in range(k))
        op[row, col] = 1.0
    return op


def sym_projector_perm_sum(d: int, k: int) -> np.ndarray:
    """Symmetric-subspace projector as the average of all k! permutation
    operators. O(k! d^{2k}); small cases only."""
    n = d**k
    acc = np.zeros((n, n))
    count = 0
    for pi in itertools.permutations(range(k)):
        acc += _perm_operator(pi, d)
        count += 1
    return acc / count


def rho_u_numeric(u: np.ndarray, k: int) -> np.ndarray:
    """Post-measurement state of the continuous POVM with outcome u,
    computed by contracting the symmetric projector on 2k factors.

    The projector is a sum of (2k)! permutation operators, each N x N with
    N = d^(2k) = n^2: (2k)! N^2 element updates. At most three float
    N x N arrays are held at once: the accumulator and one operator, or
    the averaged projector and its complex copy; then a few complex n x n.
    """
    d = u.shape[0]
    n = d**k
    check_budget("rho_u_numeric", 24 * n**4 + 64 * n * n, updates=math.factorial(2 * k) * n**4)
    big = sym_projector_perm_sum(d, 2 * k).astype(complex)
    uk = reduce(np.kron, [u] * k)
    m4 = big.reshape(n, n, n, n)
    rho = np.einsum("arbs,r,s->ab", m4, uk.conj(), uk)
    scale = math.comb(d + k - 1, k) / math.comb(d + 2 * k - 1, 2 * k)
    rho = scale * rho
    # normalize by the outcome density so the result has unit trace
    return rho / float(np.trace(rho).real)


def exhaustive_collision_variance(p: np.ndarray, q: np.ndarray, m: int) -> float:
    """Variance of the cross-collision fraction by exhaustive enumeration
    of all d^m outcome tuples on each side. O(d^m d^2)."""
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
    d = p.size
    if d**m > 1_000_000:
        raise ValueError("enumeration too large")

    def moments(dist: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        mean = np.zeros(d)
        second = np.zeros((d, d))
        for tup in itertools.product(range(d), repeat=m):
            prob = math.prod(dist[b] for b in tup)
            counts = np.bincount(tup, minlength=d).astype(float)
            mean += prob * counts
            second += prob * np.outer(counts, counts)
        return mean, second

    mp_, sp = moments(p)
    mq_, sq = moments(q)
    e1 = float(mp_ @ mq_) / m**2
    e2 = float(np.sum(sp * sq)) / m**4
    return e2 - e1**2


def collision_variance_exact(p: np.ndarray, q: np.ndarray, m: int) -> float:
    """Exact variance of the cross-collision fraction, closed form in the
    per-bucket probabilities."""
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
    g = float(p @ q)
    cross = float(p @ q**2 + p**2 @ q)
    return g / m**2 + ((m - 1) / m**2) * cross - ((2 * m - 1) / m**2) * g**2
