"""Exact constructions on the symmetric subspace of (C^d)^{⊗k}.

Projectors, the continuous tomography POVM sampler, the block-diagonal
post-measurement state and its spectrum, and the measure-and-prepare and
cloning channels.

Dense operations on (C^d)^{⊗k} refuse to run when d^k exceeds
DENSE_BUDGET; closed-form paths (dimensions, block coefficients, block
trace distance) have no such limit and use exact integer arithmetic.

The measure-and-prepare channel works in the occupation basis of Sym^k,
of dimension C(d+k-1, k): it pairs occupation vectors a + b = a' + b'
with weights from exact multinomials, and never builds an operator on
(C^d)^{⊗2k}. The cloning channels stay dense and serve as its check.
"""

from __future__ import annotations

import functools
import itertools
import math
import warnings
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .linalg import PureState, DensityMatrix, sample_orthogonal_unit
from .rng import RngStream

__all__ = [
    "DENSE_BUDGET",
    "DenseBudgetError",
    "SymBasis",
    "SymBlockSpectrum",
    "sym_dimension",
    "type_vectors",
    "sym_basis",
    "sym_projector",
    "standard_povm_sample",
    "beta_coefficient",
    "beta_coefficient_exact",
    "block_spectrum",
    "pi_u_t",
    "rho_u_closed_form",
    "trace_distance_rho_u_block",
    "maximally_mixed_sym",
    "mp_channel",
    "clone_channel",
    "chiribella_combination",
    "partial_trace_last",
]

DENSE_BUDGET = 20_000


class DenseBudgetError(ValueError):
    """Raised when a dense tensor-power operation exceeds DENSE_BUDGET."""


def _check_budget(d: int, k: int, label: str) -> None:
    if d**k > DENSE_BUDGET:
        raise DenseBudgetError(
            f"{label}: d^k = {d}^{k} exceeds dense budget {DENSE_BUDGET}"
        )


def sym_dimension(d: int, k: int) -> int:
    """Dimension of the symmetric subspace: C(d+k-1, k), exact."""
    if d < 1 or k < 0:
        raise ValueError("need d >= 1 and k >= 0")
    return math.comb(d + k - 1, k)


def type_vectors(d: int, k: int) -> list[tuple[int, ...]]:
    """All occupation vectors (l_0..l_{d-1}) with nonnegative entries summing to k.

    Ordered lexicographically; the count is C(d+k-1, k). The order fixes
    the column order of sym_basis and, through it, every dense result.
    """
    # sorted index tuples come in reverse lexicographic order of occupation
    combos = itertools.combinations_with_replacement(range(d), k)
    return [tuple(c.count(i) for i in range(d)) for c in combos][::-1]


@dataclass(frozen=True)
class SymBasis:
    """Orthonormal occupation-number basis of the symmetric subspace."""

    d: int
    k: int
    types: tuple[tuple[int, ...], ...]
    vectors: np.ndarray  # shape (d^k, dim), columns orthonormal


@functools.lru_cache(maxsize=None)
def sym_basis(d: int, k: int) -> SymBasis:
    """Build the occupation-number basis embedded in (C^d)^{⊗k}.

    Cached; callers must not mutate the vectors array."""
    _check_budget(d, k, "sym_basis")
    types = type_vectors(d, k)
    index = {t: j for j, t in enumerate(types)}
    n = d**k
    vecs = np.zeros((n, len(types)))
    for flat, idx in enumerate(itertools.product(range(d), repeat=k)):
        counts = [0] * d
        for i in idx:
            counts[i] += 1
        vecs[flat, index[tuple(counts)]] = 1.0
    vecs /= np.linalg.norm(vecs, axis=0)
    return SymBasis(d, k, tuple(types), vecs)


@functools.lru_cache(maxsize=None)
def _sym_projector_cached(d: int, k: int) -> np.ndarray:
    basis = sym_basis(d, k)
    p = basis.vectors @ basis.vectors.conj().T
    p.setflags(write=False)
    return p


def sym_projector(d: int, k: int) -> np.ndarray:
    """Orthogonal projector onto the symmetric subspace of (C^d)^{⊗k}.

    Cached and returned read-only; copy before mutating."""
    return _sym_projector_cached(d, k)


def standard_povm_sample(phi: PureState, k: int, rng: RngStream) -> PureState:
    """Sample an outcome of the continuous symmetric-subspace POVM on phi^{⊗k}.

    The outcome u has density C(d+k-1,k)|<phi|u>|^{2k} du. No rejection:
    the squared overlap with phi is a Beta(k+1, d-1) draw, the relative
    phase is uniform, and the orthogonal component is Haar in the
    orthocomplement of phi. k=0 reduces to a Haar-uniform draw.
    """
    d = phi.dim
    if k < 0:
        raise ValueError("k must be >= 0")
    if d == 1:
        warnings.warn("standard_povm_sample degenerate at d=1: outcome is phi up to phase")
        theta = rng.rng.uniform(0.0, 2.0 * math.pi)
        return PureState(phi.amplitudes * np.exp(1j * theta))
    g = rng.rng
    a2 = g.beta(k + 1, d - 1)
    theta = g.uniform(0.0, 2.0 * math.pi)
    z = sample_orthogonal_unit(phi, rng)
    u = math.sqrt(a2) * np.exp(1j * theta) * phi.amplitudes + math.sqrt(1.0 - a2) * z
    return PureState(u)


def beta_coefficient_exact(d: int, k: int, t: int) -> Fraction:
    """Block coefficient of the post-measurement state, exact rational.

    beta_t = (k+t)(k+t-1)...(t+1) / ((d+2k-1)...(d+k)); empty products
    at k=0 give 1.
    """
    if not 0 <= t <= k:
        raise ValueError(f"t={t} out of range [0, {k}]")
    num = math.prod(range(t + 1, k + t + 1))
    den = math.prod(range(d + k, d + 2 * k))
    return Fraction(num, den) if k > 0 else Fraction(1)


def beta_coefficient(d: int, k: int, t: int) -> float:
    return float(beta_coefficient_exact(d, k, t))


def block_dimension(d: int, k: int, t: int) -> int:
    """dim W^t = C(d+k-t-2, k-t): symmetric states with t factors pinned."""
    if not 0 <= t <= k:
        raise ValueError(f"t={t} out of range [0, {k}]")
    return math.comb(d + k - t - 2, k - t)


@dataclass(frozen=True)
class SymBlockSpectrum:
    """Per-block coefficient and dimension of the post-measurement state."""

    d: int
    k: int
    betas: tuple[float, ...]
    dims: tuple[int, ...]


def block_spectrum(d: int, k: int) -> SymBlockSpectrum:
    betas = tuple(beta_coefficient(d, k, t) for t in range(k + 1))
    dims = tuple(block_dimension(d, k, t) for t in range(k + 1))
    return SymBlockSpectrum(d, k, betas, dims)


def _householder_to(u: np.ndarray) -> np.ndarray:
    """Unitary (reflection, up to phase) mapping e_0 to u up to a phase.

    Sufficient wherever only conjugation by the rotation matters.
    """
    d = u.shape[0]
    overlap = u[0]
    phase = overlap / abs(overlap) if abs(overlap) > 1e-14 else 1.0
    target = u / phase  # now <e0|target> is real nonnegative
    w = target - np.eye(d, dtype=complex)[:, 0]
    nw2 = float(np.vdot(w, w).real)
    if nw2 < 1e-28:
        return np.eye(d, dtype=complex)
    return np.eye(d, dtype=complex) - 2.0 * np.outer(w, w.conj()) / nw2


def _rotated_basis(u: PureState, k: int) -> np.ndarray:
    """sym_basis(d, k) rotated by R^{⊗k}, R mapping e_0 to u up to a phase,
    one tensor axis at a time: column j has types[j][0] factors along u."""
    d = u.dim
    rot = _householder_to(u.amplitudes)
    rb = sym_basis(d, k).vectors.astype(complex).reshape((d,) * k + (-1,))
    for axis in range(k):
        rb = np.moveaxis(np.tensordot(rot, rb, axes=(1, axis)), 0, axis)
    return rb.reshape(d**k, -1)


def pi_u_t(u: PureState, k: int, t: int) -> np.ndarray:
    """Projector onto the block of the symmetric subspace with exactly t
    factors along u.

    Built from the rotated occupation-number basis vectors whose first
    entry is t.
    """
    d = u.dim
    _check_budget(d, k, "pi_u_t")
    if not 0 <= t <= k:
        raise ValueError(f"t={t} out of range [0, {k}]")
    cols = [j for j, tv in enumerate(sym_basis(d, k).types) if tv[0] == t]
    rb = _rotated_basis(u, k)[:, cols]
    return rb @ rb.conj().T


def rho_u_closed_form(u: PureState, k: int) -> DensityMatrix:
    """Post-measurement state sum_t beta_t Pi_u^t as a dense matrix,
    diagonal in the rotated occupation basis."""
    d = u.dim
    _check_budget(d, k, "rho_u_closed_form")
    betas = block_spectrum(d, k).betas
    weights = np.array([betas[tv[0]] for tv in sym_basis(d, k).types])
    rb = _rotated_basis(u, k)
    return DensityMatrix((rb * weights) @ rb.conj().T)


def trace_distance_rho_u_block(d: int, k: int) -> float:
    """Blockwise trace distance between the post-measurement state and the
    maximally mixed symmetric state, exact rationals throughout."""
    if d < 1 or k < 0:
        raise ValueError("need d >= 1 and k >= 0")
    uniform = Fraction(1, sym_dimension(d, k))
    total = Fraction(0)
    for t in range(k + 1):
        diff = beta_coefficient_exact(d, k, t) - uniform
        total += abs(diff) * block_dimension(d, k, t)
    return float(total / 2)


def maximally_mixed_sym(d: int, k: int) -> DensityMatrix:
    """Maximally mixed state on the symmetric subspace."""
    return DensityMatrix(sym_projector(d, k) / sym_dimension(d, k))


def partial_trace_last(op: np.ndarray, d: int, n_keep: int, n_last: int) -> np.ndarray:
    """Trace out the last n_last tensor factors."""
    a, b = d**n_keep, d**n_last
    return np.einsum("iaja->ij", op.reshape(a, b, a, b))


def _multinomial(t: tuple[int, ...]) -> int:
    """M(t) = |t|! / prod_i t_i!: the number of strings with occupation t."""
    return math.factorial(sum(t)) // math.prod(math.factorial(x) for x in t)


@functools.lru_cache(maxsize=None)
def _mp_terms(d: int, k: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Flat term list of the measure-and-prepare contraction on Sym^k.

    One entry per matched (a, b, a', b') with a + b = a' + b', all of
    them occupation vectors of weight k: the flat index b*D + b' into Y,
    the flat index a'*D + a into X, and the weight c(a,b) c(a',b'), where
    c(a,b) = <a+b|(|a>⊗|b>) = sqrt(M(a) M(b) / M(a+b)) from exact
    integers. Cached and returned read-only.
    """
    types = type_vectors(d, k)
    n = len(types)
    mult = [_multinomial(t) for t in types]
    groups: dict[tuple[int, ...], list[tuple[int, int]]] = {}
    for ia, a in enumerate(types):
        for ib, b in enumerate(types):
            groups.setdefault(tuple(x + y for x, y in zip(a, b)), []).append((ia, ib))
    y_idx: list[int] = []
    x_idx: list[int] = []
    weight: list[float] = []
    for c, pairs in groups.items():
        mc = _multinomial(c)
        coef = [math.sqrt(Fraction(mult[ia] * mult[ib], mc)) for ia, ib in pairs]
        for (ia, ib), ca in zip(pairs, coef):
            for (ia2, ib2), ca2 in zip(pairs, coef):
                y_idx.append(ib * n + ib2)
                x_idx.append(ia2 * n + ia)
                weight.append(ca * ca2)
    out = (np.array(y_idx, dtype=np.intp), np.array(x_idx, dtype=np.intp), np.array(weight))
    for arr in out:
        arr.setflags(write=False)
    return out


def mp_channel(tau: DensityMatrix, d: int, k: int) -> DensityMatrix:
    """Measure-and-prepare channel on a k-copy symmetric input.

    Measures with the continuous POVM and re-prepares k copies of the
    outcome: scale * Tr_1[(P tau P ⊗ I) P_sym^{2k}], computed exactly in
    the occupation basis B of Sym^k. With X = B^T tau B (normalised to
    unit trace), the output is scale * B Y B^T where
    Y[b, b'] = sum over a + b = a' + b' of c(a,b) c(a',b') X[a', a] and
    c(a,b) = <a+b|(|a>⊗|b>). Inputs not supported on the symmetric
    subspace are projected there with a warning.
    """
    if d ** (2 * k) > DENSE_BUDGET:
        raise DenseBudgetError(
            f"mp_channel: d^(2k) = {d}^{2 * k} exceeds dense budget {DENSE_BUDGET}"
        )
    b = sym_basis(d, k).vectors
    x = b.T @ tau.matrix @ b
    tr = float(np.trace(x).real)
    if abs(tr - 1.0) > 1e-9:
        warnings.warn("mp_channel input not supported on the symmetric subspace; projecting")
    x = x / tr
    n = x.shape[0]
    y_idx, x_idx, weight = _mp_terms(d, k)
    terms = weight * x.ravel()[x_idx]
    y = np.bincount(y_idx, terms.real, n * n) + 1j * np.bincount(y_idx, terms.imag, n * n)
    scale = math.comb(d + k - 1, k) / math.comb(d + 2 * k - 1, 2 * k)
    out = scale * (b @ y.reshape(n, n) @ b.T)
    out = (out + out.conj().T) / 2
    return DensityMatrix(out)


def clone_channel(rho: np.ndarray | None, d: int, s: int, k: int) -> DensityMatrix:
    """Optimal s -> k symmetric cloning channel.

    rho is an operator on (C^d)^{⊗s} (None allowed when s=0, where the
    channel prepares the maximally mixed symmetric state).
    """
    if not 0 <= s <= k:
        raise ValueError("need 0 <= s <= k")
    _check_budget(d, k, "clone_channel")
    if s == 0:
        base = np.eye(1, dtype=complex) if rho is None else np.atleast_2d(rho)
        scale_in = float(np.trace(base).real)
        out = sym_projector(d, k) * (scale_in / sym_dimension(d, k))
        return DensityMatrix(out)
    p = sym_projector(d, k)
    lifted = np.kron(rho, np.eye(d ** (k - s)))
    out = (math.comb(d + s - 1, s) / math.comb(d + k - 1, k)) * (p @ lifted @ p)
    out = (out + out.conj().T) / 2
    return DensityMatrix(out)


def chiribella_combination(rho: DensityMatrix, d: int, k: int) -> DensityMatrix:
    """Convex combination of cloning channels applied to the partial traces
    of rho; equals the measure-and-prepare channel output."""
    _check_budget(d, k, "chiribella_combination")
    den = math.comb(d + 2 * k - 1, k)
    n = d**k
    acc = np.zeros((n, n), dtype=complex)
    for s in range(k + 1):
        weight = math.comb(k, s) * math.comb(d + k - 1, k - s) / den
        reduced = partial_trace_last(rho.matrix, d, s, k - s) if s < k else rho.matrix
        if s == 0:
            acc += weight * (sym_projector(d, k) / sym_dimension(d, k)) * float(
                np.trace(np.atleast_2d(reduced)).real
            )
        else:
            acc += weight * clone_channel(reduced, d, s, k).matrix
    acc = (acc + acc.conj().T) / 2
    return DensityMatrix(acc)

