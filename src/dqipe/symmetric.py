"""Exact constructions on the symmetric subspace of (C^d)^{⊗k}.

Projectors, the continuous tomography POVM sampler, the block-diagonal
post-measurement state and its spectrum, and the measure-and-prepare and
cloning channels.

The post-measurement state and the measure-and-prepare channel are
computed on Sym^k, in its occupation basis B of dimension
D = C(d+k-1, k), from the ladder operators a_i|l> = sqrt(l_i)|l - e_i>:
rho_u_occupation is a polynomial in the number operator along u, and
mp_channel_occupation Chiribella's combination of cloning channels and
partial traces. pi_u_t, rho_u_closed_form and mp_channel lift D x D
operators to (C^d)^{⊗k} by B (...) B^T; the cloning channels stay dense
and serve as a check.

Every build checks the bytes it will hold, computed from shapes, with
check_budget before it allocates, and raises DenseBudgetError past
BYTE_BUDGET. Closed-form paths (dimensions, block coefficients, block
trace distance) allocate nothing of that size and use exact integer
arithmetic.
"""

from __future__ import annotations

import functools
import itertools
import math
import warnings
from fractions import Fraction

import numpy as np

from .linalg import PureState, DensityMatrix, orthogonal_units, row_blocks
from .rng import RngStream

__all__ = [
    "BYTE_BUDGET",
    "WORK_BUDGET",
    "DenseBudgetError",
    "check_budget",
    "lift_bytes",
    "sym_dimension",
    "type_vectors",
    "sym_basis",
    "sym_projector",
    "standard_povm_sample",
    "beta_coefficient",
    "beta_coefficient_exact",
    "block_spectrum",
    "pi_u_t",
    "rho_u_occupation",
    "rho_u_closed_form",
    "trace_distance_rho_u_block",
    "maximally_mixed_sym",
    "mp_channel_occupation",
    "mp_channel",
    "clone_channel",
    "chiribella_combination",
    "partial_trace_last",
]

# Bytes one build may hold at once.
BYTE_BUDGET = 2**28
# Element updates a dense build may make; the 2.6e9 of the permutation-sum
# oracle at spectrum-check --d 2 --k 4 take about 18 s on a 2-vCPU VM.
WORK_BUDGET = 10**10


class DenseBudgetError(ValueError):
    """Raised before a build that would exceed BYTE_BUDGET or WORK_BUDGET."""


def check_budget(label: str, nbytes: int, updates: int = 0) -> None:
    """Refuse a build of nbytes bytes, or of `updates` element updates,
    over budget. Callers compute both from shapes before they allocate."""
    if nbytes > BYTE_BUDGET:
        raise DenseBudgetError(
            f"{label}: needs {nbytes / 2**20:.1f} MiB, over the byte budget"
            f" of {BYTE_BUDGET // 2**20} MiB"
        )
    if updates > WORK_BUDGET:
        raise DenseBudgetError(
            f"{label}: {updates:.2e} element updates, over the work budget"
            f" of {WORK_BUDGET:.0e}"
        )


def _density_bytes(n: int) -> int:
    """A complex n x n matrix and what DensityMatrix's check holds beside
    it: the Hermitian test's conjugate and difference, or the PSD test's
    shifted copy, LAPACK's copy of it and the factor."""
    return 64 * n * n


def lift_bytes(n: int, dim: int) -> int:
    """Bytes a lift B (...) B^T from D x D to n x n holds: complex copies
    of B and of the n x D product, then the lifted matrix with its
    DensityMatrix check."""
    return 48 * n * dim + _density_bytes(n)


def _overhead_bytes(d: int, n_types: int) -> int:
    """numpy's ufunc buffers, plus the Python tuples, lists and dicts over
    the occupation vectors."""
    return 2**18 + n_types * (256 + 8 * d)


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


@functools.lru_cache(maxsize=None)
def sym_basis(d: int, k: int) -> np.ndarray:
    """The occupation-number basis of Sym^k embedded in (C^d)^{⊗k}: a real
    (d^k, D) matrix with orthonormal columns, column j the normalised sum
    of the strings with occupation type_vectors(d, k)[j].

    Cached and returned read-only."""
    n, dim = d**k, sym_dimension(d, k)
    check_budget("sym_basis", 8 * n * dim + _overhead_bytes(d, dim))
    types = type_vectors(d, k)
    index = {t: j for j, t in enumerate(types)}
    vecs = np.zeros((n, dim))
    for flat, idx in enumerate(itertools.product(range(d), repeat=k)):
        counts = [0] * d
        for i in idx:
            counts[i] += 1
        vecs[flat, index[tuple(counts)]] = 1.0
    # column t holds M(t) ones
    vecs /= np.sqrt([float(_multinomial(t)) for t in types])
    vecs.setflags(write=False)
    return vecs


@functools.lru_cache(maxsize=None)
def sym_projector(d: int, k: int) -> np.ndarray:
    """Orthogonal projector onto the symmetric subspace of (C^d)^{⊗k}.

    Cached and returned read-only; copy before mutating."""
    n, dim = d**k, sym_dimension(d, k)
    # the real product beside the basis, as sym_basis counts it
    check_budget("sym_projector", 8 * n * n + 8 * n * dim + _overhead_bytes(d, dim))
    basis = sym_basis(d, k)
    p = basis @ basis.T
    p.setflags(write=False)
    return p


def povm_samples(states: np.ndarray, k: int, g: np.random.Generator) -> np.ndarray:
    """Row i: an outcome of the continuous symmetric-subspace POVM on
    states[i]^{⊗k}, for unit rows of an (n, d) array.

    The outcome u has density C(d+k-1,k)|<phi|u>|^{2k} du. No rejection:
    the squared overlap with phi is a Beta(k+1, d-1) draw, the relative
    phase is uniform, and the orthogonal component is Haar in the
    orthocomplement of phi. k=0 reduces to a Haar-uniform draw. At d=1
    the outcome is phi up to a uniform phase.
    """
    if k < 0:
        raise ValueError("k must be >= 0")
    n, d = states.shape
    if d == 1:
        return states * np.exp(1j * g.uniform(0.0, 2.0 * math.pi, size=n))[:, None]
    a2 = g.beta(k + 1, d - 1, size=n)
    theta = g.uniform(0.0, 2.0 * math.pi, size=n)
    u = orthogonal_units(states, g)
    u *= np.sqrt(1.0 - a2)[:, None]
    coef = np.sqrt(a2) * np.exp(1j * theta)
    for u_rows, c_rows, s_rows in row_blocks(u, coef, states):
        u_rows += c_rows[:, None] * s_rows
    return u


def standard_povm_sample(phi: PureState, k: int, rng: RngStream) -> PureState:
    """One outcome of the POVM on phi^{⊗k}: povm_samples at n=1."""
    return PureState(povm_samples(phi.amplitudes[None], k, rng.rng)[0])


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
    """dim W^t = C(d+k-t-2, k-t): symmetric states with t factors pinned.

    W^k is u^{⊗k} alone, dimension 1 for every d; at d=1 the formula would
    read C(-1, 0) there."""
    if not 0 <= t <= k:
        raise ValueError(f"t={t} out of range [0, {k}]")
    if t == k:
        return 1
    return math.comb(d + k - t - 2, k - t)


def block_spectrum(d: int, k: int) -> tuple[tuple[float, ...], tuple[int, ...]]:
    """(betas, dims): the post-measurement state's coefficient beta_t and
    block dimension dim W^t for t = 0..k."""
    betas = tuple(beta_coefficient(d, k, t) for t in range(k + 1))
    dims = tuple(block_dimension(d, k, t) for t in range(k + 1))
    return betas, dims


@functools.lru_cache(maxsize=None)
def _ladder(d: int, t: int) -> tuple[np.ndarray, np.ndarray]:
    """The ladder operators a_i from Sym^t to Sym^{t-1}: row m of a_i holds
    amp[m, i] = sqrt(m_i + 1) at column up[m, i], the index of m + e_i.

    Taking e_i away keeps type_vectors' lexicographic order, so up[:, i]
    lists the vectors with l_i > 0 in order. Cached and read-only."""
    types = np.array(type_vectors(d, t), dtype=np.intp).reshape(-1, d)
    up = np.stack([np.flatnonzero(types[:, i]) for i in range(d)], axis=1)
    amp = np.sqrt(np.take_along_axis(types, up, axis=0))
    for arr in (up, amp):
        arr.setflags(write=False)
    return up, amp


def _number_polynomial(u: np.ndarray, k: int, roots: list[int], scales: list[int]) -> np.ndarray:
    """prod_i (N_u - roots[i]) / scales[i] on Sym^k, in the occupation basis.

    N_u = b^H b counts the factors along u: b = sum_i conj(u_i) a_i is the
    annihilator along u, from Sym^k to Sym^{k-1} (_ladder). Block t of the
    post-measurement state is N_u's eigenspace for eigenvalue t. The
    product starts from its first factor, so the k factors both callers
    pass take k - 1 D x D products; with no factor (k = 0) it is the
    identity. Its callers check the budget (_polynomial_bytes).
    """
    up, amp = _ladder(u.shape[0], k)
    n = sym_dimension(u.shape[0], k)
    b = np.zeros((len(up), n), dtype=complex)
    for i, ui in enumerate(u):
        b[np.arange(len(up)), up[:, i]] = amp[:, i] * ui.conjugate()
    num = b.conj().T @ b
    out = None
    for root, scale in zip(roots, scales):
        factor = num / scale
        factor.flat[:: n + 1] -= root / scale
        out = factor if out is None else out @ factor
    return np.eye(n, dtype=complex) if out is None else out


def _polynomial_bytes(d: int, dim: int) -> int:
    """Bytes _number_polynomial holds: b, N_u, the product, a factor and
    their product, complex D x D at most, beside the occupation vectors."""
    return 80 * dim * dim + _overhead_bytes(d, 2 * dim)


def pi_u_t(u: PureState, k: int, t: int) -> np.ndarray:
    """Projector onto the block of the symmetric subspace with exactly t
    factors along u: the Lagrange product prod_{s != t} (N_u - s) / (t - s),
    1 on N_u's eigenvalue t and 0 on the others, lifted by B (...) B^T.
    """
    d = u.dim
    if not 0 <= t <= k:
        raise ValueError(f"t={t} out of range [0, {k}]")
    n, dim = d**k, sym_dimension(d, k)
    # the polynomial, then its lift beside the real basis
    check_budget(
        "pi_u_t", _polynomial_bytes(d, dim) + 8 * n * dim + lift_bytes(n, dim), (k + 1) * dim**3
    )
    others = [s for s in range(k + 1) if s != t]
    p = _number_polynomial(u.amplitudes, k, others, [t - s for s in others])
    b = sym_basis(d, k)
    return b @ p @ b.T


def rho_u_occupation(u: PureState, k: int) -> DensityMatrix:
    """Post-measurement state sum_t beta_t Pi_u^t on Sym^k, as a D x D
    matrix in the basis B = sym_basis(d, k).

    beta_t = prod_{j=1..k} (t + j) / (d + k + j - 1), so the state is that
    polynomial in N_u. It is hermitised and divided by its trace, which
    keeps it exactly [[1.0]] at d=1.
    """
    d, dim = u.dim, sym_dimension(u.dim, k)
    # the polynomial's build, then its Hermitian part beside the output
    # with its DensityMatrix check
    check_budget(
        "rho_u_occupation", _polynomial_bytes(d, dim) + _density_bytes(dim), (k + 1) * dim**3
    )
    js = range(1, k + 1)
    rho = _number_polynomial(u.amplitudes, k, [-j for j in js], [d + k + j - 1 for j in js])
    rho = (rho + rho.conj().T) / 2
    return DensityMatrix(rho / np.trace(rho).real)


def rho_u_closed_form(u: PureState, k: int) -> DensityMatrix:
    """rho_u_occupation lifted to (C^d)^{⊗k}: B rho B^T."""
    check_budget("rho_u_closed_form", lift_bytes(u.dim**k, sym_dimension(u.dim, k)))
    b = sym_basis(u.dim, k)
    return DensityMatrix(b @ rho_u_occupation(u, k).matrix @ b.T)


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
    n = d**k
    # the scaled real copy of the projector, then its complex DensityMatrix
    check_budget("maximally_mixed_sym", 8 * n * n + _density_bytes(n))
    return DensityMatrix(sym_projector(d, k) / sym_dimension(d, k))


def partial_trace_last(op: np.ndarray, d: int, n_keep: int, n_last: int) -> np.ndarray:
    """Trace out the last n_last tensor factors."""
    a, b = d**n_keep, d**n_last
    return np.einsum("iaja->ij", op.reshape(a, b, a, b))


def _multinomial(t: tuple[int, ...]) -> int:
    """M(t) = |t|! / prod_i t_i!: the number of strings with occupation t."""
    return math.factorial(sum(t)) // math.prod(math.factorial(x) for x in t)


def mp_channel_occupation(x: np.ndarray, d: int, k: int) -> DensityMatrix:
    """Measure-and-prepare channel on Sym^k, in the basis B = sym_basis(d, k).

    x is a unit-trace D x D operator in that basis. Measuring with the
    continuous POVM and re-preparing k copies is Chiribella's combination
    (arXiv:1010.1875, dense in chiribella_combination): MP(X) =
    sum_s w_s clone_{s->k}(X_s), X_s = Tr_{k-s} X, with
    w_s = C(k,s) C(d+k-1, k-s) / C(d+2k-1, k). On Sym^t, with weights
    sqrt((m_i + 1)(m'_i + 1)), Tr_1 X = (1/t) sum_i a_i X a_i^H reads X at
    (m + e_i, m' + e_i) and B^T (Y ⊗ I) B = (1/t) sum_i a_i^H Y a_i adds
    Y[m, m'] there; clone_{s->k} is D_s / D_k times k - s of the latter.
    In Horner order: Z_0 = c_0 Tr X, Z_t = c_t X_t + B^T (Z_{t-1} ⊗ I) B,
    MP(X) = Z_k, c_t = w_t D_t / D_k. The output is hermitised and divided
    by its trace, which keeps it exactly [[1.0]] at d=1.
    """
    dims = [sym_dimension(d, t) for t in range(k + 1)]
    # Z_k, and beside it either the steps (X_t and Z_t below the top, and
    # a gather with its weights and product over all d modes) or the
    # Hermitian part with the output's DensityMatrix check
    steps = sum(32 * n * n for n in dims[:-1]) + 48 * d * max(dims[:-1], default=0) ** 2
    check_budget(
        "mp_channel_occupation",
        16 * dims[k] ** 2 + max(steps, _density_bytes(dims[k])) + _overhead_bytes(d, dims[k]),
    )

    def entries(t):
        # mode i's entries (m + e_i, m' + e_i) of level t and their weights
        up, amp = _ladder(d, t)
        return (up.T[:, :, None], up.T[:, None, :]), amp.T[:, :, None] * amp.T[:, None, :]

    levels = [np.asarray(x, dtype=complex)]  # X_k down to X_0, then reversed
    for t in range(k, 0, -1):
        at, weight = entries(t)
        levels.append((weight * levels[-1][at]).sum(axis=0) / t)
    levels.reverse()
    den = math.comb(d + 2 * k - 1, k) * dims[k]
    c = [math.comb(k, t) * math.comb(d + k - 1, k - t) * dims[t] / den for t in range(k + 1)]
    z = c[0] * levels[0]
    for t in range(1, k + 1):
        at, weight = entries(t)
        below = z / t
        z = c[t] * levels[t]
        np.add.at(z, at, weight * below)
    z = (z + z.conj().T) / 2
    return DensityMatrix(z / np.trace(z).real)


def mp_channel(tau: DensityMatrix, d: int, k: int) -> DensityMatrix:
    """mp_channel_occupation lifted to (C^d)^{⊗k}: B Y B^T with Y the
    channel applied to X = B^T tau B, normalised to unit trace.

    Inputs not supported on the symmetric subspace are projected there
    with a warning.
    """
    # projecting tau down holds less than lifting the output up
    check_budget("mp_channel", lift_bytes(d**k, sym_dimension(d, k)))
    b = sym_basis(d, k)
    x = b.T @ tau.matrix @ b
    tr = float(np.trace(x).real)
    if abs(tr - 1.0) > 1e-9:
        warnings.warn("mp_channel input not supported on the symmetric subspace; projecting")
    return DensityMatrix(b @ mp_channel_occupation(x / tr, d, k).matrix @ b.T)


def clone_channel(rho: np.ndarray | None, d: int, s: int, k: int) -> DensityMatrix:
    """Optimal s -> k symmetric cloning channel.

    rho is an operator on (C^d)^{⊗s} (None allowed when s=0, where the
    channel prepares the maximally mixed symmetric state).
    """
    if not 0 <= s <= k:
        raise ValueError("need 0 <= s <= k")
    n = d**k
    # the lifted input, a complex copy of the projector for each product
    # and the product, then the output with its DensityMatrix check
    check_budget("clone_channel", 48 * n * n + _density_bytes(n))
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
    n = d**k
    # the accumulator and a weighted term beside one cloning channel's build
    check_budget("chiribella_combination", 80 * n * n + _density_bytes(n))
    den = math.comb(d + 2 * k - 1, k)
    acc = np.zeros((n, n), dtype=complex)
    for s in range(k + 1):
        weight = math.comb(k, s) * math.comb(d + k - 1, k - s) / den
        reduced = partial_trace_last(rho.matrix, d, s, k - s) if s < k else rho.matrix
        acc += weight * clone_channel(reduced, d, s, k).matrix
    acc = (acc + acc.conj().T) / 2
    return DensityMatrix(acc)

