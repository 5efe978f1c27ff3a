"""Complex dense linear algebra, state types, sampling, and distances.

Pure states are stored as raw unit vectors (no global-phase
canonicalization; every observable used downstream is phase-invariant).
All eigenvalue work goes through Hermitian-specialized routines.

The samplers work on (n, d) arrays, one row per draw, and the scalar entry
points are their n=1 calls. The order in which they draw from the
Generator is part of every seeded output: reordering, batching or resizing
a draw changes every gate statistic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .rng import RngStream

__all__ = [
    "NORM_TOL",
    "HERM_TOL",
    "PSD_TOL",
    "SUPPORT_TOL",
    "PureState",
    "DensityMatrix",
    "is_hermitian",
    "sample_haar_state",
    "sample_haar_unitary",
    "overlap2",
    "trace_inner",
    "trace_distance",
    "dmax",
]

NORM_TOL = 1e-12
HERM_TOL = 1e-10
PSD_TOL = 1e-9
# dmax's support test: eigenvalues and leaked weight at most this count as 0
SUPPORT_TOL = 1e-9


def is_hermitian(m: np.ndarray) -> bool:
    return m.shape[0] == m.shape[1] and np.max(np.abs(m - m.conj().T)) <= HERM_TOL


def _is_psd(m: np.ndarray, tol: float) -> bool:
    """eigvalsh(m)[0] >= -tol, decided by a Cholesky factorisation when it can be.

    Cholesky of m + tol*I succeeds only when every eigenvalue of m exceeds
    -tol, so success accepts; on failure eigvalsh decides. Both read only
    the lower triangle, and m itself is never written to.
    """
    shifted = m.copy()
    shifted.flat[:: m.shape[0] + 1] += tol
    try:
        np.linalg.cholesky(shifted)
    except np.linalg.LinAlgError:
        return float(np.linalg.eigvalsh(m)[0]) >= -tol
    return True


@dataclass(frozen=True)
class PureState:
    """A unit vector in C^d."""

    amplitudes: np.ndarray

    def __post_init__(self):
        amps = np.asarray(self.amplitudes, dtype=complex).reshape(-1)
        object.__setattr__(self, "amplitudes", amps)
        norm2 = float(np.vdot(amps, amps).real)
        # written so that a NaN or infinite norm fails too
        if not abs(norm2 - 1.0) <= 1e-9:
            raise ValueError(f"state vector not normalized: ||v||^2 = {norm2}")
        if abs(math.sqrt(norm2) - 1.0) > NORM_TOL:
            # renormalize tiny drift so downstream invariants hold exactly
            object.__setattr__(self, "amplitudes", amps / math.sqrt(norm2))

    @property
    def dim(self) -> int:
        return self.amplitudes.shape[0]

    def density(self) -> "DensityMatrix":
        v = self.amplitudes
        return DensityMatrix(np.outer(v, v.conj()))


@dataclass(frozen=True)
class DensityMatrix:
    """Hermitian PSD unit-trace operator on C^d.

    PSD means a least eigenvalue >= -PSD_TOL: a Cholesky factorisation of
    matrix + PSD_TOL*I accepts, and when it fails eigvalsh decides.
    """

    matrix: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=complex)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValueError("density matrix must be square")
        if not is_hermitian(m):
            raise ValueError("density matrix not Hermitian within tolerance")
        tr = float(np.trace(m).real)
        if abs(tr - 1.0) > HERM_TOL:
            raise ValueError(f"density matrix trace {tr} != 1")
        if not _is_psd(m, PSD_TOL):
            raise ValueError("density matrix has a negative eigenvalue")
        object.__setattr__(self, "matrix", m)

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]


def _check_same_dim(a, b):
    if a.dim != b.dim:
        raise ValueError(f"dimension mismatch: {a.dim} vs {b.dim}")


# Rows per step of an in-place update over an (n, d) array: a broadcast
# temporary then holds one block of rows, not n. Each row's arithmetic is
# the same in any block, so no bit depends on it.
ROW_BLOCK = 2048


def row_blocks(*arrays, rows: int = ROW_BLOCK):
    """Views of `rows` leading rows of each array at a time, as tuples for a
    loop of in-place updates (the arrays themselves when they are no
    longer)."""
    n = len(arrays[0])
    if n <= rows:
        return (arrays,)
    return [tuple(a[lo : lo + rows] for a in arrays) for lo in range(0, n, rows)]


def complex_normals(shape, g: np.random.Generator, real: np.ndarray | None = None) -> np.ndarray:
    """Standard complex Gaussians of the given shape: all real parts, then
    all imaginary parts.

    Block form: given `real`, the real parts of these rows taken from one
    earlier draw for all rows, it draws only the imaginary parts. Drawing
    the blocks in row order then gives the bits of one call."""
    z = np.empty(shape, dtype=complex)
    z.real = g.standard_normal(shape) if real is None else real
    z.imag = g.standard_normal(shape)
    return z


def _unit_rows(z: np.ndarray) -> np.ndarray:
    """z with each row (last axis) scaled to unit norm, in place."""
    z /= np.sqrt(np.vecdot(z, z).real)[..., None]
    return z


def haar_states(d: int, n: int, g: np.random.Generator) -> np.ndarray:
    """n Haar random unit vectors in C^d, as the rows of an (n, d) array."""
    return _unit_rows(complex_normals((n, d), g))


def orthogonal_units(states: np.ndarray, g: np.random.Generator) -> np.ndarray:
    """Row i: a Haar random unit vector orthogonal to the unit vector states[i]."""
    z = complex_normals(states.shape, g)
    for z_rows, s_rows, c_rows in row_blocks(z, states, np.vecdot(states, z)):
        z_rows -= s_rows * c_rows[:, None]
    return _unit_rows(z)


def haar_unitaries(z: np.ndarray) -> np.ndarray:
    """Haar random unitaries from complex Ginibre matrices z of shape (..., d, d).

    QR factors each matrix on its own; each column of Q is rephased so the
    matching diagonal entry of R is real positive, which makes Q exactly
    Haar."""
    q, r = np.linalg.qr(z)
    diag = np.diagonal(r, axis1=-2, axis2=-1)
    return q * (diag / np.abs(diag))[..., None, :]


def sample_haar_state(d: int, rng: RngStream) -> PureState:
    """Uniform (Haar) random unit vector in C^d: haar_states at n=1."""
    if d < 1:
        raise ValueError("dimension must be >= 1")
    return PureState(haar_states(d, 1, rng.rng)[0])


def sample_haar_unitary(d: int, rng: RngStream) -> np.ndarray:
    """Haar random d x d unitary: haar_unitaries of one Ginibre matrix."""
    if d < 1:
        raise ValueError("dimension must be >= 1")
    return haar_unitaries(complex_normals((d, d), rng.rng))


def squared_overlaps(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """|<u_i|v_i>|^2 for the rows of two (n, d) arrays."""
    return np.abs(np.vecdot(u, v)) ** 2


def overlap2(a: PureState, b: PureState) -> float:
    """|<a|b>|^2: squared_overlaps at n=1."""
    _check_same_dim(a, b)
    return float(squared_overlaps(a.amplitudes[None], b.amplitudes[None])[0])


def trace_inner(rho: DensityMatrix, sigma: DensityMatrix) -> float:
    """Tr(rho sigma), guaranteed real for Hermitian inputs."""
    _check_same_dim(rho, sigma)
    return float(np.trace(rho.matrix @ sigma.matrix).real)


def trace_distance(rho: DensityMatrix, sigma: DensityMatrix) -> float:
    """(1/2)||rho - sigma||_1 via the Hermitian eigenvalues of the difference."""
    _check_same_dim(rho, sigma)
    ev = np.linalg.eigvalsh(rho.matrix - sigma.matrix)
    return float(0.5 * np.sum(np.abs(ev)))


def dmax(rho: DensityMatrix, sigma: DensityMatrix) -> float:
    """Max-relative entropy: smallest lam with rho <= e^lam sigma.

    Returns +inf when the support of rho is not contained in the support
    of sigma (tested at SUPPORT_TOL).
    """
    _check_same_dim(rho, sigma)
    w, v = np.linalg.eigh(sigma.matrix)
    on = w > SUPPORT_TOL
    if not np.all(on):
        # weight of rho outside sigma's support
        v_off = v[:, ~on]
        leak = float(np.trace(v_off.conj().T @ rho.matrix @ v_off).real)
        if leak > SUPPORT_TOL:
            return math.inf
    v_on = v[:, on]
    inv_sqrt = v_on / np.sqrt(w[on])
    core = inv_sqrt.conj().T @ rho.matrix @ inv_sqrt
    lam_max = float(np.linalg.eigvalsh((core + core.conj().T) / 2)[-1])
    lam_max = max(lam_max, 0.0)
    if lam_max == 0.0:
        return -math.inf
    return math.log(lam_max)

