"""Inner-product estimators for two parties holding copies of pure states.

Two estimation routes: a multi-copy route where each party measures all
k local copies with the continuous symmetric-subspace POVM, and a
single-copy route built on cross-collision statistics of measurements in
shared random bases. Each route is split into a party step and a referee
step, which the direct estimators and the protocol strategies both call.
Plus the variance formulas, including the SWAP test's as a baseline, and
the threshold deciders for the orthogonal-vs-matching promise problem.

Randomness layout (shared with the protocol harness so that in-process
protocol runs reproduce the direct calls bit for bit): child stream 0 is
shared randomness, 1 is the first party, 2 is the second, 3 the referee.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .linalg import (
    PureState, DensityMatrix, overlap2, trace_inner, haar_states, orthogonal_units,
    row_blocks, sample_haar_state, sample_haar_unitary,
)
from .rng import RngStream
from .symmetric import standard_povm_sample

__all__ = [
    "STREAM_SHARED",
    "STREAM_ALICE",
    "STREAM_BOB",
    "STREAM_REFEREE",
    "EstimateRecord",
    "MulticopyConstants",
    "multicopy_constants",
    "multicopy_referee",
    "multicopy_estimate",
    "multicopy_variance_exact",
    "multicopy_variance_bound",
    "singlecopy_outcomes",
    "singlecopy_referee",
    "singlecopy_estimate",
    "singlecopy_variance_exact_pure",
    "born_sample",
    "classical_collision",
    "collision_variance_bound",
    "swap_test_variance",
    "generalized_swap_variance",
    "dipe_decide_threshold",
    "dipe_decide_pi0",
    "pi0_reject_probability",
    "make_state_pair",
]

# Child-stream indices; the protocol harness assigns the same ones.
STREAM_SHARED = 0
STREAM_ALICE = 1
STREAM_BOB = 2
STREAM_REFEREE = 3


@dataclass(frozen=True)
class EstimateRecord:
    """One run of an estimator: the unbiased estimate, its raw statistic,
    and whether the inputs were degenerate (d=1, where the overlap is
    exactly 1). The inputs themselves stay with the caller."""

    value: float
    raw: float
    degenerate: bool = False


@dataclass(frozen=True)
class MulticopyConstants:
    """Affine calibration w = slope * |<u|v>|^2 - offset making the
    multi-copy statistic unbiased for the squared overlap."""

    slope: float
    offset: float
    mean_a: float  # intercept of E|<u|v>|^2 = mean_a + mean_b * f
    mean_b: float

    def estimate(self, x):
        """The unbiased estimate for a squared overlap x (scalar or array)."""
        return self.slope * x - self.offset


def multicopy_constants(d: int, k: int) -> MulticopyConstants:
    if d < 1 or k < 1:
        raise ValueError("need d >= 1 and k >= 1")
    slope = (d + k) ** 2 / k**2
    offset = (d + 2 * k) / k**2
    mean_a = (d + 2 * k) / (d + k) ** 2
    mean_b = k**2 / (d + k) ** 2
    return MulticopyConstants(slope, offset, mean_a, mean_b)


def multicopy_estimate(
    phi: PureState, psi: PureState, k: int, rng: RngStream
) -> EstimateRecord:
    """Estimate |<phi|psi>|^2 from k copies per party.

    Each party samples the continuous POVM on its k copies; the referee
    rescales the squared overlap of the two outcomes. Unbiased; the value
    is not clamped to [0, 1]. Pure inputs only: mixed states break the
    calibration, so pass density matrices elsewhere. At d=1 the sampler
    warns and the estimate is exactly 1.
    """
    if isinstance(phi, DensityMatrix) or isinstance(psi, DensityMatrix):
        raise TypeError("multicopy_estimate requires pure states")
    if phi.dim != psi.dim:
        raise ValueError("dimension mismatch")
    if k < 1:
        raise ValueError("k must be >= 1")
    u = standard_povm_sample(phi, k, rng.child(STREAM_ALICE))
    v = standard_povm_sample(psi, k, rng.child(STREAM_BOB))
    w, x = multicopy_referee(u, v, k)
    return EstimateRecord(value=w, raw=x, degenerate=phi.dim == 1)


def multicopy_referee(u: PureState, v: PureState, k: int) -> tuple[float, float]:
    """Referee step of the multi-copy route: (estimate, squared overlap) of
    the two parties' POVM outcomes. At d=1 both are exactly 1."""
    if u.dim == 1:
        return 1.0, 1.0
    x = overlap2(u, v)
    return multicopy_constants(u.dim, k).estimate(x), x


def multicopy_variance_exact(d: int, k: int, f: float) -> float:
    """Exact variance of the multi-copy estimate at squared overlap f.

    Evaluated in rational arithmetic, with f taken exactly from its float,
    and rounded once: the terms cancel from O(1) down to O(1/k), which in
    floating point cost 2.3e-3 relative accuracy at d=48, k=56460645, f=1.
    """
    if d < 2 or k < 1:
        raise ValueError("need d >= 2 and k >= 1")
    f = Fraction(f)
    k1, k2 = k + 1, k + 2
    bracket = (
        k2**2 * k1**2 * f**2
        + 4 * k1 * k2 * (1 - f) ** 2
        + 2 * (d - 2 + f) ** 2
        + 2 * (d - 2 + f**2)
        + 4 * k1**2 * (1 - f) ** 2
        + 8 * k1 * (1 - f) * (d + 2 * f - 2)
        + 8 * k1**2 * k2 * f * (1 - f)
        + 4 * k1**2 * f * (d - 2 + f)
        + 8 * k1**2 * (f**2 - f)
    ) / k**4
    pref = Fraction((d + k) ** 2, (d + k + 1) ** 2)
    return float(pref * bracket - Fraction((d + 2 * k) ** 2, k**4) - 2 * (d + 2 * k) * f / k**2 - f**2)


def multicopy_variance_bound(d: int, k: int, f: float) -> float:
    """Simple upper bound on the multi-copy variance, O(d^2/k^4 + 1/k)."""
    return (
        (4 * f - 2 * f**2) / k
        + (2 * d * f + f**2 + 4) / k**2
        + (4 * d + 4) / k**3
        + (d**2 + 2 * d) / k**4
    )


def pure_born_probabilities(unitaries: np.ndarray, states: np.ndarray) -> np.ndarray:
    """|U phi|^2: outcome probabilities of measuring the unit vector states[i, s]
    in the basis unitaries[i], shapes (n, d, d) and (n, s, d) to (n, s, d)."""
    return np.abs(np.vecdot(unitaries[:, None], states.conj()[:, :, None])) ** 2


def born_counts(probs: np.ndarray, m: int, g: np.random.Generator) -> np.ndarray:
    """Outcome counts of m shots for each row (last axis) of probabilities,
    from one multinomial call, which walks the rows in C order."""
    total = probs.sum(axis=-1, keepdims=True)
    bad = np.abs(total - 1.0) > 1e-8
    if bad.any():
        raise RuntimeError(f"born_sample: outcome probabilities sum to {total[bad][0]}")
    return g.multinomial(m, probs / total)


def born_sample(rho: PureState | DensityMatrix, unitary: np.ndarray, m: int, rng: RngStream) -> np.ndarray:
    """Draw m outcomes of measuring rho in the basis of unitary's rows: the
    counts of born_counts at n=1, listed in ascending order.

    For a pure state the probabilities are |U phi|^2, for a density matrix
    diag(U rho U^†) clipped at 0."""
    if isinstance(rho, DensityMatrix):
        probs = np.clip(((unitary @ rho.matrix) * unitary.conj()).sum(axis=1).real, 0.0, None)
    else:
        probs = pure_born_probabilities(unitary[None], rho.amplitudes[None, None])[0, 0]
    return np.repeat(np.arange(rho.dim), born_counts(probs, m, rng.rng))


def collision_fractions(cx: np.ndarray, cy: np.ndarray) -> np.ndarray:
    """Fraction of colliding ordered cross pairs for each row of the two
    parties' outcome counts (last axis)."""
    return np.vecdot(cx, cy) / (cx.sum(axis=-1) * cy.sum(axis=-1))


def classical_collision(x: np.ndarray, y: np.ndarray) -> float:
    """Fraction of colliding ordered cross pairs between two outcome lists:
    collision_fractions of their counts."""
    x, y = np.asarray(x), np.asarray(y)
    if x.size == 0 or y.size == 0:
        raise ValueError("need at least one sample on each side")
    hi = int(max(x.max(), y.max())) + 1
    return float(collision_fractions(np.bincount(x, minlength=hi), np.bincount(y, minlength=hi)))


def _check_distribution(p: np.ndarray, name: str) -> np.ndarray:
    p = np.asarray(p, dtype=float)
    if np.any(p < -1e-12) or abs(p.sum() - 1.0) > 1e-9:
        raise ValueError(f"{name} is not a probability distribution")
    return p


def collision_variance_bound(p: np.ndarray, q: np.ndarray, m: int) -> float:
    """Upper bound on the variance of the cross-collision fraction with m
    samples from each of p and q."""
    p = _check_distribution(p, "p")
    q = _check_distribution(q, "q")
    if m < 1:
        raise ValueError("m must be >= 1")
    g = float(p @ q)
    cross = float(p @ q**2 + p**2 @ q)
    return g / m**2 + cross / m


def singlecopy_estimate(
    rho: DensityMatrix | PureState,
    sigma: DensityMatrix | PureState,
    n_bases: int,
    m: int,
    rng: RngStream,
) -> EstimateRecord:
    """Estimate Tr(rho sigma) from single copies measured in shared random
    bases.

    For each of n_bases Haar bases both parties measure m copies and the
    referee rescales the cross-collision fraction; the reported value is
    the average over bases. Accepts mixed states. Not clamped.
    """
    if rho.dim != sigma.dim:
        raise ValueError("dimension mismatch")
    d = rho.dim
    if n_bases < 1 or m < 1:
        raise ValueError("need n_bases >= 1 and m >= 1")
    if d == 1:
        warnings.warn("singlecopy_estimate degenerate at d=1: overlap is exactly 1")
    shared = rng.child(STREAM_SHARED)
    x = singlecopy_outcomes(rho, n_bases, m, shared, rng.child(STREAM_ALICE))
    y = singlecopy_outcomes(sigma, n_bases, m, shared, rng.child(STREAM_BOB))
    w, raw = singlecopy_referee(x, y, d)
    return EstimateRecord(value=w, raw=raw, degenerate=d == 1)


def singlecopy_outcomes(
    rho: PureState | DensityMatrix, n_bases: int, m: int, shared: RngStream, rng: RngStream
) -> np.ndarray:
    """Party step of the single-copy route: an (n_bases, m) array of outcomes.

    Basis i is the Haar unitary drawn from shared.child(i); its m shots
    come from rng.child(i), in ascending order. Each basis is drawn once per
    trial: both parties receive the same shared stream, and the second one
    takes the first one's draws (_shared_bases)."""
    out = np.empty((n_bases, m), dtype=np.int64)
    for i, u in enumerate(_shared_bases(rho.dim, n_bases, shared)):
        out[i] = born_sample(rho, u, m, rng.child(i))
    return out


_unclaimed_bases: dict = {}  # (d, n_bases, seed, path) -> one party's bases


def _shared_bases(d: int, n_bases: int, shared: RngStream) -> tuple[np.ndarray, ...]:
    """The n_bases shared d x d Haar bases, basis i drawn from shared.child(i),
    read-only.

    A miss draws and keeps them for the other party under the value
    (d, n_bases, shared.seed, shared.path), a hit hands them out and
    empties the memo; it holds no stream. Basis i is the first draw of a
    fresh child stream, so a hit returns the bits a second draw would."""
    key = (d, n_bases, shared.seed, shared.path)
    bases = _unclaimed_bases.pop(key, None)
    if bases is None:
        bases = tuple(sample_haar_unitary(d, shared.child(i)) for i in range(n_bases))
        for u in bases:
            u.flags.writeable = False
        _unclaimed_bases.clear()
        _unclaimed_bases[key] = bases
    return bases


def singlecopy_referee(x: np.ndarray, y: np.ndarray, d: int) -> tuple[float, float]:
    """Referee step of the single-copy route: (estimate, raw collision
    fraction), each averaged over the rows (bases) of the two outcome arrays."""
    x, y = np.asarray(x), np.asarray(y)
    for z in (x, y):
        if z.size and not 0 <= z.min() <= z.max() < d:
            raise ValueError(f"outcomes must lie in [0, {d}), got {z.min()}..{z.max()}")
    raws = np.array([classical_collision(xi, yi) for xi, yi in zip(x, y)])
    vals = (d + 1) * raws - 1.0
    return float(vals.mean()), float(raws.mean())


def singlecopy_variance_exact_pure(d: int, m: int, f: float) -> float:
    """Exact variance of one base's collision statistic for pure inputs
    with squared overlap f. Multiply by (d+1)^2 for the variance of the
    rescaled estimate w_i."""
    if d < 2 or m < 1:
        raise ValueError("need d >= 2 and m >= 1")
    base_var = (
        d**2 * (1 + f) ** 2 - d * (6 - f) * f + d + 2 * (1 - f) ** 2
    ) / (d * (d + 1) ** 2 * (d + 2) * (d + 3))
    second = (
        (1 + f) / ((d + 1) * m**2)
        + ((m - 1) / m**2) * (4 + 8 * f) / ((d + 1) * (d + 2))
        - ((2 * m - 1) / m**2)
        * (d**2 * (1 + f) ** 2 + 5 * d * (1 + f) ** 2 + 2 * (1 - f) ** 2)
        / (d * (d + 1) * (d + 2) * (d + 3))
    )
    return base_var + second


def swap_test_variance(f: float, k: int) -> float:
    # 1 - f**2 would cancel the rounding of f**2 near f = 1
    return (1.0 - f) * (1.0 + f) / k


def generalized_swap_variance(rho: DensityMatrix, sigma: DensityMatrix, k: int) -> float:
    """Variance of the permutation-test estimate of Tr(rho sigma) from k
    joint copies, valid for mixed inputs."""
    if k < 1:
        raise ValueError("k must be >= 1")
    f = trace_inner(rho, sigma)
    r2s = float(np.trace(rho.matrix @ rho.matrix @ sigma.matrix).real)
    rs2 = float(np.trace(rho.matrix @ sigma.matrix @ sigma.matrix).real)
    return 1.0 / k**2 + ((k - 1) / k**2) * (r2s + rs2) - ((2 * k - 1) / k**2) * f**2


def dipe_decide_threshold(u: PureState, v: PureState, k: int) -> int:
    """Decide the matching-vs-independent promise from the two parties' POVM
    outcomes on k copies each: case 1 (matching) iff the multi-copy estimate
    exceeds 1/2."""
    return 1 if multicopy_referee(u, v, k)[0] > 0.5 else 2


def pi0_reject_probability(u: PureState, psi: PureState, k: int) -> float:
    """Probability that none of k copies of psi is found along u:
    (1 - |<u|psi>|^2)^k."""
    return (1.0 - overlap2(u, psi)) ** k


def dipe_decide_pi0(u: PureState, psi: PureState, k: int, rng: RngStream) -> int:
    """Decide the promise by a two-outcome test on psi^{⊗k}: project onto
    the block of the symmetric subspace orthogonal to u in every factor.
    Case 2 iff that projection accepts."""
    return 2 if rng.rng.random() < pi0_reject_probability(u, psi, k) else 1


def state_pairs(d: int, f: float, n: int, g: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """n Haar random pairs (phi, psi) with |<phi|psi>|^2 = f, as two (n, d)
    arrays: psi = sqrt(f) phi + sqrt(1 - f) z, z Haar orthogonal to phi."""
    phi = haar_states(d, n, g)
    psi = orthogonal_units(phi, g)
    psi *= math.sqrt(1.0 - f)
    # a sum commutes: these are the bits of sqrt(f) phi + sqrt(1 - f) z
    for psi_rows, phi_rows in row_blocks(psi, phi):
        psi_rows += math.sqrt(f) * phi_rows
    return phi, psi


def make_state_pair(d: int, f: float, rng: RngStream) -> tuple[PureState, PureState]:
    """Haar-random pair of pure states with squared overlap exactly f:
    state_pairs at n=1."""
    if not 0.0 <= f <= 1.0:
        raise ValueError("f must lie in [0, 1]")
    if d == 1:
        if f != 1.0:
            raise ValueError("d=1 admits only f=1")
        phi = sample_haar_state(1, rng)
        return phi, phi
    phi, psi = state_pairs(d, f, 1, rng.rng)
    return PureState(phi[0]), PureState(psi[0])
