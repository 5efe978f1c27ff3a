"""The 1/eps^2 side of the paper's lower bound, in exact arithmetic.

Average (phi phi*)^{⊗k} ⊗ (psi psi*)^{⊗k} over Haar pairs with
|<phi|psi>|^2 = f. The result rho_f is U⊗U-invariant on Sym^k ⊗ Sym^k, which
holds one copy of each irrep of total spin J = 0..k of span{phi, psi}, so
rho_f = sum_J p_J(f) P_J / dim_J and

    TD(rho_f, rho_g) = 1/2 sum_J |p_J(f) - p_J(g)|,

the best advantage of any measurement on all 2k copies, joint and adaptive
included. It does not depend on d >= 2: the vectors lie in
Sym^k(span{phi, psi})^{⊗2}. With the stretched Clebsch-Gordan coefficient,

    p_J(f) = sum_{r >= k-J} C(k, r) f^{k-r} (1-f)^r (2J+1) k! r! (J+k-r)!
             / [(k+J+1)! (k-J)! (k-r)! (J-k+r)!].

The least k at which two overlaps eps apart are told apart with advantage
1/3 grows as 1/eps^2. Not covered: the sqrt(d)/eps term, whose
eps-dependence comes from the paper's Problem 1. No experiment computes this
law, so it lives here, beside its checks.
"""

import math
from fractions import Fraction

import numpy as np
import pytest


def spin_weights(k, f):
    """p_J(f) for J = 0..k in floats, summing positive terms taken from log
    space; 0 < f < 1."""
    lf = [math.lgamma(i + 1) for i in range(2 * k + 2)]  # log i!
    lp, lq = math.log(f), math.log1p(-f)
    return [
        math.fsum(
            math.exp(
                math.log(2 * J + 1) + 2 * lf[k] + lf[J + k - r] + (k - r) * lp + r * lq
                - lf[k + J + 1] - lf[k - J] - 2 * lf[k - r] - lf[J - k + r]
            )
            for r in range(k - J, k + 1)
        )
        for J in range(k + 1)
    ]


def spin_weights_exact(k, f: Fraction, mult=lambda J: 2 * J + 1):
    """p_J(f) for J = 0..k as Fractions; mult(J) is the (2J+1) factor."""
    fact = math.factorial
    return [
        sum(
            math.comb(k, r) * f ** (k - r) * (1 - f) ** r
            * Fraction(
                mult(J) * fact(k) * fact(r) * fact(J + k - r),
                fact(k + J + 1) * fact(k - J) * fact(k - r) * fact(J - k + r),
            )
            for r in range(k - J, k + 1)
        )
        for J in range(k + 1)
    ]


def trace_distance(k, f, g):
    """TD(rho_f, rho_g) on k copies a party."""
    return 0.5 * math.fsum(abs(a - b) for a, b in zip(spin_weights(k, f), spin_weights(k, g)))


def least_copies(f, eps, target=1.0 / 3.0):
    """The least k with TD(rho_f, rho_{f+eps}) >= target. TD does not fall
    as k grows (a partial trace maps k+1 copies to k), so bisect."""
    hi = 1
    while trace_distance(hi, f, f + eps) < target:
        hi *= 2
    lo = hi // 2  # TD(lo) < target, or lo = 0
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if trace_distance(mid, f, f + eps) >= target:
            hi = mid
        else:
            lo = mid
    return hi


def _swap_test_tv(k, f, g):
    """Total-variation distance between k SWAP tests' rejection counts at
    overlaps f and g, Bin(k, (1-f)/2) against Bin(k, (1-g)/2), exact."""
    p, q = (1 - f) / 2, (1 - g) / 2
    return sum(
        math.comb(k, j) * abs(p**j * (1 - p) ** (k - j) - q**j * (1 - q) ** (k - j))
        for j in range(k + 1)
    ) / 2


def _spin_matrices(s2):
    """J+ and Jz of spin s = s2/2 in the basis m = s, s-1, ..., -s."""
    m = np.array([(s2 - 2 * i) / 2 for i in range(s2 + 1)])
    s = s2 / 2
    jp = np.zeros((s2 + 1, s2 + 1))
    for i in range(1, s2 + 1):  # J+ |m_i> = c |m_{i-1}>
        jp[i - 1, i] = math.sqrt(s * (s + 1) - m[i] * (m[i] + 1))
    return jp, np.diag(m)


@pytest.mark.parametrize("k", [3, 6])
def test_closed_form_is_the_total_spin_decomposition(k):
    # p_J(f) = ||P_J (phi^{⊗k} ⊗ psi^{⊗k})||^2 with P_J the total-spin-J
    # projector on spin k/2 ⊗ spin k/2, phi = e_0, psi = (sqrt f, sqrt(1-f)),
    # found by diagonalising the total J^2 on (k+1)^2 dimensions
    jp, jz = _spin_matrices(k)
    one = np.eye(k + 1)
    j1_dot_j2 = np.kron(jz, jz) + 0.5 * (np.kron(jp, jp.T) + np.kron(jp.T, jp))
    total = k * (k / 2 + 1) * np.eye((k + 1) ** 2) + 2 * j1_dot_j2  # J1^2 + J2^2 + 2 J1.J2
    evals, evecs = np.linalg.eigh(total)
    spin = np.rint((np.sqrt(1 + 4 * evals) - 1) / 2).astype(int)
    assert np.max(np.abs(spin * (spin + 1) - evals)) <= 1e-9
    assert np.array_equal(np.bincount(spin), [2 * J + 1 for J in range(k + 1)])
    for f in (0.2, 0.5, 0.9):
        a, b = math.sqrt(f), math.sqrt(1 - f)
        coherent = np.array([math.sqrt(math.comb(k, i)) * a ** (k - i) * b**i for i in range(k + 1)])
        vec = np.kron(one[0], coherent)  # phi^{⊗k}: every factor e_0, m = k/2
        weights = np.bincount(spin, weights=(evecs.T @ vec) ** 2)
        assert np.max(np.abs(weights - spin_weights(k, f))) <= 1e-12


@pytest.mark.parametrize("k", [1, 2, 3, 6])
def test_floats_match_fractions_and_the_weights_sum_to_one(k):
    for f in (Fraction(1, 2), Fraction(3, 5), Fraction(1, 7)):
        exact = spin_weights_exact(k, f)
        assert sum(exact) == 1
        assert all(p >= 0 for p in exact)
        assert np.max(np.abs(np.array(spin_weights(k, float(f))) - [float(p) for p in exact])) <= 1e-14
    # at f = 1 the pair is one state twice: all weight on the symmetric J = k
    assert spin_weights_exact(k, Fraction(1)) == [0] * k + [1]


def test_trace_distance_does_not_fall_with_copies():
    tds = [trace_distance(k, 0.5, 0.6) for k in range(1, 41)]
    assert all(b >= a - 1e-15 for a, b in zip(tds, tds[1:]))


@pytest.mark.parametrize("eps,k_min", [(Fraction(1, 10), 37), (Fraction(1, 20), 148)])
def test_copies_needed_grow_as_one_over_eps_squared(eps, k_min):
    k = least_copies(0.5, float(eps))
    assert k == k_min
    assert 0.36 <= k * float(eps) ** 2 <= 0.38


def test_swap_test_is_no_better_than_the_best_measurement():
    # k SWAP tests are one joint measurement on the 2k copies, so their
    # rejection counts tell f from f + eps no better than TD does
    f, g = Fraction(1, 2), Fraction(3, 5)
    for k in (1, 2, 5, 10, 20, 37):
        td = sum(abs(a - b) for a, b in zip(spin_weights_exact(k, f), spin_weights_exact(k, g))) / 2
        assert _swap_test_tv(k, f, g) <= td
    assert float(_swap_test_tv(37, f, g)) == pytest.approx(0.286, abs=5e-4)
    assert trace_distance(37, 0.5, 0.6) == pytest.approx(0.336, abs=5e-4)


def test_a_wrong_multiplicity_breaks_the_normalisation():
    # (2J+2) in place of (2J+1) fails the Fraction check above: the weights
    # sum to 1 + sum_J p_J / (2J+1) instead of 1
    wrong = sum(spin_weights_exact(6, Fraction(1, 2), mult=lambda J: 2 * J + 2))
    assert float(wrong) == pytest.approx(1.1155, abs=5e-5)
