import gc
import itertools
import math
import warnings
import weakref
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dqipe import estimators as est
from dqipe import oracles
from dqipe.linalg import DensityMatrix, PureState, overlap2, sample_haar_unitary
from dqipe.rng import RngStream

seeds = st.integers(min_value=0, max_value=2**31)
overlaps = st.floats(min_value=0.0, max_value=1.0, allow_nan=False)


@given(d=st.integers(min_value=2, max_value=10), f=overlaps, seed=seeds)
@settings(max_examples=40, deadline=None)
def test_make_state_pair_hits_target_overlap(d, f, seed):
    phi, psi = est.make_state_pair(d, f, RngStream(seed))
    assert overlap2(phi, psi) == pytest.approx(f, abs=1e-10)


def test_multicopy_unbiased_and_raw_mean():
    d, k, f = 8, 16, 0.5
    root = RngStream(101)
    n = 4000
    w = np.empty(n)
    raw = np.empty(n)
    for t in range(n):
        tr = root.child(t)
        phi, psi = est.make_state_pair(d, f, tr.child(0))
        rec = est.multicopy_estimate(phi, psi, k, tr.child(1))
        w[t], raw[t] = rec.value, rec.raw
    se = w.std(ddof=1) / math.sqrt(n)
    assert w.mean() == pytest.approx(f, abs=4 * se)
    c = est.multicopy_constants(d, k)
    # E|<u|v>|^2 = ((d + 2k) + k^2 f) / (d + k)^2
    raw_mean = ((d + 2 * k) + k**2 * f) / (d + k) ** 2
    assert raw.mean() == pytest.approx(raw_mean, abs=5 * se / c.slope)


def test_multicopy_rejects_mixed_and_bad_args():
    rho = DensityMatrix(np.eye(2, dtype=complex) / 2)
    phi = PureState(np.array([1, 0], dtype=complex))
    with pytest.raises(TypeError):
        est.multicopy_estimate(rho, phi, 4, RngStream(0))
    with pytest.raises(ValueError):
        est.multicopy_estimate(phi, phi, 0, RngStream(0))
    psi3 = PureState(np.array([1, 0, 0], dtype=complex))
    with pytest.raises(ValueError):
        est.multicopy_estimate(phi, psi3, 4, RngStream(0))


def test_multicopy_estimates_are_not_clamped():
    # the unbiased estimate must be allowed outside [0, 1]
    d, k = 8, 4
    root = RngStream(7)
    seen_low, seen_high = False, False
    for t in range(500):
        tr = root.child(t)
        phi, psi = est.make_state_pair(d, 0.0, tr.child(0))
        seen_low |= est.multicopy_estimate(phi, psi, k, tr.child(1)).value < 0.0
        phi, psi = est.make_state_pair(d, 1.0, tr.child(2))
        seen_high |= est.multicopy_estimate(phi, psi, k, tr.child(3)).value > 1.0
    assert seen_low and seen_high


def test_multicopy_degenerate_d1():
    phi = PureState(np.array([1.0], dtype=complex))
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # d=1 is a supported input
        rec = est.multicopy_estimate(phi, phi, 4, RngStream(0))
    assert rec.value == 1.0 and rec.degenerate


@given(
    d=st.integers(min_value=2, max_value=12),
    k=st.integers(min_value=1, max_value=40),
    f=overlaps,
)
@settings(max_examples=60, deadline=None)
def test_multicopy_exact_variance_positive_and_below_bound(d, k, f):
    exact = est.multicopy_variance_exact(d, k, f)
    assert exact >= -1e-9
    assert exact <= est.multicopy_variance_bound(d, k, f) + 1e-9


def _multicopy_variance_fraction(d: int, k: int, f: Fraction, c: int = 2) -> Fraction:
    # the closed form written out again in rationals: numerator over
    # (d+k+1)^2 k^4; c != 2 perturbs the coefficient of (d-2+f)^2
    k1, k2 = k + 1, k + 2
    bracket = (
        k2**2 * k1**2 * f**2
        + 4 * k1 * k2 * (1 - f) ** 2
        + c * (d - 2 + f) ** 2
        + 2 * (d - 2 + f**2)
        + 4 * k1**2 * (1 - f) ** 2
        + 8 * k1 * (1 - f) * (d + 2 * f - 2)
        + 8 * k1**2 * k2 * f * (1 - f)
        + 4 * k1**2 * f * (d - 2 + f)
        + 8 * k1**2 * (f**2 - f)
    )
    total = (d + k) ** 2 * bracket - (d + k + 1) ** 2 * (
        (d + 2 * k) ** 2 + 2 * (d + 2 * k) * f * k**2 + f**2 * k**4
    )
    return total / ((d + k + 1) ** 2 * k**4)


def _multicopy_bound_fraction(d: int, k: int, f: Fraction) -> Fraction:
    return (
        (4 * f - 2 * f**2) / k
        + (2 * d * f + f**2 + 4) / k**2
        + Fraction(4 * d + 4, k**3)
        + Fraction(d**2 + 2 * d, k**4)
    )


@given(
    d=st.integers(min_value=2, max_value=10**6),
    k=st.integers(min_value=1, max_value=10**8),
    i=st.integers(min_value=0, max_value=1000),
)
@settings(max_examples=300, deadline=None)
def test_multicopy_exact_variance_is_correctly_rounded_and_below_bound(d, k, i):
    f = i / 1000
    exact = _multicopy_variance_fraction(d, k, Fraction(f))
    assert est.multicopy_variance_exact(d, k, f) == float(exact)
    assert 0 <= exact <= _multicopy_bound_fraction(d, k, Fraction(f))


def test_multicopy_exact_variance_cancellation_case():
    # float evaluation of the closed form was off by 2.3e-3 relative here
    got = est.multicopy_variance_exact(48, 56_460_645, 1.0)
    assert got == float(_multicopy_variance_fraction(48, 56_460_645, Fraction(1)))
    assert est.multicopy_variance_exact(8, 16, 0.5) == 0.1059609375


@given(
    d=st.integers(min_value=2, max_value=10**8),
    k=st.integers(min_value=1, max_value=10**8),
    f=overlaps,
)
@settings(max_examples=300, deadline=None)
def test_multicopy_variance_bound_holds_over_the_cli_range(d, k, f):
    exact = est.multicopy_variance_exact(d, k, f)
    assert exact <= est.multicopy_variance_bound(d, k, f) * (1 + 1e-12)


def test_multicopy_variance_pinned_and_bound_fails_a_perturbed_term():
    assert est.multicopy_variance_exact(2, 1, 0.0) == 6.5
    assert est.multicopy_variance_exact(64, 8, 0.25) == 2.09050713079377
    assert est.multicopy_variance_exact(10**8, 10**8, 1.0) == 3.0000000074999994e-08
    # 3 (d-2+f)^2 in place of 2 (d-2+f)^2 crosses the bound from d=10 at k=1
    grid = itertools.product(range(1, 60), range(2, 60), [i / 40 for i in range(41)])
    first = next(
        (d, k, f)
        for k, d, f in grid
        if _multicopy_variance_fraction(d, k, Fraction(f), c=3) > est.multicopy_variance_bound(d, k, f) * (1 + 1e-12)
    )
    assert first == (10, 1, 0.0)


def _copies_needed(d: int, eps: float) -> int:
    """k*(d, eps): the least k whose exact variance, at the worst f of an
    11-point grid, is at most eps^2 / 3 (Chebyshev at failure probability
    1/3). Bisection: the variance falls as k grows."""
    grid = [i / 10 for i in range(11)]

    def enough(k):
        return max(est.multicopy_variance_exact(d, k, f) for f in grid) <= eps**2 / 3

    hi = 1
    while not enough(hi):
        hi *= 2
    lo = hi // 2
    while hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = (lo, mid) if enough(mid) else (mid, hi)
    return hi


def test_multicopy_copies_follow_the_papers_rate():
    # k = Theta(max(1/eps^2, sqrt(d)/eps)): both regimes are covered, from
    # 1/eps^2 dominating (small d) to sqrt(d)/eps dominating (large d).
    # The ratio reads 2.47..4.16 over this grid.
    ratios = [
        _copies_needed(2**j, 2.0**-e) / max(4.0**e, 2 ** (j / 2) * 2**e)
        for j in range(2, 21, 2)
        for e in range(1, 8)
    ]
    assert 2.0 <= min(ratios) and max(ratios) <= 5.0


def _singlecopy_variance_copy(d: int, m: int, f, p: int = 2):
    # singlecopy_variance_exact_pure written out again, exact when f is a
    # Fraction; p != 2 perturbs the power of (d+1) in the one-shot term's
    # denominator
    base_var = (d**2 * (1 + f) ** 2 - d * (6 - f) * f + d + 2 * (1 - f) ** 2) / (
        d * (d + 1) ** p * (d + 2) * (d + 3)
    )
    second = (
        (1 + f) / ((d + 1) * m**2)
        + (m - 1) * (4 + 8 * f) / (m**2 * (d + 1) * (d + 2))
        - (2 * m - 1)
        * (d**2 * (1 + f) ** 2 + 5 * d * (1 + f) ** 2 + 2 * (1 - f) ** 2)
        / (m**2 * d * (d + 1) * (d + 2) * (d + 3))
    )
    return base_var + second


# relative error of the float closed form against its rational value; a
# scan of d in 2..39 and 10^2..10^8, m in 1..39 and 2^6..2^26, f = i/64
# read at most 1.21e-15 (at d=2, m=5, f=0.984375)
_SINGLECOPY_REL_TOL = 4e-15


@given(
    d=st.integers(min_value=2, max_value=10**8),
    m=st.integers(min_value=1, max_value=10**8),
    f=overlaps,
)
@settings(max_examples=300, deadline=None)
def test_singlecopy_variance_is_its_rational_value_over_the_cli_range(d, m, f):
    exact = _singlecopy_variance_copy(d, m, Fraction(f))
    assert exact > 0
    got = est.singlecopy_variance_exact_pure(d, m, f)
    assert abs(Fraction(got) - exact) <= _SINGLECOPY_REL_TOL * exact


def test_singlecopy_variance_pinned_and_a_perturbed_term_fails():
    assert est.singlecopy_variance_exact_pure(2, 1, 0.0) == 0.2222222222222222
    assert est.singlecopy_variance_exact_pure(8, 32, 0.5) == 0.002862918738162879
    assert est.singlecopy_variance_exact_pure(10**8, 10**8, 1.0) == 9.99999930000003e-24
    for d, m, f in itertools.product((2, 8, 10**4), (1, 32, 10**4), (0.0, 0.5, 1.0)):
        wrong = _singlecopy_variance_copy(d, m, Fraction(f), p=3)
        got = est.singlecopy_variance_exact_pure(d, m, f)
        assert abs(Fraction(got) - wrong) > _SINGLECOPY_REL_TOL * wrong


def _singlecopy_copies_needed(d: int, eps: float, variance=est.singlecopy_variance_exact_pure) -> int:
    """Least n_bases * m over m = 2^0..2^30, with n_bases = ceil(3 (d+1)^2
    Var / eps^2) at the worst f of an 11-point grid: enough bases for the
    mean of the rescaled w_i to lie within eps (Chebyshev at failure
    probability 1/3)."""
    grid = [i / 10 for i in range(11)]
    copies = [
        math.ceil(3 * (d + 1) ** 2 * max(variance(d, 2**p, f) for f in grid) / eps**2) * 2**p
        for p in range(31)
    ]
    assert min(copies) != copies[-1]  # the best m lies inside the range
    return min(copies)


def _singlecopy_rate_ratios(variance=est.singlecopy_variance_exact_pure) -> list[float]:
    return [
        _singlecopy_copies_needed(2**j, 2.0**-e, variance) / max(4.0**e, 2 ** (j / 2) * 2**e)
        for j in range(2, 21, 2)
        for e in range(1, 8)
    ]


def test_singlecopy_copies_follow_the_papers_rate():
    # the same Theta(max(1/eps^2, sqrt(d)/eps)) as the multi-copy estimator,
    # from 1/eps^2 dominating (small d) to sqrt(d)/eps dominating (large d)
    ratios = _singlecopy_rate_ratios()
    assert (min(ratios), max(ratios)) == (4.0, 30.0)


def test_singlecopy_rate_band_fails_a_perturbed_variance():
    # (d+1)^1 in the one-shot term leaves a floor that grows with d
    ratios = _singlecopy_rate_ratios(lambda d, m, f: _singlecopy_variance_copy(d, m, f, p=1))
    assert max(ratios) > 30.0


def test_born_sample_distribution():
    d = 4
    r = RngStream(33)
    u = sample_haar_unitary(d, r.child(0))
    amps = u.conj().T[:, 0]  # state whose rotated outcome 0 has high mass
    rho = PureState(amps).density()
    draws = est.born_sample(rho, u, 50000, r.child(1))
    probs = np.abs(u @ amps) ** 2
    counts = np.bincount(draws, minlength=d) / draws.size
    assert np.max(np.abs(counts - probs)) <= 0.01


def test_shared_bases_are_memoised_read_only_per_stream_object():
    root = RngStream(34)
    first, other = root.child(0), root.child(1)
    bases = est._shared_bases(4, 2, first)
    for i, u in enumerate(bases):
        assert np.array_equal(u, sample_haar_unitary(4, first.child(i)))
        with pytest.raises(ValueError):
            u[0, 0] = 0.0
    assert est._shared_bases(4, 2, first) is bases
    # another stream gets its own bases; a fresh object at the same
    # (seed, path) draws them again, with the same bits
    assert not any(np.array_equal(u, v) for u, v in zip(bases, est._shared_bases(4, 2, other)))
    again = est._shared_bases(4, 2, RngStream(34, (0,)))
    assert again is not bases
    assert all(np.array_equal(u, v) for u, v in zip(bases, again))


def test_shared_bases_memo_keeps_no_stream(monkeypatch):
    # keyed by value, the memo lets the trial's shared stream, and with it
    # the trial block it shares with its root, be collected
    refs = []
    memo = est._shared_bases

    def spy(d, n_bases, shared):
        refs.append(weakref.ref(shared))
        return memo(d, n_bases, shared)

    monkeypatch.setattr(est, "_shared_bases", spy)
    phi, psi = (PureState(np.eye(4, dtype=complex)[i]) for i in (0, 1))
    est.singlecopy_estimate(phi, psi, 2, 8, RngStream(35))
    gc.collect()
    assert len(refs) == 2 and all(ref() is None for ref in refs)


def test_born_sample_rejects_bad_probabilities():
    rho = DensityMatrix(np.eye(2, dtype=complex) / 2)
    not_unitary = np.array([[1.0, 0.0], [0.0, 0.5]], dtype=complex)
    with pytest.raises(RuntimeError):
        est.born_sample(rho, not_unitary, 4, RngStream(0))


def test_classical_collision_hand_values():
    assert est.classical_collision(np.array([0, 0]), np.array([0, 1])) == 0.5
    assert est.classical_collision(np.array([0, 1]), np.array([2, 3])) == 0.0
    assert est.classical_collision(np.array([5]), np.array([5])) == 1.0


@pytest.mark.parametrize("x,y", [([[40, 1]], [[40, 2]]), ([[-1, 1]], [[0, 1]]), ([[0, 1]], [[0, 32]])])
def test_singlecopy_referee_refuses_outcomes_outside_the_dimension(x, y):
    # at d=32, [[40, 1]] against [[40, 2]] used to give w = 7.25; -1 died in bincount
    with pytest.raises(ValueError, match=r"outcomes must lie in \[0, 32\)"):
        est.singlecopy_referee(np.array(x), np.array(y), 32)
    assert est.singlecopy_referee(np.array([[31, 1]]), np.array([[31, 2]]), 32) == (7.25, 0.25)


@given(
    m=st.integers(min_value=1, max_value=3),
    raw=st.lists(st.floats(min_value=0.05, max_value=1.0), min_size=2, max_size=3),
)
@settings(max_examples=30, deadline=None)
def test_collision_bound_dominates_exact_variance(m, raw):
    p = np.array(raw) / sum(raw)
    q = np.ones(len(raw)) / len(raw)
    exact = oracles.collision_variance_exact(p, q, m)
    assert est.collision_variance_bound(p, q, m) >= exact - 1e-12


def test_collision_bound_validates_inputs():
    with pytest.raises(ValueError):
        est.collision_variance_bound(np.array([0.5, 0.6]), np.array([0.5, 0.5]), 2)


def test_singlecopy_unbiased_accepts_mixed():
    d = 4
    rho = DensityMatrix(np.diag([0.7, 0.3, 0.0, 0.0]).astype(complex))
    sigma = DensityMatrix(np.eye(d, dtype=complex) / d)
    target = float(np.trace(rho.matrix @ sigma.matrix).real)
    root = RngStream(55)
    n = 3000
    w = np.array(
        [est.singlecopy_estimate(rho, sigma, 2, 8, root.child(t)).value for t in range(n)]
    )
    se = w.std(ddof=1) / math.sqrt(n)
    assert w.mean() == pytest.approx(target, abs=4 * se)


def test_singlecopy_seed_reproducibility():
    phi = PureState(np.array([1, 0, 0], dtype=complex))
    psi = PureState(np.array([0, 1, 0], dtype=complex))
    a = est.singlecopy_estimate(phi, psi, 3, 5, RngStream(9))
    b = est.singlecopy_estimate(phi, psi, 3, 5, RngStream(9))
    assert a.value == b.value and a.raw == b.raw


def test_singlecopy_anchor_value():
    # d=2, m=1, f=1: the collision statistic is Bernoulli with mean 2/3,
    # so its variance is 2/9
    assert est.singlecopy_variance_exact_pure(2, 1, 1.0) == pytest.approx(
        2.0 / 9.0, abs=1e-12
    )


# relative error of swap_test_variance against (1 - f^2)/k in rationals: four
# roundings at most; 20,000 uniform f and f = 1 - 2^-j read at most 2.5e-16
_SWAP_REL_TOL = 4e-16


def _swap_rel_error(got: float, f: float, k: int) -> Fraction:
    exact = (1 - Fraction(f) ** 2) / k
    return abs(Fraction(got) - exact) / exact if exact else Fraction(abs(got))


@given(
    f=st.one_of(overlaps, st.integers(min_value=1, max_value=53).map(lambda j: 1.0 - 2.0**-j)),
    k=st.integers(min_value=1, max_value=10**8),
)
@settings(max_examples=300, deadline=None)
def test_swap_test_variance_is_its_rational_value_over_the_cli_range(f, k):
    assert _swap_rel_error(est.swap_test_variance(f, k), f, k) <= _SWAP_REL_TOL


def test_swap_test_variance_without_factoring_fails_near_one():
    # 1 - f**2 cancels the rounding of f**2: 3.7e-9 relative at f = 1 - 2^-27
    f = 1.0 - 2.0**-27
    assert _swap_rel_error(est.swap_test_variance(f, 100), f, 100) <= _SWAP_REL_TOL
    assert _swap_rel_error((1.0 - f**2) / 100, f, 100) > 1e-9
    assert est.swap_test_variance(0.5, 100) == 0.0075


@given(f=overlaps, seed=seeds)
@settings(max_examples=30, deadline=None)
def test_generalized_swap_variance_k1_matches_two_outcome_test(f, seed):
    phi, psi = est.make_state_pair(3, f, RngStream(seed))
    gen = est.generalized_swap_variance(phi.density(), psi.density(), 1)
    assert gen == pytest.approx(est.swap_test_variance(f, 1), abs=1e-9)


def test_generalized_swap_variance_zero_at_pure_match():
    phi = PureState(np.array([1, 0], dtype=complex)).density()
    assert est.generalized_swap_variance(phi, phi, 10) == pytest.approx(0.0, abs=1e-15)


def test_dipe_threshold_decider():
    # case 1 exactly when the multi-copy estimate slope * x - offset exceeds
    # 1/2, at the squared overlap x of the two outcomes
    d, k = 64, 8
    c = est.multicopy_constants(d, k)
    boundary = (0.5 + c.offset) / c.slope
    e0 = np.eye(d, dtype=complex)[0]
    e1 = np.eye(d, dtype=complex)[1]

    def at_overlap(x):
        return PureState(math.sqrt(x) * e0 + math.sqrt(1 - x) * e1)

    assert est.dipe_decide_threshold(PureState(e0), PureState(e0), k) == 1
    assert est.dipe_decide_threshold(PureState(e0), PureState(e1), k) == 2
    assert est.dipe_decide_threshold(PureState(e0), at_overlap(boundary * 1.01), k) == 1
    assert est.dipe_decide_threshold(PureState(e0), at_overlap(boundary * 0.99), k) == 2
    # the old 10/d rule called every pair case 2 at d <= 10
    e0_8 = PureState(np.eye(8, dtype=complex)[0])
    assert est.dipe_decide_threshold(e0_8, e0_8, 24) == 1


def test_pi0_decider_extremes():
    u = PureState(np.array([1, 0], dtype=complex))
    v = PureState(np.array([0, 1], dtype=complex))
    r = RngStream(0)
    assert est.pi0_reject_probability(u, u, 5) == pytest.approx(0.0, abs=1e-12)
    assert est.pi0_reject_probability(u, v, 5) == pytest.approx(1.0, abs=1e-12)
    assert est.dipe_decide_pi0(u, v, 5, r) == 2
    assert est.dipe_decide_pi0(u, u, 5, r) == 1
