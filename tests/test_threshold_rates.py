"""The threshold decider's exact success rates, and dipe-threshold's
defaults checked against them.

The decider says case 1 when the multi-copy estimate exceeds 1/2, that is
when x = |<u|v>|^2 exceeds t = (k^2/2 + d + 2k)/(d+k)^2. With
D_j = C(d+j-1, j):
- case 2 draws u and v independent and Haar, so x ~ Beta(1, d-1) and
  p2 = 1 - (1-t)^(d-1);
- case 1 gives (u, v) the density D_k^2/(D_2k C(2k,k)) sum_i C(k,i)^2 x^i
  against Haar x Haar, and E_Haar[x^i; x > t] = P(Bin(i+d-1, t) <= i)/D_i,
  so p1 = D_k^2/(D_2k C(2k,k)) sum_i C(k,i)^2/D_i P(Bin(i+d-1, t) <= i).
Every term is positive, so the float sums are stable.
"""

import math
from fractions import Fraction
from math import comb

import pytest

from dqipe import experiments as ex


def _dim(d: int, j: int) -> int:
    """D_j: the dimension of Sym^j(C^d)."""
    return comb(d + j - 1, j)


def _case1_weights(d: int, k: int, div) -> list:
    """The weight of x^i in case 1's density, times E_Haar[x^i] = 1/D_i;
    div(a, b) is a / b, exact (Fraction) or in floats."""
    den = _dim(d, 2 * k) * comb(2 * k, k)
    return [div(_dim(d, k) ** 2 * comb(k, i) ** 2, den * _dim(d, i)) for i in range(k + 1)]


def _rates(d: int, k: int, div) -> tuple:
    """(p1, p2): the decider's success rates at k copies per party."""
    t = div(k * k + 2 * (d + 2 * k), 2 * (d + k) ** 2)
    p1 = 0
    for i, weight in enumerate(_case1_weights(d, k, div)):
        n = i + d - 1
        pmf = tail = (1 - t) ** n
        for j in range(i):
            pmf = pmf * (n - j) * t / ((j + 1) * (1 - t))
            tail += pmf
        p1 += weight * tail
    return p1, 1 - (1 - t) ** (d - 1)


def _float_rates(d: int, k: int) -> tuple:
    return _rates(d, k, lambda a, b: a / b)


def _default_k(d: int) -> int:
    return ex.load_defaults()["dipe_threshold_c"] * math.ceil(math.sqrt(d))


POINTS = [(8, 24), (8, 8), (16, 32), (3, 5)]


@pytest.mark.parametrize("d, k", POINTS)
def test_case1_density_integrates_to_one(d, k):
    assert sum(_case1_weights(d, k, Fraction)) == 1


@pytest.mark.parametrize("d, k", POINTS)
def test_float_rates_agree_with_fractions(d, k):
    for approx, exact in zip(_float_rates(d, k), _rates(d, k, Fraction)):
        assert abs(approx - exact) <= 1e-12


def test_rates_at_the_defaults():
    assert _default_k(8) == 24
    p1, p2 = _float_rates(8, 24)
    assert p1 == pytest.approx(0.98740, abs=5e-6)
    assert p2 == pytest.approx(0.94305, abs=5e-6)


def test_defaults_decide_at_every_supported_d():
    # dipe_threshold_c and dipe_threshold_min_d keep both rates >= 0.9 from
    # the smallest supported d up; the worst is 0.9431, at d=8
    min_d = ex.load_defaults()["dipe_threshold_min_d"]
    dims = [*range(min_d, 65), *(2**j for j in range(7, 13))]
    worst = min(min(_float_rates(d, _default_k(d))) for d in dims)
    assert worst >= 0.9


@pytest.mark.parametrize("k", [24, 8])
def test_experiment_success_rates_match_the_exact_rates(k):
    trials = 2000
    summary = ex.run_experiment(
        ex.ExperimentConfig("dipe-threshold", d=8, k=k, trials=trials, seed=26)
    ).summary
    for case, p in zip((1, 2), _float_rates(8, k)):
        se = math.sqrt(p * (1 - p) / trials)
        assert abs(summary[f"success_rate_case{case}"] - p) <= 4 * se


def _log10_binomial_cdf(n: int, h: int, p: float) -> float:
    """log10 P(Bin(n, p) <= h), summed in logs: the tail underflows floats."""
    logs = [
        math.lgamma(n + 1) - math.lgamma(j + 1) - math.lgamma(n - j + 1)
        + j * math.log(p) + (n - j) * math.log1p(-p)
        for j in range(h + 1)
    ]
    top = max(logs)
    return (top + math.log(sum(math.exp(x - top) for x in logs))) / math.log(10)


def test_wilson_gate_false_fail_rate_at_the_defaults():
    config = ex.ExperimentConfig("dipe-threshold")
    n = config.trials
    cut = max(h for h in range(n + 1) if ex.wilson_interval(h, n)[0] < 2 / 3)
    assert (n, cut) == (1000, 695)
    rates = _float_rates(config.d, _default_k(config.d))
    log10_fail = [_log10_binomial_cdf(n, cut, p) for p in rates]
    assert log10_fail == pytest.approx([-317.6, -131.7], abs=0.05)
