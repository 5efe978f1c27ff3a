import functools
import itertools
import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dqipe import oracles
from dqipe import symmetric as sym
from dqipe.linalg import DensityMatrix, overlap2, sample_haar_state
from dqipe.rng import RngStream

small_dk = st.tuples(
    st.integers(min_value=2, max_value=4), st.integers(min_value=0, max_value=3)
)


def _type_vectors_recursive(d, k):
    """Reference: occupation vectors in lexicographic order, one entry per
    recursion level."""
    out = []

    def rec(prefix, remaining, slots):
        if slots == 1:
            out.append(prefix + (remaining,))
            return
        for v in range(remaining + 1):
            rec(prefix + (v,), remaining - v, slots - 1)

    rec((), k, d)
    return out


def test_type_vectors_count_matches_dimension():
    for d, k in itertools.product(range(1, 9), range(7)):
        tv = sym.type_vectors(d, k)
        assert len(tv) == sym.sym_dimension(d, k)
        assert all(sum(t) == k and min(t) >= 0 for t in tv)
        # the order is part of the contract: it fixes sym_basis's columns
        assert tv == sorted(tv)
        assert tv == _type_vectors_recursive(d, k)


def test_sym_dimension_values():
    assert sym.sym_dimension(2, 3) == 4
    assert sym.sym_dimension(3, 2) == 6
    assert sym.sym_dimension(5, 0) == 1


@given(dk=small_dk)
@settings(max_examples=15, deadline=None)
def test_sym_projector_is_projector(dk):
    d, k = dk
    p = sym.sym_projector(d, k)
    assert np.allclose(p, p.conj().T, atol=1e-12)
    assert np.allclose(p @ p, p, atol=1e-12)
    assert np.trace(p).real == pytest.approx(sym.sym_dimension(d, k), abs=1e-9)


@given(dk=st.tuples(st.integers(2, 3), st.integers(1, 3)))
@settings(max_examples=10, deadline=None)
def test_sym_projector_matches_permutation_sum(dk):
    d, k = dk
    assert np.allclose(
        sym.sym_projector(d, k), oracles.sym_projector_perm_sum(d, k), atol=1e-12
    )


def test_permutation_operator_composition():
    d = 3
    pi = (1, 2, 0)
    tau = (0, 2, 1)
    composed = tuple(pi[tau[j]] for j in range(3))
    assert np.allclose(
        oracles._perm_operator(pi, d) @ oracles._perm_operator(tau, d),
        oracles._perm_operator(composed, d),
    )
    op = oracles._perm_operator(pi, d)
    assert np.allclose(op @ op.T, np.eye(d**3))


def test_povm_sample_overlap_moments():
    d, k = 16, 8
    r = RngStream(5)
    phi = sample_haar_state(d, r.child(0))
    stream = r.child(1)
    xs = np.array(
        [overlap2(phi, sym.standard_povm_sample(phi, k, stream)) for _ in range(20000)]
    )
    mean = (k + 1) / (d + k)
    var = (d - 1) * (k + 1) / ((d + k) ** 2 * (d + k + 1))
    assert xs.mean() == pytest.approx(mean, abs=4 * math.sqrt(var / xs.size))
    assert xs.var() == pytest.approx(var, rel=0.08)


def test_povm_sample_k0_is_haar():
    # k=0 carries no information about phi: overlap moments must match a
    # Haar draw, E x = 1/d
    d = 6
    r = RngStream(9)
    phi = sample_haar_state(d, r.child(0))
    stream = r.child(1)
    xs = np.array(
        [overlap2(phi, sym.standard_povm_sample(phi, 0, stream)) for _ in range(20000)]
    )
    assert xs.mean() == pytest.approx(1 / d, abs=0.005)


@given(dk=st.tuples(st.integers(2, 30), st.integers(0, 12)))
@settings(max_examples=40, deadline=None)
def test_block_coefficients_sum_to_one(dk):
    d, k = dk
    total = sum(
        sym.beta_coefficient_exact(d, k, t) * sym.block_dimension(d, k, t)
        for t in range(k + 1)
    )
    assert total == Fraction(1)


@pytest.mark.parametrize("d", range(1, 7))
def test_block_dimensions_sum_to_sym_dimension(d):
    # at d=1 only W^k, u^{⊗k} itself, is nonzero
    for k in range(8):
        blocks = [sym.block_dimension(d, k, t) for t in range(k + 1)]
        assert sum(blocks) == sym.sym_dimension(d, k)


def test_block_coefficients_d3_k2():
    assert sym.beta_coefficient_exact(3, 2, 0) == Fraction(1, 15)
    assert sym.beta_coefficient_exact(3, 2, 1) == Fraction(1, 5)
    assert sym.beta_coefficient_exact(3, 2, 2) == Fraction(2, 5)


def _householder_to(u):
    """A unitary reflection mapping e_0 to u up to a phase."""
    d = u.shape[0]
    target = u * (abs(u[0]) / u[0] if abs(u[0]) > 1e-14 else 1.0)
    w = target - np.eye(d)[0]
    nw2 = np.vdot(w, w).real
    if nw2 < 1e-28:
        return np.eye(d, dtype=complex)
    return np.eye(d) - 2.0 * np.outer(w, w.conj()) / nw2


def _rho_u_kron_reference(u, k):
    """sum_t beta_t Pi_u^t with each block rotated by the Kronecker power
    of a Householder map e_0 -> u: a rotation of the occupation basis, not
    the number operator that the library uses."""
    d = u.dim
    rot = _householder_to(u.amplitudes)
    assert abs(np.vdot(u.amplitudes, rot[:, 0])) == pytest.approx(1.0, abs=1e-12)
    rot_k = np.eye(1)
    for _ in range(k):
        rot_k = np.kron(rot_k, rot)
    basis = sym.sym_basis(d, k)
    out = np.zeros((d**k, d**k), dtype=complex)
    for t in range(k + 1):
        cols = [j for j, tv in enumerate(sym.type_vectors(d, k)) if tv[0] == t]
        rb = rot_k @ basis[:, cols]
        out += sym.beta_coefficient(d, k, t) * (rb @ rb.conj().T)
    return out


def test_pi_u_t_blocks_partition_symmetric_subspace():
    for d, k in [(3, 2), (2, 1), (2, 4), (3, 3), (5, 2)]:
        u = sample_haar_state(d, RngStream(3))
        blocks = [sym.pi_u_t(u, k, t) for t in range(k + 1)]
        for t, b in enumerate(blocks):
            assert np.allclose(b @ b, b, atol=1e-10)
            assert np.trace(b).real == pytest.approx(sym.block_dimension(d, k, t), abs=1e-9)
        for s in range(k + 1):
            for t in range(s + 1, k + 1):
                assert np.allclose(blocks[s] @ blocks[t], 0.0, atol=1e-10)
        assert np.allclose(sum(blocks), sym.sym_projector(d, k), atol=1e-10)
        reference = _rho_u_kron_reference(u, k)
        assert np.allclose(sym.rho_u_closed_form(u, k).matrix, reference, rtol=0, atol=1e-12)


def test_pi0_matches_reject_probability():
    # acceptance of the t=0 block on a product state has the closed form
    # (1 - |<u|psi>|^2)^k
    d, k = 4, 3
    r = RngStream(8)
    u = sample_haar_state(d, r.child(0))
    psi = sample_haar_state(d, r.child(1))
    pi0 = sym.pi_u_t(u, k, 0)
    vec = psi.amplitudes
    prod = vec
    for _ in range(k - 1):
        prod = np.kron(prod, vec)
    direct = float(np.vdot(prod, pi0 @ prod).real)
    assert direct == pytest.approx((1 - overlap2(u, psi)) ** k, abs=1e-10)


def _polynomial_from_the_identity(u, k, roots, scales):
    """_number_polynomial as it was: the product of its factors with the
    identity in front. I @ F == F exactly, so dropping that product moves
    no bit, whatever the BLAS kernel or thread count."""
    up, amp = sym._ladder(u.shape[0], k)
    n = sym.sym_dimension(u.shape[0], k)
    b = np.zeros((len(up), n), dtype=complex)
    for i, ui in enumerate(u):
        b[np.arange(len(up)), up[:, i]] = amp[:, i] * ui.conjugate()
    num = b.conj().T @ b
    factors = []
    for root, scale in zip(roots, scales):
        factor = num / scale
        factor.flat[:: n + 1] -= root / scale
        factors.append(factor)
    return functools.reduce(np.matmul, factors, np.eye(n, dtype=complex))


def _polynomial_outputs(d, k):
    """rho_u_occupation(u, k) and pi_u_t(u, k, t) for every t, u over three
    seeds; pi_u_t is left out where its lift is over the byte budget."""
    us = [sample_haar_state(d, RngStream(seed)) for seed in range(3)]
    out = [sym.rho_u_occupation(u, k).matrix for u in us]
    try:
        out += [sym.pi_u_t(u, k, t) for u in us for t in range(k + 1)]
    except sym.DenseBudgetError:
        pass
    return out


@pytest.mark.parametrize("d,k", list(itertools.product((2, 3, 5, 8, 10), range(5))))
def test_number_polynomial_keeps_the_identity_starts_bits(d, k, monkeypatch):
    got = _polynomial_outputs(d, k)
    monkeypatch.setattr(sym, "_number_polynomial", _polynomial_from_the_identity)
    want = _polynomial_outputs(d, k)
    assert len(got) == len(want)
    assert all(np.array_equal(a, b) for a, b in zip(got, want))


def test_rho_u_is_valid_state():
    u = sample_haar_state(3, RngStream(12))
    rho = sym.rho_u_closed_form(u, 2)
    assert np.trace(rho.matrix).real == pytest.approx(1.0, abs=1e-10)


def _refuse_the_embedded_basis(*args):
    raise AssertionError("built the d^k x D embedded basis")


@pytest.mark.parametrize("d,k", [(2, 18), (2, 40), (3, 11), (7, 5), (4, 8)])
def test_rho_u_occupation_spectrum_without_the_embedded_basis(d, k, monkeypatch):
    # N_u's integer spectrum against the closed-form block coefficients;
    # d^k reaches 2^40, so nothing of that size may be built
    monkeypatch.setattr(sym, "sym_basis", _refuse_the_embedded_basis)
    rho = sym.rho_u_occupation(sample_haar_state(d, RngStream(d + k)), k).matrix
    betas, dims = sym.block_spectrum(d, k)
    expected = np.sort([b for b, dim in zip(betas, dims) for _ in range(dim)])
    assert np.max(np.abs(np.linalg.eigvalsh(rho) - expected)) <= 1e-14


def test_trace_distance_block_k0_is_zero():
    assert sym.trace_distance_rho_u_block(7, 0) == 0.0


def _sqrt_d_law():
    """The one-way lower bound's two sides, from the exact blockwise trace
    distance TD(d, k). Returns k_min(d) / sqrt(d) outside [0.63, 0.70],
    where k_min(d) is the least k with TD >= 1/3, and the (d, k) with
    TD > 1 - e^{-k^2/d}, the measure-and-prepare floor."""
    band = {}
    for d in (256, 1024, 4096, 16384):
        k = 1
        while sym.trace_distance_rho_u_block(d, k) < 1 / 3:
            k += 1
        if not 0.63 <= k / math.sqrt(d) <= 0.70:
            band[d] = k / math.sqrt(d)
    above = [
        (d, k)
        for d in (2, 3, 4, 8, 16, 64, 256, 1024)
        for k in range(1, 60)
        if sym.trace_distance_rho_u_block(d, k) > 1 - math.exp(-k * k / d)
    ]
    return band, above


def test_one_way_copies_grow_as_sqrt_d_below_the_floor_bound():
    assert _sqrt_d_law() == ({}, [])


def _denominator_shifted(d, k, t):
    # (t+1)...(t+k) / ((d+k+1)...(d+2k)): the denominator one step off
    return Fraction(math.prod(range(t + 1, k + t + 1)), math.prod(range(d + k + 1, d + 2 * k + 1)))


def _numerator_shifted(d, k, t):
    # (t+2)...(t+k+1) / ((d+k)...(d+2k-1)): the numerator one step off
    return Fraction(math.prod(range(t + 2, k + t + 2)), math.prod(range(d + k, d + 2 * k)))


@pytest.mark.parametrize(
    "beta,band_breaks,first_above",
    [(_denominator_shifted, False, (8, 1)), (_numerator_shifted, True, (2, 9))],
)
def test_sqrt_d_law_fails_a_perturbed_block_coefficient(monkeypatch, beta, band_breaks, first_above):
    # the band misses the shifted denominator, so the bound must catch it
    monkeypatch.setattr(sym, "beta_coefficient_exact", beta)
    band, above = _sqrt_d_law()
    assert bool(band) == band_breaks
    assert above[0] == first_above


def test_mp_channel_trace_and_warning():
    d, k = 3, 2
    u = sample_haar_state(d**k, RngStream(4))
    with pytest.warns(UserWarning):
        out = sym.mp_channel(DensityMatrix(np.outer(u.amplitudes, u.amplitudes.conj())), d, k)
    assert np.trace(out.matrix).real == pytest.approx(1.0, abs=1e-9)


@pytest.mark.parametrize("d", [2, 5, 141])
def test_mp_channel_k1_closed_form(d):
    # one copy: mp(rho) = (rho + I) / (d + 1); at d = 141 each trace and
    # clone step runs over 141 ladder operators
    g = RngStream(d).rng
    z = g.standard_normal((d, 3)) + 1j * g.standard_normal((d, 3))
    m = z @ z.conj().T
    m /= np.trace(m).real
    out = sym.mp_channel(DensityMatrix(m), d, 1)
    assert np.allclose(out.matrix, (m + np.eye(d)) / (d + 1), atol=1e-12)


def _mp_dense_reference(m: np.ndarray, d: int, k: int) -> np.ndarray:
    # scale * Tr_1[(P tau P ⊗ I) S], S the permutation-sum projector on 2k factors
    n = d**k
    p = oracles.sym_projector_perm_sum(d, k)
    proj = p @ m @ p
    proj /= np.trace(proj).real
    big = oracles.sym_projector_perm_sum(d, 2 * k)
    prod = np.kron(proj, np.eye(n)) @ big
    out = np.einsum("aiaj->ij", prod.reshape(n, n, n, n))
    return math.comb(d + k - 1, k) / math.comb(d + 2 * k - 1, 2 * k) * out


@pytest.mark.parametrize("dk", [(2, 1), (2, 2), (2, 3), (3, 1), (3, 2), (4, 2)])
def test_mp_channel_matches_dense_reference(dk):
    d, k = dk
    n = d**k
    g = RngStream(20 + 10 * d + k).rng
    p = oracles.sym_projector_perm_sum(d, k)
    v = p @ (g.standard_normal(n) + 1j * g.standard_normal(n))
    v /= np.linalg.norm(v)
    z = p @ (g.standard_normal((n, 3)) + 1j * g.standard_normal((n, 3)))
    mixed = z @ z.conj().T
    mixed /= np.trace(mixed).real
    cases = [(np.outer(v, v.conj()), False), (mixed, False)]
    if k > 1:  # at k = 1 every input lies on the symmetric subspace
        w = g.standard_normal(n) + 1j * g.standard_normal(n)
        w /= np.linalg.norm(w)
        cases.append((np.outer(w, w.conj()), True))
    for m, off_subspace in cases:
        if off_subspace:
            with pytest.warns(UserWarning, match="not supported on the symmetric subspace"):
                out = sym.mp_channel(DensityMatrix(m), d, k)
        else:
            out = sym.mp_channel(DensityMatrix(m), d, k)
        assert np.allclose(out.matrix, _mp_dense_reference(m, d, k), rtol=0, atol=1e-12)


@pytest.mark.parametrize("dk", [(2, 7), (11, 2), (5, 3)])
def test_mp_channel_at_budget_extremes(dk):
    d, k = dk
    g = RngStream(30 + d).rng
    p = sym.sym_projector(d, k)
    v = p @ (g.standard_normal(d**k) + 1j * g.standard_normal(d**k))
    v /= np.linalg.norm(v)
    out = sym.mp_channel(DensityMatrix(np.outer(v, v.conj())), d, k)
    assert isinstance(out, DensityMatrix)
    assert np.trace(out.matrix).real == pytest.approx(1.0, abs=1e-12)
    assert np.allclose(p @ out.matrix @ p, out.matrix, atol=1e-12)
    # the channel output dominates e^{-k^2/d} times the maximally mixed state
    floor = math.exp(-(k**2) / d) * sym.maximally_mixed_sym(d, k).matrix
    assert np.linalg.eigvalsh(out.matrix - floor)[0] >= -1e-10


def test_clone_channel_endpoints():
    d, k = 3, 2
    p = sym.sym_projector(d, k)
    g = RngStream(6).rng
    z = p @ (g.standard_normal(d**k) + 1j * g.standard_normal(d**k))
    z /= np.linalg.norm(z)
    rho = np.outer(z, z.conj())
    # s = k is the identity on symmetric inputs
    out = sym.clone_channel(rho, d, k, k)
    assert np.allclose(out.matrix, rho, atol=1e-10)
    # s = 0 prepares the maximally mixed symmetric state
    out0 = sym.clone_channel(None, d, 0, k)
    assert np.allclose(out0.matrix, sym.maximally_mixed_sym(d, k).matrix, atol=1e-12)


def test_chiribella_combination_matches_mp():
    d, k = 3, 2
    g = RngStream(13).rng
    p = sym.sym_projector(d, k)
    z = g.standard_normal((d**k, d**k)) + 1j * g.standard_normal((d**k, d**k))
    m = p @ (z @ z.conj().T) @ p
    m /= np.trace(m).real
    rho = DensityMatrix(m)
    assert np.max(np.abs(sym.mp_channel(rho, d, k).matrix
                         - sym.chiribella_combination(rho, d, k).matrix)) <= 1e-10


def test_dense_budget_guard(monkeypatch):
    def allocate(*args):
        raise AssertionError("allocated before the budget guard")

    # every build below enumerates occupation vectors once its guard passes
    monkeypatch.setattr(sym, "type_vectors", allocate)
    # 2^24 x 25 doubles; 16^4 x 16^4 complex; D = C(19, 4) = 3876, one complex
    # D x D matrix is 240 MB
    with pytest.raises(sym.DenseBudgetError, match="^sym_basis: needs 3200.3 MiB"):
        sym.sym_basis(2, 24)
    with pytest.raises(sym.DenseBudgetError, match="^mp_channel: needs"):
        sym.mp_channel(None, 16, 4)
    with pytest.raises(sym.DenseBudgetError, match="^mp_channel_occupation: needs"):
        sym.mp_channel_occupation(None, 16, 4)
    # D = C(20, 5) = 15504: its D x D arrays alone need GiBs
    with pytest.raises(sym.DenseBudgetError, match="^rho_u_occupation: needs"):
        sym.rho_u_occupation(sample_haar_state(16, RngStream(0)), 5)
    with pytest.raises(sym.DenseBudgetError, match="^pi_u_t: needs"):
        sym.pi_u_t(sample_haar_state(16, RngStream(0)), 5, 1)
    # D = 317 is few bytes, but (k + 1) D^3 = 1.01e10 element updates
    with pytest.raises(sym.DenseBudgetError, match="^rho_u_occupation: 1.01e\\+10 element updates"):
        sym.rho_u_occupation(sample_haar_state(2, RngStream(0)), 316)
    # closed-form paths have no budget
    assert sym.trace_distance_rho_u_block(1000, 50) > 0


def _estimate_and_peak(monkeypatch, build):
    """The largest byte estimate the build passed to check_budget, and the
    tracemalloc peak of the build."""
    estimates = []
    check = sym.check_budget

    def spy(label, nbytes, updates=0):
        estimates.append(nbytes)
        check(label, nbytes, updates)

    monkeypatch.setattr(sym, "check_budget", spy)
    monkeypatch.setattr(oracles, "check_budget", spy)
    sym.sym_basis.cache_clear()
    sym.sym_projector.cache_clear()
    sym._ladder.cache_clear()
    tracemalloc.start()
    try:
        build()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return max(estimates), peak


@pytest.mark.parametrize("dk", [(4, 3), (10, 3)])
def test_basis_byte_estimate_bounds_its_build(dk, monkeypatch):
    estimate, peak = _estimate_and_peak(monkeypatch, lambda: sym.sym_basis(*dk))
    assert estimate >= peak


@pytest.mark.parametrize("dk", [(6, 2), (9, 3), (16, 3)])
def test_mp_channel_occupation_byte_estimate_bounds_its_build(dk, monkeypatch):
    # the measure-and-prepare channel on Sym^k, ladder tables built cold
    n = sym.sym_dimension(*dk)
    z = RngStream(n).rng.standard_normal((n, 2)) @ np.array([1.0, 1.0j])
    x = np.outer(z, z.conj()) / np.vdot(z, z).real
    estimate, peak = _estimate_and_peak(monkeypatch, lambda: sym.mp_channel_occupation(x, *dk))
    assert estimate >= peak


def _dense_builds(d, k):
    u = sample_haar_state(d, RngStream(40 + d))
    v = u.amplitudes
    for _ in range(k - 1):
        v = np.kron(v, u.amplitudes)
    tau = DensityMatrix(np.outer(v, v.conj()))
    return {
        "sym_projector": lambda: sym.sym_projector(d, k),
        "maximally_mixed_sym": lambda: sym.maximally_mixed_sym(d, k),
        "pi_u_t": lambda: sym.pi_u_t(u, k, 1),
        "rho_u_occupation": lambda: sym.rho_u_occupation(u, k),
        "rho_u_closed_form": lambda: sym.rho_u_closed_form(u, k),
        "mp_channel": lambda: sym.mp_channel(tau, d, k),
        "clone_channel_s0": lambda: sym.clone_channel(None, d, 0, k),
        "clone_channel_s1": lambda: sym.clone_channel(u.density().matrix, d, 1, k),
        "chiribella_combination": lambda: sym.chiribella_combination(tau, d, k),
    }


@pytest.mark.parametrize("name", sorted(_dense_builds(2, 1)))
@pytest.mark.parametrize("dk", [(6, 3), (16, 2)])
def test_dense_byte_estimate_bounds_its_build(name, dk, monkeypatch):
    build = _dense_builds(*dk)[name]
    estimate, peak = _estimate_and_peak(monkeypatch, build)
    assert estimate >= peak


@pytest.mark.parametrize("dk", [(4, 2), (3, 2)])
def test_oracle_byte_estimate_bounds_its_build(dk, monkeypatch):
    u = sample_haar_state(dk[0], RngStream(3)).amplitudes
    estimate, peak = _estimate_and_peak(monkeypatch, lambda: oracles.rho_u_numeric(u, dk[1]))
    assert estimate >= peak


def test_dense_references_catch_a_perturbed_ladder(monkeypatch):
    # the channel and rho_u share the ladder operators; the references share
    # nothing with them, so a wrong amplitude sqrt(l_i) -> sqrt(l_i + 1) fails both
    d, k = 3, 2
    u = sample_haar_state(d, RngStream(17))
    v = np.kron(u.amplitudes, u.amplitudes)
    tau = np.outer(v, v.conj())
    ladder = sym._ladder

    def perturbed(d, t):
        up, amp = ladder(d, t)
        return up, np.sqrt(amp**2 + 1)

    for mutate in (False, True):
        if mutate:
            monkeypatch.setattr(sym, "_ladder", perturbed)
        mp_dev = np.max(np.abs(sym.mp_channel(DensityMatrix(tau), d, k).matrix - _mp_dense_reference(tau, d, k)))
        rho_dev = np.max(np.abs(sym.rho_u_closed_form(u, k).matrix - _rho_u_kron_reference(u, k)))
        assert (mp_dev > 1e-3, rho_dev > 1e-3) == (mutate, mutate)
