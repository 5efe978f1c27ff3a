import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dqipe.linalg import (
    PSD_TOL,
    DensityMatrix,
    PureState,
    dmax,
    haar_states,
    haar_unitaries,
    complex_normals,
    is_hermitian,
    orthogonal_units,
    overlap2,
    sample_haar_state,
    sample_haar_unitary,
    trace_distance,
    trace_inner,
    _is_psd,
)
from dqipe.rng import RngStream

dims = st.integers(min_value=1, max_value=12)
seeds = st.integers(min_value=0, max_value=2**31)


@given(d=dims, seed=seeds)
@settings(max_examples=40, deadline=None)
def test_haar_state_unit_norm(d, seed):
    s = sample_haar_state(d, RngStream(seed))
    assert abs(np.vdot(s.amplitudes, s.amplitudes).real - 1.0) <= 1e-12


@given(d=dims, seed=seeds)
@settings(max_examples=25, deadline=None)
def test_haar_unitary_is_unitary(d, seed):
    u = sample_haar_unitary(d, RngStream(seed))
    assert np.max(np.abs(u.conj().T @ u - np.eye(d))) <= 1e-10


@given(d=st.integers(min_value=2, max_value=12), n=st.integers(min_value=1, max_value=5), seed=seeds)
@settings(max_examples=40, deadline=None)
def test_orthocomplement_draws_are_unit_and_orthogonal(d, n, seed):
    g = RngStream(seed).rng
    states = haar_states(d, n, g)
    z = orthogonal_units(states, g)
    assert z.shape == (n, d)
    assert np.max(np.abs(np.linalg.norm(z, axis=1) - 1.0)) <= 1e-12
    assert np.max(np.abs(np.einsum("nd,nd->n", states.conj(), z))) <= 1e-12


def test_orthocomplement_draws_are_haar():
    # for phi = e_0, the squared modulus of a fixed coordinate of a Haar unit
    # vector in span(e_1..e_{d-1}) has mean 1/(d-1); e_0's weight is zero
    d, n = 5, 20000
    z = orthogonal_units(np.tile(np.eye(d, dtype=complex)[0], (n, 1)), RngStream(8).rng)
    weights = np.abs(z) ** 2
    assert np.max(weights[:, 0]) <= 1e-24
    se = weights[:, 1].std(ddof=1) / math.sqrt(n)
    assert weights[:, 1].mean() == pytest.approx(1 / (d - 1), abs=4 * se)


@pytest.mark.parametrize("d", [1, 2, 7])
def test_scalar_samplers_are_the_batch_ones_at_n1(d):
    state = sample_haar_state(d, RngStream(3, (1,)))
    assert np.array_equal(state.amplitudes, haar_states(d, 1, RngStream(3, (1,)).rng)[0])
    u = sample_haar_unitary(d, RngStream(3, (2,)))
    z = complex_normals((1, d, d), RngStream(3, (2,)).rng)
    assert np.array_equal(u, haar_unitaries(z)[0])
    # QR factors each matrix of a stack on its own: a matrix gets the same
    # bits alone and inside a stack
    stack = np.concatenate([complex_normals((2, d, d), RngStream(4).rng), z])
    assert np.array_equal(haar_unitaries(stack)[2], u)


def test_haar_unitary_phase_convention_nondegenerate():
    # the QR phase fix must not leave R-diagonal phases in the distribution:
    # first-column entries should have rotation-invariant phases
    angles = []
    for seed in range(300):
        u = sample_haar_unitary(2, RngStream(seed))
        angles.append(np.angle(u[0, 0]))
    hist, _ = np.histogram(angles, bins=4, range=(-np.pi, np.pi))
    assert hist.min() > 30


def test_pure_state_rejects_bad_norm():
    with pytest.raises(ValueError):
        PureState(np.array([1.0, 1.0], dtype=complex))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_pure_state_rejects_non_finite_amplitudes(bad):
    with pytest.raises(ValueError):
        PureState(np.array([bad, 0.0]))
    with pytest.raises(ValueError):
        PureState(np.array([1.0, 1j * bad]))


def test_pure_state_accepts_tiny_drift():
    v = np.array([1.0 + 3e-10, 0.0], dtype=complex)
    s = PureState(v)
    assert abs(np.linalg.norm(s.amplitudes) - 1.0) <= 1e-12


def test_density_matrix_rejects_non_psd():
    m = np.diag([1.5, -0.5]).astype(complex)
    with pytest.raises(ValueError, match="^density matrix has a negative eigenvalue$"):
        DensityMatrix(m)


def _hermitian_with_least_eig(n, lam, g):
    """Unit-trace Hermitian n x n matrix whose least eigenvalue is lam ([[lam]] at n=1)."""
    if n == 1:
        return np.array([[lam]], dtype=complex)
    rest = g.uniform(0.5, 1.5, n - 1)
    rest *= (1.0 - lam) / rest.sum()
    q, _ = np.linalg.qr(g.standard_normal((n, n)) + 1j * g.standard_normal((n, n)))
    m = (q * np.concatenate(([lam], rest))) @ q.conj().T
    return (m + m.conj().T) / 2


@pytest.mark.parametrize("n", [1, 2, 3, 8, 32, 64, 200])
def test_psd_verdict_is_the_least_eigenvalue_test(n):
    g = np.random.default_rng(n)
    for lam in (-2e-9, -1.1e-9, -0.9e-9, -0.5e-9, 0.0, 1e-12):
        base = _hermitian_with_least_eig(n, lam, g)
        # Hermitian within HERM_TOL only: both routines read the lower triangle
        for m in (base, base + np.triu(np.full((n, n), 5e-11), 1)):
            verdict = float(np.linalg.eigvalsh(m)[0]) >= -PSD_TOL
            assert verdict == (lam >= -PSD_TOL)
            assert _is_psd(m, PSD_TOL) == verdict
            if n == 1:
                continue  # trace lam, not 1
            if verdict:
                DensityMatrix(m)
            else:
                with pytest.raises(ValueError, match="negative eigenvalue"):
                    DensityMatrix(m)


def test_psd_boundary_is_left_to_eigvalsh():
    # the shifted matrix has a zero pivot, so Cholesky fails and eigvalsh accepts
    m = np.diag([-PSD_TOL, 1.0 + PSD_TOL]).astype(complex)
    assert _is_psd(m, PSD_TOL)
    DensityMatrix(m)


def test_density_matrix_keeps_the_input_array_unwritten():
    m = _hermitian_with_least_eig(8, 0.0, np.random.default_rng(3))
    before = m.tobytes()
    m.flags.writeable = False  # a write, even a transient one, would raise
    assert DensityMatrix(m).matrix is m
    assert m.tobytes() == before


def test_density_matrix_rejects_non_hermitian():
    m = np.array([[0.5, 0.3], [0.0, 0.5]], dtype=complex)
    with pytest.raises(ValueError):
        DensityMatrix(m)


@given(seed=seeds)
@settings(max_examples=25, deadline=None)
def test_overlap2_symmetric_and_bounded(seed):
    r = RngStream(seed)
    a = sample_haar_state(5, r.child(0))
    b = sample_haar_state(5, r.child(1))
    x = overlap2(a, b)
    assert x == pytest.approx(overlap2(b, a), abs=1e-15)
    assert -1e-12 <= x <= 1.0 + 1e-12


def test_trace_distance_extremes():
    e0 = PureState(np.array([1, 0], dtype=complex)).density()
    e1 = PureState(np.array([0, 1], dtype=complex)).density()
    assert trace_distance(e0, e1) == pytest.approx(1.0, abs=1e-12)
    assert trace_distance(e0, e0) == pytest.approx(0.0, abs=1e-12)


@given(seed=seeds)
@settings(max_examples=20, deadline=None)
def test_trace_inner_matches_pure_overlap(seed):
    r = RngStream(seed)
    a = sample_haar_state(4, r.child(0))
    b = sample_haar_state(4, r.child(1))
    assert trace_inner(a.density(), b.density()) == pytest.approx(
        overlap2(a, b), abs=1e-12
    )


def test_dmax_basics():
    d = 3
    mixed = DensityMatrix(np.eye(d, dtype=complex) / d)
    pure = PureState(np.eye(d, dtype=complex)[:, 0]).density()
    assert dmax(mixed, mixed) == pytest.approx(0.0, abs=1e-9)
    # pure state against the maximally mixed: log d
    assert dmax(pure, mixed) == pytest.approx(math.log(d), abs=1e-9)
    # support violation: mixed is not dominated by any multiple of pure
    assert dmax(mixed, pure) == math.inf


def _beta_as_gamma_ratio(a: float, b: float, g: np.random.Generator) -> float:
    """Reference: Beta(a, b) as the ratio of two gamma draws."""
    x = g.gamma(a)
    y = g.gamma(b)
    return float(x / (x + y))


def test_generator_beta_is_the_gamma_ratio():
    # standard_povm_sample draws Beta(k + 1, d - 1) with Generator.beta; for
    # a > 1 or b > 1 that must stay the gamma ratio bit for bit, leaving the
    # generator where the ratio leaves it (a <= 1 and b <= 1 take another
    # algorithm)
    grid = itertools.product((0.5, 1.0, 1.5, 2.0, 3.0, 9.0, 17.0), (0.5, 1.0, 2.0, 7.0, 31.0))
    for a, b in grid:
        if a <= 1 and b <= 1:
            continue
        for seed in range(5):
            g_ratio = RngStream(seed).rng
            g_beta = RngStream(seed).rng
            for _ in range(40):
                assert g_beta.beta(a, b) == _beta_as_gamma_ratio(a, b, g_ratio)
            assert g_beta.random() == g_ratio.random()


@given(d=st.integers(min_value=2, max_value=8), seed=seeds)
@settings(max_examples=20, deadline=None)
def test_random_density_predicates(d, seed):
    g = RngStream(seed).rng
    z = g.standard_normal((d, d)) + 1j * g.standard_normal((d, d))
    m = z @ z.conj().T
    m /= np.trace(m).real
    assert is_hermitian(m)
    assert np.linalg.eigvalsh(m)[0] >= -1e-9
    rho = DensityMatrix(m)
    assert rho.dim == d
