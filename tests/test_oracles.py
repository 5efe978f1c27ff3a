import ast
import itertools
import math
import pathlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dqipe import oracles
from dqipe.rng import RngStream

finite = st.floats(min_value=-2.0, max_value=2.0, allow_nan=False)
cplx = st.builds(complex, finite, finite)


def _random_hermitian(d, g):
    z = g.standard_normal((d, d)) + 1j * g.standard_normal((d, d))
    return (z + z.conj().T) / 2


def test_oracles_import_nothing_from_dqipe_but_the_budget_guard():
    # an oracle that shared a computation with the code it checks would
    # check nothing; nested imports count too
    tree = ast.parse(pathlib.Path(oracles.__file__).read_text())
    from_dqipe = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.level or node.module.split(".")[0] == "dqipe"):
            from_dqipe.append((node.level, node.module, [a.name for a in node.names]))
        elif isinstance(node, ast.Import):
            from_dqipe += [(0, a.name, []) for a in node.names if a.name.split(".")[0] == "dqipe"]
    assert from_dqipe == [(1, "symmetric", ["check_budget"])]


def test_haar_moment_k1_is_normalized_trace():
    g = RngStream(1).rng
    a = _random_hermitian(4, g)
    assert oracles.haar_moment_exact([a]) == pytest.approx(np.trace(a) / 4, abs=1e-12)


def test_haar_moment_k2_closed_form():
    d = 5
    g = RngStream(2).rng
    a, b = _random_hermitian(d, g), _random_hermitian(d, g)
    want = (np.trace(a) * np.trace(b) + np.trace(a @ b)) / (d * (d + 1))
    assert oracles.haar_moment_exact([a, b]) == pytest.approx(want, abs=1e-12)


def test_haar_moment_k3_full_s3_sum():
    # all six permutations of S_3, written out by hand
    d = 4
    g = RngStream(3).rng
    a, b, c = (_random_hermitian(d, g) for _ in range(3))
    tr = np.trace
    want = (
        tr(a) * tr(b) * tr(c)
        + tr(a @ b) * tr(c)
        + tr(a @ c) * tr(b)
        + tr(b @ c) * tr(a)
        + tr(a @ b @ c)
        + tr(a @ c @ b)
    ) / (d * (d + 1) * (d + 2))
    assert oracles.haar_moment_exact([a, b, c]) == pytest.approx(want, abs=1e-12)


def test_cycle_products_match_permutation_operator_traces():
    # Tr((A1 x ... x Ak) P(pi)) computed two ways, per permutation
    d, k = 3, 3
    g = RngStream(4).rng
    mats = [_random_hermitian(d, g) for _ in range(k)]
    kron = mats[0]
    for m in mats[1:]:
        kron = np.kron(kron, m)
    for pi in itertools.permutations(range(k)):
        dense = np.trace(kron @ oracles._perm_operator(pi, d))
        byhand = 1.0 + 0.0j
        for cyc in oracles._cycles(tuple(pi)):
            prod = mats[cyc[0]]
            for j in cyc[1:]:
                prod = prod @ mats[j]
            byhand *= np.trace(prod)
        assert dense == pytest.approx(byhand, abs=1e-9)


def test_haar_moment_rejects_large_k():
    a = np.eye(2)
    with pytest.raises(ValueError):
        oracles.haar_moment_exact([a] * 5)


def test_perp_moment_against_monte_carlo():
    d = 5
    r = RngStream(6)
    g = r.rng
    psi = g.standard_normal(d) + 1j * g.standard_normal(d)
    psi /= np.linalg.norm(psi)
    a, b = _random_hermitian(d, g), _random_hermitian(d, g)

    n = 40000
    z = g.standard_normal((n, d)) + 1j * g.standard_normal((n, d))
    z -= np.outer(z @ psi.conj(), psi)
    z /= np.linalg.norm(z, axis=1, keepdims=True)
    va = np.einsum("nd,de,ne->n", z.conj(), a, z).real
    vb = np.einsum("nd,de,ne->n", z.conj(), b, z).real

    e1 = oracles.perp_moment_exact(psi, [a]).real
    assert va.mean() == pytest.approx(e1, abs=4 * va.std() / math.sqrt(n))
    e2 = oracles.perp_moment_exact(psi, [a, b]).real
    prod = va * vb
    assert prod.mean() == pytest.approx(e2, abs=4 * prod.std() / math.sqrt(n))


@given(q=cplx, g_=cplx, h=cplx, l=cplx)
@settings(max_examples=60, deadline=None)
def test_phase_average_closed_form_matches_quadrature(q, g_, h, l):
    closed = oracles.phase_average_fourth_power(q, g_, h, l)
    quad = oracles.phase_average_fourth_power_quadrature(q, g_, h, l, grid=16)
    assert closed == pytest.approx(quad, abs=1e-8)


def test_phase_average_all_ones():
    assert oracles.phase_average_fourth_power(1, 1, 1, 1) == pytest.approx(36.0)


def test_perm_sum_projector_idempotent():
    p = oracles.sym_projector_perm_sum(2, 3)
    assert np.allclose(p @ p, p, atol=1e-12)
    assert np.trace(p).real == pytest.approx(4.0, abs=1e-12)


def test_rho_u_numeric_is_state():
    g = RngStream(7).rng
    u = g.standard_normal(3) + 1j * g.standard_normal(3)
    u /= np.linalg.norm(u)
    rho = oracles.rho_u_numeric(u, 2)
    assert np.trace(rho).real == pytest.approx(1.0, abs=1e-10)
    assert np.min(np.linalg.eigvalsh(rho)) >= -1e-10


@given(
    m=st.integers(min_value=1, max_value=3),
    raw=st.lists(st.floats(min_value=0.05, max_value=1.0), min_size=2, max_size=3),
    raw2=st.lists(st.floats(min_value=0.05, max_value=1.0), min_size=2, max_size=3),
)
@settings(max_examples=30, deadline=None)
def test_collision_variance_formula_matches_enumeration(m, raw, raw2):
    size = min(len(raw), len(raw2))
    p = np.array(raw[:size]) / sum(raw[:size])
    q = np.array(raw2[:size]) / sum(raw2[:size])
    exact = oracles.collision_variance_exact(p, q, m)
    enum = oracles.exhaustive_collision_variance(p, q, m)
    assert exact == pytest.approx(enum, abs=1e-12)
