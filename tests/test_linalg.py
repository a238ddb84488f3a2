"""Matrix-core contracts: solves, determinants, spectra, roots, exponentials."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cayleymap import linalg
from cayleymap.errors import DegenerateInput, SingularMatrix


def _rng(seed):
    return np.random.default_rng(seed)


def _random_complex(rng, shape, scale=1.0):
    return scale * (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) / np.sqrt(2)


# --- solve_linear -----------------------------------------------------------


def test_solve_identity_returns_rhs():
    b = _random_complex(_rng(0), (3, 2))
    x = linalg.solve_linear(np.eye(3), b)
    assert np.allclose(x, b)


def test_solve_diagonal_inversion():
    x = linalg.solve_linear(np.diag([2.0, 4.0]), np.eye(2))
    assert np.allclose(x, np.diag([0.5, 0.25]))


def test_solve_residual_well_conditioned():
    rng = _rng(1)
    a = _random_complex(rng, (8, 8)) + 3.0 * np.eye(8)
    b = _random_complex(rng, (8, 8))
    x = linalg.solve_linear(a, b)
    assert np.linalg.norm(a @ x - b) / np.linalg.norm(b) < 1e-10


def test_solve_raises_on_singular():
    a = np.array([[1.0, 2.0], [2.0, 4.0]])
    with pytest.raises(SingularMatrix):
        linalg.solve_linear(a, np.eye(2))


def test_solve_det_consistency_random():
    # det nonzero within tolerance iff the solve succeeds.
    rng = _rng(2)
    for trial in range(20):
        a = _random_complex(rng, (6, 6))
        if trial % 4 == 0:
            a[:, 0] = a[:, 1]  # force singularity
        det = linalg.determinant(a)
        try:
            linalg.solve_linear(a, np.eye(6))
            solved = True
        except SingularMatrix:
            solved = False
        assert solved == (abs(det) > 1e-10)


# --- determinant ------------------------------------------------------------


def test_determinant_identity():
    assert linalg.determinant(np.eye(4)) == pytest.approx(1.0)


def test_determinant_sl2_diagonal():
    assert linalg.determinant(np.diag([2.0, 0.5])) == pytest.approx(1.0)


def test_determinant_cofactor_oracle_2x2():
    rng = _rng(3)
    for _ in range(25):
        m = _random_complex(rng, (2, 2))
        cofactor = m[0, 0] * m[1, 1] - m[0, 1] * m[1, 0]
        assert abs(linalg.determinant(m) - cofactor) < 1e-12


# --- spectral ---------------------------------------------------------------


def test_spectral_clusters_repeated_diagonal():
    dec = linalg.spectral(np.diag([1.0, 1.0, 2.0]), cluster_tol=1e-6)
    assert sorted(dec.multiplicities) == [1, 2]
    assert sorted(round(x.real) for x in dec.eigenvalues) == [1, 2]


def test_spectral_jordan_block_single_projector():
    dec = linalg.spectral(np.array([[1.0, 1.0], [0.0, 1.0]]), cluster_tol=1e-6)
    assert dec.multiplicities == [2]
    assert np.allclose(dec.apply([1.0]), np.eye(2), atol=1e-8)
    assert dec.eigenvalues[0] == pytest.approx(1.0, abs=1e-7)


def test_spectral_reconstruction_oracle():
    rng = _rng(4)
    for _ in range(10):
        # random diagonalizable 5x5 built from known eigenvalues
        lams = _random_complex(rng, 5) * 2
        v = _random_complex(rng, (5, 5)) + 2 * np.eye(5)
        a = v @ np.diag(lams) @ np.linalg.inv(v)
        dec = linalg.spectral(a, cluster_tol=1e-6)
        assert np.linalg.norm(dec.semisimple_part() - a) < 1e-8 * (1 + np.linalg.norm(a))


def test_spectral_projector_invariants():
    rng = _rng(5)
    a = _random_complex(rng, (6, 6))
    dec = linalg.spectral(a)
    projectors = [dec.apply(e) for e in np.eye(dec.eigenvalues.size)]
    total = sum(projectors)
    assert np.allclose(total, np.eye(6), atol=1e-8)
    assert sum(dec.multiplicities) == 6
    for i, p in enumerate(projectors):
        assert np.linalg.norm(p @ p - p) < 1e-8
        for j, q in enumerate(projectors):
            if i != j:
                assert np.linalg.norm(p @ q) < 1e-8
    # remainder (nilpotent part) commutes with the semisimple part
    s = dec.semisimple_part()
    n = a - s
    assert np.linalg.norm(s @ n - n @ s) < 1e-8


def test_min_intercluster_gap_single_cluster_is_inf():
    dec = linalg.spectral(2.0 * np.eye(3))
    assert len(dec.eigenvalues) == 1
    assert linalg.min_intercluster_gap(dec) == np.inf


def test_min_intercluster_gap_two_clusters():
    assert linalg.min_intercluster_gap(linalg.spectral(np.diag([1.0, 1.0, 3.0]))) == 2.0
    # clusters {1, 1.5} and {4+i, 5+i}, given by labels
    raw = np.array([1.0, 4.0 + 1j, 1.5, 5.0 + 1j])
    dec = linalg.SpectralDecomposition(np.diag(raw), np.array([1.25, 4.5 + 1j]), raw, np.array([0, 1, 0, 1]))
    assert linalg.min_intercluster_gap(dec) == np.hypot(2.5, 1.0)


def test_min_intercluster_gap_follows_chained_clusters():
    # the chain 0..5.4e-3 (steps 0.9e-3 < tol = 1e-3) is one cluster, 2.1e-3
    # from 7.5e-3; its end 5.4e-3 lies nearer 7.5e-3 than the chain's mean
    # 2.7e-3, so membership by nearest mean would report 0.9e-3 as the gap
    m = np.diag([0.0, 0.9, 1.8, 2.7, 3.6, 4.5, 5.4, 7.5]) * 1e-3
    dec = linalg.spectral(m, cluster_tol=1e-3 / (1.0 + np.linalg.norm(m)))
    assert dec.multiplicities == [7, 1]
    assert all(type(m) is int for m in dec.multiplicities)
    assert linalg.min_intercluster_gap(dec) == pytest.approx(2.1e-3, rel=1e-12)


def _jordan_block_matrix(rng):
    """Conjugated Jordan form with blocks of sizes 2 and 1 at lam, 3 at mu."""
    lam, mu = _random_complex(rng, 2)
    j = np.diag([lam, lam, lam, mu, mu, mu])
    j[0, 1] = j[3, 4] = j[4, 5] = 1.0
    v = _random_complex(rng, (6, 6)) + 3.0 * np.eye(6)
    return v @ j @ np.linalg.inv(v)


@pytest.mark.parametrize("kind", ["random", "jordan"])
def test_apply_is_linear_in_values_and_commutes(kind):
    rng = _rng(9)
    for _ in range(5):
        a = _random_complex(rng, (6, 6)) if kind == "random" else _jordan_block_matrix(rng)
        # a 3x3 Jordan block's eigenvalues scatter like eps^(1/3) ~ 1e-5
        dec = linalg.spectral(a, cluster_tol=1e-4)
        assert dec.eigenvalues.size == (6 if kind == "random" else 2)
        values = _random_complex(rng, dec.eigenvalues.size)
        f = dec.apply(values)
        by_parts = sum(v * dec.apply(e) for v, e in zip(values, np.eye(values.size)))
        scale = 1.0 + np.linalg.norm(f)
        assert np.linalg.norm(f - by_parts) < 1e-8 * scale
        assert np.linalg.norm(f @ a - a @ f) < 1e-8 * scale * (1.0 + np.linalg.norm(a))
        if kind == "random":
            # distinct eigenvalues: f(a) = V diag(f(lambda_i)) V^-1
            lams, v = np.linalg.eig(a)
            k = np.argmin(np.abs(lams[:, None] - dec.eigenvalues[None, :]), axis=1)
            assert np.linalg.norm(f - v @ np.diag(values[k]) @ np.linalg.inv(v)) < 1e-8 * scale


# --- clustering -------------------------------------------------------------


def _components_oracle(values, tol):
    """Breadth-first connected components of the graph |z_i - z_j| < tol,
    numbered by first member; means in index order, singletons unchanged."""
    n = len(values)
    seen = [False] * n
    reps, mults = [], []
    for start in range(n):
        if seen[start]:
            continue
        seen[start] = True
        queue, members = [start], []
        while queue:
            i = queue.pop(0)
            members.append(i)
            for j in range(n):
                if not seen[j] and abs(values[i] - values[j]) < tol:
                    seen[j] = True
                    queue.append(j)
        members.sort()
        reps.append(values[start] if len(members) == 1 else np.mean(values[members]))
        mults.append(len(members))
    return np.array(reps, dtype=complex), mults


def test_dedup_roots_chain_is_one_cluster_in_any_order():
    # each neighbour is closer than tol = 1e-7, the ends are not: a greedy
    # merge against a running mean splits this chain, and differently per order
    values = np.array([0.0, 0.9e-7, 1.8e-7], dtype=complex)
    for order in (values, values[::-1]):
        reps, labels = linalg.dedup_roots(order)
        assert np.bincount(labels).tolist() == [3]
        assert reps[0] == pytest.approx(0.9e-7, abs=1e-22)


def test_dedup_roots_numbers_clusters_by_first_member():
    reps, labels = linalg.dedup_roots([5.0, 1.0, 5.0 + 1e-9, 1.0], tol=1e-6)
    assert reps.tolist() == [complex(np.mean([5.0, 5.0 + 1e-9])), 1.0]
    assert labels == [0, 1, 0, 1]
    assert np.bincount(labels).tolist() == [2, 2]
    assert all(type(k) is int for k in labels)
    empty, none = linalg.dedup_roots([])
    assert empty.size == 0 and none == []


@settings(derandomize=True, database=None, max_examples=200, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n_centres=st.integers(1, 5),
    size=st.integers(1, 10),
)
def test_dedup_roots_transitive_and_order_free(seed, n_centres, size):
    # values planted around grid centres, each within 0.6 tol of its centre:
    # two of them may be farther than tol apart yet chained through a third
    rng = _rng(seed)
    tol = 1e-3
    centres = rng.integers(-3, 4, n_centres) + 1j * rng.integers(-3, 4, n_centres)
    radius = 0.6 * tol * np.sqrt(rng.uniform(size=size))
    values = centres[rng.integers(0, n_centres, size)] + radius * np.exp(2j * np.pi * rng.uniform(size=size))
    reps, labels = linalg.dedup_roots(values, tol)
    mults = np.bincount(labels).tolist()
    oracle_reps, oracle_mults = _components_oracle(values, tol)
    assert mults == oracle_mults
    assert np.array_equal(reps, oracle_reps)
    perm_reps, perm_labels = linalg.dedup_roots(values[rng.permutation(size)], tol)
    perm_mults = np.bincount(perm_labels).tolist()
    assert sorted(perm_mults) == sorted(mults)
    for rep, mult in zip(reps, mults):
        k = int(np.argmin(np.abs(perm_reps - rep)))
        assert perm_mults[k] == mult
        assert abs(perm_reps[k] - rep) <= 1e-15 * (1.0 + abs(rep))


# --- polynomial roots -------------------------------------------------------


def test_poly_roots_quadratic():
    roots = np.sort_complex(linalg.poly_roots(linalg.Polynomial([-1.0, 0.0, 1.0])))
    assert np.allclose(roots, [-1.0, 1.0])


def test_poly_roots_sqrt2_by_substitution():
    p = linalg.Polynomial([-2.0, 0.0, 1.0])
    roots = linalg.poly_roots(p)
    assert np.allclose(np.sort(roots.real), [-np.sqrt(2), np.sqrt(2)], atol=1e-12)
    for r in roots:
        assert abs(p(r)) < 1e-10


def test_poly_roots_triple_multiplicity():
    # (t-1)^3 expanded
    roots = linalg.poly_roots(linalg.Polynomial([-1.0, 3.0, -3.0, 1.0]))
    reps, labels = linalg.dedup_roots(roots, tol=1e-4)
    assert np.bincount(labels).tolist() == [3]
    assert reps[0] == pytest.approx(1.0, abs=1e-4)


def test_poly_roots_residual_bound():
    rng = _rng(6)
    for _ in range(10):
        coeffs = _random_complex(rng, 7)
        p = linalg.Polynomial(coeffs)
        if p.degree < 1:
            continue
        scale = np.max(np.abs(p.coeffs))
        for r in linalg.poly_roots(p):
            assert abs(p(r)) <= 1e-8 * scale * (1 + abs(r)) ** p.degree


def test_poly_roots_zero_polynomial_raises():
    with pytest.raises(DegenerateInput):
        linalg.poly_roots(linalg.Polynomial([0.0, 0.0]))


def test_polynomial_strips_trailing_zeros():
    p = linalg.Polynomial([1.0, 2.0, 0.0, 1e-18])
    assert p.degree == 1


# --- matrix exponential -----------------------------------------------------


def test_matrix_exp_zero():
    assert np.allclose(linalg.matrix_exp(np.zeros((3, 3))), np.eye(3))


def test_matrix_exp_diagonal():
    e = linalg.matrix_exp(np.diag([np.log(2.0), -np.log(2.0)]))
    assert np.allclose(e, np.diag([2.0, 0.5]), atol=1e-12)


def test_matrix_exp_nilpotent_truncated_series_oracle():
    n = np.array([[0.0, 1.3, -0.7], [0.0, 0.0, 2.1], [0.0, 0.0, 0.0]])
    exact = np.eye(3) + n + n @ n / 2.0
    assert np.allclose(linalg.matrix_exp(n), exact, atol=1e-13)


def test_matrix_exp_inverse_identity():
    rng = _rng(7)
    for scale in (0.5, 3.0, 10.0):
        a = _random_complex(rng, (5, 5))
        a *= scale / np.linalg.norm(a)
        e1 = linalg.matrix_exp(a)
        e2 = linalg.matrix_exp(-a)
        assert np.linalg.norm(e1 @ e2 - np.eye(5)) < 1e-8


def test_matrix_exp_commuting_homomorphism():
    rng = _rng(8)
    a = np.diag(_random_complex(rng, 4))
    b = np.diag(_random_complex(rng, 4))
    lhs = linalg.matrix_exp(a + b)
    rhs = linalg.matrix_exp(a) @ linalg.matrix_exp(b)
    assert np.linalg.norm(lhs - rhs) <= 1e-8


# --- JSON round trip --------------------------------------------------------


def test_matrix_json_roundtrip():
    rng = _rng(9)
    m = _random_complex(rng, (4, 4))
    assert np.allclose(linalg.matrix_from_json(linalg.matrix_to_json(m)), m)


def test_matrix_json_omits_zero_imaginary():
    d = linalg.matrix_to_json(np.eye(2))
    assert "im" not in d
    assert np.allclose(linalg.matrix_from_json(d), np.eye(2))


def test_matrix_json_rejects_nan():
    with pytest.raises(ValueError):
        linalg.matrix_from_json({"n": 1, "re": [[float("nan")]]})
