"""Matrix-core contracts: solves, determinants, spectra, roots, exponentials."""

import numpy as np
import pytest

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
    assert len(dec.projectors) == 1
    assert np.allclose(dec.projectors[0], np.eye(2), atol=1e-8)
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
    total = sum(dec.projectors)
    assert np.allclose(total, np.eye(6), atol=1e-8)
    assert sum(dec.multiplicities) == 6
    for i, p in enumerate(dec.projectors):
        assert np.linalg.norm(p @ p - p) < 1e-8
        for j, q in enumerate(dec.projectors):
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
    # raw values join the nearest representative: {1, 1.5} and {4+i, 5+i}
    raw = np.array([1.0, 4.0 + 1j, 1.5, 5.0 + 1j])
    dec = linalg.SpectralDecomposition(np.array([1.25, 4.5 + 1j]), [], [], raw)
    assert linalg.min_intercluster_gap(dec) == np.hypot(2.5, 1.0)


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
    reps, mults = linalg.dedup_roots(roots, tol=1e-4)
    assert mults == [3]
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
