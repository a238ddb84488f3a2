"""Projection map, Jacobian, adjoint, Jordan and centralizer contracts."""

import numpy as np
import pytest

from cayleymap import catalog, linalg
from cayleymap import representation as rm
from cayleymap.errors import ClusterAmbiguity, DegenerateForm, NotASubalgebra


def _rng(seed):
    return np.random.default_rng(seed)


def _cgauss(rng, size, scale=1.0):
    return scale * (rng.standard_normal(size) + 1j * rng.standard_normal(size)) / np.sqrt(2)


SL2 = catalog.make_sl(2)
SL3 = catalog.make_sl(3)
SO3 = catalog.make_so(3)
SO4 = catalog.make_so(4)


# --- Gram matrices ------------------------------------------------------------


def test_gram_sl2_standard_basis():
    expected = np.array([[2.0, 0, 0], [0, 0, 1.0], [0, 1.0, 0]])
    assert np.allclose(SL2.gram, expected)


def test_gram_so3_is_minus_two_identity():
    assert np.allclose(SO3.gram, -2.0 * np.eye(3))


def test_gram_orthonormalized_basis_is_identity():
    h, e, f = SL2.basis
    basis = [h / np.sqrt(2), (e + f) / np.sqrt(2), (e - f) / (1j * np.sqrt(2))]
    rep = rm.Representation("sl2-onb", basis)
    assert np.allclose(rep.gram, np.eye(3), atol=1e-12)


def test_degenerate_form_raises():
    e = np.array([[0.0, 1.0], [0.0, 0.0]])
    with pytest.raises(DegenerateForm):
        rm.Representation("nilline", [e], check_closure=False)


def test_not_closed_raises():
    # span{H, E} is a subalgebra, span{E12, E21} of sl3 is not
    e12 = np.zeros((3, 3))
    e12[0, 1] = 1
    e21 = np.zeros((3, 3))
    e21[1, 0] = 1
    with pytest.raises(NotASubalgebra):
        rm.Representation("open", [e12 + e21, e12 - e21])


# --- projection closed forms ---------------------------------------------------


def test_cayley_sl_matches_traceless_projection():
    rng = _rng(0)
    for n in (2, 3, 4):
        rep = catalog.make_sl(n)
        g = catalog.sample_element(rep, "generic", 11)
        expected = g.matrix - (np.trace(g.matrix) / n) * np.eye(n)
        assert np.linalg.norm(rm.cayley(rep, g).matrix() - expected) < 1e-10


def test_cayley_sl2_worked_example():
    v = rm.cayley(SL2, np.diag([2.0, 0.5]))
    assert np.allclose(v.matrix(), np.diag([0.75, -0.75]), atol=1e-12)


def test_cayley_so_matches_skew_projection():
    for n in (3, 4, 5):
        rep = catalog.make_so(n)
        g = catalog.sample_element(rep, "generic", 5)
        expected = 0.5 * (g.matrix - g.matrix.T)
        assert np.linalg.norm(rm.cayley(rep, g).matrix() - expected) < 1e-10


def test_cayley_identity_is_zero():
    for rep in (SL2, SL3, SO4):
        v = rm.cayley(rep, np.eye(rep.v_dim))
        assert np.linalg.norm(v.coords) < 1e-12


# --- Jacobian and determinant --------------------------------------------------


def test_jacobian_at_identity():
    for rep in (SL2, SL3, SO3, catalog.make_sl2_irrep(3)):
        m = rm.cayley_jacobian(rep, np.eye(rep.v_dim))
        assert np.linalg.norm(m - np.eye(rep.g_dim)) < 1e-10


def test_psi_sl2_is_half_trace():
    rng = _rng(1)
    for trial in range(20):
        g = catalog.sample_element(SL2, "generic", trial)
        assert abs(rm.psi(SL2, g) - 0.5 * np.trace(g.matrix)) < 1e-9


def test_psi_sl2_torus_closed_form():
    a = 2.0
    g = np.diag([a, 1 / a])
    assert rm.psi(SL2, g) == pytest.approx((a * a + 1) / (2 * a))


def test_psi_vanishes_on_traceless_sl2():
    assert abs(rm.psi(SL2, np.diag([1j, -1j]))) < 1e-12


def test_jacobian_finite_difference_oracle():
    rng = _rng(2)
    eps = 1e-6
    for rep in (SL2, SO3):
        g = catalog.sample_element(rep, "generic", 3)
        m = rm.cayley_jacobian(rep, g)
        h = _cgauss(rng, rep.g_dim)
        step = g.matrix @ linalg.matrix_exp(eps * rep.materialize(h))
        fd = (rm.cayley(rep, step).coords - rm.cayley(rep, g).coords) / eps
        assert np.linalg.norm(m @ h - fd) < 1e-5 * (1 + np.linalg.norm(fd))


def test_psi_basis_independent():
    rng = _rng(3)
    g = catalog.sample_element(SL3, "generic", 9)
    p1 = rm.psi(SL3, g)
    q = _cgauss(rng, (8, 8))
    new_basis = [sum(q[i, j] * SL3.basis[i] for i in range(8)) for j in range(8)]
    p2 = rm.psi(rm.Representation("sl3-alt", new_basis), g)
    assert abs(p1 - p2) <= 1e-8 * abs(p1)


# --- character ------------------------------------------------------------------


def test_character_identity():
    assert rm.character(SL2, np.eye(2)) == pytest.approx(2.0)


def test_character_irrep_torus_eigenvalue_sum():
    for m in (2, 4):
        rep = catalog.make_sl2_irrep(m)
        a = 1.7 - 0.3j
        g = catalog.torus_element(rep, a)
        expected = sum(a ** (m - 2 * p) for p in range(m + 1))
        assert rm.character(rep, g) == pytest.approx(expected)


def test_character_additive_over_direct_sum():
    r1 = catalog.make_sl2_irrep(1)
    r2 = catalog.make_sl2_irrep(3)
    both = catalog.direct_sum(r1, r2)
    coords = _cgauss(_rng(4), 3, 0.4)
    g1 = catalog.realize(r1, coords)
    g2 = catalog.realize(r2, coords)
    g12 = catalog.realize(both, coords)
    assert rm.character(both, g12) == pytest.approx(
        rm.character(r1, g1) + rm.character(r2, g2)
    )


# --- adjoint action --------------------------------------------------------------


def test_adjoint_identity():
    assert np.allclose(rm.adjoint_matrix(SL2, np.eye(2)), np.eye(3), atol=1e-12)


def test_adjoint_torus_eigenvalues():
    a = 1.8
    ad = rm.adjoint_matrix(SL2, np.diag([a, 1 / a]))
    eig = np.sort(np.linalg.eigvals(ad).real)
    assert np.allclose(eig, np.sort([1.0, a * a, a ** (-2)]), atol=1e-10)


def test_adjoint_unimodular_on_samples():
    for rep in (SL3, SO4):
        for trial in range(5):
            b = catalog.sample_element(rep, "generic", 50 + trial)
            assert abs(linalg.determinant(rm.adjoint_matrix(rep, b)) - 1.0) < 1e-8


def test_equivariance_property():
    rng = _rng(5)
    for rep in (SL2, SL3, SO3, catalog.make_sl2_irrep(2)):
        for trial in range(10):
            b = catalog.sample_element(rep, "generic", 300 + trial)
            g = catalog.sample_element(rep, "generic", 400 + trial)
            conj = b.matrix @ g.matrix @ np.linalg.inv(b.matrix)
            lhs = rm.cayley(rep, conj).coords
            rhs = rm.adjoint_matrix(rep, b) @ rm.cayley(rep, g).coords
            scale = 1 + np.linalg.norm(rhs)
            assert np.linalg.norm(lhs - rhs) <= 1e-8 * scale


def test_cartan_stability():
    for rep in (SL3, catalog.make_sl(4), SO4):
        cartan = rep.metadata["cartan_indices"]
        g = catalog.sample_element(rep, "cartan", 17)
        coords = rm.cayley(rep, g).coords
        off = np.delete(coords, cartan)
        assert np.max(np.abs(off)) <= 1e-10


# --- Jordan decompositions --------------------------------------------------------


def test_multiplicative_jordan_diagonalizable():
    g = np.diag([2.0, 3.0, 0.5])
    gs, gu = rm.multiplicative_jordan(g)
    assert np.allclose(gs, g, atol=1e-10)
    assert np.allclose(gu, np.eye(3), atol=1e-10)


def test_multiplicative_jordan_unipotent():
    g = np.array([[1.0, 1.0], [0.0, 1.0]])
    gs, gu = rm.multiplicative_jordan(g)
    assert np.allclose(gs, np.eye(2), atol=1e-7)
    assert np.allclose(gu, g, atol=1e-7)


def test_multiplicative_jordan_reconstruction():
    g = np.array([[2.0, 1.0], [0.0, 0.5]])
    gs, gu = rm.multiplicative_jordan(g)
    assert np.allclose(gs @ gu, g, atol=1e-10)
    assert np.allclose(gu @ gs, gs @ gu @ np.linalg.inv(gs) @ gs, atol=1e-10)
    assert np.allclose(np.sort(np.linalg.eigvals(gs)), np.sort(np.linalg.eigvals(g)))


def test_additive_jordan_trivial_cases():
    x = np.diag([1.0, 2.0, 3.0])
    xs, xn = rm.additive_jordan(x)
    assert np.allclose(xs, x) and np.allclose(xn, 0)
    up = np.triu(np.ones((3, 3)), k=1)
    xs, xn = rm.additive_jordan(up)
    assert np.linalg.norm(xs) < 1e-7 and np.allclose(xn, up, atol=1e-7)


def test_additive_jordan_commutation():
    rng = _rng(6)
    for _ in range(5):
        lam = rng.standard_normal() + 1j * rng.standard_normal()
        block = np.array([[lam, 1, 0], [0, lam, 0], [0, 0, -2 * lam]])
        v = _cgauss(rng, (3, 3)) + 2 * np.eye(3)
        x = v @ block @ np.linalg.inv(v)
        xs, xn = rm.additive_jordan(x, cluster_tol=1e-5)
        assert np.linalg.norm(xs @ xn - xn @ xs) < 1e-8


def test_ehu_hyperbolic_and_elliptic():
    ge, gh, gu = rm.ehu_decomposition(np.diag([2.0, 0.5]))
    assert np.allclose(ge, np.eye(2), atol=1e-10)
    assert np.allclose(gh, np.diag([2.0, 0.5]), atol=1e-10)
    assert np.allclose(gu, np.eye(2), atol=1e-10)
    ge, gh, gu = rm.ehu_decomposition(np.diag([1j, -1j]))
    assert np.allclose(ge, np.diag([1j, -1j]), atol=1e-10)
    assert np.allclose(gh, np.eye(2), atol=1e-10)


def test_ehu_reconstruction_mixed():
    u = np.eye(2, dtype=complex)
    u[0, 1] = 0.7
    g = np.diag([2j, -0.5j]) @ u
    ge, gh, gu = rm.ehu_decomposition(g)
    assert np.linalg.norm(ge @ gh @ gu - g) < 1e-8
    assert np.max(np.abs(np.abs(np.linalg.eigvals(ge)) - 1)) < 1e-8
    eh = np.linalg.eigvals(gh)
    assert np.max(np.abs(eh.imag)) < 1e-8 and np.min(eh.real) > 0
    for a, b in ((ge, gh), (ge, gu), (gh, gu)):
        assert np.linalg.norm(a @ b - b @ a) < 1e-8


def test_multiplicative_jordan_rejects_singular():
    with pytest.raises(ValueError):
        rm.multiplicative_jordan(np.diag([1.0, 0.0]))


def test_coords_of_rejects_out_of_span():
    # a matrix with nonzero trace cannot lie in the trace-free span
    with pytest.raises(NotASubalgebra):
        SL2.coords_of(np.eye(2), residual_tol=1e-8)


def test_cluster_ambiguity_raised():
    # gap lies between the clustering threshold and twice the threshold
    g = np.diag([1.0, 1.0 + 5e-6, 2.0])
    with pytest.raises(ClusterAmbiguity):
        rm.multiplicative_jordan(g, cluster_tol=1e-6)


def test_chained_cluster_is_not_ambiguous():
    # clusters {0..5.4e-3} (a chain of 0.9e-3 steps) and {7.5e-3} lie 2.1e-3
    # apart, above twice the threshold 1e-3, so the split is unambiguous
    m = np.diag([0.0, 0.9, 1.8, 2.7, 3.6, 4.5, 5.4, 7.5]) * 1e-3
    xs, xn = rm.additive_jordan(m, cluster_tol=1e-3 / (1.0 + np.linalg.norm(m)))
    # xs is a polynomial in the diagonal m, within one threshold of the
    # cluster values 2.7e-3 (the chain's mean) and 7.5e-3
    assert np.array_equal(xs, np.diag(np.diag(xs)))
    assert np.max(np.abs(np.diag(xs) - np.array([2.7e-3] * 7 + [7.5e-3]))) < 1e-3
    assert np.allclose(xs + xn, m, rtol=0, atol=1e-15)


def test_jordan_semisimple_compatibility():
    # projection commutes with taking semisimple parts
    rng = _rng(7)
    for n, rep in ((3, SL3), (4, catalog.make_sl(4))):
        for _ in range(10):
            a = np.exp(rng.normal(0, 0.4) + 1j * rng.uniform(0, 2 * np.pi))
            while abs(a - a ** (1 - n)) < 0.1:
                a = np.exp(rng.normal(0, 0.4) + 1j * rng.uniform(0, 2 * np.pi))
            diag = [a] * (n - 1) + [a ** (1 - n)]
            s = np.diag(diag)
            u = np.eye(n, dtype=complex)
            u[0, 1] = rng.normal() + 1j * rng.normal()
            q = linalg.matrix_exp(rep.materialize(_cgauss(rng, rep.g_dim, 0.3)))
            g = q @ (s @ u) @ np.linalg.inv(q)
            gs, _ = rm.multiplicative_jordan(g, cluster_tol=1e-4)
            phi_of_gs = rm.cayley(rep, gs).matrix()
            phi_s, _ = rm.additive_jordan(rm.cayley(rep, g).matrix(), cluster_tol=1e-4)
            assert np.linalg.norm(phi_of_gs - phi_s) <= 1e-7


def test_unipotent_image_is_nilpotent():
    # raw eigenvalues of a numerically nilpotent matrix scatter like
    # eps^(1/k); the clustered spectrum collapses them to the exact-zero mean
    for n in (2, 3, 4):
        rep = catalog.make_sl(n)
        for trial in range(5):
            u = catalog.sample_element(rep, "unipotent", 600 + trial)
            phi = rm.cayley(rep, u).matrix()
            dec = linalg.spectral(phi, cluster_tol=1e-3)
            assert np.max(np.abs(dec.eigenvalues)) <= 1e-7
            power = np.linalg.matrix_power(phi, n)
            assert np.linalg.norm(power) <= 1e-7 * max(1.0, np.linalg.norm(phi)) ** n


def test_shifted_unipotent_image_is_nilpotent():
    # for semisimple b and commuting unipotent w, phi(bw) - phi(b) is nilpotent
    rng = _rng(8)
    for _ in range(5):
        a = np.exp(rng.normal(0, 0.3))
        b = np.diag([a, a, 1 / a**2])
        w = np.eye(3, dtype=complex)
        w[0, 1] = rng.normal()
        diff = rm.cayley(SL3, b @ w).matrix() - rm.cayley(SL3, b).matrix()
        assert np.max(np.abs(np.linalg.eigvals(diff))) < 1e-7


def test_hyperbolic_psi_nonzero():
    for rep in (SL2, SL3, SO4):
        for trial in range(10):
            g = catalog.sample_element(rep, "hyperbolic", 700 + trial)
            assert abs(rm.psi(rep, g)) > 1e-6


def test_traceless_inverse_singularity():
    for n in (2, 3, 4):
        rep = catalog.make_sl(n)
        for trial in range(5):
            a = catalog.sample_element(rep, "trace_free", 800 + trial)
            assert abs(np.trace(a.matrix)) < 1e-12
            assert abs(rm.psi(rep, a.inverse())) <= 1e-7


# --- centralizers -----------------------------------------------------------------


def test_centralizer_dim_regular_diagonal():
    g = rm.GroupElement(np.diag([1.3, 0.4, 1 / (1.3 * 0.4)]))
    assert rm.centralizer_dim(SL3, g) == 2


def test_centralizer_dim_identity():
    assert rm.centralizer_dim(SL3, rm.GroupElement(np.eye(3))) == SL3.g_dim


def test_centralizer_dim_principal_unipotent():
    u = np.eye(3) + np.diag([1.0, 1.0], k=1)
    assert rm.centralizer_dim(SL3, rm.GroupElement(u)) == 2


def test_centralizer_equality_when_nonsingular():
    for trial in range(10):
        g = catalog.sample_element(SL3, "generic", 900 + trial)
        if abs(rm.psi(SL3, g)) > 1e-6:
            dim_g = rm.centralizer_dim(SL3, g)
            dim_phi = rm.centralizer_dim(SL3, rm.cayley(SL3, g))
            assert dim_g == dim_phi


# --- restriction -------------------------------------------------------------------


def test_restrict_full_index_set_identity():
    sub = rm.restrict_to_subalgebra(SL3, range(SL3.g_dim))
    assert np.allclose(sub.gram, SL3.gram)


def test_restrict_cartan_of_sl3():
    sub = rm.restrict_to_subalgebra(SL3, [0, 1])
    assert sub.g_dim == 2
    g = catalog.sample_element(SL3, "cartan", 23)
    full = rm.cayley(SL3, g)
    restricted = rm.cayley(sub, g)
    assert np.linalg.norm(full.matrix() - restricted.matrix()) < 1e-8


def test_restrict_so4_ideals():
    # so4 splits into two commuting 3-dimensional ideals
    x = {(i, j): SO4.basis[k] for k, (i, j) in enumerate([(0, 1), (2, 3), (0, 2), (0, 3), (1, 2), (1, 3)])}
    left = [x[(0, 1)] + x[(2, 3)], x[(0, 2)] - x[(1, 3)], x[(0, 3)] + x[(1, 2)]]
    right = [x[(0, 1)] - x[(2, 3)], x[(0, 2)] + x[(1, 3)], x[(0, 3)] - x[(1, 2)]]
    rep = rm.Representation("so4-ideals", left + right, metadata={"family": "custom"})
    sub_l = rm.restrict_to_subalgebra(rep, [0, 1, 2])
    sub_r = rm.restrict_to_subalgebra(rep, [3, 4, 5])
    for sub in (sub_l, sub_r):
        assert sub.g_dim == 3
        assert abs(linalg.determinant(sub.gram)) > 1e-12
    # commuting ideals: cross brackets vanish
    for a in left:
        for b in right:
            assert np.linalg.norm(a @ b - b @ a) < 1e-12
    # projection of an element generated inside one ideal agrees with the
    # restricted representation's projection
    coords = np.zeros(6, dtype=complex)
    coords[:3] = _cgauss(_rng(9), 3, 0.4)
    g = catalog.realize(rep, coords)
    full = rm.cayley(rep, g).coords
    restr = rm.cayley(sub_l, g).coords
    assert np.linalg.norm(full[:3] - restr) < 1e-8
    assert np.linalg.norm(full[3:]) < 1e-8


def test_restrict_rejects_non_subalgebra():
    # basis order: H1 H2 E01 E02 E10 E12 E20 E21; dropping E02/E20 keeps the
    # Gram nonsingular but [E01, E12] = E02 leaves the span
    with pytest.raises(NotASubalgebra):
        rm.restrict_to_subalgebra(SL3, [0, 1, 2, 4, 5, 7])


def test_restrict_degenerate_span_raises():
    # E01, E02 span an abelian subalgebra on which the trace form vanishes
    with pytest.raises(DegenerateForm):
        rm.restrict_to_subalgebra(SL3, [2, 3])


def test_pullback_pairings_linearly_independent():
    # the functions g -> tr(pi(g) B_i) separate the basis directions: the
    # sample matrix over enough generic elements has full column rank
    for rep in (SL3, SO4, catalog.make_sl2_irrep(3)):
        samples = 3 * rep.g_dim
        m = np.stack(
            [rep.trace_pair(catalog.sample_element(rep, "generic", 100 + k).matrix) for k in range(samples)]
        )
        sv = np.linalg.svd(m, compute_uv=False)
        assert sv[-1] > 1e-8 * sv[0]


# --- the projection against a least-squares oracle ------------------------------


def _recoordinated_sl3():
    # a well-conditioned complex change of basis of sl3; the span is a
    # subalgebra, but the closure check is left to structure_constants
    rng = _rng(11)
    q = np.linalg.qr(_cgauss(rng, (SL3.g_dim, SL3.g_dim)))[0] @ np.diag(rng.uniform(0.5, 2.0, SL3.g_dim))
    return rm.Representation("sl3-recoord", [SL3.materialize(q[:, j]) for j in range(SL3.g_dim)], check_closure=False)


ORACLE_REPS = [SL3, SO4, catalog.make_gl(3), catalog.make_sl2_irrep(3), _recoordinated_sl3()]


def _oracle_coords(rep, mats):
    """Trace-form projection coordinates by np.linalg.lstsq.

    The trace-form complement of the span, {y : tr(y B_i) = 0}, is the null
    space of the pairing rows vec(B_i^T).  The flattened basis together with
    that complement spans all v x v matrices, so the least-squares solution
    splits each matrix exactly into span part plus complement part.
    """
    v, g = rep.v_dim, rep.g_dim
    flat = rep.stack.reshape(g, v * v)
    pairing = np.transpose(rep.stack, (0, 2, 1)).reshape(g, v * v)
    complement = np.linalg.svd(pairing)[2][g:].conj().T
    system = np.hstack([flat.T, complement])
    rhs = np.asarray(mats).reshape(-1, v * v).T
    sol = np.linalg.lstsq(system, rhs, rcond=None)[0]
    return sol[:g].T.reshape(np.shape(mats)[:-2] + (g,))


def _assert_close(got, want):
    assert got.shape == want.shape
    assert np.max(np.abs(got - want)) <= 1e-10 * (1.0 + np.max(np.abs(want)))


@pytest.mark.parametrize("rep", ORACLE_REPS, ids=lambda r: r.name)
def test_projection_matches_lstsq_oracle(rep):
    rng = _rng(12)
    stack = _cgauss(rng, (2, 3, rep.v_dim, rep.v_dim))
    coords = rep.coords_of(stack)
    _assert_close(coords, _oracle_coords(rep, stack))
    # one solve over the leading axes equals one solve per matrix
    each = np.array([[rep.coords_of(m) for m in row] for row in stack])
    assert np.allclose(coords, each, rtol=1e-13, atol=1e-13)

    g = catalog.sample_element(rep, "generic", 5).matrix
    _assert_close(rm.cayley_jacobian(rep, g), _oracle_coords(rep, g @ rep.stack).T)
    _assert_close(rm.adjoint_matrix(rep, g), _oracle_coords(rep, g @ rep.stack @ np.linalg.inv(g)).T)

    b = rep.stack
    comm = b[:, None] @ b[None, :] - b[None, :] @ b[:, None]
    _assert_close(rep.structure_constants(), _oracle_coords(rep, comm))


@pytest.mark.parametrize("rep", ORACLE_REPS, ids=lambda r: r.name)
def test_centralizer_operator_matches_lstsq_oracle(rep, monkeypatch):
    x = rm.cayley(rep, catalog.sample_element(rep, "generic", 6))
    xm = x.matrix()
    want = _oracle_coords(rep, xm @ rep.stack - rep.stack @ xm).T
    seen = []
    svd = np.linalg.svd
    monkeypatch.setattr(np.linalg, "svd", lambda a, **kw: seen.append(np.array(a)) or svd(a, **kw))
    dim = rm.centralizer_dim(rep, x)
    monkeypatch.undo()
    # the last SVD centralizer_dim takes is that of its operator, ad(x) on coordinates
    _assert_close(seen[-1], want)
    sv = np.linalg.svd(want, compute_uv=False)
    assert dim == int(np.sum(sv < rm.KERNEL_CUTOFF * sv[0]))


# --- zero-sum exponential inequality ------------------------------------------------


def test_zero_sum_exponential_inequality():
    rng = _rng(10)
    for _ in range(200):
        n = int(rng.integers(2, 17))
        r = rng.standard_normal(n)
        r -= r.mean()
        slack = np.sum(r * np.exp(r)) - np.sum(r * r) / (2 * n)
        assert slack >= -1e-12


# --- serialization -------------------------------------------------------------------


def test_algebra_vector_json_roundtrip():
    v = rm.cayley(SL2, np.diag([2.0, 0.5]))
    d = v.to_json()
    back = rm.AlgebraVector.from_json(SL2, d)
    assert np.allclose(back.coords, v.coords)
