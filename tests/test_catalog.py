"""Family constructors, combinators and the sum/tensor/dual projection identities."""

import numpy as np
import pytest

from cayleymap import catalog, cli, linalg, suites
from cayleymap import representation as rm
from cayleymap.errors import IncompatibleAlgebras, NotProportional, SingularMatrix


def _rng(seed):
    return np.random.default_rng(seed)


def _cgauss(rng, size, scale=1.0):
    return scale * (rng.standard_normal(size) + 1j * rng.standard_normal(size)) / np.sqrt(2)


# --- constructors ---------------------------------------------------------------


def test_make_sl2_dimensions_and_gram():
    rep = catalog.make_sl(2)
    assert rep.g_dim == 3 and rep.v_dim == 2
    assert np.allclose(rep.gram, [[2, 0, 0], [0, 0, 1], [0, 1, 0]])


def test_make_so3_gram():
    assert np.allclose(catalog.make_so(3).gram, -2 * np.eye(3))


def test_make_gl1_is_inclusion():
    rep = catalog.make_gl(1)
    g = np.array([[2.5 + 1j]])
    assert np.allclose(rm.cayley(rep, g).matrix(), g)


def test_sl_dimension_counts():
    for n in (2, 3, 4, 5):
        assert catalog.make_sl(n).g_dim == n * n - 1
    for n in (3, 4, 5, 6):
        assert catalog.make_so(n).g_dim == n * (n - 1) // 2


def test_irrep_m1_equals_standard_sl2():
    std = catalog.make_sl(2)
    irr = catalog.make_sl2_irrep(1)
    assert all(np.allclose(a, b) for a, b in zip(std.basis, irr.basis))


def test_irrep_h_square_trace():
    for m in (1, 2, 3, 4, 5):
        rep = catalog.make_sl2_irrep(m)
        h = rep.basis[0]
        expected = m * (m + 1) * (m + 2) / 3
        assert np.trace(h @ h).real == pytest.approx(expected)


def test_irrep_torus_coefficient_series():
    rng = _rng(0)
    for m in (1, 2, 3, 4, 5):
        rep = catalog.make_sl2_irrep(m)
        for _ in range(5):
            a = np.exp(_cgauss(rng, (), 0.3))
            g = catalog.realize(rep, [np.log(a), 0.0, 0.0])  # exp(log(a) H) = diag(a^(m - 2p))
            coords = rm.cayley(rep, g).coords
            series = sum((m - 2 * p) * a ** (m - 2 * p) for p in range(m + 1))
            expected = 3.0 / (m**3 + 3 * m**2 + 2 * m) * series
            assert abs(coords[0] - expected) <= 1e-8 * (1 + abs(expected))
            assert abs(coords[1]) < 1e-10 and abs(coords[2]) < 1e-10


# --- combinators ------------------------------------------------------------------


def test_gram_additivity_direct_sum():
    r1 = catalog.make_sl2_irrep(2)
    r2 = catalog.make_sl2_irrep(3)
    both = catalog.direct_sum(r1, r2)
    assert np.max(np.abs(both.gram - (r1.gram + r2.gram))) <= 1e-9


def test_gram_tensor_rule():
    r1 = catalog.make_sl2_irrep(1)
    r2 = catalog.make_sl2_irrep(2)
    prod = catalog.tensor(r1, r2)
    expected = r2.v_dim * r1.gram + r1.v_dim * r2.gram
    assert np.max(np.abs(prod.gram - expected)) <= 1e-9


def test_dual_of_dual_gram():
    rep = catalog.make_sl2_irrep(2)
    dd = catalog.dual(catalog.dual(rep))
    assert np.allclose(dd.gram, rep.gram)


def test_conjugate_by_singular_matrix_raises_singular_matrix(monkeypatch):
    # exp(x) is invertible; an exponential that underflowed to zero stands in
    # for an exactly singular conjugator
    monkeypatch.setattr(linalg, "matrix_exp", np.zeros_like)
    with pytest.raises(SingularMatrix, match="conjugator is singular"):
        catalog._conjugate(catalog.make_sl(2), np.eye(2), _rng(0))


def test_incompatible_algebras_rejected():
    with pytest.raises(IncompatibleAlgebras):
        catalog.direct_sum(catalog.make_sl(2), catalog.make_so(3))


def test_direct_sum_identity():
    # projection of the sum is the index-weighted mix of the projections
    rng = _rng(1)
    ref = catalog.make_sl2_irrep(1)
    for m1, m2 in ((1, 2), (2, 3), (1, 4)):
        r1 = catalog.make_sl2_irrep(m1)
        r2 = catalog.make_sl2_irrep(m2)
        both = catalog.direct_sum(r1, r2)
        j1 = catalog.dynkin_ratio(r1, ref)
        j2 = catalog.dynkin_ratio(r2, ref)
        jsum = catalog.dynkin_ratio(both, ref)
        assert jsum == pytest.approx(j1 + j2, rel=1e-9)
        for trial in range(5):
            coords = _cgauss(rng, 3, 0.4)
            c1 = rm.cayley(r1, catalog.realize(r1, coords)).coords
            c2 = rm.cayley(r2, catalog.realize(r2, coords)).coords
            cs = rm.cayley(both, catalog.realize(both, coords)).coords
            mix = (j1 / jsum) * c1 + (j2 / jsum) * c2
            assert np.linalg.norm(cs - mix) <= 1e-8 * (1 + np.linalg.norm(mix))


def test_tensor_identity():
    rng = _rng(2)
    ref = catalog.make_sl2_irrep(1)
    for m1, m2 in ((1, 2), (2, 2), (1, 3)):
        r1 = catalog.make_sl2_irrep(m1)
        r2 = catalog.make_sl2_irrep(m2)
        prod = catalog.tensor(r1, r2)
        j1 = catalog.dynkin_ratio(r1, ref)
        j2 = catalog.dynkin_ratio(r2, ref)
        jprod = catalog.dynkin_ratio(prod, ref)
        assert jprod == pytest.approx(r2.v_dim * j1 + r1.v_dim * j2, rel=1e-9)
        for trial in range(5):
            coords = _cgauss(rng, 3, 0.4)
            g1 = catalog.realize(r1, coords)
            g2 = catalog.realize(r2, coords)
            gp = catalog.realize(prod, coords)
            c1 = rm.cayley(r1, g1).coords
            c2 = rm.cayley(r2, g2).coords
            cp = rm.cayley(prod, gp).coords
            chi1 = rm.character(r1, g1)
            chi2 = rm.character(r2, g2)
            mix = (j1 * chi2 * c1 + chi1 * j2 * c2) / jprod
            assert np.linalg.norm(cp - mix) <= 1e-7 * (1 + np.linalg.norm(mix))


def test_tensor_power_identity():
    rng = _rng(3)
    rep = catalog.make_sl2_irrep(2)
    for k in (2, 3):
        power = catalog.tensor_power(rep, k)
        for trial in range(5):
            coords = _cgauss(rng, 3, 0.4)
            g = catalog.realize(rep, coords)
            gk = catalog.realize(power, coords)
            scale = (rm.character(rep, g) / rep.v_dim) ** (k - 1)
            mix = scale * rm.cayley(rep, g).coords
            ck = rm.cayley(power, gk).coords
            assert np.linalg.norm(ck - mix) <= 1e-7 * (1 + np.linalg.norm(mix))


def test_tensor_power_forms_no_structure_constants(monkeypatch):
    rep = catalog.make_sl(3)
    want = catalog.tensor(catalog.tensor(rep, rep), rep)
    calls = []
    formed = rm.Representation.structure_constants
    monkeypatch.setattr(rm.Representation, "structure_constants", lambda self: calls.append(self.name) or formed(self))
    cube = catalog.tensor_power(rep, 3)
    assert calls == []
    assert cube.name == want.name and cube.metadata == want.metadata
    assert cube.stack.dtype == want.stack.dtype and cube.stack.tobytes() == want.stack.tobytes()


def test_dual_identity():
    rng = _rng(4)
    for m in (1, 2, 3):
        rep = catalog.make_sl2_irrep(m)
        d = catalog.dual(rep)
        for trial in range(5):
            coords = _cgauss(rng, 3, 0.4)
            g = catalog.realize(rep, coords)
            gd = catalog.realize(d, coords)
            lhs = rm.cayley(d, gd).coords
            rhs = -rm.cayley(rep, np.linalg.inv(g.matrix)).coords
            assert np.linalg.norm(lhs - rhs) <= 1e-9 * (1 + np.linalg.norm(rhs))


# --- index ratios -------------------------------------------------------------------


def test_dynkin_ratio_self_is_one():
    rep = catalog.make_sl2_irrep(3)
    assert catalog.dynkin_ratio(rep, rep) == pytest.approx(1.0)


def test_dynkin_ratio_adjoint_vs_standard():
    std = catalog.make_sl2_irrep(1)
    h, e, f = std.basis
    # adjoint action written in the (H, E, F) coordinates
    def ad(x):
        cols = [std.coords_of(x @ b - b @ x) for b in std.basis]
        return np.stack(cols, axis=1)

    adj = rm.Representation("sl2-adjoint", [ad(h), ad(e), ad(f)], metadata={"family": "custom"})
    assert catalog.dynkin_ratio(adj, std) == pytest.approx(4.0, rel=1e-9)


def test_dynkin_ratio_symmetric_power_series():
    ref = catalog.make_sl2_irrep(1)
    for m in (1, 2, 3, 4, 5):
        rep = catalog.make_sl2_irrep(m)
        expected = m * (m + 1) * (m + 2) / 6
        assert catalog.dynkin_ratio(rep, ref) == pytest.approx(expected, rel=1e-9)


def test_dynkin_ratio_rejects_nonproportional():
    gl2 = catalog.make_gl(2)
    with pytest.raises(NotProportional):
        # gl2 is not simple: the tensor-square trace form picks up tr(B)tr(C)
        # cross terms and stops being a multiple of the original
        catalog.dynkin_ratio(catalog.tensor(gl2, gl2), gl2)


# --- samplers -------------------------------------------------------------------------


def test_sampler_determinism():
    rep = catalog.make_sl(3)
    a = catalog.sample_element(rep, "generic", 42)
    b = catalog.sample_element(rep, "generic", 42)
    assert np.array_equal(a.matrix, b.matrix)
    c = catalog.sample_element(rep, "generic", 43)
    assert not np.allclose(a.matrix, c.matrix)


def test_sampler_unipotent_class():
    rep = catalog.make_sl(3)
    u = catalog.sample_element(rep, "unipotent", 7)
    lams = np.linalg.eigvals(u.matrix)
    assert np.max(np.abs(lams - 1)) < 1e-4
    assert np.linalg.norm(np.linalg.matrix_power(u.matrix - np.eye(3), 3)) < 1e-10


def test_sampler_unipotent_class_through_the_nilpotent_index():
    # sl2 irreps, and a sum that copies their key, draw along the basis vector
    # metadata["nilpotent_index"]: u - 1 and the image X = cayley(rep, u) vanish
    # at the k-th power, k = max m + 1 the largest block's size
    irrep = catalog.make_sl2_irrep
    power = np.linalg.matrix_power
    cases = [(irrep(m), m + 1) for m in (1, 2, 3, 4)] + [(catalog.direct_sum(irrep(1), irrep(3)), 4)]
    for rep, k in cases:
        u = catalog.sample_element(rep, "unipotent", 7)
        n = u.matrix - np.eye(rep.v_dim)
        x = rm.cayley(rep, u).matrix()
        assert np.linalg.norm(power(n, k)) <= 1e-12 * np.linalg.norm(n) ** k
        assert np.linalg.norm(power(x, k)) <= 1e-12 * np.linalg.norm(x) ** k


def test_sampler_hyperbolic_class():
    for rep in (catalog.make_sl(2), catalog.make_so(4), catalog.make_sl2_irrep(3)):
        g = catalog.sample_element(rep, "hyperbolic", 5)
        lams = np.linalg.eigvals(g.matrix)
        assert np.max(np.abs(lams.imag)) < 1e-8
        assert np.min(lams.real) > 0


def test_sampler_elliptic_class():
    for rep in (catalog.make_sl(3), catalog.make_so(4)):
        g = catalog.sample_element(rep, "elliptic", 6)
        lams = np.linalg.eigvals(g.matrix)
        assert np.max(np.abs(np.abs(lams) - 1)) < 1e-8


def test_sampler_trace_free_class():
    rep = catalog.make_sl(2)
    g = catalog.sample_element(rep, "trace_free", 8)
    assert abs(np.trace(g.matrix)) < 1e-12
    assert abs(np.linalg.det(g.matrix) - 1) < 1e-10


def test_sampler_group_membership():
    so4 = catalog.make_so(4)
    for kind in ("generic", "hyperbolic", "elliptic", "unipotent", "cartan"):
        g = catalog.sample_element(so4, kind, 11)
        assert np.linalg.norm(g.matrix @ g.matrix.T - np.eye(4)) < 1e-8
        assert abs(np.linalg.det(g.matrix) - 1) < 1e-8
    sl3 = catalog.make_sl(3)
    for kind in ("generic", "hyperbolic", "elliptic", "unipotent", "cartan", "trace_free"):
        g = catalog.sample_element(sl3, kind, 12)
        assert abs(np.linalg.det(g.matrix) - 1) < 1e-8


STACK_KEYS = [*suites.FAMILY_KEYS, ("sl", 10), ("gl", 12)]


@pytest.mark.parametrize("key", STACK_KEYS)
def test_realize_of_a_stack_is_each_element_bit_for_bit(key):
    rep = catalog.make(*key)
    coords = _cgauss(_rng(60), (4, rep.g_dim), 0.4)
    got = catalog.realize(rep, coords)
    assert got.shape == (4, rep.v_dim, rep.v_dim)
    assert all(np.array_equal(got[k], catalog.realize(rep, coords[k]).matrix) for k in range(4))
    with pytest.raises(ValueError, match="exponent contains non-finite entries"):
        catalog.realize(rep, np.where(np.arange(4)[:, None] == 2, np.nan, coords))


@pytest.mark.parametrize("key", STACK_KEYS)
@pytest.mark.parametrize("kind", ["hyperbolic", "unipotent"])
def test_conjugated_samples_are_the_per_matrix_exponentials_bit_for_bit(key, kind):
    # the element's exponent, then the conjugator's coordinates, drawn in that order from one
    # stream, each exponentiated alone: the sampler's one (2, v, v) stack gives the same bits
    rep = catalog.make(*key)
    cartan = rep.metadata["cartan_indices"]
    for seed in range(3):
        rng = catalog._rng_for(rep, kind, seed)
        if kind == "hyperbolic":
            coords = np.zeros(rep.g_dim, dtype=complex)
            coords[cartan] = rep.metadata["hyperbolic_unit"] * rng.uniform(-0.8, 0.8, len(cartan))
            x = rep.materialize(coords)
        else:
            x = catalog._nilpotent_direction(rep, rng)
        q = linalg.matrix_exp(rep.materialize(linalg.complex_normal(rng, rep.g_dim, 0.3)))
        want = q @ linalg.matrix_exp(x) @ np.linalg.inv(q)
        assert np.array_equal(catalog.sample_element(rep, kind, seed).matrix, want)


# --- family registry ---------------------------------------------------------------


def test_family_registry_calls_makers_by_module_attribute(monkeypatch):
    # rebinding catalog.make_* (as a tracer does) must reach every registry caller
    calls = []
    real = catalog.make_sl2_irrep
    monkeypatch.setattr(catalog, "make_sl2_irrep", lambda m: calls.append(m) or real(m))
    assert catalog.make("sl2_irrep", 2).name == "sl2irrep2"
    args = cli.build_parser().parse_args(["map", "--group", "sl2_irrep", "--m", "3"])
    assert cli._build_rep(args).g_dim == 3
    assert calls == [2, 3]
    with pytest.raises(ValueError):
        catalog.make("sp", 4)
