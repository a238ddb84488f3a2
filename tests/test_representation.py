"""Projection map, Jacobian, adjoint, Jordan and centralizer contracts."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cayleymap import catalog, linalg, suites
from cayleymap import representation as rm
from cayleymap.errors import (
    ClusterAmbiguity,
    DegenerateForm,
    DegenerateInput,
    NotASubalgebra,
    NotEquivariant,
    SingularMatrix,
)


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


@pytest.mark.parametrize(
    "basis, message",
    [
        ([], "basis must be nonempty"),
        ([np.ones((2, 3))], r"basis\[0\] must be square, got shape \(2, 3\)"),
        ([np.eye(2), np.eye(3)], "basis matrices must share one size"),
        ([np.eye(2), np.array([[0.0, np.nan], [0.0, 0.0]])], r"basis\[1\] contains non-finite entries"),
    ],
    ids=["empty", "non-square", "mixed-sizes", "nan-entry"],
)
def test_malformed_basis_is_rejected(basis, message):
    with pytest.raises(ValueError, match=message):
        rm.Representation("malformed", basis)


def test_degenerate_form_raises():
    e = np.array([[0.0, 1.0], [0.0, 0.0]])
    with pytest.raises(DegenerateForm):
        rm.Representation("nilline", [e])


@pytest.mark.parametrize("delta", [1e-10, 1e-11])
def test_ill_conditioned_gram_is_degenerate_at_construction(delta):
    # Gram of (H, E, delta F) has singular values 2, delta, delta: past the
    # 1/linalg.RTOL condition bound that every coords_of solve enforces
    h, e, f = SL2.basis
    with pytest.raises(DegenerateForm):
        rm.Representation("sl2-squeezed", [h, e, delta * f])


@pytest.mark.parametrize("scale", [1e-155, 1e-160])
def test_basis_with_subnormal_gram_is_refused_before_the_closure_check(scale):
    # sl3's Cartan pair at 1e-155 has Gram entries ~2e-310: build_gram's ratio passes,
    # the solve's subnormal pivots overflow, and the closure check would warn on the inf dual
    with pytest.raises(DegenerateInput, match=r"^dual basis is not finite: Gram solve overflows at max \|G_ij\| "):
        rm.Representation("tiny", [scale * SL3.basis[0], scale * SL3.basis[1]])
    assert np.isfinite(rm.Representation("small", [1e-150 * SL3.basis[0], 1e-150 * SL3.basis[1]]).dual).all()


def test_not_closed_raises():
    # span{H, E} is a subalgebra, span{E12, E21} of sl3 is not
    e12 = np.zeros((3, 3))
    e12[0, 1] = 1
    e21 = np.zeros((3, 3))
    e21[1, 0] = 1
    with pytest.raises(NotASubalgebra):
        rm.Representation("open", [e12 + e21, e12 - e21])


def _conjugated_sl4():
    # sl4 in a random complex basis P B_i P^-1: commutators with no exact zeros
    rng = _rng(21)
    p = _cgauss(rng, (4, 4))
    pinv = np.linalg.inv(p)
    return rm.Representation("sl4-conj", [p @ b @ pinv for b in catalog.make_sl(4).basis])


STRUCTURE_REPS = [catalog.make_sl(6), catalog.make_so(8), catalog.make_gl(5), _conjugated_sl4()]


@pytest.mark.parametrize("rep", STRUCTURE_REPS, ids=lambda r: r.name)
def test_gram_is_the_trace_form(rep):
    # one GEMM against the transposed stack: tr(B_i B_j) summed in another
    # order than the einsum reference, equal on the catalog's exact entries
    want = np.einsum("iab,jba->ij", rep.stack, rep.stack)
    want = 0.5 * (want + want.T)
    if rep.name == "sl4-conj":
        # both sides sum v^2 products whose moduli add up to at most |B_i| |B_j|
        norms = np.linalg.norm(rep.stack, axis=(1, 2))
        bound = 2 * rep.v_dim**2 * np.finfo(float).eps * np.outer(norms, norms)
        assert np.all(np.abs(rep.gram - want) <= bound)
    else:
        assert np.array_equal(rep.gram, want)


@pytest.mark.parametrize("rep", STRUCTURE_REPS, ids=lambda r: r.name)
def test_structure_constants_equal_the_full_commutator_projection(rep):
    # only the pairs i < j are projected; the g x g stack of every [B_i, B_j],
    # from the same one (g v) x (g v) product, projected through the dual
    # basis by one GEMM, gives the same bits
    g, v = rep.g_dim, rep.v_dim
    b = rep.stack
    prod = (b.reshape(g * v, v) @ b.transpose(1, 0, 2).reshape(v, g * v)).reshape(g, v, g, v)
    comm = prod.transpose(0, 2, 1, 3) - prod.transpose(2, 0, 1, 3)
    c = rep.structure_constants()
    assert np.array_equal(c, (comm.reshape(g * g, v * v) @ rep.dual).reshape(g, g, g))
    assert np.array_equal(c, -c.transpose(1, 0, 2))
    assert not np.any(c[np.arange(g), np.arange(g)])


def test_gl1_has_no_pairs():
    assert np.array_equal(catalog.make_gl(1).structure_constants(), np.zeros((1, 1, 1)))


def _coords_of_shapes(monkeypatch):
    shapes = []
    coords_of = rm.Representation.coords_of
    monkeypatch.setattr(rm.Representation, "coords_of", lambda self, m: shapes.append(np.shape(m)) or coords_of(self, m))
    return shapes


def _projected_rows(monkeypatch):
    # (pairs, g) shape of the coordinates of every projected commutator tile
    rows = []
    tiles = rm.Representation._projected_tiles

    def counted_tiles(self):
        for i, j, flat, coords in tiles(self):
            rows.append(coords.shape)
            yield i, j, flat, coords

    monkeypatch.setattr(rm.Representation, "_projected_tiles", counted_tiles)
    return rows


def test_structure_constants_project_each_pair_once(monkeypatch):
    rep = catalog.make_sl(4)
    rows = _projected_rows(monkeypatch)
    shapes = _coords_of_shapes(monkeypatch)
    rep.structure_constants()
    g = rep.g_dim
    assert rows == [(g * (g - 1) // 2, g)]
    assert shapes == []


def test_one_row_tiles_project_each_pair_once(monkeypatch):
    # tile k holds the pairs (k, j > k); the last tile takes rows g - 3..g - 1,
    # so no tile holds a single pair
    monkeypatch.setattr(rm, "_TILE_ENTRIES", 1)
    rep = catalog.make_sl(4)
    rows = _projected_rows(monkeypatch)
    shapes = _coords_of_shapes(monkeypatch)
    rep.structure_constants()
    g = rep.g_dim
    assert rows == [(g - 1 - k, g) for k in range(g - 3)] + [(3, g)]
    assert shapes == []


@pytest.mark.parametrize("entries", [1, rm._TILE_ENTRIES])
def test_construction_solves_the_gram_system_once(monkeypatch, entries):
    # construction forms the dual basis, one solve with v^2 right-hand sides,
    # for every family and whatever the tiling, and makes no coords_of call
    monkeypatch.setattr(rm, "_TILE_ENTRIES", entries)
    shapes = _coords_of_shapes(monkeypatch)
    solves = _solve_count(monkeypatch)
    for fam, n in [("sl", 4), ("so", 6), ("gl", 4)]:
        rep = catalog.make(fam, n)
        assert solves == [(rep.g_dim, n * n)]
        del solves[:]
    assert shapes == []


def _closure_work(monkeypatch):
    # tile walks entered, commutator pairs they yield and linalg.solve_linear calls
    work = {"pairs": 0, "walks": 0, "solves": 0}
    tiles = rm.Representation._commutator_tiles

    def counted_tiles(self):
        work["walks"] += 1
        for i, j, comm in tiles(self):
            work["pairs"] += len(comm)
            yield i, j, comm

    solve_linear = linalg.solve_linear

    def counted_solve(a, b, what="matrix"):
        work["solves"] += 1
        return solve_linear(a, b, what)

    monkeypatch.setattr(rm.Representation, "_commutator_tiles", counted_tiles)
    monkeypatch.setattr(linalg, "solve_linear", counted_solve)
    return work


@pytest.mark.parametrize("n", range(1, 13))
def test_full_basis_is_closed_without_the_commutator_walk(monkeypatch, n):
    # g = v^2 independent matrices span gl(v), which is closed; the one solve
    # forms the dual basis
    work = _closure_work(monkeypatch)
    rep = catalog.make_gl(n)
    assert rep.g_dim == rep.v_dim**2
    assert work == {"pairs": 0, "walks": 0, "solves": 1}


@pytest.mark.parametrize("fam, n", [("sl", 4), ("so", 6)])
def test_proper_subalgebra_walks_every_commutator(monkeypatch, fam, n):
    work = _closure_work(monkeypatch)
    rep = catalog.make(fam, n)
    g = rep.g_dim
    assert work == {"pairs": g * (g - 1) // 2, "walks": 1, "solves": 1}


def _solve_count(monkeypatch):
    solves = []
    solve_linear = linalg.solve_linear
    monkeypatch.setattr(linalg, "solve_linear", lambda a, b, what="matrix": solves.append(np.shape(b)) or solve_linear(a, b, what))
    return solves


@pytest.mark.parametrize("first", [rm.adjoint_matrix, rm.centralizer_dim], ids=lambda f: f.__name__)
@pytest.mark.parametrize("fam, n", [("sl", 4), ("so", 6), ("gl", 4)])
def test_adjoint_and_centralizer_reuse_the_dual_basis(monkeypatch, fam, n, first):
    # every family, the full gl basis included, forms the dual basis at
    # construction by one solve with v^2 right-hand sides.  Whichever comes
    # first, the adjoint, both centralizer operators and the structure
    # constants make no solve, while cayley and psi still make one each
    solves = _solve_count(monkeypatch)
    rep = catalog.make(fam, n)
    g = catalog.sample_element(rep, "generic", 7)
    x = rm.AlgebraVector(rep, _cgauss(_rng(7), rep.g_dim))
    assert solves == [(rep.g_dim, rep.v_dim**2)]
    d = rep.dual
    assert d.shape == (rep.v_dim**2, rep.g_dim) and not d.flags.writeable
    del solves[:]
    first(rep, g)
    rm.adjoint_matrix(rep, g)
    rm.centralizer_dim(rep, g)
    rm.centralizer_dim(rep, x)
    rep.structure_constants()
    assert solves == [] and rep.dual is d
    rm.cayley(rep, g)
    assert len(solves) == 1
    rm.psi(rep, g)
    assert len(solves) == 2


@pytest.mark.parametrize("seed", range(5))
def test_ill_conditioned_full_basis_is_closed(seed):
    # cond(G) = 5e8 is inside the DegenerateForm bound 1/linalg.RTOL; on these
    # bases the commutator walk's residual, rounding amplified by cond(G), is
    # 0.31-1.56 against thresholds of 0.14-0.25, so gl must not take it
    stack = _recoordinated(catalog.make_gl(4), 5e8, _rng(seed))
    rep = rm.Representation("gl4-recoordinated", stack)
    assert rep.gram_cond == pytest.approx(5e8, rel=1e-4)


@pytest.mark.parametrize("seed", range(5))
@pytest.mark.parametrize("fam, n, cond", [("sl", 4, 5e8), ("so", 6, 1e8)])
def test_ill_conditioned_subalgebra_basis_is_closed(fam, n, cond, seed):
    # inside the DegenerateForm bound the dual-basis residual is rounding
    # amplified by cond(G): on these bases 0.21-0.52 (sl4) and 0.009-0.046
    # (so6) against CLOSURE_TOL (1 + max |[B_i, B_j]|) = 0.20-0.23 and
    # 0.022-0.025, so only the rounding floor keeps them closed
    stack = _recoordinated(catalog.make(fam, n), cond, _rng(seed))
    rep = rm.Representation("closed", stack)
    assert rep.gram_cond == pytest.approx(cond, rel=1e-4)
    # the same basis with one element shifted by 1e-6 |B_0| I, off the algebra,
    # at the same cond(G): its residual is still far above the floor
    stack[0] += 1e-6 * np.linalg.norm(stack[0]) * np.eye(n)
    assert rm.build_gram(stack)[1] == pytest.approx(cond, rel=1e-3)
    with pytest.raises(NotASubalgebra) as err:
        rm.Representation("open", stack)
    assert err.value.value > 10 * err.value.threshold


@pytest.mark.parametrize("rep", STRUCTURE_REPS, ids=lambda r: r.name)
def test_structure_constants_do_not_depend_on_the_tiling(monkeypatch, rep):
    # every tile is projected by its own products and one GEMM against the
    # dual basis, whose row count changes with the tile: one-row tiles, the
    # intermediate budgets (2^12 takes 2, 3 and 6 basis rows per tile on so8,
    # sl6 and gl5, 2^14 takes 9 and 13 on so8 and sl6), the default and one
    # whole tile give the same bits
    want = rep.structure_constants()
    for entries in (1, 2**8, 2**12, 2**14, rm._TILE_ENTRIES, (rep.g_dim * rep.v_dim) ** 2):
        monkeypatch.setattr(rm, "_TILE_ENTRIES", entries)
        assert np.array_equal(rm.Representation(rep.name, rep.stack).structure_constants(), want)


def test_closure_failure_past_the_first_tile(monkeypatch):
    # I, E33 and E44 commute with everything here, so with one row per tile
    # only [X, Y] = -2 (E11 - E22), in the third and last tile, leaves the span
    unit = np.eye(4)
    e12 = np.outer(unit[0], unit[1])
    basis = [unit, np.outer(unit[2], unit[2]), np.outer(unit[3], unit[3]), e12 + e12.T, e12 - e12.T]
    messages = []
    for entries in (1, rm._TILE_ENTRIES):
        monkeypatch.setattr(rm, "_TILE_ENTRIES", entries)
        with pytest.raises(NotASubalgebra) as err:
            rm.Representation("open", basis)
        messages.append(str(err.value))
    assert messages[0] == messages[1]


def test_construction_memory_is_bounded():
    # gl12 (g = 144): one (g v) x (g v) commutator product and a dense (g, g, g)
    # structure array took a 137.5 MB peak and kept 47 MB; closed by dimension
    # count it takes ~1.6 MB and keeps ~1.3 MB.  Its structure constants, a
    # 45.6 MiB array, are formed per call and leave nothing on the instance
    tracemalloc.start()
    try:
        rep = catalog.make_gl(12)
        retained, peak = tracemalloc.get_traced_memory()
        rep.structure_constants()
        after_structure, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 32 * 2**20
    assert retained < 4 * 2**20
    assert after_structure < 4 * 2**20


def test_structure_constants_are_formed_anew_and_keep_no_state():
    rep = catalog.make_sl(3)
    state = dict(vars(rep))
    c = rep.structure_constants()
    again = rep.structure_constants()
    assert again is not c and np.array_equal(again, c)
    assert vars(rep).keys() == state.keys() and all(vars(rep)[k] is val for k, val in state.items())


def _recoordinated(rep, cond, rng):
    # B'_k = sum_i A_ki B_i with A = U diag(s) V W: W G W^T = 1, V real
    # orthogonal, U complex unitary, so G' = U diag(s^2) U^T has condition
    # number (s_max / s_min)^2 = cond
    g = rep.g_dim
    lam, q = np.linalg.eigh(rep.gram.real)
    w = (q / np.sqrt(lam.astype(complex))).T
    u = np.linalg.qr(_cgauss(rng, (g, g)))[0]
    v = np.linalg.qr(rng.standard_normal((g, g)))[0]
    a = u @ np.diag(np.geomspace(1.0, np.sqrt(cond), g)) @ v @ w
    return np.einsum("ki,iab->kab", a, rep.stack)


@pytest.mark.xfail(
    strict=True,
    raises=AssertionError,
    reason="ROADMAP item 7: cayley(I) on a re-coordinated basis is rounding noise, which centralizer_dim reads as a regular element",
)
def test_centralizer_of_the_identity_image_is_the_whole_algebra_on_recoordinated_bases():
    # cayley(I) = 0 on every basis, and the centralizer of 0 is all of sl_n
    wrong = []
    for n in (3, 4):
        for cond in (1.0, 1e4):
            for seed in range(3):
                rep = rm.Representation("recoordinated", _recoordinated(catalog.make_sl(n), cond, _rng(seed)))
                dim = rm.centralizer_dim(rep, rm.cayley(rep, np.eye(n)))
                if dim != rep.g_dim:
                    wrong.append((n, cond, seed, dim))
    assert wrong == []


CLOSURE_PROBES = [(fam, n, cond) for fam, n in [("sl", 4), ("so", 6), ("gl", 4)] for cond in (1.0, 1e3, 1e5, 1e7)]


@pytest.mark.parametrize("fam, n, cond", CLOSURE_PROBES + [("sl", 4, "open"), ("so", 6, "open")])
def test_dual_basis_closure_residual_matches_the_gram_solves(monkeypatch, fam, n, cond):
    # the construction's residual, read from NotASubalgebra at a zero threshold
    # (CLOSURE_TOL and the rounding floor both 0), against the L1 residual of
    # each commutator projected by coords_of, a Gram solve that does not go
    # through the dual basis; an "open" basis shifts one
    # element by 1e-6 I, off the algebra.  A gl basis is full, so it is closed
    # by dimension count and constructs even at a zero threshold
    stack = _recoordinated(catalog.make(fam, n), 1e3 if cond == "open" else cond, _rng(23))
    if cond == "open":
        stack[0] += 1e-6 * np.eye(n)
    monkeypatch.setattr(rm, "CLOSURE_TOL", 0.0)
    monkeypatch.setattr(linalg, "ROUNDING_FLOOR", 0.0)
    if fam == "gl":
        rep = rm.Representation("probe", stack)
    else:
        with pytest.raises(NotASubalgebra) as err:
            rm.Representation("probe", stack)
        dual = err.value.value
        monkeypatch.setattr(rm, "CLOSURE_TOL", np.inf)
        rep = rm.Representation("probe", stack)
    if cond != "open":
        assert rep.gram_cond == pytest.approx(cond, rel=1e-6)
    i, j = np.triu_indices(rep.g_dim, 1)
    comm = stack[i] @ stack[j] - stack[j] @ stack[i]
    recon = rep.materialize(rep.coords_of(comm)) - comm
    want = np.abs(recon).reshape(len(comm), -1).sum(axis=1).max()
    if fam != "gl":
        assert want / 2 <= dual <= 2 * want
    monkeypatch.undo()
    scale = np.abs(comm).max()
    closed = want <= max(rm.CLOSURE_TOL * (1.0 + scale), rep._rounding_floor(scale))
    assert closed == (cond != "open")
    if closed:
        rm.Representation("probe", stack)
    else:
        with pytest.raises(NotASubalgebra, match="threshold"):
            rm.Representation("probe", stack)


@pytest.mark.parametrize("fam, n, cond", CLOSURE_PROBES)
def test_adjoint_dual_projection_accuracy(fam, n, cond):
    # the adjoint and the structure constants project through the kept dual
    # basis, coords_of by a Gram solve; all are rounding amplified by cond(G),
    # and agree with the least-squares oracle within one multiple of
    # cond(G) eps (measured at most 2.7 here, 2.8 over seeds 0-4, for the
    # adjoint; at most 1.9 for the structure constants)
    base = catalog.make(fam, n)
    rep = rm.Representation("probe", _recoordinated(base, cond, _rng(29)))
    b = catalog.sample_element(base, "generic", 29).matrix
    conj = b @ rep.stack @ np.linalg.inv(b)
    comm = rep.stack[:, None] @ rep.stack[None, :] - rep.stack[None, :] @ rep.stack[:, None]
    for got, mats in ((rm.adjoint_matrix(rep, b).T, conj), (rep.structure_constants(), comm)):
        for want in (_oracle_coords(rep, mats), rep.coords_of(mats)):
            bound = 16 * rep.gram_cond * np.finfo(float).eps * (1.0 + np.max(np.abs(want)))
            assert np.max(np.abs(got - want)) <= bound


def test_tensor_cube_closure_memory_is_bounded():
    # v = 27: the dual basis is (v^2, g); a v^2 x v^2 projector would be 8.5 MB
    rep = catalog.make_sl2_irrep(2)
    tracemalloc.start()
    try:
        cube = catalog.tensor_power(rep, 3)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert cube.v_dim == 27
    assert peak < 2**20


def test_basis_is_a_read_only_view_of_the_stack():
    rep = catalog.make_sl(3)
    assert all(np.shares_memory(b, rep.stack) for b in rep.basis)
    with pytest.raises(ValueError):
        rep.basis[0][0, 0] = 1.0
    with pytest.raises(ValueError):
        rep.stack[0, 0, 0] = 1.0


def test_gram_and_pairing_are_read_only():
    # coords_of solves against gram: a write to it would move every later cayley
    rep = catalog.make_sl(3)
    g = catalog.sample_element(rep, "generic", 3)
    want = rm.cayley(rep, g).coords
    with pytest.raises(ValueError):
        rep.gram[0, 0] += 1
    with pytest.raises(ValueError):
        rep._pairing[0, 0] = 1.0
    assert np.array_equal(rm.cayley(rep, g).coords, want)


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


@pytest.mark.parametrize("key", [*suites.FAMILY_KEYS, ("sl", 10), ("gl", 12)])
def test_cayley_of_a_stack_is_each_projection_bit_for_bit_from_one_solve(key, monkeypatch):
    rep = catalog.make(*key)
    stack = catalog.realize(rep, _cgauss(_rng(70), (3, rep.g_dim), 0.4))
    singles = [rm.cayley(rep, rm.GroupElement(m)).coords for m in stack]
    solves = []
    solve = linalg.solve_linear
    monkeypatch.setattr(linalg, "solve_linear", lambda *args: solves.append(1) or solve(*args))
    got = rm.cayley(rep, stack)
    assert len(solves) == 1 and got.coords.shape == (3, rep.g_dim)
    assert all(np.array_equal(got.coords[k], singles[k]) for k in range(3))
    assert np.array_equal(got.matrix(), rep.materialize(got.coords))


def test_cayley_of_a_stack_checks_each_member():
    so2 = catalog.make_so(2)
    stack = np.array([np.eye(2), np.eye(2)])
    with pytest.raises(ValueError, match="group element contains non-finite entries"):
        rm.cayley(so2, np.where(np.arange(2)[:, None, None] == 1, np.nan, stack))
    with pytest.raises(ValueError, match=r"group element must be square, got shape \(2, 2, 3\)"):
        rm.cayley(so2, np.zeros((2, 2, 3)))
    with pytest.raises(ValueError, match="^element is 3x3, representation needs 2$"):
        rm.cayley(so2, np.zeros((2, 3, 3)))
    # one member's trace pairing overflows (warnings are errors here)
    stack[1] = [[0.0, 1.5e308], [-1.5e308, 0.0]]
    with pytest.raises(DegenerateInput, match=r"projection is not finite: it overflows at \|M\(g\)\| inf"):
        rm.cayley(so2, stack)


# --- Jacobian and determinant --------------------------------------------------


def test_jacobian_at_identity():
    for rep in (SL2, SL3, SO3, catalog.make_sl2_irrep(3)):
        m = rm.cayley_jacobian(rep, np.eye(rep.v_dim))
        assert np.linalg.norm(m - np.eye(rep.g_dim)) < 1e-10


def test_projection_and_psi_refuse_a_finite_element_whose_result_overflows():
    # the trace pairing of this so2 element, 3e308, overflows, as does psi's
    # det(J) = 1e800 of gl2 at 1e200; both name the scale (warnings are errors here)
    so2 = catalog.make_so(2)
    with pytest.raises(DegenerateInput, match=r"projection is not finite: it overflows at \|M\(g\)\| inf"):
        rm.cayley(so2, np.array([[0.0, 1.5e308], [-1.5e308, 0.0]]))
    gl2 = catalog.make_gl(2)
    with pytest.raises(DegenerateInput, match=r"Jacobian determinant is not finite: it overflows at \|M\(g\)\| 1\.41e\+200"):
        rm.psi(gl2, np.diag([1e200, 1e200]))
    # below the overflow both stand as before, and coordinates a caller passes keep their ValueError
    assert rm.cayley(so2, np.array([[0.0, 1e300], [-1e300, 0.0]])).coords[0] == pytest.approx(1e300)
    assert rm.psi(gl2, np.diag([1e50, 1e50])) == pytest.approx(1e200, rel=1e-12)
    with pytest.raises(ValueError, match="coordinates contain non-finite entries"):
        rm.AlgebraVector(so2, [np.inf])


def test_psi_sl2_is_half_trace():
    rng = _rng(1)
    for trial in range(20):
        g = catalog.sample_element(SL2, "generic", trial)
        assert abs(rm.psi(SL2, g) - 0.5 * np.trace(g.matrix)) < 1e-9


@pytest.mark.parametrize("n", range(2, 9))
def test_psi_on_sl_is_the_trace_of_the_inverse_over_n(n):
    # psi(g) = tr(g^-1)/n on SL(n), the formula behind the traceless-inverse-singular
    # claim; the largest relative error over these samples is 8.4e-15
    rep = catalog.make_sl(n)
    for seed in range(10):
        g = catalog.sample_element(rep, "generic", seed)
        want = np.trace(np.linalg.inv(g.matrix)) / n
        assert abs(rm.psi(rep, g) - want) <= 1e-12 * abs(want)


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
        g = catalog.realize(rep, [np.log(a), 0.0, 0.0])  # exp(log(a) H) = diag(a^(m - 2p))
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


def test_additive_jordan_of_a_small_diagonalizable_matrix_has_no_nilpotent_part():
    # complex Gaussian matrices are diagonalizable: x_n = 0, whatever the scale
    rng = _rng(0)
    for _ in range(5):
        x = 1e-8 * linalg.complex_normal(rng, (5, 5))
        _, xn = rm.additive_jordan(x)
        assert np.linalg.norm(xn) <= 1e-6 * np.linalg.norm(x)


def test_additive_jordan_at_scale_1e160_keeps_distinct_eigenvalues_apart():
    # |x|^2 overflows here: the cluster threshold must still be relative to |x|, not inf
    x = 1e160 * np.diag([1.0, 2.0])
    assert linalg.spectral(x).multiplicities == [1, 1]
    xs, xn = rm.additive_jordan(x)
    assert np.array_equal(xs, x) and not xn.any()


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
    with pytest.raises(SingularMatrix, match="element is numerically singular"):
        rm.multiplicative_jordan(np.diag([1.0, 0.0]))
    with pytest.raises(SingularMatrix, match="element is numerically singular"):
        rm.ehu_decomposition(np.diag([1.0, 0.0]))


def test_zero_element_is_singular_outright():
    # every eigenvalue and the relative bound are 0: refused by name, not by comparing 0 with 0
    for split in (rm.multiplicative_jordan, rm.ehu_decomposition):
        with pytest.raises(SingularMatrix, match="^element is zero: every eigenvalue vanishes$"):
            split(np.zeros((3, 3)))


@pytest.mark.parametrize("split", [rm.multiplicative_jordan, rm.additive_jordan, rm.ehu_decomposition], ids=lambda f: f.__name__)
def test_jordan_splits_refuse_an_entry_whose_modulus_overflows(split):
    # spectral's refusal, by name and with no numpy warning (warnings are errors here)
    with pytest.raises(DegenerateInput, match="entry modulus overflows"):
        split(np.array([[1.5e308 + 1.5e308j, 0.0], [0.0, 1.0]]))


# --- scale laws: each decision's bound is relative to what it compares ------------

SCALE_LAW = settings(derandomize=True, database=None, max_examples=40, deadline=None)
LOG_SCALES = st.floats(-8.0, 8.0)
SEEDS = st.integers(0, 10**6)


def _jordan_element(seed):
    """An sl3 element q diag(a, a, a^-2) (1 + t E_12) q^-1 with a nontrivial unipotent part."""
    rng = _rng(seed)
    a = np.exp(0.4 * rng.standard_normal() + 1j * rng.uniform(0, 2 * np.pi))
    u = np.eye(3, dtype=complex)
    u[0, 1] = _cgauss(rng, ())
    q = catalog.sample_element(SL3, "generic", seed).matrix
    return q @ np.diag([a, a, a**-2]) @ u @ np.linalg.inv(q)


def _rel(a, b):
    return np.linalg.norm(a - b) / np.linalg.norm(b)


@SCALE_LAW
@given(log_scale=LOG_SCALES, seed=SEEDS)
@example(log_scale=-8.0, seed=0)
def test_additive_jordan_is_homogeneous(log_scale, seed):
    # x_s(c x) = c x_s(x): complex Gaussian x is diagonalizable, so (c x)_n = 0 at every c
    c, x = 10.0**log_scale, linalg.complex_normal(_rng(seed), (5, 5))
    xs, _ = rm.additive_jordan(x)
    cxs, cxn = rm.additive_jordan(c * x)
    assert _rel(cxs, c * xs) <= 1e-12
    assert np.linalg.norm(cxn) <= 1e-12 * np.linalg.norm(c * x)


@SCALE_LAW
@given(log_scale=LOG_SCALES, seed=SEEDS)
@example(log_scale=-8.0, seed=0)
@example(log_scale=-14.0, seed=0)
def test_multiplicative_jordan_is_homogeneous(log_scale, seed):
    # (c g)_s = c g_s and (c g)_u = g_u; the singularity bound is relative to the largest |eigenvalue|
    c = 10.0**log_scale
    for g in (catalog.sample_element(SL3, "generic", seed).matrix, _jordan_element(seed)):
        gs, gu = rm.multiplicative_jordan(g)
        cgs, cgu = rm.multiplicative_jordan(c * g)
        assert _rel(cgs, c * gs) <= 1e-12 and _rel(cgu, gu) <= 1e-12


@SCALE_LAW
@given(log_scale=st.floats(100.0, 300.0), seed=SEEDS)
@example(log_scale=160.0, seed=0)
@example(log_scale=300.0, seed=0)
def test_jordan_splits_are_homogeneous_far_above_unit_scale(log_scale, seed):
    # SpectralDecomposition.apply evaluates on x 2^-e, so its Newton factors do not overflow at |x|^(n-1)
    c = 10.0**log_scale
    for g in (catalog.sample_element(SL3, "generic", seed).matrix, _jordan_element(seed)):
        gs, gu = rm.multiplicative_jordan(g)
        cgs, cgu = rm.multiplicative_jordan(c * g)
        assert _rel(cgs / c, gs) <= 1e-12 and _rel(cgu, gu) <= 1e-12
        xs, xn = rm.additive_jordan(g)
        cxs, cxn = rm.additive_jordan(c * g)
        assert _rel(cxs / c, xs) <= 1e-12 and np.linalg.norm(cxn / c - xn) <= 1e-12 * np.linalg.norm(g)


@SCALE_LAW
@given(log_scale=st.floats(-300.0, -8.0), seed=SEEDS)
@example(log_scale=-150.0, seed=0)
@example(log_scale=-200.0, seed=0)
@example(log_scale=-300.0, seed=0)
def test_jordan_splits_are_homogeneous_far_below_unit_scale(log_scale, seed):
    # apply evaluates on x 2^-e with e < 0 as well, so its divided differences do not overflow
    # at c^(1-k), and spectral's threshold is |x| taken at that scale, so it does not underflow to 0
    c = 10.0**log_scale
    x = linalg.complex_normal(_rng(seed), (5, 5))
    xs, _ = rm.additive_jordan(x)
    cxs, cxn = rm.additive_jordan(c * x)
    assert _rel(cxs / c, xs) <= 1e-12 and np.linalg.norm(cxn / c) <= 1e-12 * np.linalg.norm(x)
    for g in (catalog.sample_element(SL3, "generic", seed).matrix, _jordan_element(seed)):
        gs, gu = rm.multiplicative_jordan(g)
        cgs, cgu = rm.multiplicative_jordan(c * g)
        assert _rel(cgs / c, gs) <= 1e-12 and _rel(cgu, gu) <= 1e-12
        xs, xn = rm.additive_jordan(g)
        cxs, cxn = rm.additive_jordan(c * g)
        assert _rel(cxs / c, xs) <= 1e-12 and np.linalg.norm(cxn / c - xn) <= 1e-12 * np.linalg.norm(g)


@SCALE_LAW
@given(log_scale=LOG_SCALES, phase=st.floats(0.0, 2 * np.pi), seed=SEEDS)
@example(log_scale=-8.0, phase=1.0, seed=0)
def test_ehu_factors_of_a_multiple(log_scale, phase, seed):
    # ehu(c g) = ((c/|c|) g_e, |c| g_h, g_u) for complex c
    c, g = 10.0**log_scale * np.exp(1j * phase), _jordan_element(seed)
    ge, gh, gu = rm.ehu_decomposition(g)
    ce, ch, cu = rm.ehu_decomposition(c * g)
    assert _rel(ce, c / abs(c) * ge) <= 1e-12 and _rel(ch, abs(c) * gh) <= 1e-12 and _rel(cu, gu) <= 1e-12


@SCALE_LAW
@given(log_scale=LOG_SCALES, seed=SEEDS)
@example(log_scale=-8.0, seed=0)
def test_adjoint_matrix_refuses_a_span_that_is_not_ad_invariant_at_every_scale(log_scale, seed):
    # sl3's Cartan pair times c spans the same diagonal subalgebra, fixed by diagonal
    # conjugation only; the residual is relative to |b B_i b^-1|, so c does not move it
    b = catalog.sample_element(SL3, "generic", seed)
    residuals = []
    for c in (1.0, 10.0**log_scale):
        cartan = rm.Representation("cartan", [c * SL3.basis[0], c * SL3.basis[1]])
        with pytest.raises(NotEquivariant) as err:
            rm.adjoint_matrix(cartan, b)
        residuals.append(err.value.value)
    assert residuals[1] == pytest.approx(residuals[0], rel=1e-12)


@SCALE_LAW
@given(log_scale=LOG_SCALES, seed=SEEDS)
@example(log_scale=-8.0, seed=0)
def test_map_and_psi_are_homogeneous(log_scale, seed):
    # cayley(c g) = c cayley(g) and psi(c g) = c^dim psi(g): the projection is linear
    c = 10.0**log_scale
    for rep in (SL2, SL3, SO4, catalog.make_gl(2)):
        g = catalog.sample_element(rep, "generic", seed)
        assert _rel(rm.cayley(rep, c * g.matrix).coords, c * rm.cayley(rep, g).coords) <= 1e-12
        assert rm.psi(rep, c * g.matrix) == pytest.approx(c**rep.g_dim * rm.psi(rep, g), rel=1e-12)


@pytest.mark.parametrize("s", [1e100, 1e150])
def test_adjoint_matrix_of_a_conjugate_far_from_unit_scale(s):
    # b = diag(s, 1, 1/s) scales E_ij by b_i / b_j, up to s^2: the columns' norms span
    # s^-2..s^2, and each column's residual is taken at its own power-of-two scale
    ad = rm.adjoint_matrix(SL3, np.diag([s, 1.0, 1 / s]))
    want = np.diag([1.0, 1.0, s, s**2, 1 / s, s, s**-2, 1 / s])
    assert np.all(np.abs(ad - want) <= 1e-15 * np.abs(np.diag(want)))


def test_adjoint_matrix_of_an_overflowing_conjugate_is_degenerate_input():
    # b E_13 b^-1 = 1e320 E_13 is not finite: named by the scale of b, with no numpy warning
    with pytest.raises(DegenerateInput, match="adjoint matrix is not finite: it overflows at .M.g.. 1.00e.160"):
        rm.adjoint_matrix(SL3, np.diag([1e160, 1.0, 1e-160]))


# --- exactly singular inputs raise the typed error ------------------------------


def test_inverse_of_singular_element_raises_singular_matrix():
    with pytest.raises(SingularMatrix, match="group element is singular"):
        linalg.inverse(np.diag([0.0, 1.0]), "group element")


def test_adjoint_matrix_of_singular_element_raises_singular_matrix():
    with pytest.raises(SingularMatrix, match="conjugating element is singular"):
        rm.adjoint_matrix(SL2, np.diag([0.0, 1.0]))


def test_unipotent_split_with_singular_semisimple_part_raises_singular_matrix(monkeypatch):
    # a singular g fails the eigenvalue check before the solve, so make the
    # semisimple part of an invertible g exactly singular instead
    monkeypatch.setattr(linalg.SpectralDecomposition, "semisimple_part", lambda dec: np.zeros((2, 2), complex))
    with pytest.raises(SingularMatrix, match="semisimple part is singular"):
        rm.multiplicative_jordan(np.diag([1.0, 2.0]))


def test_adjoint_matrix_rejects_conjugates_outside_the_span():
    # the diagonal subalgebra of sl3 is fixed by diagonal conjugation only
    cartan = rm.restrict_to_subalgebra(SL3, [0, 1])
    with pytest.raises(NotEquivariant, match="residual 6.63e-01"):
        rm.adjoint_matrix(cartan, catalog.sample_element(SL3, "generic", 0))
    assert np.allclose(rm.adjoint_matrix(cartan, np.diag([2.0, 0.5, 1.0])), np.eye(2), rtol=0, atol=1e-15)


def test_not_equivariant_names_its_threshold():
    cartan = rm.restrict_to_subalgebra(SL3, [0, 1])
    with pytest.raises(NotEquivariant) as err:
        rm.adjoint_matrix(cartan, catalog.sample_element(SL3, "generic", 0))
    assert str(err.value) == "conjugation leaves the algebra span: residual 6.63e-01 > threshold 1.00e-06"
    assert err.value.threshold == rm.ADJOINT_RESIDUAL_TOL < err.value.value


@pytest.mark.parametrize("rep", [SL3, SO4, catalog.make_gl(3)], ids=lambda r: r.name)
def test_no_svd_after_construction(rep, monkeypatch):
    # build_gram makes the Gram matrix's one conditioning decision; the
    # projection, the Jacobian, psi and the adjoint solve against G without one
    g = catalog.sample_element(rep, "generic", 3)

    def no_svd(*args, **kwargs):
        raise AssertionError("SVD after construction")

    monkeypatch.setattr(np.linalg, "cond", no_svd)
    monkeypatch.setattr(np.linalg, "svd", no_svd)
    assert rm.cayley(rep, g).coords.shape == (rep.g_dim,)
    assert np.isfinite(rm.psi(rep, g))
    assert rm.cayley_jacobian(rep, g).shape == (rep.g_dim, rep.g_dim)
    assert rm.adjoint_matrix(rep, g).shape == (rep.g_dim, rep.g_dim)


def test_cluster_ambiguity_raised():
    # gap lies between the clustering threshold and twice the threshold
    g = np.diag([1.0, 1.0 + 3.5e-6, 2.0])
    with pytest.raises(ClusterAmbiguity):
        rm.multiplicative_jordan(g, cluster_tol=1e-6)


def test_chained_cluster_is_not_ambiguous():
    # clusters {0..5.4e-3} (a chain of 0.9e-3 steps) and {7.5e-3} lie 2.1e-3
    # apart, above twice the threshold 1e-3, so the split is unambiguous
    m = np.diag([0.0, 0.9, 1.8, 2.7, 3.6, 4.5, 5.4, 7.5]) * 1e-3
    xs, xn = rm.additive_jordan(m, cluster_tol=1e-3 / np.linalg.norm(m))
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
            assert abs(rm.psi(rep, np.linalg.inv(a.matrix))) <= 1e-7


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


def _scalar_root_of_unity(n):
    return rm.GroupElement(np.exp(2j * np.pi / n) * np.eye(n))


@pytest.mark.parametrize("fam, n", [("sl", 3), ("sl", 6), ("sl", 10), ("gl", 3), ("gl", 12)])
def test_central_element_centralizes_the_whole_algebra(fam, n):
    # Ad(w I) - 1 is pure rounding; a cutoff relative to it alone counted
    # a kernel of 0 here
    rep = catalog.make(fam, n)
    assert rm.centralizer_dim(rep, _scalar_root_of_unity(n)) == rep.g_dim


def test_centralizers_match_at_the_center_of_sl3():
    w = _scalar_root_of_unity(3)
    assert abs(rm.psi(SL3, w)) > 0.5
    assert rm.centralizer_dim(SL3, w) == rm.centralizer_dim(SL3, rm.cayley(SL3, w)) == SL3.g_dim


@pytest.mark.parametrize("cond", [1.0, 1e2, 1e4, 1e6])
@pytest.mark.parametrize("fam, n", [("sl", 3), ("so", 4), ("gl", 3), ("sl", 4)])
def test_identity_centralizes_every_recoordinated_basis(fam, n, cond):
    # on gl the image of the identity is the identity, central too, so the
    # algebra branch is checked on the same rule
    for seed in range(3):
        rep = rm.Representation("probe", _recoordinated(catalog.make(fam, n), cond, _rng(seed)))
        assert rm.centralizer_dim(rep, rm.GroupElement(np.eye(n))) == rep.g_dim
        if fam == "gl":
            assert rm.centralizer_dim(rep, rm.cayley(rep, np.eye(n))) == rep.g_dim


@pytest.mark.parametrize("scale", [1.0, 1e155, 1e200])
def test_centralizer_of_a_regular_element_at_a_scale_whose_norm_overflows(scale):
    # |a|^2 overflows from ~1e154: a floor from np.linalg.norm would be inf and count every direction
    x = np.zeros(SL3.g_dim)
    x[:2] = 1.0, 0.3
    assert rm.centralizer_dim(SL3, rm.AlgebraVector(SL3, scale * x)) == 2


@pytest.mark.parametrize("fam, n", [("sl", 3), ("sl", 6), ("so", 6), ("gl", 4)])
def test_centralizer_floor_keeps_regular_elements_regular(fam, n):
    # the rounding floor must not swallow a small but real Ad - 1: exp(e A)
    # for a generic A is regular down to e = 1e-8, as are generic samples
    rep = catalog.make(fam, n)
    rank = rep.metadata["rank"]
    a = rep.materialize(_cgauss(_rng(31), rep.g_dim))
    for e in (1e-2, 1e-4, 1e-6, 1e-8):
        assert rm.centralizer_dim(rep, rm.GroupElement(linalg.matrix_exp(e * a))) == rank
        assert rm.centralizer_dim(rep, rm.AlgebraVector(rep, e * rm.cayley(rep, linalg.matrix_exp(a)).coords)) == rank
    for seed in range(4):
        assert rm.centralizer_dim(rep, catalog.sample_element(rep, "generic", seed)) == rank


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


@pytest.mark.parametrize("kind", ["unipotent", "trace_free", "cartan", "hyperbolic", "elliptic"])
def test_restricted_representation_refuses_the_parent_family_samplers(kind):
    # sl3's family metadata describes sl3, not its Cartan subalgebra: with it the
    # unipotent and trace_free samplers drew sl3 elements outside the subgroup
    sub = rm.restrict_to_subalgebra(SL3, [0, 1])
    assert sub.metadata == {}
    with pytest.raises(ValueError):
        catalog.sample_element(sub, kind, 0)
    g = catalog.sample_element(sub, "generic", 0).matrix
    assert np.array_equal(g, np.diag(np.diag(g)))


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
            [
                np.einsum("ab,iba->i", catalog.sample_element(rep, "generic", 100 + k).matrix, rep.stack)
                for k in range(samples)
            ]
        )
        sv = np.linalg.svd(m, compute_uv=False)
        assert sv[-1] > 1e-8 * sv[0]


# --- the projection against a least-squares oracle ------------------------------


def _recoordinated_sl3():
    # a well-conditioned complex change of basis of sl3; the span is a
    # subalgebra, so construction's closure check passes
    rng = _rng(11)
    q = np.linalg.qr(_cgauss(rng, (SL3.g_dim, SL3.g_dim)))[0] @ np.diag(rng.uniform(0.5, 2.0, SL3.g_dim))
    return rm.Representation("sl3-recoord", [SL3.materialize(q[:, j]) for j in range(SL3.g_dim)])


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


# --- real and complex bases ----------------------------------------------------------

PHASE = np.exp(1j * np.pi / 5)
REAL_REPS = [SL3, SO4, catalog.make_gl(3), catalog.make_sl2_irrep(3)]


@pytest.mark.parametrize("rep", REAL_REPS, ids=lambda r: r.name)
def test_real_and_complex_bases_of_one_span_agree(rep):
    # the basis times e^{i pi/5} spans the same algebra; only its arithmetic is complex
    rot = rm.Representation(f"{rep.name}-phase", [PHASE * b for b in rep.basis])
    assert rep.stack.dtype == np.float64 and rot.stack.dtype == complex

    def close(got, want):
        bound = 16 * rot.gram_cond * np.finfo(float).eps * (1.0 + np.max(np.abs(want)))
        assert np.max(np.abs(got - want)) <= bound

    for kind in ("generic", "hyperbolic", "unipotent", "cartan"):
        for seed in range(3):
            g = catalog.sample_element(rep, kind, seed)
            close(rm.cayley(rot, g).matrix(), rm.cayley(rep, g).matrix())
            close(np.array(rm.psi(rot, g)), np.array(rm.psi(rep, g)))
            close(rm.adjoint_matrix(rot, g), rm.adjoint_matrix(rep, g))
            assert rm.centralizer_dim(rot, g) == rm.centralizer_dim(rep, g)
            x = rm.cayley(rep, g)
            assert rm.centralizer_dim(rot, rm.AlgebraVector(rot, x.coords / PHASE)) == rm.centralizer_dim(rep, x)
    # [w B_i, w B_j] = w^2 c_ijk B_k = w c_ijk (w B_k)
    close(rot.structure_constants(), PHASE * rep.structure_constants())


def test_kept_arrays_are_real_for_a_real_basis_and_read_only():
    r1, r2 = catalog.make_sl2_irrep(1), catalog.make_sl2_irrep(2)
    reps = REAL_REPS + [catalog.make_so(5), catalog.direct_sum(r1, r2), catalog.tensor(r1, r2), catalog.dual(r2)]
    complex_reps = [_recoordinated_sl3(), rm.Representation("sl3-phase", [PHASE * b for b in SL3.basis])]
    for rep in reps + complex_reps:
        want = np.float64 if rep in reps else np.complex128
        for kept in (rep.stack, rep.gram, rep._pairing, rep.dual):
            assert kept.dtype == want
            assert not kept.flags.writeable


# --- zero-sum exponential inequality ------------------------------------------------


def test_zero_sum_exponential_inequality():
    rng = _rng(10)
    for _ in range(200):
        n = int(rng.integers(2, 17))
        r = rng.standard_normal(n)
        r -= r.mean()
        slack = np.sum(r * np.exp(r)) - np.sum(r * r) / (2 * n)
        assert slack >= -1e-12


# --- raw-array input ----------------------------------------------------------------


@pytest.mark.parametrize("fn", [rm.psi, rm.adjoint_matrix, rm.cayley, rm.cayley_jacobian], ids=lambda f: f.__name__)
def test_raw_arrays_are_checked_like_group_elements(fn):
    # a raw array gets the GroupElement check, so NaN cannot reach a result
    # and a 4-vector is not read as a 2x2 matrix
    for bad in (np.full((2, 2), np.nan), np.full((2, 2), np.inf), np.ones(4)):
        with pytest.raises(ValueError):
            fn(SL2, bad)


@pytest.mark.parametrize(
    "fn", [rm.cayley, rm.psi, rm.cayley_jacobian, rm.adjoint_matrix, rm.centralizer_dim], ids=lambda f: f.__name__
)
@pytest.mark.parametrize("n", [3, 4])
def test_wrong_size_element_is_a_library_error(fn, n):
    with pytest.raises(ValueError, match=f"^element is {n}x{n}, representation needs 2$"):
        fn(SL2, rm.GroupElement(2.0 * np.eye(n)))
