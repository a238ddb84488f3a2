"""Matrix-core contracts: solves, determinants, spectra, roots, exponentials."""

import warnings

import mpmath
import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from cayleymap import catalog, clifford, degree, linalg, suites
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


@pytest.mark.parametrize("layout_c", ["contiguous", "strided"])
@pytest.mark.parametrize("layout_a", ["contiguous", "transposed"])
def test_left_product_of_a_real_and_a_complex_matrix(layout_a, layout_c):
    rng = _rng(2)
    a = rng.standard_normal((5, 4)) if layout_a == "contiguous" else rng.standard_normal((4, 5)).T
    c = _random_complex(rng, (4, 3)) if layout_c == "contiguous" else _random_complex(rng, (3, 8)).T[::2]
    assert a.flags.c_contiguous == (layout_a == "contiguous")
    assert c.flags.c_contiguous == (layout_c == "contiguous")
    want = a.astype(complex) @ c
    # each part of an entry is a sum of 4 real products
    bound = 4 * np.finfo(float).eps * (np.abs(a) @ (np.abs(c.real) + np.abs(c.imag)))
    got = linalg.left_product(a, c)
    assert got.dtype == complex
    assert np.all(np.abs(got.real - want.real) <= bound)
    assert np.all(np.abs(got.imag - want.imag) <= bound)


def test_left_product_takes_stacked_operands():
    rng = _rng(3)
    a = rng.standard_normal((4, 4))
    c = _random_complex(rng, (2, 4, 3))
    got = linalg.left_product(a, c)
    assert got.shape == (2, 4, 3)
    assert np.allclose(got, a @ c, rtol=1e-14, atol=1e-14)


def test_left_product_passes_other_pairs_through():
    rng = _rng(4)
    a = _random_complex(rng, (3, 3))
    c = _random_complex(rng, (3, 2))
    assert np.array_equal(linalg.left_product(a, c), a @ c)
    r = rng.standard_normal((3, 2))
    assert np.array_equal(linalg.left_product(a, r), a @ r)
    assert np.array_equal(linalg.left_product(r.T, r), r.T @ r)


def _catalog_operands(rep):
    """The three left operands a representation keeps lone-entry tables for, with their tables."""
    span = rep.stack.reshape(rep.g_dim, -1).T
    return [(rep._pairing.T, rep._pairing_lone), (rep.dual.T, rep._dual_lone), (span, rep._span_lone)]


def _signed_columns(rng, rows, k):
    # entries from 1e-300 to 1e300 of either sign, a third of them zeros of either sign
    c = rng.standard_normal((rows, k)) * 10.0 ** rng.integers(-300, 300, (rows, k))
    c[rng.random((rows, k)) < 0.33] = 0.0
    return np.where(rng.random((rows, k)) < 0.5, -c, c)


@pytest.mark.parametrize(
    "fam, n", [("gl", 1), ("gl", 2), ("gl", 3), ("gl", 12), ("so", 3), ("so", 4), ("so", 12), ("sl2_irrep", 1), ("sl2_irrep", 3)]
)
def test_lone_entry_product_keeps_the_gemm_bits(fam, n):
    # the gather and its scaling give the GEMM's one nonzero product, and +0 for a zero, on every
    # catalog operand with tables: real and complex columns, one column and many, strided and not
    rng = _rng(60 + n)
    operands = [(a, lone) for a, lone in _catalog_operands(catalog.make(fam, n)) if lone is not None]
    assert operands
    for a, lone in operands:
        rows = a.shape[1]
        for k in (1, 3, rows):
            real = _signed_columns(rng, rows, k)
            cplx = real + 1j * _signed_columns(rng, rows, k)
            for c in (real, cplx, np.asfortranarray(cplx), cplx[:, :1]):
                got, want = linalg.left_product(a, c, lone), linalg.left_product(a, c)
                assert got.dtype == want.dtype and got.shape == want.shape
                assert got.tobytes() == want.tobytes()
                parts = got.view(np.float64)
                assert not np.signbit(parts[parts == 0.0]).any()


def test_lone_entry_product_of_an_empty_row_is_plus_zero():
    # row 0 holds no nonzero: weight 0 at column 0, and 0 * -3 = -0 reads +0, as the GEMM's sum does
    a = np.array([[0.0, 0.0], [0.0, -2.0], [0.5, 0.0]])
    lone = linalg.lone_entries(a)
    assert lone[0].tolist() == [0, 1, 0] and lone[1].tolist() == [[0.0], [-2.0], [0.5]]
    assert not lone[0].flags.writeable and not lone[1].flags.writeable
    for c in (np.array([[-3.0], [0.0]]), np.array([[-3.0 - 1j], [0j]]), np.array([[[-3.0], [1.0]]] * 2)):
        got = linalg.left_product(a, c, lone)
        assert got.tobytes() == (a @ c).tobytes()
        assert not np.signbit(got.view(np.float64)[..., 0, :]).any()


def test_lone_entry_tables_record_unit_weights():
    # gl's pairing, dual and span hold weights of exactly 1 only, recorded as None, and their rows
    # are gathered unscaled; so's and the sl2 irreps' spans keep their weights
    for n in (1, 2, 3, 12):
        rep = catalog.make_gl(n)
        assert [lone[1] for lone in (rep._pairing_lone, rep._dual_lone, rep._span_lone)] == [None] * 3
    for rep in (catalog.make_so(4), catalog.make_sl2_irrep(3)):
        assert rep._span_lone[1] is not None
    rng = _rng(61)
    c = _random_complex(rng, (3, 4))
    unit = np.array([[0.0, 1.0, 0.0], [1.0, 0.0, 0.0]])
    assert linalg.lone_entries(unit)[1] is None
    assert linalg.left_product(unit, c, linalg.lone_entries(unit)).tobytes() == c[[1, 0]].tobytes()


def test_lone_entry_product_of_a_non_unit_table_still_scales():
    # one weight of 2 among ones keeps the whole column of weights, and the gathered rows are scaled
    a = np.array([[0.0, 1.0, 0.0], [2.0, 0.0, 0.0], [0.0, 0.0, -1.0]])
    lone = linalg.lone_entries(a)
    assert lone[1].tolist() == [[1.0], [2.0], [-1.0]]
    c = _random_complex(_rng(62), (3, 2))
    got = linalg.left_product(a, c, lone)
    assert np.array_equal(got, np.stack([c[1], 2.0 * c[0], -c[2]]))
    assert got.tobytes() == linalg.left_product(a, c).tobytes()


@pytest.mark.parametrize(
    "a",
    [
        np.array([[1.0, 0.0], [1.0, 1.0]]),  # row 1 holds two nonzeros
        np.diag([2.0, 3.0]).astype(complex),
        np.zeros(3),
    ],
    ids=["two-nonzeros", "complex", "one-axis"],
)
def test_no_lone_entries_where_a_row_holds_two_nonzeros_or_a_is_complex(a):
    assert linalg.lone_entries(a) is None


@pytest.mark.parametrize("shape", [(6,), (6, 3)])
def test_solve_real_matrix_complex_rhs_matches_the_complex_solve(shape):
    rng = _rng(5)
    a = rng.standard_normal((6, 6)) + 3.0 * np.eye(6)
    b = _random_complex(rng, shape)[::-1]  # a strided view
    x = linalg.solve_linear(a, b)
    want = np.linalg.solve(a.astype(complex), b)
    assert x.dtype == complex and x.shape == shape
    bound = 16 * np.linalg.cond(a) * np.finfo(float).eps * (1.0 + np.max(np.abs(want)))
    assert np.max(np.abs(x - want)) <= bound


def test_solve_real_singular_matrix_complex_rhs_raises():
    a = np.array([[1.0, 2.0], [2.0, 4.0]])
    with pytest.raises(SingularMatrix):
        linalg.solve_linear(a, _random_complex(_rng(6), (2, 3)))


def _scaled_permutation(rng, n):
    # entries 10, 3 and -7 times a uniform factor: no reciprocal is a power of two
    a = np.zeros((n, n))
    a[rng.permutation(n), np.arange(n)] = rng.choice([10.0, 3.0, -7.0], n) * rng.uniform(0.5, 2.0, n)
    return a


def _right_hand_sides(rng, n):
    # real 1-D, one column and several; complex 1-D and several (a float view of two or more columns)
    return [
        rng.standard_normal(n),
        rng.standard_normal((n, 1)),
        rng.standard_normal((n, 4)),
        _random_complex(rng, n),
        _random_complex(rng, (n, 3)),
    ]


@pytest.mark.parametrize("n", [1, 2, 9, 144])
def test_split_solve_of_a_scaled_permutation_keeps_the_lu_bits(n):
    # every equation holds one unknown alone: no LU, and np.linalg.solve's bits, for one float column
    # (b / pivot) and for several (b * (1 / pivot))
    rng = _rng(40 + n)
    for _ in range(3):
        a = _scaled_permutation(rng, n)
        split = linalg.equation_split(a)
        assert split.rest is None and len(split.pivots) == n
        for b in _right_hand_sides(rng, n):
            got, want = linalg.solve_linear(a, b, split=split), linalg.solve_linear(a, b)
            assert got.dtype == want.dtype and got.shape == want.shape
            assert got.tobytes() == want.tobytes()
            if b.dtype.kind == "f":
                assert got.tobytes() == np.linalg.solve(a, b).tobytes()


def test_split_solve_of_a_mixed_matrix():
    # 12 unknowns, 4 of them coupled by a dense block on scattered rows and columns: the lone
    # unknowns keep the full LU's bits, the coupled ones agree within its rounding
    rng = _rng(44)
    n, rest_rows, rest_cols = 12, [1, 4, 5, 10], [0, 3, 7, 11]
    a = np.zeros((n, n))
    lone_rows, lone_cols = np.setdiff1d(np.arange(n), rest_rows), np.setdiff1d(np.arange(n), rest_cols)
    a[rng.permutation(lone_rows), lone_cols] = rng.choice([10.0, 3.0, -7.0], n - 4) * rng.uniform(0.5, 2.0, n - 4)
    a[np.ix_(rest_rows, rest_cols)] = rng.standard_normal((4, 4)) + 3.0 * np.eye(4)
    split = linalg.equation_split(a)
    assert split.rest.shape == (4, 4)
    assert sorted(split.rows[8:]) == rest_rows and sorted(split.cols[8:]) == rest_cols
    bound = 16 * np.linalg.cond(a) * np.finfo(float).eps
    for b in _right_hand_sides(rng, n):
        got, want = linalg.solve_linear(a, b, split=split), linalg.solve_linear(a, b)
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got[lone_cols].tobytes() == want[lone_cols].tobytes()
        assert np.max(np.abs(got - want)) <= bound * (1.0 + np.max(np.abs(want)))


def test_split_solve_names_a_singular_rest_block():
    # two lone equations, and a rest block of rank 1
    a = np.zeros((4, 4))
    a[0, 2], a[3, 3] = 5.0, 3.0
    a[np.ix_([1, 2], [0, 1])] = [[1.0, 2.0], [2.0, 4.0]]
    split = linalg.equation_split(a)
    assert split.rest.shape == (2, 2)
    with pytest.raises(SingularMatrix, match="^Gram matrix is singular$"):
        linalg.solve_linear(a, _random_complex(_rng(45), (4, 2)), "Gram matrix", split=split)


def test_split_is_read_only_and_its_subnormal_pivot_reads_as_lapack_does():
    # 1 / 5e-324 overflows to inf as in LAPACK's LU: inf and 0 * inf = NaN, with no numpy warning
    a = np.diag([5e-324, 2.0])
    split = linalg.equation_split(a)
    assert all(not arr.flags.writeable for arr in (split.rows, split.cols, split.back, split.pivots, split.recips))
    for b in (np.array([1.0, 3.0]), np.array([[1.0, 0.0], [3.0, 4.0]])):
        want = np.linalg.solve(a, b)
        assert linalg.solve_linear(a, b, split=split).tobytes() == want.tobytes()


@pytest.mark.parametrize(
    "a",
    [
        np.array([[2.0, -1.0], [-1.0, 2.0]]),  # a dense block: every equation holds both unknowns
        np.array([[1.0, 1.0], [0.0, 1.0]]),  # row 1 holds one unknown, but column 1 has two nonzeros
        np.diag([2.0, 3.0]).astype(complex),
        np.zeros((2, 3)),
    ],
    ids=["dense", "shared-column", "complex", "non-square"],
)
def test_no_split_where_no_real_equation_holds_an_unknown_alone(a):
    assert linalg.equation_split(a) is None


# --- determinant ------------------------------------------------------------


@pytest.mark.parametrize("shape", [(7,), (3, 3), (2, 4, 4)])
def test_norm_is_numpys_wherever_that_is_finite(shape):
    # bit for bit, so no threshold built from it moves between the underflow and the overflow
    # scale; below ~1e-146 numpy's squares underflow, and the exact scaling law below holds there
    rng = np.random.default_rng(0)
    for a in (rng.standard_normal(shape), linalg.complex_normal(rng, shape)):
        for scale in (1e-8, 1.0, 1e8, 1e150):
            assert linalg.norm(scale * a) == np.linalg.norm(scale * a)


def test_norm_does_not_overflow_for_finite_input():
    # np.linalg.norm sums squares, which overflow (with a RuntimeWarning) from ~1e154
    x = np.zeros(16, dtype=complex)
    x[3] = 1e300
    assert linalg.norm(x) == 1e300
    assert linalg.norm(1e200 * np.ones((3, 3))) == pytest.approx(3e200, rel=1e-15)
    assert linalg.norm(np.array([1e308, 1e308j, -1e308])) == pytest.approx(np.sqrt(3) * 1e308, rel=1e-15)
    # inf only where the norm itself exceeds the largest float, or for non-finite input
    assert linalg.norm(np.array([1.5e308, 1.5e308])) == np.inf
    assert linalg.norm(np.array([1.0, np.inf])) == np.inf
    assert np.isnan(linalg.norm(np.array([1.0, np.nan])))


@pytest.mark.parametrize("shape, axis", [((7, 3), 0), ((7, 3), 1), ((2, 4, 4), (-2, -1)), ((3, 2, 5), 2)])
def test_norms_along_an_axis_are_numpys_wherever_that_is_finite(shape, axis):
    rng = np.random.default_rng(0)
    for a in (rng.standard_normal(shape), linalg.complex_normal(rng, shape)):
        for scale in (1e-8, 1.0, 1e8, 1e150):
            assert np.array_equal(linalg.norms(scale * a, axis=axis), np.linalg.norm(scale * a, axis=axis))


@pytest.mark.parametrize("shape, axis", [((7,), None), ((2, 4, 4), None), ((7, 3), 0), ((2, 4, 4), (-2, -1))])
def test_norms_scale_exactly_by_powers_of_two(shape, axis):
    # norms(2^k a) = 2^k norms(a) bit for bit for k in [-1010, 1000], 2^-997 ~ 1e-300 among them:
    # entries of modulus 0.5..2 keep 2^k a exact, and no scale reads low where numpy's squares
    # underflow (below ~2^-485) or overflow (above ~2^510)
    rng = np.random.default_rng(5)
    parts = rng.uniform(0.5, 2.0, (2, *shape)) * rng.choice([-1.0, 1.0], (2, *shape))
    for a in (parts[0], parts[0] + 1j * parts[1]):
        want = linalg.norms(a, axis)
        for k in range(-1010, 1001):
            assert np.array_equal(linalg.norms(a * 2.0**k, axis), want * 2.0**k), k


def test_norms_of_zero_subnormal_and_non_finite_slices():
    assert linalg.norm(np.zeros(1024)) == 0.0 and linalg.norm(np.zeros((3, 3), dtype=complex)) == 0.0
    # numpy's squares of these underflow to 0; the rescaled norms are exact
    assert linalg.norm(np.full(4, 5e-324)) == 1e-323 and linalg.norm(np.full(4, 1e-170)) == 2e-170
    assert linalg.norm(np.array([0.0, 5e-324j])) == 5e-324
    # along an axis: a zero column, a subnormal one, a 1e-170 one, one with an inf and one with a NaN
    a = np.array([[0.0, 5e-324, 1e-170, np.inf, np.nan], [0.0, 5e-324, -1e-170j, 1.0, 1.0]])
    got = linalg.norms(a, axis=0)
    # sqrt(2) 5e-324 rounds to 5e-324; the 1e-170 column takes numpy's bits at 2^600 times its scale
    assert got[:4].tolist() == [0.0, 5e-324, np.linalg.norm(a[:, 2] * 2.0**600) / 2.0**600, np.inf] and np.isnan(got[4])


def test_norms_along_an_axis_rescale_only_the_slices_that_overflow():
    # one column of 1e200 entries, one of unit entries, one with an inf and one with a NaN
    a = np.array([[1e200, 1.0, np.inf, np.nan], [1e200j, 1.0, 0.0, 1.0]])
    got = linalg.norms(a, axis=0)
    assert got[0] == pytest.approx(np.sqrt(2) * 1e200, rel=1e-15) and got[1] == np.sqrt(2)
    assert got[2] == np.inf and np.isnan(got[3])
    # a slice equals the flat norm of that slice
    stack = np.stack([1e300 * np.ones((3, 3)), np.eye(3)])
    assert list(linalg.norms(stack, axis=(-2, -1))) == [linalg.norm(stack[0]), linalg.norm(stack[1])]


def test_norm_whose_squares_overflow_is_warning_free():
    # np.linalg.norm of this entry warns "overflow encountered in scalar add" (its real and imaginary
    # sums of squares are finite, their sum is not); warnings are errors here
    z = np.array([1.3e154 + 1.3e154j])
    assert linalg.norm(z) == 1.8384776310850235e154
    # along an axis: the first column's squares overflow, the second's do not
    got = linalg.norms(np.array([[1.3e154 + 1.3e154j, 1.0], [0.0, 1.0]]), axis=0)
    assert got.tolist() == [1.8384776310850235e154, np.sqrt(2)]


def test_norm_below_the_underflow_scale_takes_no_numpy_norm(monkeypatch):
    # a whole array whose sum of squares is under tiny/eps goes straight to the scaled norm, with
    # the bits of numpy's norm of it times 2^-e scaled back, and calls np.linalg.norm not at all
    rng = np.random.default_rng(6)
    cases = [np.full(1024, 1e-170), np.full(4, 5e-324), np.array([0.0, 5e-324j]), 1e-170 * linalg.complex_normal(rng, (3, 5))]
    cases.append(cases[-1].T)  # a strided view, read in memory order
    want = []
    for a in cases:
        shrink = np.ldexp(1.0, 1 - np.frexp(np.abs(a).max(initial=2.0**-1022))[1])
        want.append(np.linalg.norm(a * shrink) / shrink)
    calls = []
    numpy_norm = np.linalg.norm

    def count(*args, **kwargs):
        calls.append(args)
        return numpy_norm(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "norm", count)
    got = [linalg.norm(a) for a in cases]
    assert not calls
    assert np.array(got).tobytes() == np.array(want).tobytes()


def test_shrink_of_a_whole_array_is_the_ufunc_formulas_bits():
    # math.frexp and math.ldexp of the top modulus give np.frexp's and np.ldexp's bits, as a float
    def ufunc_shrink(a):
        top = np.abs(a).max(initial=2.0**-1022)
        return np.ldexp(1.0, 1 - np.frexp(top)[1])

    tops = [2.0**k * f for k in range(-1074, 1024) for f in (1.0, 1.5)]
    tops = [t for t in tops if np.isfinite(t)] + [np.nextafter(2.0**k, 0.0) for k in range(-1073, 1024)]
    tops.append(np.finfo(float).max)
    cases = [np.array([t, -0.5 * t]) for t in tops] + [np.array([t * 1j]) for t in tops[::7]]
    cases += [np.zeros(5), np.zeros((2, 3), dtype=complex), np.array([1.0, np.inf]), np.array([np.nan, 1.0])]
    cases += [np.array([complex(1.0, -np.inf)]), np.array([complex(np.nan, 0.0)]), (1e-300, 2e-300j)]
    for a in cases:
        got = linalg._shrink(a)
        assert type(got) is float
        assert np.float64(got).tobytes() == np.float64(ufunc_shrink(a)).tobytes(), a


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


def test_spectral_gap_single_cluster_is_inf():
    dec = linalg.spectral(2.0 * np.eye(3))
    assert len(dec.eigenvalues) == 1
    assert dec.gap == np.inf


def test_spectral_gap_two_clusters():
    m = np.diag([1.0, 1.0, 3.0])
    dec = linalg.spectral(m)
    assert dec.gap == 2.0
    assert dec.threshold == linalg.CLUSTER_TOL * np.linalg.norm(m)
    # clusters {1, 1.5} and {4+i, 5+i} at threshold 2, between 1 and hypot(2.5, 1) = 2.69
    m = np.diag([1.0, 4.0 + 1j, 1.5, 5.0 + 1j])
    dec = linalg.spectral(m, cluster_tol=2.0 / np.linalg.norm(m))
    assert dec.multiplicities == [2, 2]
    assert np.allclose(dec.eigenvalues, [1.25, 4.5 + 1j])
    assert dec.gap == np.hypot(2.5, 1.0)


def test_spectral_of_zero_is_one_cluster():
    # the relative threshold of the zero matrix is 0; its eigenvalues, all exactly 0, stay one cluster
    dec = linalg.spectral(np.zeros((4, 4)))
    assert dec.multiplicities == [4] and dec.gap == np.inf and dec.threshold == 0.0
    assert not dec.eigenvalues.any() and not dec.semisimple_part().any()
    # one entry 5e-324 is not the zero matrix, though its threshold CLUSTER_TOL |a| underflows to 0:
    # the exact norm decides, and its two eigenvalues 0 and 5e-324 stay apart
    a = np.zeros((2, 2))
    a[1, 1] = 5e-324
    dec = linalg.spectral(a)
    assert dec.threshold == 0.0 and dec.multiplicities == [1, 1] and dec.gap == 5e-324


def test_spectral_refuses_an_entry_whose_modulus_overflows(monkeypatch):
    # finite parts, modulus 2.1e308: no power-of-two scale is defined (warnings are errors here)
    a = np.array([[1.5e308 + 1.5e308j, 0.0], [0.0, 1.0]])
    assert linalg.spectral(a / 2).multiplicities == [1, 1]

    def refuse(m):
        raise AssertionError("refused after eigen work")

    monkeypatch.setattr(np.linalg, "eigvals", refuse)
    with pytest.raises(DegenerateInput, match="entry modulus overflows"):
        linalg.spectral(a)


@pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan, complex(1.0, np.inf)], ids=["inf", "-inf", "nan", "inf-imag"])
def test_spectral_refuses_a_non_finite_entry_before_eigen_work(monkeypatch, bad):
    # in as_square_matrix's words, not as an eigenvalue iteration that stalled on it
    def refuse(m):
        raise AssertionError("refused after eigen work")

    monkeypatch.setattr(np.linalg, "eigvals", refuse)
    a = np.eye(3, dtype=complex)
    a[1, 2] = bad
    with pytest.raises(ValueError, match="^matrix contains non-finite entries$"):
        linalg.spectral(a)


def test_semisimple_part_of_a_simple_spectrum_is_a_copy_of_the_matrix():
    # every cluster one eigenvalue: the interpolant of f(lambda) = lambda is lambda, so no product is formed
    a = _random_complex(_rng(12), (6, 6))
    dec = linalg.spectral(a.copy())
    assert dec.multiplicities == [1] * 6
    s = dec.semisimple_part()
    assert np.array_equal(s, a)
    s[0, 0] += 1.0  # a copy: the decomposition's matrix stays as it was
    assert np.array_equal(dec.matrix, a)


def test_spectral_gap_follows_chained_clusters():
    # the chain 0..5.4e-3 (steps 0.9e-3 < tol = 1e-3) is one cluster, 2.1e-3
    # from 7.5e-3; its end 5.4e-3 lies nearer 7.5e-3 than the chain's mean
    # 2.7e-3, so membership by nearest mean would report 0.9e-3 as the gap
    m = np.diag([0.0, 0.9, 1.8, 2.7, 3.6, 4.5, 5.4, 7.5]) * 1e-3
    dec = linalg.spectral(m, cluster_tol=1e-3 / np.linalg.norm(m))
    assert dec.multiplicities == [7, 1]
    assert all(type(m) is int for m in dec.multiplicities)
    assert dec.gap == pytest.approx(2.1e-3, rel=1e-12)


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


def _pairwise_dedup_roots(values, tol):
    """The pairwise loop dedup_roots replaced, kept as its reference: relabel on
    every close pair, |z_i - z_j| < max(tol_i, tol_j) by Python's complex abs."""
    v = np.asarray(values, dtype=complex).ravel()
    points = v.tolist()
    tols = np.broadcast_to(tol, v.shape).tolist()
    label = list(range(len(points)))
    for i, z in enumerate(points):
        for j in range(i):
            if label[j] != label[i] and abs(z - points[j]) < max(tols[i], tols[j]):
                keep, drop = sorted((label[i], label[j]))
                label = [keep if lab == drop else lab for lab in label]
    members: dict[int, list[int]] = {}
    for i, lab in enumerate(label):
        members.setdefault(lab, []).append(i)
    number = {first: k for k, first in enumerate(members)}
    reps = [points[idx[0]] if len(idx) == 1 else np.mean(v[idx]) for idx in members.values()]
    return np.array(reps, dtype=complex), [number[lab] for lab in label]


# grid step 2^-10: grid neighbours are exactly STEP apart, so the tolerances below sit just below,
# at and just above that distance, and the comparison must be strict
STEP = 2.0**-10
NEAR_STEP = [np.nextafter(STEP, 0.0), STEP, np.nextafter(STEP, 1.0)]


@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@given(
    points=st.lists(st.tuples(st.integers(-3, 3), st.integers(-1, 1)), max_size=10),
    jitter=st.sampled_from([0.0, 0.3, 0.6]),
    nans=st.sets(st.integers(0, 9), max_size=2),
    tol=st.one_of(
        st.sampled_from(NEAR_STEP + [1.5 * STEP, np.inf]),
        st.lists(st.sampled_from(NEAR_STEP + [0.5 * STEP, 2.0 * STEP]), min_size=10, max_size=10),
    ),
    seed=st.integers(0, 2**32 - 1),
)
def test_dedup_roots_is_the_pairwise_loop_bit_for_bit(points, jitter, nans, tol, seed):
    # chains along the grid at each tolerance, per-value tolerances (a pair joins below the
    # larger of its two), NaN values and an infinite tolerance (spectral's zero matrix); k = 0..10
    rng = _rng(seed)
    values = STEP * (np.array([complex(a, b) for a, b in points]) + jitter * _random_complex(rng, len(points)))
    values[[i for i in nans if i < values.size]] = complex(np.nan, 0.0)
    tol = np.asarray(tol)[: values.size] if np.ndim(tol) else tol
    reps, labels = linalg.dedup_roots(values, tol)
    ref_reps, ref_labels = _pairwise_dedup_roots(values, tol)
    assert labels == ref_labels and all(type(k) is int for k in labels)
    assert reps.dtype == complex and reps.tobytes() == ref_reps.tobytes()


def test_dedup_roots_edge_cases_are_the_pairwise_loop():
    # chains that one relabelling step or sweep does not close, distance exactly tol (not joined),
    # a pair that only its larger tolerance joins, NaN singletons, k = 0 and 1
    cases = [
        ([0.0, 1.0, STEP, 1.0 + STEP, 2 * STEP, 3 * STEP], np.nextafter(STEP, 1.0)),
        ([0.0, 2 * STEP, 9.0, STEP], np.nextafter(STEP, 1.0)),
        ([0.0, STEP], STEP),
        ([0.0, STEP, 5.0], [0.5 * STEP, 2.0 * STEP, STEP]),
        ([np.nan, 0.0, np.nan, 1e-12], np.inf),
        ([], STEP),
        ([1.0 + 2.0j], STEP),
        ([1.0 + 2.0j], [STEP]),
    ]
    expected = [[0, 1, 0, 1, 0, 0], [0, 0, 1, 0], [0, 1], [0, 0, 1], [0, 1, 2, 1], [], [0], [0]]
    for (values, tol), want in zip(cases, expected):
        reps, labels = linalg.dedup_roots(values, tol)
        ref_reps, ref_labels = _pairwise_dedup_roots(values, tol)
        assert labels == ref_labels == want
        assert reps.tobytes() == ref_reps.tobytes()


def _pairwise_spectral(a, cluster_tol):
    """spectral's eigenvalues, multiplicities and gap by the pairwise loop and a second matrix of differences."""
    raw = np.linalg.eigvals(a)
    reps, labels = _pairwise_dedup_roots(raw, cluster_tol * linalg.norm(a) if a.any() else np.inf)
    diff = raw[:, None] - raw
    gap = np.hypot(diff.real, diff.imag)[np.not_equal.outer(labels, labels)].min(initial=np.inf)
    order = np.lexsort((reps.imag, reps.real))
    return reps[order], np.bincount(labels)[order].tolist(), float(gap)


@settings(derandomize=True, database=None, max_examples=100, deadline=None)
@given(
    centres=st.lists(st.integers(-2, 2), min_size=1, max_size=8),
    spread=st.sampled_from([0.0, 1e-9, 1e-7, 1e-3]),
    log_tol=st.sampled_from([-6.0, -3.0, -1.0]),
    seed=st.integers(0, 2**32 - 1),
)
def test_spectral_gap_and_multiplicities_are_the_pairwise_formula(centres, spread, log_tol, seed):
    # planted clusters: eigenvalues at a few centres, each moved by up to spread, conjugated
    rng = _rng(seed)
    n = len(centres)
    lams = np.array(centres, dtype=complex) + spread * _random_complex(rng, n)
    v = _random_complex(rng, (n, n)) + 3.0 * np.eye(n)
    for a in (np.diag(lams), v @ np.diag(lams) @ np.linalg.inv(v)):
        dec = linalg.spectral(a, 10.0**log_tol)
        eigenvalues, mults, gap = _pairwise_spectral(a, 10.0**log_tol)
        assert dec.eigenvalues.tobytes() == eigenvalues.tobytes()
        assert dec.multiplicities == mults and all(type(m) is int for m in dec.multiplicities)
        assert dec.gap == gap and type(dec.gap) is float


# --- polynomial roots -------------------------------------------------------


def test_poly_roots_quadratic():
    roots = np.sort_complex(linalg.poly_roots([-1.0, 0.0, 1.0]))
    assert np.allclose(roots, [-1.0, 1.0])


def test_poly_roots_sqrt2_by_substitution():
    p = [-2.0, 0.0, 1.0]
    roots = linalg.poly_roots(p)
    assert np.allclose(np.sort(roots.real), [-np.sqrt(2), np.sqrt(2)], atol=1e-12)
    for r in roots:
        assert abs(np.polyval(p[::-1], r)) < 1e-10


def test_poly_roots_triple_multiplicity():
    # (t-1)^3 expanded
    roots = linalg.poly_roots([-1.0, 3.0, -3.0, 1.0])
    reps, labels = linalg.dedup_roots(roots, tol=1e-4)
    assert np.bincount(labels).tolist() == [3]
    assert reps[0] == pytest.approx(1.0, abs=1e-4)


def test_poly_roots_residual_bound():
    rng = _rng(6)
    for _ in range(10):
        # seven Gaussian coefficients: degree 6, the leading one nonzero
        p = _random_complex(rng, 7)
        scale = np.max(np.abs(p))
        roots = linalg.poly_roots(p)
        assert roots.size == 6
        for r in roots:
            assert abs(np.polyval(p[::-1], r)) <= 1e-8 * scale * (1 + abs(r)) ** 6


def test_poly_roots_of_a_strided_view_are_those_of_a_copy():
    # numpy multiplies a strided vector by another loop than a contiguous one, which moves the
    # polished roots' last bits; poly_roots takes its coefficients as a contiguous array
    rng = _rng(7)
    for deg in (4, 8, 12):
        doubled = linalg.complex_normal(rng, 2 * deg + 2)
        for view in (doubled[::-2], doubled[::2], doubled[deg + 1 :][::-1]):
            assert np.array_equal(linalg.poly_roots(view), linalg.poly_roots(view.copy()))


def test_poly_roots_zero_polynomial_raises():
    with pytest.raises(DegenerateInput, match="zero polynomial"):
        linalg.poly_roots([0.0, 0.0])
    with pytest.raises(DegenerateInput, match="constant polynomial"):
        linalg.poly_roots([2.0, 0.0])
    with pytest.raises(ValueError, match="1-D"):
        linalg.poly_roots(np.eye(2))


def test_polynomial_strips_trailing_zeros():
    # only exactly-zero trailing coefficients go: 1 + 2t has the root -1/2
    assert linalg.poly_roots([1.0, 2.0, 0.0, 0.0]).tolist() == [-0.5]
    # a small leading coefficient is a genuine one, however large the others
    assert linalg.poly_roots([1.0, 1e-12]) == pytest.approx([-1e12], rel=1e-15)
    assert linalg.poly_roots([1e-20, 1e-30]) == pytest.approx([-1e10], rel=1e-15)
    # t^2 - 1e12 keeps its unit leading coefficient
    assert np.sort(linalg.poly_roots([-1e12, 0.0, 1.0]).real) == pytest.approx([-1e6, 1e6], rel=1e-15)


def _separated_roots(rng, degree):
    # roots drawn in an annulus and kept at least 0.3 apart, so they are well conditioned
    roots = []
    while len(roots) < degree:
        z = complex(*rng.uniform(-1.5, 1.5, 2))
        if 0.3 <= abs(z) and all(abs(z - w) >= 0.3 for w in roots):
            roots.append(z)
    return np.array(roots)


@pytest.mark.parametrize("degree", range(2, 13))
def test_poly_roots_match_mpmath_oracle(degree):
    rng = _rng(100 + degree)
    roots = _separated_roots(rng, degree)
    coeffs = np.poly(roots)[::-1] * complex(*rng.uniform(0.5, 2.0, 2))
    # the oracle solves the same float coefficients at 30 digits
    with mpmath.workdps(30):
        oracle = mpmath.polyroots([mpmath.mpc(c) for c in coeffs[::-1]], maxsteps=200, extraprec=60)
        oracle = np.array([complex(r) for r in oracle])
    got = linalg.poly_roots(coeffs)
    assert got.size == degree
    for r in got:
        assert np.min(np.abs(oracle - r)) <= 1e-12 * (1 + abs(r))
    for r in oracle:
        assert np.min(np.abs(got - r)) <= 1e-12 * (1 + abs(r))


@pytest.mark.parametrize("degree", range(2, 13))
def test_poly_roots_relative_accuracy_across_fiber_scales(degree):
    # the fiber workload scales its targets by 1e-4..1e4: the same well-separated
    # roots times 10^k keep their relative accuracy (worst 5.4e-12 here; the
    # bound leaves a factor of ~20).  The oracle is 30-digit Newton on the same
    # float coefficients from the drawn roots, which agrees with mpmath.polyroots
    # on every case here at a small fraction of its cost
    for k in range(-4, 5):
        rng = _rng(100 + degree)
        roots = _separated_roots(rng, degree) * 10.0**k
        coeffs = np.poly(roots)[::-1] * complex(*rng.uniform(0.5, 2.0, 2))
        with mpmath.workdps(30):
            desc = [mpmath.mpc(c) for c in coeffs[::-1]]
            oracle = []
            for z in map(mpmath.mpc, roots):
                for _ in range(6):
                    p, slope = mpmath.polyval(desc, z, derivative=True)
                    z -= p / slope
                oracle.append(complex(z))
        oracle = np.array(oracle)
        got = linalg.poly_roots(coeffs)
        assert got.size == degree
        for r in got:
            assert np.min(np.abs(oracle - r)) <= 1e-10 * abs(r)
        for r in oracle:
            assert np.min(np.abs(got - r)) <= 1e-10 * abs(r)


def test_poly_roots_polish_reaches_rounding_backward_error():
    # roots spread over six decades in one polynomial: companion eigenvalues
    # alone leave |p(r)| at ~4e4 eps of sum |c_k| |r|^k, and the three
    # polished steps reach ~1 eps
    eps = np.finfo(float).eps
    for seed in range(40):
        rng = _rng(seed)
        degree = int(rng.integers(4, 13))
        roots = 10.0 ** rng.uniform(-3, 3, degree) * np.exp(2j * np.pi * rng.uniform(size=degree))
        coeffs = np.poly(roots)[::-1]
        got = linalg.poly_roots(coeffs)
        residual = np.abs(np.vander(got, degree + 1, increasing=True) @ coeffs)
        scale = (np.abs(got)[:, None] ** np.arange(degree + 1)) @ np.abs(coeffs)
        assert np.all(residual <= 16 * eps * scale)


def _vander_polished_roots(coeffs):
    """poly_roots with one np.vander and three np.where masks per Newton step, and the companion
    sub-diagonal from np.eye: the reference whose bits the in-place power table keeps.  Returns
    the roots and the number of (root, step) pairs the mask held still."""
    c = np.asarray(coeffs, dtype=complex)
    c = c[: np.flatnonzero(c)[-1] + 1]
    deg = c.size - 1
    companion = np.zeros((deg, deg), dtype=complex)
    companion[1:, :-1] = np.eye(deg - 1)
    companion[:, -1] = -(c / c[-1])[:-1]
    roots = np.linalg.eigvals(companion)
    slope_coeffs = c[1:] * np.arange(1, deg + 1)
    masked = 0
    for _ in range(3):
        powers = np.vander(roots, deg + 1, increasing=True)
        slope = powers[:, :-1] @ slope_coeffs
        safe = np.abs(slope) > linalg.NEWTON_SLOPE_TOL
        masked += np.count_nonzero(~safe)
        step = np.where(safe, powers @ c, 0.0) / np.where(safe, slope, 1.0)
        roots = np.where(safe, roots - step, roots)
    return roots, masked


def _same_bits(a, b):
    a, b = np.ascontiguousarray(a, dtype=complex), np.ascontiguousarray(b, dtype=complex)
    return a.shape == b.shape and np.array_equal(a.view(np.uint64), b.view(np.uint64))


def _fiber_polynomials():
    rng = _rng(41)
    for n in range(2, 13):
        for k in range(-4, 5):
            yield degree.minimal_poly_coeffs("sl", n, 10.0**k * degree.random_trace_free(n, rng))
            if n >= 3:
                poly = degree.minimal_poly_coeffs("spin", n, 10.0**k * degree.random_skew(n, rng))
                yield poly[n % 2 :: 2]


def test_poly_roots_keeps_the_bits_of_the_vander_polish():
    rng = _rng(40)
    cases = [10.0 ** rng.uniform(-4.0, 4.0) * _random_complex(rng, deg + 1) for deg in range(1, 13) for _ in range(20)]
    # one scale per coefficient, and the leading one at each end of the range
    cases += [_random_complex(rng, deg + 1) * 10.0 ** rng.uniform(-4.0, 4.0, deg + 1) for deg in range(1, 13)]
    cases += [np.append(_random_complex(rng, deg), lead) for deg in range(1, 13) for lead in (1e-4, 1e4)]
    cases += list(_fiber_polynomials())
    # exactly-zero trailing coefficients are stripped before the companion matrix is formed
    cases += [[1.0, 2.0, 0.0, 0.0], np.append(_random_complex(rng, 6), np.zeros(3))]
    for coeffs in cases:
        assert _same_bits(linalg.poly_roots(coeffs), _vander_polished_roots(coeffs)[0])


def test_poly_roots_masked_step_keeps_the_bits_of_the_vander_polish():
    # roots where |p'| is at most NEWTON_SLOPE_TOL take no step: the double root 0 of t^2 (t - 2), a
    # double root of 1e-8 beside 3 (companion roots 1e-8 (1 +- 1.8e-7), |p'| 1.05e-14 there, held
    # still from the second step), and the small s-roots of a spin target at 1e-7, which the
    # companion eigensolver returns as 0
    x = 1e-7 * degree.random_skew(6, _rng(0))
    cases = [[0.0, 0.0, -2.0, 1.0], np.poly([1e-8, 1e-8, 3.0])[::-1], degree.minimal_poly_coeffs("spin", 6, x)[::2]]
    for coeffs in cases:
        expected, masked = _vander_polished_roots(coeffs)
        assert masked > 0
        assert _same_bits(linalg.poly_roots(coeffs), expected)


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


@pytest.mark.parametrize("bad", [np.inf, np.nan])
def test_matrix_exp_rejects_non_finite_input(bad):
    with pytest.raises(ValueError, match="exponent contains non-finite entries"):
        linalg.matrix_exp(np.full((2, 2), bad))


def test_matrix_exp_refuses_an_exponent_whose_1_norm_overflows():
    # finite entries whose column sum is not: no scaling 2^-s is defined (warnings are errors here)
    with pytest.raises(DegenerateInput, match="exponent 1-norm overflows"):
        linalg.matrix_exp(np.array([[1e308, 0.0], [1e308j, 0.0]]))
    assert np.isfinite(linalg.matrix_exp(np.array([[0.0, 1e308], [-1e308, 0.0]]) * 1e-300)).all()


@pytest.mark.parametrize("key", [*suites.FAMILY_KEYS, ("sl", 10), ("gl", 12)])
def test_matrix_exp_of_a_stack_is_each_exponential_bit_for_bit(key):
    rep = catalog.make(*key)
    rng = _rng(40)
    for scale in (0.05, 0.4, 3.0):
        stack = rep.materialize(linalg.complex_normal(rng, (5, rep.g_dim), scale))
        got = linalg.matrix_exp(stack)
        assert all(np.array_equal(got[k], linalg.matrix_exp(stack[k])) for k in range(5))
    # leading axes beyond one
    assert np.array_equal(linalg.matrix_exp(stack.reshape(1, 5, rep.v_dim, rep.v_dim))[0], got)


@pytest.mark.parametrize("n", range(4, 11))
def test_matrix_exp_of_spinor_images_that_square_differently_is_each_bit_for_bit(n):
    # one stack of 0, 0 or 1, 1..3 and 4..6 squarings: the matrices that need fewer keep their power
    # Gamma(u) as D x D: the even blocks [b] of the bivector's image sit at the rows and columns halves[b]
    t = clifford._tables(n)
    u = np.zeros((t.d, t.d), dtype=complex)
    for half, block in zip(t.halves, clifford.random_bivector(n, _rng(50 + n))._kept_image()[0]):
        u[np.ix_(half, half)] = block
    stack = np.array([s * u for s in (0.01, 1.0, 4.0, 30.0)])
    counts = [linalg._squarings(float(np.abs(a).sum(axis=0).max())) for a in stack]
    assert counts[0] == 0 and len(set(counts)) >= 3
    got = linalg.matrix_exp(stack)
    for k in range(len(stack)):
        assert np.array_equal(got[k], linalg.matrix_exp(stack[k]))


def test_matrix_exp_squares_that_overflow_warn_of_nothing():
    # exp(400) takes 7 squarings and exp(700) 8: the 8th square of exp(400), which it discards, overflows,
    # and both kept exponentials are finite (each within 1e-12 relative, 2^8 times the rounding of its
    # Pade step); exp(800) overflows and is refused by name
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = linalg.matrix_exp(np.array([[[400.0]], [[700.0]]]))
        assert [linalg._squarings(x) for x in (400.0, 700.0)] == [7, 8]
        assert np.isfinite(got).all() and np.allclose(got.ravel(), np.exp([400.0, 700.0]), rtol=1e-12, atol=0.0)
        message = r"^exponential is not finite: it overflows at exponent 1-norm 8\.00e\+02$"
        with pytest.raises(DegenerateInput, match=message):
            linalg.matrix_exp(np.array([[800.0]]))


def test_matrix_exp_of_a_stack_checks_each_member():
    stack = np.zeros((3, 2, 2), dtype=complex)
    stack[1, 0, 1] = np.nan
    with pytest.raises(ValueError, match="exponent contains non-finite entries"):
        linalg.matrix_exp(stack)
    stack[1] = [[1e308, 0.0], [1e308j, 0.0]]
    with pytest.raises(DegenerateInput, match="exponent 1-norm overflows"):
        linalg.matrix_exp(stack)
    with pytest.raises(ValueError, match=r"exponent must be square, got shape \(3, 2, 3\)"):
        linalg.matrix_exp(np.zeros((3, 2, 3)))


# Oracle tolerance: the relative error max|X - E| / max|E| against the oracle E
# is at most EXP_RTOL * max(1, scale), times cond(V) when E = V diag(e^lam) V^-1;
# scale is the 1-norm of the exponent (the largest |lam| for V diag(lam) V^-1),
# and the condition of exp grows with it.  Measured on these inputs over 20
# seeds: at most 2.5e-15 up to scale 10 (4.9e-15 divided by cond(V)) and
# 2.5e-13 at scale 1e3.
EXP_RTOL = 1e-14
EXP_SCALES = [10.0**k for k in range(-8, 4)]


def _exp_rel_err(got, want):
    return np.abs(got - want).max() / np.abs(want).max()


def _norm1_scaled(a, scale):
    norm = np.abs(a).sum(axis=0).max()
    return a * (scale / norm) if norm else a


@pytest.mark.parametrize("scale", EXP_SCALES)
def test_matrix_exp_matches_scipy_on_random_complex(scale):
    rng = _rng(round(np.log10(scale)) + 100)
    for n in range(1, 33):
        a = _norm1_scaled(_random_complex(rng, (n, n)), scale)
        # shift the rightmost eigenvalue onto the imaginary axis, which keeps
        # e^a finite at scale 1e3 and changes e^a only by the factor e^-c
        a -= np.linalg.eigvals(a).real.max() * np.eye(n)
        assert _exp_rel_err(linalg.matrix_exp(a), scipy.linalg.expm(a)) <= EXP_RTOL * max(1.0, scale)


@pytest.mark.parametrize("scale", EXP_SCALES)
def test_matrix_exp_nilpotent_matches_finite_series(scale):
    rng = _rng(round(np.log10(scale)) + 200)
    for n in range(1, 33):
        a = _norm1_scaled(np.triu(_random_complex(rng, (n, n)), 1), scale)
        # a^n = 0, so e^a = sum_{k < n} a^k / k! exactly
        want = term = np.eye(n, dtype=complex)
        for k in range(1, n):
            term = term @ a / k
            want = want + term
        assert _exp_rel_err(linalg.matrix_exp(a), want) <= EXP_RTOL * max(1.0, scale)


@pytest.mark.parametrize("scale", EXP_SCALES)
def test_matrix_exp_diagonalizable_matches_eigen_oracle(scale):
    rng = _rng(round(np.log10(scale)) + 300)
    for n in range(1, 33):
        v = _random_complex(rng, (n, n))
        v_inv = np.linalg.inv(v)
        lam = _random_complex(rng, n)
        lam *= scale / np.abs(lam).max()
        lam -= lam.real.max()  # e^lam stays finite at every scale
        want = v @ np.diag(np.exp(lam)) @ v_inv
        got = linalg.matrix_exp(v @ np.diag(lam) @ v_inv)
        assert _exp_rel_err(got, want) <= EXP_RTOL * max(1.0, scale) * np.linalg.cond(v)


@pytest.mark.parametrize(
    "n, scale, seed",
    [(3, 0.2, 1), (5, 8.0, 2), (8, 40.0, 3)],  # no squaring; one and three squarings
)
def test_matrix_exp_matches_mpmath_at_30_digits(n, scale, seed):
    a = _norm1_scaled(_random_complex(_rng(seed), (n, n)), scale)
    with mpmath.workdps(30):
        want = mpmath.expm(mpmath.matrix(a.tolist()))
        want = np.array([[complex(want[i, j]) for j in range(n)] for i in range(n)])
    assert _exp_rel_err(linalg.matrix_exp(a), want) <= EXP_RTOL * max(1.0, scale)


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


# --- random draws -----------------------------------------------------------
# Each sampler draws its array by one generator call; the oracles are the
# per-part expressions the samplers replaced, whose every bit and whose
# generator state afterwards must be matched.

DRAW_SEEDS = range(8)


def _same_draw(draw, oracle):
    """draw(rng) and oracle(rng) from two generators of each seed: one type and
    shape, the same bits, and the same next draw."""
    for seed in DRAW_SEEDS:
        mine, theirs = _rng(seed), _rng(seed)
        a, b = draw(mine), oracle(theirs)
        assert type(a) is type(b) and np.shape(a) == np.shape(b)
        assert np.array_equal(np.atleast_1d(a).view(np.uint64), np.atleast_1d(b).view(np.uint64))
        assert mine.standard_normal() == theirs.standard_normal()


@pytest.mark.parametrize("size", [(), 1, 3, 64, (8, 8), (4, 2, 2)])
@pytest.mark.parametrize("scale", [1.0, 0.3, 0.4, 0.6, 0.7, clifford.BIVECTOR_SCALE])
def test_complex_normal_is_the_per_part_expression_bit_for_bit(size, scale):
    _same_draw(lambda rng: linalg.complex_normal(rng, size, scale), lambda rng: _random_complex(rng, size, scale))
    assert type(linalg.complex_normal(_rng(0), (), scale)) is np.complex128


@pytest.mark.parametrize("n", range(2, 13))
def test_fiber_targets_are_the_per_part_expressions_bit_for_bit(n):
    def trace_free(rng):
        m = _random_complex(rng, (n, n))
        return m - (np.trace(m) / n) * np.eye(n)

    def skew(rng):
        m = _random_complex(rng, (n, n))
        return 0.5 * (m - m.T)

    _same_draw(lambda rng: degree.random_trace_free(n, rng), trace_free)
    _same_draw(lambda rng: degree.random_skew(n, rng), skew)


@pytest.mark.parametrize("n", range(1, 11))
def test_random_bivector_is_the_pair_by_pair_draw_bit_for_bit(n):
    def pair_by_pair(rng):
        coeffs = np.zeros(1 << n, dtype=complex)
        for a in range(n):
            for b in range(a + 1, n):
                coeffs[(1 << a) | (1 << b)] = _random_complex(rng, (), clifford.BIVECTOR_SCALE)
        return coeffs

    _same_draw(lambda rng: clifford.random_bivector(n, rng).coeffs, pair_by_pair)
