"""Clifford/exterior products, spin group, vector action and Cayley transform."""

import functools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cayleymap import clifford as cl
from cayleymap import linalg
from cayleymap.errors import DimensionMismatch, NotInSpin, NotSkew, SingularShift


def _rng(seed):
    return np.random.default_rng(seed)


def random_element(n, rng, scale=0.7):
    c = scale * (rng.standard_normal(1 << n) + 1j * rng.standard_normal(1 << n)) / np.sqrt(2)
    return cl.CliffordElement(n, c)


def random_vector(n, rng):
    return cl.from_vector(n, (rng.standard_normal(n) + 1j * rng.standard_normal(n)) / np.sqrt(2))


# --- products -----------------------------------------------------------------


def test_generator_squares_to_one():
    z1 = cl.basis_vector(3, 0)
    assert np.allclose((z1 * z1).coeffs, cl.scalar(3, 1.0).coeffs)


def test_generators_anticommute():
    z1, z2 = cl.basis_vector(2, 0), cl.basis_vector(2, 1)
    assert ((z2 * z1) + (z1 * z2)).norm() < 1e-15


def test_bivector_squares_to_minus_one():
    b = cl.basis_blade(4, 0b0011)
    assert (b * b).scalar_part() == pytest.approx(-1.0)


def test_wedge_matches_clifford_on_disjoint():
    z1, z2 = cl.basis_vector(2, 0), cl.basis_vector(2, 1)
    assert ((z1 ^ z2) - (z1 * z2)).norm() < 1e-15


def test_wedge_nilpotent_on_repeats():
    z1 = cl.basis_vector(2, 0)
    assert (z1 ^ z1).norm() == 0.0


def test_wedge_graded_commutativity():
    rng = _rng(0)
    for n in (3, 4, 5):
        for p in range(n + 1):
            for q in range(n + 1):
                u = random_element(n, rng).grade(p)
                v = random_element(n, rng).grade(q)
                diff = (u ^ v) - (-1.0) ** (p * q) * (v ^ u)
                assert diff.norm() < 1e-12


def test_clifford_associativity():
    rng = _rng(1)
    for n in (2, 3, 4, 5, 6):
        u, v, w = (random_element(n, rng) for _ in range(3))
        d1 = ((u * v) * w - u * (v * w)).norm()
        d2 = (((u ^ v) ^ w) - (u ^ (v ^ w))).norm()
        assert d1 <= 1e-10 * (u.norm() * v.norm() * w.norm() + 1)
        assert d2 <= 1e-10 * (u.norm() * v.norm() * w.norm() + 1)


# --- independent oracle: reduction of generator words -------------------------------


def _word(mask):
    """Generator indices of the blade z_mask, in increasing order."""
    return [i for i in range(mask.bit_length()) if mask >> i & 1]


def _reduce(word):
    """(sign, mask) with z_word = sign * z_mask: sort the word by adjacent
    swaps of distinct generators (each flips the sign), then cancel the now
    adjacent pairs z_i z_i = 1."""
    word, sign = list(word), 1
    for end in range(len(word) - 1, 0, -1):
        for k in range(end):
            if word[k] > word[k + 1]:
                word[k], word[k + 1] = word[k + 1], word[k]
                sign = -sign
    mask = 0
    for i in word:
        mask ^= 1 << i
    return sign, mask


@functools.cache
def _word_table(n):
    """_reduce of z_I z_J for every blade pair (I, J)."""
    return [[_reduce(_word(i) + _word(j)) for j in range(1 << n)] for i in range(1 << n)]


def _oracle_mul(u, v, wedge=False):
    """Clifford (or exterior) product expanded bilinearly over blade pairs."""
    table = _word_table(u.n)
    out = np.zeros(1 << u.n, dtype=complex)
    for i, ui in enumerate(u.coeffs):
        for j, vj in enumerate(v.coeffs):
            if not (wedge and i & j):
                sign, k = table[i][j]
                out[k] += sign * ui * vj
    return out


def _oracle_iota(x, v):
    """iota(z_i) z_J = c z_{J - i} where z_i z_{J - i} = c z_J, zero if i is not in J."""
    table = _word_table(v.n)
    out = np.zeros(1 << v.n, dtype=complex)
    for i in range(v.n):
        for j, vj in enumerate(v.coeffs):
            if j >> i & 1:
                sign, _ = table[1 << i][j ^ (1 << i)]
                out[j ^ (1 << i)] += sign * x.coeffs[1 << i] * vj
    return out


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_products_match_word_oracle_on_blades(n):
    for i in range(1 << n):
        u = cl.basis_blade(n, i)
        gamma = cl.gamma_matrix(u)
        for j in range(1 << n):
            v = cl.basis_blade(n, j)
            sign, k = _word_table(n)[i][j]
            want = sign * cl.basis_blade(n, k).coeffs
            assert np.array_equal((u * v).coeffs, want)
            assert np.array_equal(gamma[:, j], want)
            assert np.array_equal((u ^ v).coeffs, 0 * want if i & j else want)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_derivations_match_word_oracle_on_blades(n):
    for i in range(n):
        x = cl.basis_vector(n, i)
        for j in range(1 << n):
            v = cl.basis_blade(n, j)
            assert np.array_equal(cl.epsilon(x, v).coeffs, _oracle_mul(x, v, wedge=True))
            assert np.array_equal(cl.iota(x, v).coeffs, _oracle_iota(x, v))


@settings(derandomize=True, database=None, max_examples=12, deadline=None)
@given(n=st.sampled_from([5, 6]), seed=st.integers(0, 2**32 - 1))
def test_products_match_word_oracle_by_bilinearity(n, seed):
    rng = _rng(seed)
    u, v = random_element(n, rng), random_element(n, rng)
    x = random_vector(n, rng)
    tol = 1e-12 * (1 + u.norm()) * (1 + v.norm())
    assert np.abs((u * v).coeffs - _oracle_mul(u, v)).max() <= tol
    assert np.abs((u ^ v).coeffs - _oracle_mul(u, v, wedge=True)).max() <= tol
    assert np.abs(cl.gamma_matrix(u) @ v.coeffs - _oracle_mul(u, v)).max() <= tol
    assert np.abs(cl.epsilon(x, v).coeffs - _oracle_mul(x, v, wedge=True)).max() <= tol
    assert np.abs(cl.iota(x, v).coeffs - _oracle_iota(x, v)).max() <= tol


def test_dimension_mismatch_rejected():
    with pytest.raises(DimensionMismatch):
        cl.basis_vector(2, 0) * cl.basis_vector(3, 0)


# --- involutions and derivations -------------------------------------------------


def test_alpha_signs_exhaustive():
    for n in (1, 2, 3, 4, 5, 6):
        for mask in range(1 << n):
            k = bin(mask).count("1")
            expected = (-1.0) ** (k * (k - 1) // 2)
            got = cl.alpha(cl.basis_blade(n, mask)).coeffs[mask]
            assert got == expected


def test_alpha_inverts_blades():
    # z_I alpha(z_I) = 1 for every blade
    for n in (2, 3, 4):
        for mask in range(1 << n):
            b = cl.basis_blade(n, mask)
            assert (b * cl.alpha(b)).scalar_part() == pytest.approx(1.0)


def test_grade_decomposition_partitions_element():
    rng = _rng(18)
    for n in (1, 3, 6):
        u = random_element(n, rng)
        total = cl.CliffordElement(n)
        for k in range(n + 1):
            g = u.grade(k)
            # each graded piece sits exactly on the popcount-k blades
            for mask in range(1 << n):
                if bin(mask).count("1") != k:
                    assert g.coeffs[mask] == 0
            total = total + g
        assert (total - u).norm() == 0.0


def test_kappa_parity():
    u = cl.basis_blade(3, 0b101) + cl.basis_blade(3, 0b001)
    k = cl.kappa(u)
    assert k.coeffs[0b101] == 1.0 and k.coeffs[0b001] == -1.0


def test_iota_derivation_example():
    z1, z2 = cl.basis_vector(2, 0), cl.basis_vector(2, 1)
    r = cl.iota(z2, z1 ^ z2)
    assert np.allclose(r.coeffs, (-z1).coeffs)


def test_epsilon_iota_anticommutator():
    # eps(x) iota(y) + iota(y) eps(x) = (x, y) id
    rng = _rng(2)
    for n in (2, 3, 5):
        x, y = random_vector(n, rng), random_vector(n, rng)
        u = random_element(n, rng)
        lhs = cl.epsilon(x, cl.iota(y, u)) + cl.iota(y, cl.epsilon(x, u))
        xy = complex(np.sum(x.vector_part() * y.vector_part()))
        assert (lhs - xy * u).norm() < 1e-12


def test_clifford_as_wedge_plus_contraction():
    # x u = eps(x) u + iota(x) u for degree-1 x
    rng = _rng(3)
    for n in (2, 4):
        x, u = random_vector(n, rng), random_element(n, rng)
        assert ((x * u) - cl.epsilon(x, u) - cl.iota(x, u)).norm() < 1e-12


# --- gamma and trace laws ----------------------------------------------------------


def test_gamma_traceless_blades():
    for n in (2, 3, 4):
        for mask in range(1, 1 << n):
            assert abs(np.trace(cl.gamma_matrix(cl.basis_blade(n, mask)))) < 1e-12
    assert np.trace(cl.gamma_matrix(cl.scalar(3, 1.0))) == pytest.approx(8.0)


def test_gamma_homomorphism():
    rng = _rng(4)
    for n in (2, 3, 5):
        u, v = random_element(n, rng), random_element(n, rng)
        lhs = cl.gamma_matrix(u) @ cl.gamma_matrix(v)
        rhs = cl.gamma_matrix(u * v)
        assert np.linalg.norm(lhs - rhs) < 1e-10 * (1 + np.linalg.norm(lhs))


def test_scalar_part_trace_law():
    rng = _rng(5)
    for n in (2, 3, 4, 6):
        w = random_element(n, rng)
        assert abs(w.scalar_part() - np.trace(cl.gamma_matrix(w)) / 2**n) < 1e-10


def test_pairing_law():
    # scalar part of uw equals the pairing of u with alpha(w)
    rng = _rng(6)
    for n in (2, 3, 5):
        u, w = random_element(n, rng), random_element(n, rng)
        lhs = (u * w).scalar_part()
        rhs = cl.pairing(u, cl.alpha(w))
        assert abs(lhs - rhs) < 1e-12


# --- volume element -----------------------------------------------------------------


def test_volume_idempotents():
    for n in range(1, 9):
        mu, ep, em = cl.volume_idempotents(n)
        assert ((mu * mu) - cl.scalar(n, 1.0)).norm() < 1e-12
        assert ((ep * ep) - ep).norm() < 1e-12
        assert ((em * em) - em).norm() < 1e-12
        assert (ep * em).norm() < 1e-12
        assert ((ep + em) - cl.scalar(n, 1.0)).norm() < 1e-12


def test_volume_element_small_cases():
    mu1, _, _ = cl.volume_idempotents(1)
    assert mu1.coeffs[1] == pytest.approx(1.0)
    mu2, _, _ = cl.volume_idempotents(2)
    assert mu2.coeffs[3] == pytest.approx(1j)


# --- spin group ----------------------------------------------------------------------


def test_spin_exp_zero_is_one():
    g = cl.spin_exp(cl.CliffordElement(3))
    assert (g.value - cl.scalar(3, 1.0)).norm() < 1e-12


def test_spin_exp_rotation_series():
    th = 0.37
    g = cl.spin_exp(th * cl.basis_blade(2, 0b11))
    assert g.value.coeffs[0] == pytest.approx(np.cos(th))
    assert g.value.coeffs[3] == pytest.approx(np.sin(th))


def test_spin_exp_group_membership():
    rng = _rng(7)
    for n in (2, 3, 5, 8):
        g = cl.spin_exp(cl.random_bivector(n, rng))
        unit = g.value * cl.alpha(g.value) - cl.scalar(n, 1.0)
        assert unit.norm() < 1e-8


def test_spin_exp_rejects_non_bivector():
    with pytest.raises(ValueError):
        cl.spin_exp(cl.basis_vector(3, 0))


@settings(derandomize=True, database=None, max_examples=40, deadline=None)
@given(n=st.integers(1, 8), log_scale=st.floats(-6.0, np.log10(20.0)), seed=st.integers(0, 2**32 - 1))
def test_spin_exp_matches_dense_exponential(n, log_scale, seed):
    u = 10.0**log_scale * cl.random_bivector(n, _rng(seed))
    dense = linalg.matrix_exp(cl.gamma_matrix(u))[:, 0]
    got = cl.spin_exp(u).value.coeffs
    assert np.abs(got - dense).max() <= 1e-12 * np.abs(dense).max()


@pytest.mark.parametrize("n", [2, 5])
def test_spin_exp_on_singular_set_of_closed_form(n):
    # exp(theta z1 z2) = cos(theta) + sin(theta) z1 z2; at theta = pi/2 it acts
    # on V as a half turn, where 1 + T is singular and the closed form has no answer
    th = np.pi / 2
    g = cl.spin_exp(th * cl.basis_blade(n, 0b11))
    want = np.cos(th) * cl.scalar(n, 1.0) + np.sin(th) * cl.basis_blade(n, 0b11)
    assert np.abs(g.value.coeffs - want.coeffs).max() <= 1e-14
    assert abs(np.linalg.det(np.eye(n) + cl.vector_action(g))) <= 1e-14


def test_spin_exp_n10_against_rotation_oracles():
    n = 10
    u = cl.random_bivector(n, _rng(19))
    g = cl.spin_exp(u)
    rot = linalg.matrix_exp(cl.tau(u))
    assert np.linalg.norm(cl.vector_action(g) - rot) <= 1e-10 * np.linalg.norm(rot)
    rhs = np.linalg.det(np.eye(n) + rot) / 2**n
    assert abs(cl.spin_scalar(g) ** 2 - rhs) <= 1e-10 * (1 + abs(rhs))


def test_spin_exp_builds_no_dense_matrix(monkeypatch):
    def refuse(*args):
        raise AssertionError("spin_exp must not build the 2^n x 2^n matrix")

    monkeypatch.setattr(cl, "gamma_matrix", refuse)
    monkeypatch.setattr(linalg, "matrix_exp", refuse)
    g = cl.spin_exp(cl.random_bivector(10, _rng(20)))
    assert isinstance(g, cl.SpinElement)
    cl.SpinElement(g.value)


def test_vector_action_identity():
    g = cl.SpinElement(cl.scalar(4, 1.0))
    assert np.allclose(cl.vector_action(g), np.eye(4))


def test_vector_action_rotation_convention():
    th = np.pi / 7
    g = cl.spin_exp(th * cl.basis_blade(2, 0b11))
    t = cl.vector_action(g)
    expected = np.array([[np.cos(2 * th), np.sin(2 * th)], [-np.sin(2 * th), np.cos(2 * th)]])
    assert np.allclose(t, expected, atol=1e-10)


def test_vector_action_special_orthogonal():
    rng = _rng(8)
    for n in (3, 4, 6, 8):
        g = cl.spin_exp(cl.random_bivector(n, rng))
        t = cl.vector_action(g)
        assert np.linalg.norm(t.T @ t - np.eye(n)) < 1e-8
        assert abs(np.linalg.det(t) - 1) < 1e-8


def test_vector_action_kernel_is_sign():
    rng = _rng(9)
    g = cl.spin_exp(cl.random_bivector(4, rng))
    assert np.allclose(cl.vector_action(g), cl.vector_action(-g), atol=1e-12)


def test_not_in_spin_rejected():
    bad = cl.scalar(3, 1.0) + 0.5 * cl.basis_vector(3, 0)
    with pytest.raises(NotInSpin):
        cl.SpinElement(bad)


# --- tau and the classical Cayley transform -------------------------------------------


def test_tau_example():
    t = cl.tau(cl.basis_blade(2, 0b11))
    assert np.allclose(t, [[0, 2], [-2, 0]])


def test_tau_inverse_pair():
    rng = _rng(10)
    for n in (2, 4, 8):
        m = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        s = 0.5 * (m - m.T)
        assert np.linalg.norm(cl.tau(cl.tau_inv(s)) - s) < 1e-10
        u = cl.random_bivector(n, rng)
        assert (cl.tau_inv(cl.tau(u)) - u).norm() < 1e-10


def _tau_loop(u):
    s = np.zeros((u.n, u.n), dtype=complex)
    for a in range(u.n):
        for b in range(a + 1, u.n):
            c = u.coeffs[(1 << a) | (1 << b)]
            s[a, b] = 2.0 * c
            s[b, a] = -2.0 * c
    return s


def _tau_inv_loop(s):
    u = cl.CliffordElement(s.shape[0])
    for a in range(u.n):
        for b in range(a + 1, u.n):
            u.coeffs[(1 << a) | (1 << b)] = 0.5 * s[a, b]
    return u


@pytest.mark.parametrize("n", range(2, 11))
def test_tau_and_inverse_match_pairwise_loops_bitwise(n):
    rng = _rng(100 + n)
    zeros = np.array([0.0, -0.0])
    for trial in range(6):
        u = cl.random_bivector(n, rng)
        m = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        s = m - m.T
        if trial % 2:
            # signed zeros must come out exactly as the loops write them
            pick = rng.random(u.coeffs.shape) < 0.5
            u.coeffs[pick] = rng.choice(zeros, pick.sum()) + 1j * rng.choice(zeros, pick.sum())
            rows, cols = np.triu_indices(n, 1)
            hit = rng.random(rows.size) < 0.5
            s[rows[hit], cols[hit]] = complex(-0.0, 0.0)
            s[cols[hit], rows[hit]] = complex(0.0, -0.0)
        assert cl.tau(u).tobytes() == _tau_loop(u).tobytes()
        assert cl.tau_inv(s).coeffs.tobytes() == _tau_inv_loop(s).coeffs.tobytes()


def test_tau_rejects_non_skew():
    with pytest.raises(NotSkew):
        cl.tau_inv(np.eye(3))


def test_tau_is_vector_action_differential():
    rng = _rng(11)
    eps = 1e-6
    for n in (3, 5):
        u = cl.random_bivector(n, rng)
        g = cl.spin_exp(eps * u)
        fd = (cl.vector_action(g) - np.eye(n)) / eps
        assert np.linalg.norm(fd - cl.tau(u)) < 1e-5


def test_cayley_gamma_basics():
    assert np.allclose(cl.cayley_gamma(np.zeros((3, 3))), np.eye(3))
    assert np.allclose(cl.cayley_gamma(np.eye(3)), np.zeros((3, 3)))


def test_cayley_gamma_involution_and_shift_identity():
    rng = _rng(12)
    for n in (3, 4, 6):
        m = rng.standard_normal((n, n))
        s = 0.4 * (m - m.T)
        a = cl.cayley_gamma(s)
        assert np.linalg.norm(a.T @ a - np.eye(n)) < 1e-10
        assert abs(np.linalg.det(a) - 1) < 1e-10
        assert np.linalg.norm(cl.cayley_gamma(a) - s) < 1e-9
        assert np.linalg.norm((np.eye(n) + a) @ (np.eye(n) + s) - 2 * np.eye(n)) < 1e-10


def test_cayley_gamma_singular_shift():
    with pytest.raises(SingularShift):
        cl.cayley_gamma(-np.eye(2))


# --- exterior exponential and the closed form -------------------------------------------


def test_exterior_exp_truncates():
    assert (cl.exterior_exp(cl.CliffordElement(2)) - cl.scalar(2, 1.0)).norm() == 0
    t = 0.8
    e = cl.exterior_exp(t * cl.basis_blade(2, 0b11))
    assert e.coeffs[0] == pytest.approx(1.0) and e.coeffs[3] == pytest.approx(t)


def test_exterior_exp_two_plane_example():
    u = cl.basis_blade(4, 0b0011) + cl.basis_blade(4, 0b1100)
    e = cl.exterior_exp(u)
    assert e.coeffs[0] == pytest.approx(1.0)
    assert e.coeffs[0b0011] == pytest.approx(1.0)
    assert e.coeffs[0b1100] == pytest.approx(1.0)
    assert e.coeffs[0b1111] == pytest.approx(1.0)


def test_spin_cayley_of_identity_vanishes():
    g = cl.SpinElement(cl.scalar(3, 1.0))
    assert cl.spin_cayley(g).norm() == 0.0
    assert cl.spin_scalar(g) == 1.0


def test_spin_cayley_worked_example():
    th = np.pi / 6
    g = cl.spin_exp(th * cl.basis_blade(2, 0b11))
    assert cl.spin_scalar(g) == pytest.approx(np.sqrt(3) / 2)
    pr2 = cl.spin_cayley(g)
    assert pr2.coeffs[3] == pytest.approx(0.5)
    closed = -2.0 * cl.spin_scalar(g) * cl.tau_inv(cl.cayley_gamma(cl.vector_action(g)))
    assert (closed - pr2).norm() < 1e-10


def test_commutation_identity():
    rng = _rng(13)
    for n in (3, 4, 6):
        w = cl.random_bivector(n, rng)
        x = random_vector(n, rng)
        e2w = cl.exterior_exp(2.0 * w)
        br = w * x - x * w
        lhs = e2w * (x - br)
        rhs = (x + br) * e2w
        assert (lhs - rhs).norm() <= 1e-8 * (1 + lhs.norm())


def test_factorization_and_closed_form():
    rng = _rng(14)
    for n in range(3, 9):
        done = 0
        trial = 0
        while done < 4 and trial < 40:
            trial += 1
            g = cl.spin_exp(cl.random_bivector(n, rng))
            t = cl.vector_action(g)
            if abs(np.linalg.det(np.eye(n) + t)) < 0.1:
                continue
            done += 1
            c = cl.spin_scalar(g)
            w = cl.tau_inv(cl.cayley_gamma(t))
            recon = c * cl.exterior_exp(-2.0 * w)
            assert (g.value - recon).norm() <= 1e-7
            closed = -2.0 * c * w
            assert (cl.spin_cayley(g) - closed).norm() <= 1e-7
        assert done == 4


def test_square_law():
    rng = _rng(15)
    for n in range(3, 9):
        for _ in range(4):
            g = cl.spin_exp(cl.random_bivector(n, rng))
            t = cl.vector_action(g)
            lhs = cl.spin_scalar(g) ** 2
            rhs = np.linalg.det(np.eye(n) + t) / 2**n
            assert abs(lhs - rhs) <= 1e-8 * (1 + abs(rhs))


def test_double_cover_signs():
    rng = _rng(16)
    g = cl.spin_exp(cl.random_bivector(5, rng))
    assert cl.spin_scalar(-g) == pytest.approx(-cl.spin_scalar(g))
    plus, minus = cl.lift_rotation(cl.vector_action(g))
    vals = sorted([cl.spin_scalar(plus), cl.spin_scalar(minus)], key=lambda z: z.real)
    ref = sorted([cl.spin_scalar(g), -cl.spin_scalar(g)], key=lambda z: z.real)
    assert np.allclose(vals, ref, atol=1e-8)
    # the lift reproduces g up to overall sign
    d1 = (plus.value - g.value).norm()
    d2 = (minus.value - g.value).norm()
    assert min(d1, d2) < 1e-7


# --- serialization -------------------------------------------------------------------


def test_clifford_json_roundtrip():
    rng = _rng(17)
    u = random_element(4, rng)
    back = cl.CliffordElement.from_json(u.to_json())
    assert np.allclose(back.coeffs, u.coeffs)
