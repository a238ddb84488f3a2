"""Clifford/exterior products, spin group, vector action and Cayley transform."""

import functools

import numpy as np
import pytest
import scipy.linalg
from hypothesis import Phase, given, settings
from hypothesis import strategies as st

from cayleymap import clifford as cl
from cayleymap import linalg
from cayleymap.errors import DimensionMismatch, NotInSpin, NotSkew, SingularShift


# every shrink step re-runs the word oracle over up to 2^10 x 12 blade pairs,
# so a failure at large n would take minutes to shrink; report it as found
NO_SHRINK = [phase for phase in Phase if phase is not Phase.shrink]


def _rng(seed):
    return np.random.default_rng(seed)


def random_element(n, rng, scale=0.7):
    c = scale * (rng.standard_normal(1 << n) + 1j * rng.standard_normal(1 << n)) / np.sqrt(2)
    return cl.CliffordElement(n, c)


def random_vector(n, rng):
    return cl.from_vector(n, (rng.standard_normal(n) + 1j * rng.standard_normal(n)) / np.sqrt(2))


def _lifts(a):
    """The two spin elements over a rotation a with det(1 + a) != 0:
    +-sqrt(det(1 + a)) 2^(-n/2) exterior_exp(-2 tau_inv(cayley_gamma(a)))."""
    n = a.shape[0]
    c = np.sqrt(complex(np.linalg.det(np.eye(n) + a))) / 2 ** (n / 2.0)
    plus = cl.SpinElement(cl.exterior_exp(-2.0 * cl.tau_inv(cl.cayley_gamma(a))) * c)
    return plus, -plus


# --- products -----------------------------------------------------------------


def test_generator_squares_to_one():
    z1 = cl.basis_blade(3, 0b1)
    assert np.allclose((z1 * z1).coeffs, cl.scalar(3, 1.0).coeffs)


def test_generators_anticommute():
    z1, z2 = cl.basis_blade(2, 0b1), cl.basis_blade(2, 0b10)
    assert ((z2 * z1) + (z1 * z2)).norm() < 1e-15


def test_bivector_squares_to_minus_one():
    b = cl.basis_blade(4, 0b0011)
    assert (b * b).scalar_part() == pytest.approx(-1.0)


def test_wedge_matches_clifford_on_disjoint():
    z1, z2 = cl.basis_blade(2, 0b1), cl.basis_blade(2, 0b10)
    assert ((z1 ^ z2) - (z1 * z2)).norm() < 1e-15


def test_wedge_nilpotent_on_repeats():
    z1 = cl.basis_blade(2, 0b1)
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
def _blade_product(i, j):
    """_reduce of z_I z_J; it does not depend on n."""
    return _reduce(_word(i) + _word(j))


@functools.cache
def _word_table(n):
    """_reduce of z_I z_J for every blade pair (I, J)."""
    return [[_blade_product(i, j) for j in range(1 << n)] for i in range(1 << n)]


def _oracle_mul(u, v, wedge=False):
    """Clifford (or exterior) product expanded bilinearly over the pairs of
    nonzero blades."""
    out = np.zeros(1 << u.n, dtype=complex)
    for i in np.flatnonzero(u.coeffs):
        for j in np.flatnonzero(v.coeffs):
            if not (wedge and i & j):
                sign, k = _blade_product(int(i), int(j))
                out[k] += sign * u.coeffs[i] * v.coeffs[j]
    return out


def _oracle_iota(x, v):
    """iota(z_i) z_J = c z_{J - i} where z_i z_{J - i} = c z_J, zero if i is not in J."""
    out = np.zeros(1 << v.n, dtype=complex)
    for i in range(v.n):
        for j in np.flatnonzero(v.coeffs):
            if j >> i & 1:
                sign, _ = _blade_product(1 << i, int(j) ^ (1 << i))
                out[j ^ (1 << i)] += sign * x.coeffs[1 << i] * v.coeffs[j]
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
        x = cl.basis_blade(n, 1 << i)
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


@pytest.mark.parametrize("n", range(1, 11))
@settings(derandomize=True, database=None, max_examples=3, deadline=None, phases=NO_SHRINK)
@given(blades=st.integers(1, 12), seed=st.integers(0, 2**32 - 1))
def test_clifford_mul_matches_word_oracle_and_regular_representation(n, blades, seed):
    # the word oracle costs one reduction per pair of nonzero blades, so at
    # n = 10 it takes a dense u against a v with a few blades
    rng = _rng(seed)
    u, w = random_element(n, rng), random_element(n, rng)
    v = cl.CliffordElement(n)
    v.coeffs[rng.choice(1 << n, min(blades, 1 << n), replace=False)] = random_element(n, rng).coeffs[:blades]
    want = _oracle_mul(u, v)
    assert np.abs((u * v).coeffs - want).max() <= 1e-13 * np.abs(want).max()
    want = cl.gamma_matrix(u) @ w.coeffs
    assert np.abs((u * w).coeffs - want).max() <= 1e-13 * np.abs(want).max()
    # a chained product of elements that already carry images: u v keeps only
    # Gamma(u) Gamma(v), so at odd n the rounding it holds on blades outside
    # Cl_n reaches the next product
    want = cl.gamma_matrix(u) @ (cl.gamma_matrix(v) @ w.coeffs)
    assert np.abs(((u * v) * w).coeffs - want).max() <= 1e-13 * np.abs(want).max()


@pytest.mark.parametrize("n", range(1, 11))
@settings(derandomize=True, database=None, max_examples=3, deadline=None, phases=NO_SHRINK)
@given(blades=st.integers(1, 12), seed=st.integers(0, 2**32 - 1))
def test_wedge_and_derivations_match_word_oracle(n, blades, seed):
    # a dense u wedged with a v of a few blades, in both orders, and the
    # derivations of a dense u, which cost n oracle reductions per blade
    rng = _rng(seed)
    u, x = random_element(n, rng), random_vector(n, rng)
    v = cl.CliffordElement(n)
    v.coeffs[rng.choice(1 << n, min(blades, 1 << n), replace=False)] = random_element(n, rng).coeffs[:blades]
    for got, a, b in (((u ^ v), u, v), ((v ^ u), v, u)):
        assert np.abs(got.coeffs - _oracle_mul(a, b, wedge=True)).max() <= 1e-13 * a.norm() * b.norm()
    tol = 1e-13 * x.norm() * u.norm()
    assert np.abs(cl.epsilon(x, u).coeffs - _oracle_mul(x, u, wedge=True)).max() <= tol
    assert np.abs(cl.iota(x, u).coeffs - _oracle_iota(x, u)).max() <= tol


@pytest.mark.parametrize("n", range(1, 11))
def test_spinor_image_round_trip(n):
    s = cl._tables(n)
    u = random_element(n, _rng(21 + n))
    gamma = s.to_spinor(u.coeffs[None])
    assert gamma.shape == (1,) + (1 << (n + 1) // 2,) * 2
    assert np.abs(s.from_spinor(gamma)[0] - u.coeffs).max() <= 1e-14 * np.abs(u.coeffs).max()


def _complex_transforms(n):
    """The spinor transforms in the (x, z) layout with a complex Hadamard matrix
    acting from the right: the reference for the real left product."""
    m = (n + 1) // 2
    d = 1 << m
    w = np.ones(1, dtype=complex)
    x = z = np.zeros(1, dtype=np.int64)
    for k in range(2 * m):
        q, y = divmod(k, 2)
        gx, gz = 1 << q, (1 << (q + y)) - 1
        w = np.concatenate([w, w * (1j if y else 1.0) * np.where(z & gx, -1.0, 1.0)])
        x, z = np.concatenate([x, x ^ gx]), np.concatenate([z, z ^ gz])
    pos = (x * d + z)[: 1 << n]
    src = np.argsort(x * d + z)
    kept = src < (1 << n)
    src, phase = np.where(kept, src, 0), np.where(kept, w[src], 0.0)
    unphase = np.conj(w[: 1 << n]) / d
    r = np.arange(d)
    hadamard = np.where(np.bitwise_count(r[:, None] & r[None, :]) & 1, -1.0, 1.0).astype(complex)
    gather = ((r[:, None] ^ r[None, :]) * d + r[None, :]).ravel()

    def to_spinor(coeffs):
        k = len(coeffs)
        p = (coeffs.take(src, axis=1) * phase).reshape(k, d, d) @ hadamard
        return p.reshape(k, d * d).take(gather, axis=1).reshape(k, d, d)

    def from_spinor(gamma):
        k = len(gamma)
        p = gamma.reshape(k, d * d).take(gather, axis=1).reshape(k, d, d) @ hadamard
        return p.reshape(k, d * d).take(pos, axis=1) * unphase

    return to_spinor, from_spinor


@pytest.mark.parametrize("n", range(1, 11))
def test_real_transforms_match_the_complex_formulation(n):
    s = cl._tables(n)
    to_spinor, from_spinor = _complex_transforms(n)
    rng = _rng(25 + n)
    for k in (1, n):
        u = (rng.standard_normal((k, 1 << n)) + 1j * rng.standard_normal((k, 1 << n))) / np.sqrt(2)
        gamma = s.to_spinor(u)
        # an arbitrary D x D stack too: both transforms are linear maps on all of it
        a = (rng.standard_normal(gamma.shape) + 1j * rng.standard_normal(gamma.shape)) / np.sqrt(2)
        for got, want, arg in (
            (gamma, to_spinor(u), u),
            (s.from_spinor(gamma), from_spinor(gamma), gamma),
            (s.from_spinor(a), from_spinor(a), a),
        ):
            assert got.shape == want.shape
            assert np.abs(got - want).max() <= 4 * s.d * np.finfo(float).eps * np.abs(arg).max()
        assert np.abs(s.from_spinor(gamma) - u).max() <= 1e-14 * np.abs(u).max()


@pytest.mark.parametrize("n", range(1, 11))
def test_spinor_generator_images_square_to_one_and_anticommute(n):
    s = cl._tables(n)
    z = s.to_spinor(np.eye(1 << n, dtype=complex)[1 << np.arange(n)])
    eye = np.eye(s.d)
    for i in range(n):
        for j in range(n):
            assert np.array_equal(z[i] @ z[j] + z[j] @ z[i], 2.0 * eye if i == j else 0 * eye)


def test_coefficients_freeze_once_an_element_has_an_image():
    rng = _rng(23)
    n = 5
    u, v = random_element(n, rng), random_element(n, rng)
    uv = u * v
    for x in (u, v, uv, cl.spin_exp(cl.random_bivector(n, rng)).value):
        with pytest.raises(ValueError):
            x.coeffs[0] = 1.0
    # a fresh element is filled in place and then multiplied, as if built filled
    filled = cl.CliffordElement(n)
    filled.coeffs[[0, 3, 17]] = [1.0, 2j, -0.5]
    filled.coeffs *= 2.0
    want = np.zeros(1 << n, dtype=complex)
    want[[0, 3, 17]] = [2.0, 4j, -1.0]
    assert np.array_equal((filled * u).coeffs, (cl.CliffordElement(n, want) * u).coeffs)


@pytest.mark.parametrize("n", [8, 10])
def test_spin_chain_maps_each_operand_once(monkeypatch, n):
    # kept images; a round trip through coefficients per product would map
    # 8n+3 rows forward and 4n+2 back
    tables = cl._Tables
    to_spinor, from_spinor, mul, alpha = tables.to_spinor, tables.from_spinor, cl.clifford_mul, cl.alpha
    rows = {"to": 0, "from": 0, "mul": 0, "alpha": 0}

    def count_to(self, coeffs):
        rows["to"] += len(coeffs)
        return to_spinor(self, coeffs)

    def count_from(self, gamma):
        rows["from"] += len(gamma)
        return from_spinor(self, gamma)

    def count_mul(u, v):
        rows["mul"] += 1
        return mul(u, v)

    def count_alpha(u):
        rows["alpha"] += 1
        return alpha(u)

    monkeypatch.setattr(tables, "to_spinor", count_to)
    monkeypatch.setattr(tables, "from_spinor", count_from)
    monkeypatch.setattr(cl, "clifford_mul", count_mul)
    monkeypatch.setattr(cl, "alpha", count_alpha)
    g = cl.spin_exp(cl.random_bivector(n, _rng(24)))
    t = cl.vector_action(g)
    assert np.linalg.norm(t.T @ t - np.eye(n)) < 1e-10
    assert rows["mul"] == 4 * n + 1
    assert rows["to"] <= 2 * n + 3
    assert rows["from"] <= 2 * n + 2
    # validation keeps alpha(g) for vector_action
    assert rows["alpha"] == 1
    # -g keeps alpha(-g) = -alpha(g), exact since negation commutes with the
    # sign flips, so its action forms no alpha of its own
    neg = -g
    t_neg = cl.vector_action(neg)
    assert rows["alpha"] == 1
    assert np.array_equal(t_neg, cl._twisted_images(neg.value, alpha(neg.value)))
    # -g starts from g's coefficients, one round trip from g's exponential image
    assert np.abs(t_neg - t).max() <= 1e-12


def _loop_twisted_images(g, ag):
    """g z_j ag one generator at a time, each read back by its own from_spinor
    row: the columns and, if one leaves V, the first residual above threshold."""
    n = g.n
    threshold = cl.SPIN_TOL * max(1.0, g.norm()) ** 2
    gens = cl._tables(n).to_spinor(np.eye(1 << n)[1 << np.arange(n)])
    t = np.empty((n, n), dtype=complex)
    for j in range(n):
        w = g * cl.CliffordElement._of_image(n, gens[j]) * ag
        resid = (w - w.grade(1)).norm()
        if resid > threshold:
            return t, resid, threshold
        t[:, j] = w.vector_part()
    return t, None, threshold


@pytest.mark.parametrize("n", range(2, 11))
def test_batched_twisted_images_match_the_loop(n):
    g = cl.spin_exp(cl.random_bivector(n, _rng(26 + n)))
    want, resid, _ = _loop_twisted_images(g.value, cl.alpha(g.value))
    assert resid is None
    assert np.array_equal(cl.vector_action(g), want)


@pytest.mark.parametrize(
    "n, mask",
    [
        # the volume rotor that trips _twisted_images in test_thresholds.py
        (6, 0b111111),
        # a degree-6 rotor at n = 8: z_1 and z_2 commute with it and stay in V
        (8, 0b11111100),
    ],
)
def test_batched_twisted_images_raise_the_first_failing_residual(n, mask):
    g = cl.scalar(n, np.cos(0.3)) + cl.basis_blade(n, mask) * np.sin(0.3)
    _, resid, threshold = _loop_twisted_images(g, cl.alpha(g))
    with pytest.raises(NotInSpin, match="twisted conjugation leaves V") as err:
        cl.SpinElement(g)
    assert err.value.value == resid and err.value.threshold == threshold


def test_dimension_mismatch_rejected():
    # one check, in _coerce, serves every binary operation with one type and message
    ops = [cl.clifford_mul, cl.exterior_mul, cl.pairing, lambda u, v: u * v, lambda u, v: u ^ v, lambda u, v: u + v]
    for op in ops:
        with pytest.raises(DimensionMismatch, match=r"mixing algebras over C\^2 and C\^3"):
            op(cl.basis_blade(2, 0b1), cl.basis_blade(3, 0b1))


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
    z1, z2 = cl.basis_blade(2, 0b1), cl.basis_blade(2, 0b10)
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
        cl.spin_exp(cl.basis_blade(3, 0b1))


@settings(derandomize=True, database=None, max_examples=40, deadline=None)
@given(n=st.integers(1, 8), log_scale=st.floats(-6.0, np.log10(20.0)), seed=st.integers(0, 2**32 - 1))
def test_spin_exp_matches_dense_exponential(n, log_scale, seed):
    u = 10.0**log_scale * cl.random_bivector(n, _rng(seed))
    dense = scipy.linalg.expm(cl.gamma_matrix(u))[:, 0]
    got = cl.spin_exp(u).value.coeffs
    assert np.abs(got - dense).max() <= 1e-12 * np.abs(dense).max()


@pytest.mark.parametrize("n", range(2, 11))
def test_spin_exp_of_commuting_planes_is_a_product_of_rotations(n):
    # u = sum_k theta_k z_{2k-1} z_{2k} is a sum of commuting planes, each with
    # (z_{2k-1} z_{2k})^2 = -1, so exp(u) = prod_k (cos theta_k + sin theta_k z_{2k-1} z_{2k})
    # and blade S (a union of planes) has coefficient prod_{k in S} sin theta_k
    # prod_{k not in S} cos theta_k; angles up to ~3 make matrix_exp square several times
    theta = np.linspace(3.1, 0.4, n // 2) * (-1.0) ** np.arange(n // 2)
    planes = [3 << (2 * k) for k in range(n // 2)]
    u = cl.CliffordElement(n)
    u.coeffs[planes] = theta
    want = np.zeros(1 << n)
    for chosen in range(1 << (n // 2)):
        bits = (chosen >> np.arange(n // 2)) & 1
        mask = sum(p for p, b in zip(planes, bits) if b)
        want[mask] = np.prod(np.where(bits, np.sin(theta), np.cos(theta)))
    assert np.abs(cl.spin_exp(u).value.coeffs - want).max() <= 1e-13


@pytest.mark.parametrize("n", [2, 3, 5])
def test_spin_exp_on_singular_set_of_closed_form(n):
    # exp(theta z1 z2) = cos(theta) + sin(theta) z1 z2; at theta = pi/2 it acts
    # on V as a half turn, where 1 + T is singular and the closed form has no
    # answer; at n = 2, 1 + T is a tiny multiple of a rotation (condition number 1)
    th = np.pi / 2
    g = cl.spin_exp(th * cl.basis_blade(n, 0b11))
    want = np.cos(th) * cl.scalar(n, 1.0) + np.sin(th) * cl.basis_blade(n, 0b11)
    assert np.abs(g.value.coeffs - want.coeffs).max() <= 1e-14
    t = cl.vector_action(g)
    assert abs(np.linalg.det(np.eye(n) + t)) <= 1e-14
    with pytest.raises(SingularShift):
        cl.cayley_gamma(t)


def test_spin_exp_n10_against_rotation_oracles():
    n = 10
    u = cl.random_bivector(n, _rng(19))
    g = cl.spin_exp(u)
    rot = linalg.matrix_exp(cl.tau(u))
    assert np.linalg.norm(cl.vector_action(g) - rot) <= 1e-10 * np.linalg.norm(rot)
    rhs = np.linalg.det(np.eye(n) + rot) / 2**n
    assert abs(cl.spin_scalar(g) ** 2 - rhs) <= 1e-10 * (1 + abs(rhs))


def test_spin_exp_builds_no_dense_matrix(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("the spin chain must not build a 2^n x 2^n matrix")

    # the exponential runs on the spinor image: D x D with D = 32 at n = 10
    d, matrix_exp = cl._tables(10).d, linalg.matrix_exp

    def spinor_exp(a):
        if np.shape(a)[0] > d:
            refuse()
        return matrix_exp(a)

    monkeypatch.setattr(cl, "_regular", refuse)
    monkeypatch.setattr(cl, "gamma_matrix", refuse)
    monkeypatch.setattr(linalg, "matrix_exp", spinor_exp)
    g = cl.spin_exp(cl.random_bivector(10, _rng(20)))
    assert isinstance(g, cl.SpinElement)
    cl.SpinElement(g.value)
    t = cl.vector_action(g)
    assert np.linalg.norm(t.T @ t - np.eye(10)) < 1e-8


def test_exterior_products_and_lift_build_no_dense_matrix(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("only gamma_matrix may build a 2^n x 2^n matrix")

    monkeypatch.setattr(cl, "_regular", refuse)
    n = 10
    cl.CliffordElement(n)
    assert max(a.size for a in vars(cl._tables(n)).values() if isinstance(a, np.ndarray)) <= 1 << n
    rng = _rng(22)
    b, x = cl.random_bivector(n, rng), random_vector(n, rng)
    assert (b ^ b).grade(4).norm() > 0.0
    assert (x ^ b).grade(3).norm() > 0.0
    assert cl.iota(x, b).grade(1).norm() > 0.0
    assert cl.exterior_exp(b).grade(n).norm() > 0.0
    g = cl.spin_exp(b)
    plus, minus = _lifts(cl.vector_action(g))
    assert min((plus.value - g.value).norm(), (minus.value - g.value).norm()) <= 1e-10 * g.value.norm()


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
    bad = cl.scalar(3, 1.0) + 0.5 * cl.basis_blade(3, 0b1)
    with pytest.raises(NotInSpin):
        cl.SpinElement(bad)


def test_odd_degree_residue_is_the_norm_of_the_odd_part():
    # the odd part 0.1 z1 + 0.1 z1z2z3 has norm sqrt(0.02) ~ 0.141, not the
    # per-grade sum 0.1 + 0.1
    bad = cl.scalar(3, 1.0) + 0.1 * cl.basis_blade(3, 0b001) + 0.1 * cl.basis_blade(3, 0b111)
    with pytest.raises(NotInSpin, match="odd-degree residue") as exc:
        cl.SpinElement(bad)
    assert exc.value.value == pytest.approx(np.sqrt(0.02), rel=1e-15)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_non_finite_elements_rejected(bad):
    # the residual tests of SpinElement are all false for NaN
    with pytest.raises(NotInSpin):
        cl.SpinElement(cl.CliffordElement(2, [bad, 0, 0, 0]))
    payload = cl.scalar(2, 1.0).to_json()
    payload["coeffs_im"][3] = bad
    with pytest.raises(ValueError):
        cl.CliffordElement.from_json(payload)


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


@pytest.mark.parametrize("scale", [10.0**k for k in range(-12, 9)])
def test_tau_inv_skew_test_is_relative_to_scale(scale):
    with pytest.raises(NotSkew):
        cl.tau_inv(scale * np.eye(4))
    rng = _rng(12)
    for n in (2, 4, 7):
        m = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        s = scale * (m - m.T)
        assert np.linalg.norm(cl.tau(cl.tau_inv(s)) - s) <= 1e-15 * np.linalg.norm(s)


def test_tau_inv_of_zero_matrix_is_zero_bivector():
    assert not cl.tau_inv(np.zeros((4, 4))).coeffs.any()


@pytest.mark.parametrize("eps", [10.0**-k for k in range(4, 11)])
def test_closed_form_and_lift_near_identity(eps):
    # The Cayley image of a computed rotation near 1 is skew only up to the
    # rounding of the rotation's unit-size entries, not up to eps times it.
    rng = _rng(17)
    for n in (2, 4, 6, 8, 10):
        u = cl.random_bivector(n, rng)
        g = cl.spin_exp(u * (eps / u.norm()))
        t = cl.vector_action(g)
        closed = -2.0 * cl.spin_scalar(g) * cl.tau_inv(cl.cayley_gamma(t))
        assert (closed - cl.spin_cayley(g)).norm() <= 1e-13
        plus, minus = _lifts(t)
        assert min((plus.value - g.value).norm(), (minus.value - g.value).norm()) <= 1e-13


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


def test_cayley_stack_matches_cayley_gamma_row_by_row():
    # generic skew rows, -1 (1 + b = 0, condition number inf) and a half turn
    # short by 1e-10 (1 + b a tiny rotation of condition number 1, rejected by
    # the transform norm) in one stack: the mask is false exactly where
    # cayley_gamma raises, and no undefined row fails the others
    rng = _rng(21)
    eps = 1e-10
    half_turn = np.array([[np.cos(np.pi - eps), -np.sin(np.pi - eps)], [np.sin(np.pi - eps), np.cos(np.pi - eps)]])
    skew = [0.5 * (m - m.T) for m in linalg.complex_normal(rng, (4, 2, 2))]
    rows = [skew[0], -np.eye(2), skew[1], half_turn, skew[2], skew[3]]
    expected = {1: "condition number inf", 3: "transform norm"}
    out, defined, _, _ = cl._cayley_stack(np.array(rows, dtype=complex))
    assert defined.tolist() == [k not in expected for k in range(len(rows))]
    for k, b in enumerate(rows):
        if k in expected:
            with pytest.raises(SingularShift, match=expected[k]):
                cl.cayley_gamma(b)
        else:
            assert np.array_equal(out[k], cl.cayley_gamma(b))


def test_cayley_gamma_det_consistency_random():
    # 1 + b = a: SingularShift exactly when det a vanishes within tolerance
    rng = _rng(2)
    for trial in range(20):
        a = (rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))) / np.sqrt(2)
        if trial % 4 == 0:
            a[:, 0] = a[:, 1]  # force singularity
        det = linalg.determinant(a)
        try:
            cl.cayley_gamma(a - np.eye(6))
            solved = True
        except SingularShift:
            solved = False
        assert solved == (abs(det) > 1e-10)


def test_cayley_gamma_and_tau_inv_reject_non_finite_input():
    with pytest.raises(ValueError, match="non-finite"):
        cl.cayley_gamma(np.full((3, 3), np.nan))
    with pytest.raises(ValueError, match="non-finite"):
        cl.tau_inv(np.full((3, 3), np.inf))


# --- exterior exponential and the closed form -------------------------------------------


def test_exterior_exp_truncates():
    assert (cl.exterior_exp(cl.CliffordElement(2)) - cl.scalar(2, 1.0)).norm() == 0
    t = 0.8
    e = cl.exterior_exp(t * cl.basis_blade(2, 0b11))
    assert e.coeffs[0] == pytest.approx(1.0) and e.coeffs[3] == pytest.approx(t)


@pytest.mark.parametrize("n", range(3, 9))
def test_exterior_exp_matches_iterated_oracle_wedges(n):
    b = cl.random_bivector(n, _rng(30 + n))
    want = term = cl.scalar(n, 1.0).coeffs
    for k in range(1, n // 2 + 1):
        term = _oracle_mul(cl.CliffordElement(n, term), b, wedge=True) / k
        want = want + term
    assert np.abs(cl.exterior_exp(b).coeffs - want).max() <= 1e-13 * np.abs(want).max()


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
    plus, minus = _lifts(cl.vector_action(g))
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
