"""Clifford/exterior products, spin group, vector action and Cayley transform."""

import functools
import tracemalloc
import warnings

import numpy as np
import pytest
import scipy.linalg
from hypothesis import Phase, example, given, settings
from hypothesis import strategies as st

from cayleymap import clifford as cl
from cayleymap import linalg
from cayleymap.errors import DimensionMismatch, NotInSpin, NotSkew, SingularShift, raise_if


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
    # 8n+3 rows forward and 4n+2 back.  Every element of the chain has one
    # parity, so every row is a blocked one and none is D x D
    tables = cl._Tables
    mul, alpha = cl.clifford_mul, cl.alpha
    rows = {"to": 0, "from": 0, "twisted": 0, "dense": 0, "mul": 0, "alpha": 0}

    def count(name, dense, f):
        def counted(self, images, *parity):
            rows[name] += len(images)
            rows["dense"] += dense * len(images)
            return f(self, images, *parity)

        return counted

    # the twisted images are read off inverse_rows
    inverse_rows = tables.inverse_rows

    def count_inverse(self, images, parity):
        rows["from"] += len(images)
        rows["twisted"] += (parity == 1) * len(images)
        rows["dense"] += (parity is None) * len(images)
        return inverse_rows(self, images, parity)

    def count_mul(u, v):
        rows["mul"] += 1
        return mul(u, v)

    def count_alpha(u):
        rows["alpha"] += 1
        return alpha(u)

    for name, dense in (("spinor", True), ("blocks", False)):
        monkeypatch.setattr(tables, f"to_{name}", count("to", dense, getattr(tables, f"to_{name}")))
        monkeypatch.setattr(tables, f"from_{name}", count("from", dense, getattr(tables, f"from_{name}")))
    monkeypatch.setattr(tables, "inverse_rows", count_inverse)
    monkeypatch.setattr(cl, "clifford_mul", count_mul)
    monkeypatch.setattr(cl, "alpha", count_alpha)
    g = cl.spin_exp(cl.random_bivector(n, _rng(24)))
    t = cl.vector_action(g)
    assert np.linalg.norm(t.T @ t - np.eye(n)) < 1e-10
    assert rows["mul"] == 4 * n + 1
    assert rows["to"] <= 2 * n + 3
    # g's and g alpha(g)'s coefficients, then n twisted images in validation and n more in vector_action,
    # each one odd block row of inverse_rows
    assert rows["from"] == 2 * n + 2
    assert rows["twisted"] == 2 * n
    assert rows["dense"] == 0
    # validation keeps alpha(g) for vector_action
    assert rows["alpha"] == 1
    # -g keeps alpha(-g) = -alpha(g), exact since negation commutes with the
    # sign flips, so its action forms no alpha of its own
    neg = -g
    t_neg = cl.vector_action(neg)
    assert rows["alpha"] == 1
    assert np.array_equal(t_neg, cl._twisted_images(neg.value, alpha(neg.value), neg._threshold))
    # -g starts from g's coefficients, one round trip from g's exponential image
    assert np.abs(t_neg - t).max() <= 1e-12


def _loop_twisted_images(g, ag):
    """g z_j ag one generator at a time, each a D x D image as to_spinor forms it, so that every
    product is D x D, each read back by its own from_spinor row: the columns and, if one leaves V,
    the first residual above threshold."""
    n = g.n
    threshold = cl.SPIN_TOL * max(1.0, g.norm()) ** 2
    gens = _generator_rows(n)
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
    want, resid, threshold = _loop_twisted_images(g.value, cl.alpha(g.value))
    assert resid is None
    _assert_d_by_d_bits(cl.vector_action(g), want, n, threshold / cl.SPIN_TOL)


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


# --- the half-spin structure -------------------------------------------------------


def _crosses_parity(d):
    """The entries [r, c] of a D x D image whose basis indices r and c differ in parity."""
    r = np.arange(d)
    return (np.bitwise_count(r[:, None] ^ r[None, :]) & 1).astype(bool)


def _generator_rows(n):
    """The n generator images as to_spinor forms them from unit coefficient rows."""
    return cl._tables(n).to_spinor(np.eye(1 << n, dtype=complex)[1 << np.arange(n)])


def _generator_blocks(n):
    """The n generators' odd blocks as to_blocks forms them from unit coefficient rows."""
    return cl._tables(n).to_blocks(np.eye(1 << n, dtype=complex)[1 << np.arange(n)], 1)


def _full_read_back(g, ag):
    """The coefficients of the n products g z_j ag, generators from to_spinor, so that every product
    is D x D, read back by from_spinor."""
    n = g.n
    with np.errstate(over="ignore", invalid="ignore"):
        images = [(g * cl.CliffordElement._of_image(n, z) * ag)._image() for z in _generator_rows(n)]
        return cl._tables(n).from_spinor(np.stack(images))


def _full_twisted_images(g, ag, threshold):
    """_twisted_images on _full_read_back: the columns, or the NotInSpin of the first generator
    whose image leaves V."""
    n, t = g.n, cl._tables(g.n)
    w = _full_read_back(g, ag)
    with np.errstate(over="ignore", invalid="ignore"):
        resid = linalg.norms(np.where(t.grades == 1, 0.0, w), axis=1)
    failed = ~(resid <= threshold)
    j = int(np.argmax(failed))
    raise_if(failed[j], NotInSpin, "twisted conjugation leaves V: residual", resid[j], threshold)
    return w[:, 1 << np.arange(n)].T.copy()


def _outcome(f, *args):
    """f(*args), or the refusal as type, message and the exact .value and .threshold it carries."""
    try:
        return f(*args)
    except Exception as err:
        return type(err), str(err), repr(getattr(err, "value", None)), repr(getattr(err, "threshold", None))


def _assert_d_by_d_bits(got, want, n, scale):
    """got, an outcome of the blocked products, is want, the same outcome of D x D products: bit for
    bit from D = 8 on, where both GEMMs sum each entry's nonzero terms in one order.  At D = 2 and 4
    numpy and OpenBLAS multiply the h x h blocks with other complex kernels than the D x D matrices
    (a 1 x 1 product goes to zdotu, and the 2 x 2 product rounds otherwise than the 4 x 4 one), so
    there two arrays agree to 4 D eps times scale, the size of the products' entries, capped at the
    largest float (NaN where the other is NaN); a refusal must be the same refusal at every D."""
    d = cl._tables(n).d
    if d <= 4 and isinstance(got, np.ndarray) and isinstance(want, np.ndarray):
        atol = 4 * d * np.finfo(float).eps * min(scale, np.finfo(float).max)
        assert got.shape == want.shape and np.allclose(got, want, rtol=0.0, atol=atol, equal_nan=True)
    else:
        assert (got.tobytes() if isinstance(got, np.ndarray) else got) == (
            want.tobytes() if isinstance(want, np.ndarray) else want
        )


@pytest.mark.parametrize("n", range(1, 11))
def test_generator_images_are_one_scatter_of_to_spinors_bits(n):
    # the scatter into odd blocks is to_blocks' bits, and those blocks scattered into D x D zeros are to_spinor's
    t = cl._tables(n)
    blocks = t.generator_blocks()
    assert blocks.tobytes() == _generator_blocks(n).tobytes()
    assert np.stack([t.expand(z, 1) for z in blocks]).tobytes() == _generator_rows(n).tobytes()


@pytest.mark.parametrize("n", range(1, 11))
def test_odd_read_back_is_from_spinors_bits_on_odd_images(n):
    # an arbitrary exactly odd stack, and an exactly even one: the coefficients of its parity bit for
    # bit, the others zeros with from_spinor's bits (zeros times its phases)
    t = cl._tables(n)
    rng = _rng(64 + n)
    shape = (n, t.d, t.d)
    for parity in (1, 0):
        a = (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) * 10.0 ** rng.integers(-8, 9, (n, 1, 1))
        a[:, _crosses_parity(t.d) != bool(parity)] = 0.0
        blocks = a.reshape(n, -1)[:, t.block_at[parity]]
        assert np.stack([t.expand(b, parity) for b in blocks]).tobytes() == a.tobytes()
        full, half = t.from_spinor(a), t.from_blocks(blocks, parity)
        assert half.tobytes() == full.tobytes()
        assert not half[:, t.blades[1 - parity]].any()


@pytest.mark.parametrize("n", range(1, 11))
def test_blocked_transforms_are_the_dense_transforms_bits(n):
    # coefficients of one parity, at scales 1e-8..1e8, their other parity +0 or -0: to_blocks'
    # blocks scattered into zeros are to_spinor's image, and from_blocks reads from_spinor's
    # coefficients back, bit for bit; an element keeps the form its coefficients ask for
    t = cl._tables(n)
    rng = _rng(71 + n)
    for parity in (0, 1):
        for zero in (0.0, -0.0):
            c = (rng.standard_normal((4, 1 << n)) + 1j * rng.standard_normal((4, 1 << n))) * 10.0 ** rng.integers(
                -8, 9, (4, 1)
            )
            c[:, t.blades[1 - parity]] = zero
            blocks, dense = t.to_blocks(c, parity), t.to_spinor(c)
            assert blocks.shape == (4, 2, t.d // 2, t.d // 2)
            assert np.stack([t.expand(b, parity) for b in blocks]).tobytes() == dense.tobytes()
            assert t.from_blocks(blocks, parity).tobytes() == t.from_spinor(dense).tobytes()
            u = cl.CliffordElement(n, c[0])
            image, kept = u._kept_image()
            assert kept == parity and image.tobytes() == blocks[0].tobytes()
            assert u._image().tobytes() == dense[0].tobytes()


def test_an_element_keeps_blocks_only_for_one_parity():
    # the zero element is even; one nonzero coefficient of each parity makes an element D x D
    rng = _rng(72)
    for n in range(1, 11):
        t = cl._tables(n)
        assert cl.CliffordElement(n)._kept_image()[1] == 0
        assert cl.basis_blade(n, 0b1)._kept_image()[1] == 1
        assert cl.scalar(n, 2.0)._kept_image()[1] == 0
        for u in (random_element(n, rng), cl.scalar(n, 1.0) + cl.basis_blade(n, 1 << (n - 1))):
            image, parity = u._kept_image()
            assert parity is None and image.shape == (t.d, t.d)
            assert image.tobytes() == t.to_spinor(u.coeffs[None])[0].tobytes()


def _parity_element(n, rng, parity):
    """A random element whose coefficients of the other parity are all 0."""
    u = random_element(n, rng)
    return cl.CliffordElement(n, np.where(cl._tables(n).grades & 1 == parity, u.coeffs, 0.0))


@pytest.mark.parametrize("n", range(1, 11))
def test_blocked_products_are_the_dense_products(n):
    # one batched matmul of the stacks, the right one reversed for an odd left factor: block b of the
    # product is block b of u times block b xor p of v, which the product keeps bit for bit, and
    # which is the D x D product of the two scattered images (_assert_d_by_d_bits)
    t = cl._tables(n)
    rng = _rng(73 + n)
    for p in (0, 1):
        for q in (0, 1):
            u, v = _parity_element(n, rng, p), _parity_element(n, rng, q)
            a, b = u._kept_image()[0], v._kept_image()[0]
            image, parity = cl.clifford_mul(u, v)._kept_image()
            assert parity == p ^ q
            assert image.tobytes() == np.stack([a[k] @ b[k ^ p] for k in (0, 1)]).tobytes()
            scale = np.abs(u._image()).max() * np.abs(v._image()).max()
            _assert_d_by_d_bits(t.expand(image, parity), u._image() @ v._image(), n, scale)
            # the product's coefficients against the regular representation's
            want = cl.gamma_matrix(u) @ v.coeffs
            assert np.abs(cl.clifford_mul(u, v).coeffs - want).max() <= 1e-13 * np.abs(want).max()


@pytest.mark.parametrize("n", range(1, 11))
def test_a_product_with_a_dense_operand_is_dense(n):
    # the blocked operand's image is scattered into zeros first: the D x D product of the two images
    rng = _rng(74 + n)
    for p in (0, 1):
        u, w = _parity_element(n, rng, p), random_element(n, rng)
        for x, y in ((u, w), (w, u)):
            image, parity = cl.clifford_mul(x, y)._kept_image()
            assert parity is None
            assert image.tobytes() == (x._image() @ y._image()).tobytes()


@pytest.mark.parametrize("n", range(1, 11))
def test_parity_is_inherited_through_chains_of_products(n):
    # a product's parity is the xor of its factors'; its coefficients of the other parity read back
    # as exact zeros, and the chain agrees with the chain of D x D products
    rng = _rng(75 + n)
    parities = rng.integers(0, 2, 6)
    factors = [_parity_element(n, rng, int(p)) for p in parities]
    chain, dense = factors[0], factors[0]._image()
    for k, f in enumerate(factors[1:], start=1):
        chain, dense = chain * f, dense @ f._image()
        want = int(np.bitwise_xor.reduce(parities[: k + 1]))
        assert chain._kept_image()[1] == want
        c = chain.coeffs
        assert not c[cl._tables(n).blades[1 - want]].any()
        assert np.abs(chain._image() - dense).max() <= 1e-12 * np.abs(dense).max()


@pytest.mark.parametrize("n", range(2, 11))
def test_spin_exp_of_an_exact_bivector_stays_on_the_half_spin_blocks(n):
    # Gamma(u) of an exact bivector is two half-spin blocks, and so is its exponential:
    # exactly nothing between the parity classes, and within rounding of the D x D one
    u = cl.random_bivector(n, _rng(65 + n)) * 2.0
    g = cl.spin_exp(u).value
    blocks, parity = g._kept_image()
    assert parity == 0 and blocks.tobytes() == linalg.matrix_exp(u._kept_image()[0]).tobytes()
    image = g._image()
    assert not image[_crosses_parity(image.shape[0])].any()
    dense = linalg.matrix_exp(u._image())
    assert np.abs(image - dense).max() <= 1e-13 * np.abs(dense).max()


@pytest.mark.parametrize("n", range(2, 11))
def test_spin_exp_with_odd_noise_below_the_degree_tolerance_is_the_dense_exponential(n):
    b = cl.random_bivector(n, _rng(66 + n))
    u = b + cl.basis_blade(n, 0b1) * (1e-3 * cl.DEGREE_TOL * b.norm())
    g = cl.spin_exp(u)
    assert g.value._image().tobytes() == linalg.matrix_exp(u._image()).tobytes()


def _read_back_residuals(g, ag):
    """The residuals as a full read-back gives them: the norms of the non-vector coefficients of the
    products g z_j ag, formed as _twisted_images forms them and mapped back to all 2^n coefficients."""
    n, t = g.n, cl._tables(g.n)
    with np.errstate(over="ignore", invalid="ignore"):
        kept = [(g * cl.CliffordElement._of_image(n, z, 1) * ag)._kept_image() for z in t.generator_blocks()]
        w = t.read_back(np.stack([image for image, _ in kept]), kept[0][1])
        return linalg.norms(np.where(t.grades == 1, 0.0, w), axis=1)


def _record_residuals(monkeypatch, n):
    """The list each row of residuals _twisted_images takes is appended to: the axis norms of its gathered
    entries, each D times its coefficient in modulus, over D."""
    norms, resids = linalg.norms, []

    def record(a, axis=None):
        out = norms(a, axis)
        if axis == 1:
            resids.append(out / cl._tables(n).d)
        return out

    monkeypatch.setattr(cl.linalg, "norms", record)
    return resids


def _assert_residuals(got, want):
    """The residuals of the gathered entries are the full read-back's within 2 eps relative: the same
    squares, exactly scaled by the phases' 1/D, summed in another order."""
    assert got.shape == want.shape
    assert np.all(np.abs(got - want) <= 2 * np.finfo(float).eps * want)


@pytest.mark.parametrize("n", range(2, 11))
def test_twisted_images_of_an_exactly_even_g_are_the_full_read_backs_bits(monkeypatch, n):
    g = cl.spin_exp(cl.random_bivector(n, _rng(67 + n)))
    want = _full_twisted_images(g.value, g._alpha, g._threshold)
    want_resid = _read_back_residuals(g.value, g._alpha)
    resids = _record_residuals(monkeypatch, n)
    inverse_rows = cl._Tables.inverse_rows

    def refuse(self, gamma):
        raise AssertionError("an exactly even g takes the odd read-back")

    def refuse_d_by_d(self, images, parity):
        if parity is None:
            refuse(self, images)
        return inverse_rows(self, images, parity)

    monkeypatch.setattr(cl._Tables, "inverse_rows", refuse_d_by_d)
    monkeypatch.setattr(cl._Tables, "from_spinor", refuse)
    _assert_d_by_d_bits(cl.vector_action(g), want, n, g._threshold / cl.SPIN_TOL)
    assert len(resids) == 1
    _assert_residuals(resids[0], want_resid)


@pytest.mark.parametrize("n", [3, 5, 7, 9])
def test_twisted_residuals_at_odd_n_leave_out_the_padded_blades(monkeypatch, n):
    # odd n runs in Cl_{n+1}, whose blades outside Cl_n carry the products' rounding; the residual reads Cl_n
    # alone, on the odd blocks of an exactly even g and on the D x D products of a g with an odd residue
    g0 = cl.spin_exp(cl.random_bivector(n, _rng(71 + n))).value
    for g in (cl.SpinElement(g0), cl.SpinElement(g0 + cl.basis_blade(n, 0b1) * (1e-3 * cl.DEGREE_TOL * g0.norm()))):
        want = _read_back_residuals(g.value, g._alpha)
        assert (want > 0).all()
        with monkeypatch.context() as m:
            resids = _record_residuals(m, n)
            cl.vector_action(g)
        assert len(resids) == 1
        _assert_residuals(resids[0], want)


def test_vector_action_at_n_10_forms_no_coefficient_stack():
    # the twisted images are read off the inverse transform's rows, so no (10, 2^10) complex array
    # (160 KiB, above glibc's 128 KiB mmap threshold) is formed: the peak stays below two of them
    g = cl.spin_exp(cl.random_bivector(10, _rng(72)))
    cl.vector_action(g)
    tracemalloc.start()
    try:
        cl.vector_action(g)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2 * 10 * (1 << 10) * 16


@pytest.mark.parametrize("n", range(2, 11))
def test_twisted_images_of_g_with_odd_residue_take_the_full_read_back(monkeypatch, n):
    g0 = cl.spin_exp(cl.random_bivector(n, _rng(68 + n))).value
    noisy = g0 + cl.basis_blade(n, 0b1) * (1e-3 * cl.DEGREE_TOL * g0.norm())
    g = cl.SpinElement(noisy)
    want = _full_twisted_images(g.value, g._alpha, g._threshold)
    inverse_rows = cl._Tables.inverse_rows

    def refuse(self, blocks, parity):
        raise AssertionError("g with an odd residue takes the full read-back")

    def refuse_blocks(self, images, parity):
        if parity is not None:
            refuse(self, images, parity)
        return inverse_rows(self, images, parity)

    monkeypatch.setattr(cl._Tables, "from_blocks", refuse)
    monkeypatch.setattr(cl._Tables, "inverse_rows", refuse_blocks)
    assert cl.vector_action(g).tobytes() == want.tobytes()


def _refused_twisted_cases(n):
    """(g, alpha(g), threshold) that pass and that fail twisted conjugation, exactly even and not."""
    rng = _rng(69 + n)
    g = cl.spin_exp(cl.random_bivector(n, rng)).value
    noise = cl.basis_blade(n, 0b1) * (1e-3 * cl.DEGREE_TOL * g.norm())
    # cos + sin z_I over the first n - n % 2 generators: exactly even, and it leaves V at n = 5, 6, 7, 9, 10
    rotor = cl.scalar(n, np.cos(0.3)) + cl.basis_blade(n, (1 << (n - n % 2)) - 1) * np.sin(0.3)
    cases = [g, -g, g + noise, rotor, rotor + noise, g * 1e150, g * 1e155]
    scales = [max(1.0, x.norm()) for x in cases]
    return [(x, cl.alpha(x), cl.SPIN_TOL * s * s) for x, s in zip(cases, scales)]


@pytest.mark.parametrize("n", range(2, 11))
def test_every_refusal_keeps_its_type_message_and_order(n):
    for g, ag, threshold in _refused_twisted_cases(n):
        got, want = _outcome(cl._twisted_images, g, ag, threshold), _outcome(_full_twisted_images, g, ag, threshold)
        _assert_d_by_d_bits(got, want, n, threshold / cl.SPIN_TOL)

    def exp_image(u):
        return cl.spin_exp(u).value._image()

    def dense_exp_image(u):
        # spin_exp by the D x D exponential alone
        cl._require_degree(u, 2, "spin_exp argument must be pure degree 2: residual")
        return cl.SpinElement(cl.CliffordElement._of_image(n, linalg.matrix_exp(u._image()))).value._image()

    # an odd part; a 1-norm that overflows; a NaN; products that overflow (exp(u) near 1e155), from n = 3
    b = cl.random_bivector(n, _rng(70 + n))
    nan = cl.CliffordElement(n, b.coeffs)
    nan.coeffs[0b11] = np.nan
    big = cl.CliffordElement(n)
    big.coeffs[0b011] = 345j
    if n >= 3:
        big.coeffs[0b101] = 0.3 * 345j
    for u in (b + cl.basis_blade(n, 0b1), b * 1e308, nan, big):
        got, want = _outcome(exp_image, u), _outcome(dense_exp_image, u)
        assert type(got) is type(want) and (type(got) is np.ndarray or got[:2] == want[:2])
    # at n = 2 the one plane's exponential, near 1e149, has products that stay finite, and it passes
    assert type(got) is (np.ndarray if n == 2 else tuple)


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


def _signed_zero_element(n, rng):
    """A random element with about half its real and imaginary parts set to +0.0 or -0.0."""
    u = random_element(n, rng)
    c = u.coeffs.copy()
    zeros = np.array([0.0, -0.0])
    for part in (c.real, c.imag):
        pick = rng.random(part.shape) < 0.5
        part[pick] = rng.choice(zeros, pick.sum())
    return cl.CliffordElement(n, c)


@pytest.mark.parametrize("n", range(1, 11))
def test_tables_hold_the_grade_signs_and_bivector_blades(n):
    # the per-n constants against their formulas, each array at most 2^n entries
    t = cl._tables(n)
    grades = [mask.bit_count() for mask in range(1 << n)]
    alpha_signs = np.array([(-1.0) ** (k * (k - 1) // 2) for k in grades])
    kappa_signs = np.array([(-1.0) ** k for k in grades])
    pairs = [(a, b) for a in range(n) for b in range(a + 1, n)]
    assert t.alpha_signs.view(np.uint64).tolist() == alpha_signs.view(np.uint64).tolist()
    assert t.kappa_signs.view(np.uint64).tolist() == kappa_signs.view(np.uint64).tolist()
    assert list(zip(*(p.tolist() for p in t.bivector_pairs))) == pairs
    assert t.bivector_masks.tolist() == [(1 << a) | (1 << b) for a, b in pairs]
    assert max(a.size for a in (t.alpha_signs, t.kappa_signs, *t.bivector_pairs, t.bivector_masks)) <= 1 << n


@pytest.mark.parametrize("n", range(1, 11))
def test_grade_involutions_match_their_formulas_bitwise(n):
    rng = _rng(200 + n)
    for u in (random_element(n, rng), _signed_zero_element(n, rng)):
        grades = [mask.bit_count() for mask in range(1 << n)]
        for got, signs in (
            (cl.alpha(u), np.array([(-1.0) ** (k * (k - 1) // 2) for k in grades])),
            (cl.kappa(u), np.array([(-1.0) ** k for k in grades])),
        ):
            assert got.coeffs.tobytes() == (signs * u.coeffs).tobytes()


@pytest.mark.parametrize("n", range(1, 11))
def test_random_bivector_draws_pair_by_pair_bitwise(n):
    # one (pairs, 2) draw, real part first, placed on the pairs (1,2), (1,3), ..., (n-1,n) in order
    drawn, rng = _rng(300 + n), _rng(300 + n)
    u = cl.random_bivector(n, drawn)
    draws = rng.standard_normal((n * (n - 1) // 2, 2))
    assert drawn.bit_generator.state == rng.bit_generator.state
    want = np.zeros(1 << n, dtype=complex)
    k = 0
    for a in range(n):
        for b in range(a + 1, n):
            want[(1 << a) | (1 << b)] = cl.BIVECTOR_SCALE * (draws[k, 0] + 1j * draws[k, 1]) / np.sqrt(2)
            k += 1
    assert u.coeffs.tobytes() == want.tobytes()


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
    # also where the squares of the coefficients underflow: the degree test reads no zero scale
    with pytest.raises(ValueError, match="spin_exp argument must be pure degree 2"):
        cl.spin_exp((cl.basis_blade(4, 0b11) + cl.basis_blade(4, 0b1)) * 1e-170)


@settings(derandomize=True, database=None, max_examples=40, deadline=None)
@given(n=st.integers(2, 6), log_scale=st.floats(-8.0, 8.0), seed=st.integers(0, 2**32 - 1))
@example(n=4, log_scale=-8.0, seed=0)
@example(n=4, log_scale=-170.0, seed=0)
@example(n=6, log_scale=-300.0, seed=1)
def test_degree_tests_refuse_an_odd_part_at_every_scale(n, log_scale, seed):
    # both bounds are DEGREE_TOL times the norm of the tested element, so an odd part of
    # 1e-3 relative is refused at every c: c (b + 1e-3 z_1) by spin_exp, c (g + 1e-3 z_1) by SpinElement
    c, b = 10.0**log_scale, cl.random_bivector(n, _rng(seed))
    odd = cl.basis_blade(n, 0b1) * 1e-3
    with pytest.raises(ValueError, match="spin_exp argument must be pure degree 2"):
        cl.spin_exp((b + odd) * c)
    with pytest.raises(NotInSpin, match="odd-degree residue"):
        cl.SpinElement((cl.spin_exp(b).value + odd) * c)


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
        if np.shape(a)[-1] > d:
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


def test_only_a_g_kept_otherwise_than_as_even_blocks_takes_the_odd_residue_norm(monkeypatch):
    # even blocks read back an exact 0 on every odd blade: validation takes |g| and |g alpha(g) - 1| alone
    n = 6
    g = cl.spin_exp(cl.random_bivector(n, _rng(73))).value
    bare = cl.CliffordElement(n, g.coeffs)
    norm, calls = linalg.norm, []
    monkeypatch.setattr(cl.linalg, "norm", lambda a: calls.append(1) or norm(a))
    cl.SpinElement(g)
    assert len(calls) == 2
    cl.SpinElement(bare)
    assert len(calls) == 5
    # an odd residue above DEGREE_TOL |g| is refused from bare coefficients and from a D x D image alike
    noisy = bare + cl.basis_blade(n, 0b1) * (2 * cl.DEGREE_TOL * bare.norm())
    for x in (noisy, noisy * cl.scalar(n, 1.0)):
        assert x._kept is None or x._kept[1] is None
        with pytest.raises(NotInSpin, match="odd-degree residue") as exc:
            cl.SpinElement(x)
        threshold = cl.DEGREE_TOL * x.norm()
        assert exc.value.value == abs(x.coeffs[0b1]) > threshold == exc.value.threshold


def test_spin_element_whose_threshold_overflows_is_refused_before_multiplying(monkeypatch):
    # one z1z2 coefficient of 1e300: SPIN_TOL |g|^2 is not finite, so no membership test can fail
    products = []
    monkeypatch.setattr(cl, "clifford_mul", lambda u, v: products.append(1))
    with pytest.raises(NotInSpin, match="membership threshold overflows") as exc:
        cl.SpinElement(cl.basis_blade(4, 0b11) * 1e300)
    assert exc.value.value == 1e300 and products == []


@pytest.mark.parametrize("n", [4, 7])
def test_spin_element_whose_products_overflow_is_refused(n):
    # exp(345i (z1z2 + 0.3 z1z3)) has norm ~1.9e156: its threshold is finite, but
    # g alpha(g) overflows, and it is refused by name, at |g|, not as a NaN residual
    u = cl.CliffordElement(n)
    u.coeffs[0b011], u.coeffs[0b101] = 345j, 0.3 * 345j
    with pytest.raises(NotInSpin, match=r"^g alpha\(g\) is not finite: it overflows at \|g\| 1\.90e\+156$"):
        cl.spin_exp(u)


def test_tau_inv_rejects_a_symmetric_matrix_whose_norm_overflows():
    # |s|^2 overflows: a threshold SKEW_TOL |s| from np.linalg.norm would be inf and pass a symmetric s
    with pytest.raises(NotSkew) as exc:
        cl.tau_inv(1e200 * np.ones((3, 3)))
    assert exc.value.value == pytest.approx(6e200, rel=1e-15)
    assert exc.value.threshold == pytest.approx(3e190, rel=1e-15)


def test_tau_inv_rejects_a_symmetric_matrix_whose_sum_overflows():
    # s + s^T and |s| both overflow at 1e308: the rule runs on s 2^-1023, so its threshold stays finite
    with pytest.raises(NotSkew) as exc:
        cl.tau_inv(1e308 * np.ones((2, 2)))
    assert exc.value.threshold == pytest.approx(2e298, rel=1e-15)
    # an exactly skew s at that scale passes, with its coefficients read off as they stand
    s = np.array([[0.0, 1.5e308], [-1.5e308, 0.0]])
    assert cl.tau_inv(s).coeffs[0b11] == 0.75e308


@pytest.mark.parametrize("scale", [1e-3, 1.0, 1.5, 3e5, 1e100])
def test_skew_rule_equals_its_formula_bit_for_bit(scale):
    # the power-of-two scaling inside require_skew is exact: value and threshold
    # are |s + s^T| and SKEW_TOL |s| + n ROUNDING_FLOOR as np.linalg.norm gives them
    rng = _rng(40)
    for n in (2, 5, 9):
        s = scale * (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
        with pytest.raises(NotSkew) as exc:
            cl.require_skew(s, "probe")
        assert exc.value.value == np.linalg.norm(s + s.T)
        assert exc.value.threshold == cl.SKEW_TOL * np.linalg.norm(s) + linalg.ROUNDING_FLOOR * n


def test_vector_action_reads_the_threshold_validation_kept(monkeypatch):
    # |g| is read once, by SpinElement's validation; -g copies its threshold
    g = cl.spin_exp(cl.random_bivector(5, _rng(41)))
    want = cl.vector_action(g)
    assert (-g)._threshold == g._threshold == cl.SPIN_TOL * max(1.0, g.value.norm()) ** 2
    reads = []
    monkeypatch.setattr(cl.CliffordElement, "norm", lambda u: reads.append(u) or 0.0)
    monkeypatch.setattr(cl.linalg, "norm", lambda a: reads.append(a) or 0.0)
    assert np.array_equal(cl.vector_action(g), want)
    # -g is built from g's coefficients, one round trip from g's exponential image
    assert np.abs(cl.vector_action(-g) - want).max() <= 1e-12
    assert reads == []


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


def test_cayley_gamma_condition_number_is_numpys():
    # near-singular 1 + b (condition numbers 1e10..1e15), 1 + b with a zero column and 1 + b = 0:
    # each refusal carries np.linalg.cond(1 + b) as its value, inf where the ratio is 0 / 0
    rng = _rng(27)
    rows = []
    for n in (2, 3, 4, 6):
        q1, q2 = (np.linalg.qr(linalg.complex_normal(rng, (n, n)))[0] for _ in range(2))
        for smallest in (1e-10, 1e-12, 1e-15):
            a = q1 @ np.diag(np.geomspace(1.0, smallest, n)) @ q2
            rows.append(a - np.eye(n))
        a = linalg.complex_normal(rng, (n, n))
        a[:, 0] = 0.0
        rows += [a - np.eye(n), -np.eye(n)]
    for b in rows:
        with pytest.raises(SingularShift, match="condition number") as info:
            cl.cayley_gamma(b)
        assert info.value.value == np.linalg.cond(np.eye(b.shape[0]) + b)
    assert info.value.value == np.inf
    # the empty matrix keeps np.linalg.cond's refusal
    with pytest.raises(np.linalg.LinAlgError, match="cond is not defined on empty arrays"):
        cl.cayley_gamma(np.zeros((0, 0)))


def test_cayley_gamma_refuses_exactly_the_singular_shifts():
    # generic skew rows, -1 (1 + b = 0, condition number inf) and a half turn
    # short by 1e-10 (1 + b a tiny rotation of condition number 1, rejected by
    # the transform norm): each refused row names the test it failed, and every
    # other row is (1 - b)(1 + b)^-1
    rng = _rng(21)
    eps = 1e-10
    half_turn = np.array([[np.cos(np.pi - eps), -np.sin(np.pi - eps)], [np.sin(np.pi - eps), np.cos(np.pi - eps)]])
    skew = [0.5 * (m - m.T) for m in linalg.complex_normal(rng, (4, 2, 2))]
    rows = [skew[0], -np.eye(2), skew[1], half_turn, skew[2], skew[3]]
    expected = {1: "condition number inf", 3: "transform norm"}
    for k, b in enumerate(rows):
        if k in expected:
            with pytest.raises(SingularShift, match=expected[k]):
                cl.cayley_gamma(b)
        else:
            want = (np.eye(2) - b) @ np.linalg.inv(np.eye(2) + b)
            assert np.linalg.norm(cl.cayley_gamma(b) - want) <= 1e-14 * np.linalg.norm(want)


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


def test_cayley_gamma_accepts_huge_finite_input_without_warnings():
    # |b| beyond ~1e154 overflows the transform-norm bound to inf; the transform, ~ -1, is kept
    rng = _rng(22)
    m = rng.standard_normal((4, 4))
    for b in (1e200 * np.array([[0.0, 1.0], [-1.0, 0.0]]), 1e200 * (m - m.T)):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out = cl.cayley_gamma(b)
        assert np.linalg.norm(out + np.eye(len(b))) < 1e-12


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
