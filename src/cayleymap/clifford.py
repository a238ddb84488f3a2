"""Clifford and exterior algebra over C^n with an orthonormal basis.

Multivectors have 2^n coefficients indexed by subset bitmask (bit i set
means the generator z_{i+1} occurs), with basis blades written in increasing
generator order, so z_I z_J = c_{I,J} z_{I xor J} with z_i^2 = 1 and
c_{I,J} = (-1)^{#{(i,j) in IxJ : i > j}}.

Every product goes through the spinor image.  Over C, Cl_{2m} is the matrix
algebra M_{2^m}(C) (Lounesto, Clifford Algebras and Spinors, ch. 16): the
Jordan-Wigner generators

    z_{2q+1} = Z..Z X 1..1,   z_{2q+2} = Z..Z Y 1..1   (q factors Z, q < m)

make every blade a phase times a Pauli string, z_I = w_I X^x Z^z, and u maps
to the D x D matrix Gamma(u) = sum_I u_I w_I X^x Z^z with D = 2^ceil(n/2);
odd n is embedded in Cl_{n+1}, whose product keeps Cl_n.  Gamma(u) is one
gather of u w into a (z, x) array, one product from the left with the real
+-1 Walsh-Hadamard matrix and one fixed gather, O(D^2) data and O(D^3)
flops; the inverse map is the same steps in reverse.  The Hadamard product
is one real GEMM on the float view of the complex array, whose interleaved
real and imaginary parts are 2D real columns.

Each generator flips the parity of the basis index c (popcount(x) of a
blade of grade k is k mod 2), so Cl^0 is End S+ + End S- and Cl^1 is
Hom(S+-, S-+) on the half-spin spaces of even and odd c (Lounesto, ch. 16):
in the half-spin order, block [p, b] of Gamma(u), h x h with h = D/2, maps
half b ^ p to half b, and the parity-p part of u has the blocks [p] alone.
A CliffordElement keeps its coefficients, its image as the slices [p] of
the parities its coefficients take, or both, each formed from the other on
first need (the class docstring has the rules); a slice is formed and read
back on the h masks x of its parity, an h-column Hadamard GEMM.  A product
Gamma(u v) = Gamma(u) Gamma(v) is one block formula, block b of parity r
summing over u's parities p block [p, b] of u times block [r xor p, b xor
p] of v, by basic slices: one batched matmul of 2 h^3 = D^3/4 flops for two
elements of one parity each, as all of the spin chain's are.  Coefficients
are mapped back only when read, so a chain of products maps each operand
forward once and each result back at most once; at odd n a kept image
carries the rounding on blades outside Cl_n into the next product, and the
inverse map drops it.  The spin group lies in the even algebra, and the
spin exponential is the package's one matrix exponential,
linalg.matrix_exp, on the two even blocks of a bivector: six products, one
solve and s squarings, s growing as log2 of the 1-norm of Gamma(u).

The wedge is a grade projection of the product and the vector wedge and
contraction are sums of two products (Dorst, Fontijne & Mann, Geometric
Algebra for Computer Science, 2007): A_p ^ B_q = <A_p B_q>_{p+q}, and for a
vector x, x ^ u = (x u + kappa(u) x)/2 and iota(x) u = (x u - kappa(u) x)/2.
Only gamma_matrix, the regular representation kept as an independent
reference for the product, builds a 2^n x 2^n array.
On top of that sit the grade involutions, the spin group (even elements g
with g alpha(g) = 1 whose twisted conjugation preserves V), its vector
action, the bivector/skew isomorphism, and the classical Cayley transform
b -> (1-b)(1+b)^{-1}; the lifts of a rotation T are composed from them,
+-sqrt(det(1 + T)) 2^(-n/2) exterior_exp(-2 tau_inv(cayley_gamma(T))).  Binary
operations take their second operand through _coerce (DimensionMismatch).

The twisted images g z_j alpha(g), which decide membership in the spin group
and give the rotation T(g), are read off the inverse transform before its
gather into blade order: each coefficient is one entry of the Hadamard
product times the phase w_I^*/D, of modulus 1/D, so T takes the n vector
entries times their phases and each residual is the norm of the other Cl_n
entries over D, with no (n, 2^n) coefficient array.
"""

from __future__ import annotations

import functools

import numpy as np

from . import linalg
from .errors import DimensionMismatch, NotInSpin, NotSkew, SingularShift, raise_if

# Desk scale (2^10 coefficients); the O(2^n + D^2) tables allow more once benchmarked.
MAX_N = 10
# Standard deviation of each coefficient of random_bivector.
BIVECTOR_SCALE = 0.4
# Relative residual allowed outside the required degree of an argument (even degrees for a spin element).
DEGREE_TOL = 1e-10
# Relative residual allowed in g alpha(g) = 1 and in g z_j alpha(g) lying in V.
SPIN_TOL = 1e-8
# Relative ||s + s^T|| allowed for a skew matrix s.
SKEW_TOL = 1e-10
# Largest norm of g whose membership threshold SPIN_TOL |g|^2 is finite (derived, reported on refusal).
_MAX_SPIN_NORM = float(np.sqrt(np.finfo(float).max) / np.sqrt(SPIN_TOL))


class _Tables:
    """Grades and the spinor image Gamma for fixed n, on m = ceil(n/2) qubits, D = 2^m, and the
    per-n constants of the grade involutions and of bivectors, formed once per n (_tables caches it).

    Blade z_I is w_I X^x Z^z with x, z bitmasks over the qubits.  The table
    grows one generator at a time, z_{I + 2^k} = z_I z_{k+1} for I < 2^k:
    with q, y = divmod(k, 2), z_{k+1} is Z on every qubit below q times X on
    qubit q (times Z there and the phase i when y = 1, as Y = i X Z), and
    Z^z X^(2^q) = (-1)^(bit q of z) X^(2^q) Z^z.  For odd n only the first
    2^n of the 4^m blades of Cl_{n+1} belong to Cl_n.

    Every transform holds its arrays in the transposed (z, x) layout, so the
    symmetric Hadamard matrix H acts from the left: H times the float view of
    each complex (D, h) slice, on the h masks x of one parity, is one real GEMM.
    """

    def __init__(self, n: int):
        self.grades = g = np.bitwise_count(np.arange(1 << n)).astype(np.int64)
        # the grade involutions' signs: alpha is (-1)^(k(k-1)/2) and kappa (-1)^k on grade k
        self.alpha_signs = np.where((g * (g - 1) // 2) & 1, -1.0, 1.0)
        self.kappa_signs = np.where(g & 1, -1.0, 1.0)
        # generator pairs a < b in np.triu_indices order and the masks of their bivectors z_{a+1} z_{b+1}
        self.bivector_pairs = a, b = np.triu_indices(n, 1)
        self.bivector_masks = (1 << a) | (1 << b)
        m = (n + 1) // 2
        d = 1 << m
        w = np.ones(1, dtype=complex)
        x = z = np.zeros(1, dtype=np.int64)
        for k in range(2 * m):
            q, y = divmod(k, 2)
            gx, gz = 1 << q, (1 << (q + y)) - 1
            w = np.concatenate([w, w * (1j if y else 1.0) * np.where(z & gx, -1.0, 1.0)])
            x, z = np.concatenate([x, x ^ gx]), np.concatenate([z, z ^ gz])
        self.d = d
        src = np.argsort(z * d + x)  # the blade at each position of the (z, x) array, phase 0 outside Cl_n
        kept = src < (1 << n)
        src, phase = np.where(kept, src, 0), np.where(kept, w[src], 0.0)
        self.unphase = np.conj(w[: 1 << n]) / d
        r = np.arange(d)
        self.hadamard = np.where(np.bitwise_count(r[:, None] & r[None, :]) & 1, -1.0, 1.0)
        # the half-spin order: halves[b] are the basis indices of parity b, rank[c] the place of c in its half;
        # block [p, b] of a kept stack is Gamma's rows halves[b] and columns halves[b ^ p]
        h = d // 2
        self.halves = halves = np.argsort(np.bitwise_count(r) & 1, kind="stable").reshape(2, h)
        rank = np.empty(d, dtype=np.int64)
        rank[halves] = np.arange(h)
        self.blades = np.flatnonzero(g & 1 == 0), np.flatnonzero(g & 1)
        rows, cols = halves[:, :, None], np.stack([halves, halves[::-1]])[:, :, None, :]
        # X^x Z^z has entry (-1)^{c . z} at [x xor c, c], so Gamma[row, col] is entry [col, row xor col] of H
        # times the (z, x) array, row xor col of parity p in block [p]: slice p of the forward transform
        # reads the (z, x) array on the h masks x of parity p and gathers its blocks from H times it;
        # slice p of the inverse one reads gamma[x xor c, c] at [c, x] back off them, by the inverse gather
        cells = r[:, None] * d + halves[:, None, :]
        block = cols * h + rank[rows ^ cols]
        bz, bx = np.divmod((z * d + x)[: 1 << n], d)
        self.forward, self.inverse = {}, {}
        # one table of each per set of parities an element's coefficients can take
        for parities in ((0,), (1,), (0, 1)):
            p, slot = list(parities), np.arange(len(parities))
            gather = block[p] + slot[:, None, None, None] * d * h
            self.forward[parities] = src[cells[p]], phase[cells[p]], gather[0] if len(p) == 1 else gather
            # the inverse gather is the forward one's inverse permutation, laid out as the inverse rows, (D,
            # len(parities) h): blade I at row z and at x's rank in its parity's slice
            gather = np.argsort(gather, axis=None).reshape(len(p), d, h).transpose(1, 0, 2).reshape(d, -1)
            blades = np.flatnonzero(np.isin(g & 1, p))
            at = bz * len(p) * h + (g & 1) * (len(p) - 1) * h + rank[bx]
            self.inverse[parities] = gather, blades, at[blades]
        # what _twisted_images reads off the rows of odd images: the vectors' entries and the other odd Cl_n blades'
        _, blades, at = self.inverse[(1,)]
        self.twisted_at = at[g[blades] == 1], at[g[blades] != 1]
        # the generators' images, odd signed permutations, from to_spinor of the n vector blades' unit rows: the
        # flat indices of each one's D entries in an (n, 2, h, h) stack of odd blocks, and their values
        images = self.to_spinor((np.arange(1 << n) == (1 << np.arange(n))[:, None]).astype(complex), (1,))
        self.generator_at = np.flatnonzero(images).reshape(n, d)
        self.generator_values = images.take(self.generator_at)

    def generator_blocks(self) -> np.ndarray:
        """The odd blocks of Gamma(z_1), ..., Gamma(z_n) as an (n, 2, h, h) stack: one scatter into zeros."""
        h = self.d // 2
        out = np.zeros((len(self.generator_at), 2, h, h), dtype=complex)
        out.put(self.generator_at, self.generator_values)
        return out

    def parity(self, coeffs: np.ndarray) -> tuple[int, ...]:
        """The parities the coefficients take: (0,) or (1,) where every one of the other parity is
        exactly 0, the zero element being even, and (0, 1) where both occur."""
        if not coeffs.take(self.blades[1]).any():
            return (0,)
        return (0, 1) if coeffs.take(self.blades[0]).any() else (1,)

    def to_spinor(self, coeffs: np.ndarray, parities: tuple[int, ...]) -> np.ndarray:
        """The kept images of the rows of the (k, 2^n) coefficients, whose coefficients of any other parity
        are taken as 0: (k, 2, h, h) for one parity, (k, 2, 2, h, h) for both.  Each slice is H times the
        (z, x) array on the h masks x of its parity, gathered into its blocks."""
        src, phase, gather = self.forward[parities]
        p = linalg.left_product(self.hadamard, (coeffs.take(src, axis=1) * phase).reshape(-1, self.d, self.d // 2))
        return p.reshape(len(coeffs), -1).take(gather, axis=1)

    def inverse_rows(self, images, parities: tuple[int, ...]) -> np.ndarray:
        """The inverse transform of k kept images of the given parities up to its gather into blade
        order: H times the (z, x) array read off each image, gathered straight into its row, with no
        stack of the images, (k, D, len(parities) h) on the h masks x of each parity.  Blade I's entry
        is D w_I times its coefficient, so of modulus D times it."""
        gather = self.inverse[parities][0]
        a = np.empty((len(images), *gather.shape), dtype=complex)
        for row, image in zip(a, images):
            # in-range indices: mode "clip" writes into row directly, where "raise" buffers the output
            image.take(gather, out=row, mode="clip")
        return linalg.left_product(self.hadamard, a)

    def from_spinor(self, images, parities: tuple[int, ...]) -> np.ndarray:
        """The (k, 2^n) coefficients of k kept images of the given parities: inverse_rows gathered into
        blade order and times the phases, with the blades of any other parity exact zeros times them."""
        _, blades, at = self.inverse[parities]
        out = np.zeros((len(images), len(self.unphase)), dtype=complex)
        out[:, blades] = self.inverse_rows(images, parities).reshape(len(images), -1).take(at, axis=1)
        out *= self.unphase
        return out


@functools.cache
def _tables(n: int) -> _Tables:
    if n < 1 or n > MAX_N:
        raise ValueError(f"n must be in 1..{MAX_N}, got {n}")
    return _Tables(n)


def _stack_product(a: np.ndarray, p: tuple[int, ...], b: np.ndarray, q: tuple[int, ...]):
    """(image, parities) of Gamma(u) Gamma(v) from the kept images a of parities p and b of parities q,
    over any leading axes, by basic slices alone: block k of parity r sums, over u's parities p_i, block
    [p_i, k] of a times block [r xor p_i, k xor p_i] of b.  A part of parity 1 reads b with its halves
    reversed, and its parity axis too where b has one.  An element of both parities gives the sum of its
    two parts where v has both too, and otherwise their stack in the order of the parities of the terms."""
    if len(p) == 2:
        even, odd = (_stack_product(a[..., i, :, :, :], (i,), b, q)[0] for i in (0, 1))
        return (even + odd, q) if len(q) == 2 else (np.stack([even, odd][:: 1 - 2 * q[0]], axis=-4), p)
    flip = 1 - 2 * p[0]
    if len(q) == 2:
        return a[..., None, :, :, :] @ b[..., ::flip, ::flip, :, :], q
    return a @ b[..., ::flip, :, :], (p[0] ^ q[0],)


class CliffordElement:
    """A multivector: its 2^n complex coefficients in bitmask blade order, its
    kept spinor image, or both.

    The kept image is Gamma's stack of h x h half-spin blocks, h = D/2, for
    the parities its coefficients take, kept beside them as (0,), (1,) or
    (0, 1): an element whose coefficients of one parity are all exactly 0
    (the zero element counts as even) keeps the (2, h, h) slice of that
    parity, any other element the (2, 2, h, h) stack of both.  Parities are
    read from exact zeros when the image is formed from coefficients, and a
    product's are the xors of its operands'.

    Built from coefficients, an element has no image until its first product
    (or spin_exp) forms it with one to_spinor row.  Made by a product or by
    spin_exp, it holds only its image until coeffs is first read, which
    costs one from_spinor row.  Each representation
    is kept once formed.  From the moment an element has an image, its
    coefficient array is read-only, so an in-place write raises ValueError
    instead of leaving Gamma stale; a fresh element can be filled in place
    until it is first multiplied.  Assigning coeffs replaces the coefficients
    and drops the image.

    Two threads making the first read of a missing representation at once may
    both compute it; each stores an equal array, so the race is idempotent.

    Supports + - and scalar scaling; u * v is the Clifford product and
    u ^ v the exterior (wedge) product.
    """

    __slots__ = ("n", "_coeffs", "_kept")

    def __init__(self, n: int, coeffs=None):
        _tables(n)
        self.n = n
        if coeffs is None:
            self._coeffs, self._kept = np.zeros(1 << n, dtype=complex), None
        else:
            self.coeffs = coeffs

    @classmethod
    def _of_image(cls, n: int, image: np.ndarray, parities: tuple[int, ...]) -> "CliffordElement":
        """The element whose kept image is image, the stack of the blocks of the given parities."""
        out = cls.__new__(cls)
        out.n, out._coeffs, out._kept = n, None, (image, parities)
        return out

    @property
    def coeffs(self) -> np.ndarray:
        if self._coeffs is None:
            c = _tables(self.n).from_spinor(self._kept[0][None], self._kept[1])[0]
            c.flags.writeable = False
            self._coeffs = c
        return self._coeffs

    @coeffs.setter
    def coeffs(self, value):
        # also the last step of `u.coeffs *= c`, which assigns back the array it scaled
        c = np.asarray(value, dtype=complex)
        if c.shape != (1 << self.n,):
            raise ValueError(f"expected {1 << self.n} coefficients, got {c.shape}")
        self._coeffs, self._kept = c.copy(), None

    def _kept_image(self) -> tuple[np.ndarray, tuple[int, ...]]:
        """(image, parities), the kept image; formed from the coefficients on first need, which freezes them."""
        if self._kept is None:
            c = self._coeffs
            c.flags.writeable = False
            t = _tables(self.n)
            parities = t.parity(c)
            self._kept = t.to_spinor(c[None], parities)[0], parities
        return self._kept

    # -- ring structure --------------------------------------------------

    def __add__(self, other):
        other = _coerce(self.n, other)
        return CliffordElement(self.n, self.coeffs + other.coeffs)

    __radd__ = __add__

    def __sub__(self, other):
        other = _coerce(self.n, other)
        return CliffordElement(self.n, self.coeffs - other.coeffs)

    def __rsub__(self, other):
        return _coerce(self.n, other) - self

    def __neg__(self):
        return CliffordElement(self.n, -self.coeffs)

    def __mul__(self, other):
        if isinstance(other, CliffordElement):
            return clifford_mul(self, other)
        return CliffordElement(self.n, self.coeffs * complex(other))

    def __rmul__(self, other):
        return CliffordElement(self.n, self.coeffs * complex(other))

    def __xor__(self, other):
        return exterior_mul(self, other)

    # -- views -----------------------------------------------------------

    def grade(self, k: int) -> "CliffordElement":
        t = _tables(self.n)
        out = np.where(t.grades == k, self.coeffs, 0.0)
        return CliffordElement(self.n, out)

    def scalar_part(self) -> complex:
        return complex(self.coeffs[0])

    def vector_part(self) -> np.ndarray:
        return self.coeffs[1 << np.arange(self.n)]

    def norm(self) -> float:
        return linalg.norm(self.coeffs)

    def to_json(self) -> dict:
        return {
            "n": self.n,
            "coeffs_re": self.coeffs.real.tolist(),
            "coeffs_im": self.coeffs.imag.tolist(),
        }

    @classmethod
    def from_json(cls, d: dict) -> "CliffordElement":
        n = linalg._json_size(d)
        re = np.asarray(d["coeffs_re"], dtype=float)
        im = np.asarray(d.get("coeffs_im", np.zeros_like(re)), dtype=float)
        if not (np.isfinite(re).all() and np.isfinite(im).all()):
            raise ValueError("Clifford coefficients contain non-finite entries")
        return cls(n, re + 1j * im)

    def __repr__(self) -> str:
        nz = int(np.sum(self.coeffs != 0))
        return f"CliffordElement(n={self.n}, nonzero={nz})"


def _coerce(n: int, x) -> CliffordElement:
    if isinstance(x, CliffordElement):
        if x.n != n:
            raise DimensionMismatch(f"mixing algebras over C^{n} and C^{x.n}")
        return x
    out = CliffordElement(n)
    out.coeffs[0] = complex(x)
    return out


def scalar(n: int, c=1.0) -> CliffordElement:
    return _coerce(n, c)


def basis_blade(n: int, mask: int) -> CliffordElement:
    out = CliffordElement(n)
    out.coeffs[mask] = 1.0
    return out


def from_vector(n: int, x) -> CliffordElement:
    x = np.asarray(x, dtype=complex)
    if x.shape != (n,):
        raise ValueError(f"expected vector of length {n}")
    out = CliffordElement(n)
    out.coeffs[1 << np.arange(n)] = x
    return out


def random_bivector(n: int, rng: np.random.Generator) -> CliffordElement:
    """Bivector with circular Gaussian coefficients (E|c|^2 = BIVECTOR_SCALE^2), drawn
    pair by pair in the order (1,2), (1,3), ..., (n-1,n), real part first, by one generator call."""
    masks = _tables(n).bivector_masks
    u = CliffordElement(n)
    u.coeffs[masks] = linalg._complex_from_parts(rng.standard_normal((masks.size, 2)).T, BIVECTOR_SCALE)
    return u


# --- products ------------------------------------------------------------


def clifford_mul(u: CliffordElement, v: CliffordElement) -> CliffordElement:
    """The Clifford product u v: the element whose image is Gamma(u) Gamma(v),
    _stack_product of the operands' kept images (an operand without one forms
    it first, freezing its coefficients).  Two operands of parities p and q
    give the blocks of parity p xor q, block b of u times block b xor p of v,
    one batched matmul of 2 h^3 = D^3/4 flops.  Its coefficients are one
    read-back row, formed when first read."""
    v = _coerce(u.n, v)
    a, p = u._kept_image()
    b, q = v._kept_image()
    image, parities = _stack_product(a, p, b, q)
    return CliffordElement._of_image(u.n, image, parities)


def exterior_mul(u: CliffordElement, v: CliffordElement) -> CliffordElement:
    """u ^ v = sum_r <sum_{p+q=r} u_p v_q>_r over the grade slices u_p, v_q;
    row r of total sums the spinor products of total grade r, the slices
    kept with both parities so that one stack holds them all."""
    v = _coerce(u.n, v)
    t = _tables(u.n)
    n1 = u.n + 1
    slices = t.grades == np.arange(n1)[:, None]
    both = (0, 1)
    gu, gv = np.split(t.to_spinor(np.concatenate([slices * u.coeffs, slices * v.coeffs]), both), 2)
    total = np.zeros_like(gu)
    for p in range(n1):
        total[p:] += _stack_product(gu[p], both, gv[: n1 - p], both)[0]
    return CliffordElement(u.n, t.from_spinor(total, both)[t.grades, np.arange(1 << u.n)])


# --- grade involutions and derivations ------------------------------------


def alpha(u: CliffordElement) -> CliffordElement:
    """Principal antiautomorphism: (-1)^(k(k-1)/2) on grade k."""
    return CliffordElement(u.n, _tables(u.n).alpha_signs * u.coeffs)


def kappa(u: CliffordElement) -> CliffordElement:
    """Parity automorphism: (-1)^k on grade k."""
    return CliffordElement(u.n, _tables(u.n).kappa_signs * u.coeffs)


def epsilon(x: CliffordElement, u: CliffordElement) -> CliffordElement:
    """Left wedge by the degree-1 element x: x ^ u = (x u + kappa(u) x) / 2."""
    x = _coerce(u.n, x)
    _require_degree(x, 1, "epsilon direction must be pure degree 1: residual")
    return 0.5 * (x * u + kappa(u) * x)


def iota(x: CliffordElement, u: CliffordElement) -> CliffordElement:
    """Contraction (x u - kappa(u) x) / 2 by the degree-1 element x: the transpose of
    epsilon(x), a degree -1 super-derivation with iota(x) y = (x, y) on vectors."""
    x = _coerce(u.n, x)
    _require_degree(x, 1, "iota direction must be pure degree 1: residual")
    return 0.5 * (x * u - kappa(u) * x)


def pairing(u: CliffordElement, v: CliffordElement) -> complex:
    """The bilinear (not Hermitian) pairing in which the blades z_I are orthonormal."""
    v = _coerce(u.n, v)
    return complex(np.sum(u.coeffs * v.coeffs))


def _require_degree(u: CliffordElement, k: int, what: str):
    """ValueError unless u is of pure degree k; what is the message head, naming the argument."""
    resid = linalg.norm(np.where(_tables(u.n).grades == k, 0.0, u.coeffs))
    threshold = DEGREE_TOL * u.norm()
    raise_if(resid > threshold, ValueError, what, resid, threshold)


# --- regular representation -------------------------------------------------


@functools.cache
def _regular(n: int) -> tuple[np.ndarray, np.ndarray]:
    """[K, J] = (K xor J, c_{K xor J, J}): 4^n tables, independent of the spinor image."""
    d = 1 << n
    idx = np.arange(d, dtype=np.int64)
    xor = idx[:, None] ^ idx[None, :]
    # c_{I,J} = (-1)^(number of i in I above an odd number of j in J);
    # bit i of below[J] is set when J has an odd number of bits under i
    below = np.zeros(d, dtype=np.int64)
    for k in range(1, n):
        below ^= idx << k
    parity = np.bitwise_count(xor & (below & (d - 1))[None, :]) & 1
    return xor, np.where(parity, -1.0, 1.0)


def gamma_matrix(u: CliffordElement) -> np.ndarray:
    """Matrix L(u)[K, J] = c_{K xor J, J} u[K xor J] of left Clifford multiplication by u."""
    xor, sign = _regular(u.n)
    return sign * u.coeffs[xor]


def volume_idempotents(n: int):
    """Volume element mu with mu^2 = 1 and the idempotents (1 +- mu)/2.

    mu = zeta * z_1...z_n with zeta = i^(n(n-1)/2), fixing one of the two
    valid global signs deterministically.
    """
    zeta = 1j ** ((n * (n - 1) // 2) % 4)
    mu = CliffordElement(n)
    mu.coeffs[-1] = zeta
    half = scalar(n, 0.5)
    e_plus = half + 0.5 * mu
    e_minus = half - 0.5 * mu
    return mu, e_plus, e_minus


# --- spin group --------------------------------------------------------------


class SpinElement:
    """Even Clifford element g with g alpha(g) = 1 preserving V under
    twisted conjugation x -> g x alpha(g).

    value is fixed at construction: the even part of the given g, whose odd
    residue must pass DEGREE_TOL |g|, so that it keeps its even blocks alone.
    Validation forms alpha(g), with its spinor image, and the threshold
    SPIN_TOL max(1, |g|)^2 once, and keeps both.  The coefficients of g and
    of g alpha(g) are read back on the even masks alone, and alpha(g), whose
    odd coefficients are then exact zeros, keeps even blocks too; a g made
    with even blocks, as spin_exp's results are, has no odd residue to
    measure.  A g alpha(g) or a g z_j alpha(g) that overflows (from |g| ~
    1e154) is refused by name, at |g|.
    """

    __slots__ = ("value", "_alpha", "_threshold")

    def __init__(self, value: CliffordElement):
        self.value = value
        self._validate()

    def _validate(self):
        g = self.value
        c = g.coeffs
        # the odd-degree test below is false for NaN
        if not np.isfinite(c).all():
            raise NotInSpin("coefficients contain non-finite entries")
        norm = g.norm()
        # even blocks read back an exact 0 on every odd blade, so only a g kept otherwise has an odd residue
        if g._kept is None or g._kept[1] != (0,):
            grades = _tables(g.n).grades
            odd = linalg.norm(np.where(grades & 1, c, 0.0))
            raise_if(odd > DEGREE_TOL * norm, NotInSpin, "odd-degree residue", odd, DEGREE_TOL * norm)
            # the even part, which keeps even blocks alone
            self.value = g = CliffordElement(g.n, np.where(grades & 1, 0.0, c))
        scale = max(1.0, norm)
        self._threshold = threshold = SPIN_TOL * scale * scale
        raise_if(threshold == np.inf, NotInSpin, "membership threshold overflows: norm", scale, _MAX_SPIN_NORM)
        self._alpha = ag = alpha(g)
        # g alpha(g) - 1, whose entries overflow from norms of ~1e154; its norm is finite just where they all are
        with np.errstate(over="ignore", invalid="ignore"):
            diff = (g * ag).coeffs.copy()
        diff[0] -= 1.0
        unit = linalg.norm(diff)
        if not np.isfinite(unit):
            raise NotInSpin(f"g alpha(g) is not finite: it overflows at |g| {norm:.2e}")
        raise_if(unit > threshold, NotInSpin, "g alpha(g) != 1: residual", unit, threshold)
        _twisted_images(g, ag, threshold)

    @property
    def n(self) -> int:
        return self.value.n

    def __neg__(self) -> "SpinElement":
        # negation commutes with alpha's sign flips and with the spinor
        # transforms, so alpha(-g) = -alpha(g) exactly and -g needs no check
        out = SpinElement.__new__(SpinElement)
        out.value, out._alpha, out._threshold = -self.value, -self._alpha, self._threshold
        return out

    def __repr__(self) -> str:
        return f"SpinElement(n={self.n})"


def spin_exp(u: CliffordElement) -> SpinElement:
    """Clifford exponential exp(u) of a bivector: the element whose image is
    linalg.matrix_exp of the spinor image Gamma(u).

    Gamma is an algebra isomorphism onto its image, so Gamma(exp(u)) =
    exp(Gamma(u)), and the Pade scaling and squaring of matrix_exp (Higham
    2005) applies to Gamma(u) as written.  A bivector is even, so Gamma(u)
    is its two h x h half-spin blocks, h = D/2, and so is its exponential,
    each block with its own squarings; of a u with odd noise, which the
    degree test bounds by DEGREE_TOL |u|, the even slice of its image is
    taken.  The cost is Gamma(u), unless u already holds it, plus one
    matrix_exp: six products, one solve and s = max(0, ceil(log2(
    ||Gamma(u)||_1 / linalg.PADE_THETA))) squarings, on the two blocks
    (2 h^3 = D^3/4 flops a product).  DegenerateInput, from matrix_exp,
    where the exponential overflows.
    """
    _require_degree(u, 2, "spin_exp argument must be pure degree 2: residual")
    gamma, parities = u._kept_image()
    even = gamma[0] if parities == (0, 1) else gamma
    return SpinElement(CliffordElement._of_image(u.n, linalg.matrix_exp(even), (0,)))


def _twisted_rows(g: CliffordElement, ag: CliffordElement) -> np.ndarray:
    """inverse_rows of the n odd products g z_j ag of the even g and ag, flat as (n, -1); the products are
    freed on return."""
    n, t = g.n, _tables(g.n)
    images = [(g * CliffordElement._of_image(n, z, (1,)) * ag)._kept_image()[0] for z in t.generator_blocks()]
    return t.inverse_rows(images, (1,)).reshape(n, -1)


def _twisted_images(g: CliffordElement, ag: CliffordElement, threshold: float) -> np.ndarray:
    """Columns g z_j ag, j = 1..n, as vectors, for g and ag that keep even blocks alone; NotInSpin where one
    is not finite, and otherwise for the first one that leaves V by more than threshold.

    g and ag keep their images across all 2n products, and the n generator
    images, odd signed permutations that the tables read off one to_spinor
    call per n, are one scatter into a zeroed (n, 2, h, h) stack of
    blocks.  The n product images, odd blocks, are read off
    one inverse_rows call of n rows on the odd masks, which stops before the
    gather into blade order: no (n, 2^n) array is formed.  Coefficient I is
    the row's entry times w_I^*/D, so the columns are the n vector entries
    times their phases, from_spinor's bits, and each residual is the norm of
    the row's other odd Cl_n entries over D, exact as every phase has
    modulus 1/D and D is a power of two.  At odd n the padded blades of
    Cl_{n+1} stay out of it.
    """
    n = g.n
    t = _tables(n)
    vectors, others = t.twisted_at
    # entries that overflow (from |g| ~ 1e154, where g alpha(g) may stay finite) are refused by name below
    with np.errstate(over="ignore", invalid="ignore"):
        rows = _twisted_rows(g, ag)
        columns = (rows.take(vectors, axis=1) * t.unphase[1 << np.arange(n)]).T.copy()
        # rebound, so that the full rows are freed before the norm's two temporaries of the residual entries' size
        rows = rows.take(others, axis=1)
        resid = linalg.norms(rows, axis=1) / t.d
    if not (np.isfinite(columns).all() and np.isfinite(resid).all()):
        raise NotInSpin(f"g z_j alpha(g) is not finite: it overflows at |g| {g.norm():.2e}")
    failed = resid > threshold
    j = int(np.argmax(failed))
    raise_if(failed[j], NotInSpin, "twisted conjugation leaves V: residual", resid[j], threshold)
    return columns


def vector_action(g: SpinElement) -> np.ndarray:
    """The rotation T(g) in SO(n): column j holds g z_j alpha(g)."""
    return _twisted_images(g.value, g._alpha, g._threshold)


def tau(u: CliffordElement) -> np.ndarray:
    """Skew matrix of the bivector u acting on V by x -> -2 iota(x) u."""
    _require_degree(u, 2, "tau argument must be pure degree 2: residual")
    t = _tables(u.n)
    a, b = t.bivector_pairs
    c = u.coeffs[t.bivector_masks]
    s = np.zeros((u.n, u.n), dtype=complex)
    s[a, b] = 2.0 * c
    s[b, a] = -2.0 * c
    return s


def require_skew(s: np.ndarray, what: str) -> None:
    """NotSkew, its message headed by what, when |s + s^T| > SKEW_TOL |s| + n linalg.ROUNDING_FLOOR
    for the finite n x n s: relative to s, plus a floor of a few ulps per row, as tau_inv's callers
    pass the Cayley image (1-t)(1+t)^{-1} of a computed rotation t, whose symmetric part is rounding
    of t's unit-size entries however small s is (up to 18 eps at n = 10 for t near 1).  The norms
    are of s 2^-e, 2^e the largest power of two up to its largest component (e >= 0), scaled back:
    exact, so no term overflows (|s + s^T| reads inf only above the largest float)."""
    shrink = min(1.0, float(linalg._shrink(s)))  # a Python float, as a norm over it overflows to inf with no warning
    r = s * shrink
    sym = linalg.norm(r + r.T) / shrink
    threshold = SKEW_TOL * linalg.norm(r) / shrink + linalg.ROUNDING_FLOOR * s.shape[0]
    raise_if(sym > threshold, NotSkew, what, sym, threshold)


def tau_inv(s: np.ndarray) -> CliffordElement:
    """Bivector with tau(u) = s, read off coefficientwise from the skew matrix.

    NotSkew where require_skew refuses s.  The zero matrix passes and gives
    the zero bivector; non-square or non-finite s raise ValueError.
    """
    s = linalg.as_square_matrix(s, "tau_inv argument")
    n = s.shape[0]
    require_skew(s, "matrix is not skew-symmetric: |s + s^T|")
    t = _tables(n)
    u = CliffordElement(n)
    u.coeffs[t.bivector_masks] = 0.5 * s[t.bivector_pairs]
    return u


def cayley_gamma(b: np.ndarray) -> np.ndarray:
    """Classical Cayley transform (1-b)(1+b)^{-1}; involutive where defined.

    Defined unless cond(1 + b) exceeds 1/linalg.RTOL or the transform exceeds
    (1 + |b|)/linalg.RTOL (the n = 2 half turn, where 1 + b is a tiny rotation
    of condition number 1); SingularShift names the test it failed.
    ValueError for non-square or non-finite b, and np.linalg.cond's
    LinAlgError for the empty one.
    """
    b = linalg.as_square_matrix(b, "cayley_gamma argument")
    if not b.size:
        raise np.linalg.LinAlgError("cond is not defined on empty arrays")
    eye = np.eye(b.shape[0])
    shift = eye + b
    # np.linalg.cond's rule on one SVD: sigma_max / sigma_min, with NaN (0 / 0 at 1 + b = 0) read as inf
    sigma = np.linalg.svd(shift, compute_uv=False)
    with np.errstate(divide="ignore", invalid="ignore"):
        cond = sigma[0] / sigma[-1]
    cond, max_cond = (np.inf if np.isnan(cond) else cond), 1.0 / linalg.RTOL
    raise_if(cond > max_cond, SingularShift, "1 + b is singular: condition number", cond, max_cond)
    out = linalg.solve_linear(shift, eye - b, "1 + b")
    norm, max_norm = linalg.norm(out), (1.0 + linalg.norm(b)) / linalg.RTOL
    raise_if(not norm <= max_norm, SingularShift, "1 + b is singular: transform norm", norm, max_norm)
    return out


def exterior_exp(u: CliffordElement) -> CliffordElement:
    """Exponential with respect to the (commutative on even grades) wedge product;
    the series terminates after n//2 wedge powers <term u>_{2k} / k of a bivector."""
    _require_degree(u, 2, "exterior_exp argument must be pure degree 2: residual")
    result = term = scalar(u.n, 1.0)
    for k in range(1, u.n // 2 + 1):
        term = (term * u).grade(2 * k) * (1.0 / k)
        result = result + term
    return result


def spin_cayley(g: SpinElement) -> CliffordElement:
    """Degree-2 part of the spin element: the trace-form projection of the
    spin representation lands on the bivector component."""
    return g.value.grade(2)


def spin_scalar(g: SpinElement) -> complex:
    """Degree-0 part; squares to det(1 + T(g)) / 2^n."""
    return g.value.scalar_part()
