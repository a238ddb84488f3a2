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
gather of u w into a D x D array by (z, x), one product from the left with
the real +-1 Walsh-Hadamard matrix and one fixed gather, O(D^2) data and
O(D^3) flops; the inverse map is the same steps in reverse.  The Hadamard
product is one real GEMM on the float view of the complex array, whose
interleaved real and imaginary parts are 2D real columns.

A CliffordElement holds its coefficients, its image Gamma, or both, each
formed from the other on first need and then kept (the class docstring has
the rules).  A product is one D x D matmul of the kept images, Gamma(u v) =
Gamma(u) Gamma(v), whose coefficients are mapped back only when read, so a
chain of products maps each operand forward once and each result back at
most once.  At odd n a kept image carries the rounding on blades outside
Cl_n into the next product; the inverse map drops it.  The spin
exponential is the package's one matrix exponential, Pade scaling and
squaring, on the image: Gamma(exp(u)) = linalg.matrix_exp(Gamma(u)), six
D x D products, one D x D solve and s squarings, s growing as log2 of the
1-norm of Gamma(u).  The wedge and the contraction are grade projections of
the product (Dorst, Fontijne & Mann, Geometric Algebra for Computer Science, 2007):
A_p ^ B_q = <A_p B_q>_{p+q}, and iota(x) u = (x u - kappa(u) x)/2 for a vector x.
Only gamma_matrix, the regular representation kept as an independent
reference for the product, builds a 2^n x 2^n array.
On top of that sit the grade involutions, the spin group (even elements g
with g alpha(g) = 1 whose twisted conjugation preserves V), its vector
action, the bivector/skew isomorphism, and the classical Cayley transform
b -> (1-b)(1+b)^{-1}; the lifts of a rotation T are composed from them,
+-sqrt(det(1 + T)) 2^(-n/2) exterior_exp(-2 tau_inv(cayley_gamma(T))).  Binary
operations take their second operand through _coerce (DimensionMismatch).
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


class _Tables:
    """Grades and the spinor image Gamma for fixed n, on m = ceil(n/2) qubits, D = 2^m.

    Blade z_I is w_I X^x Z^z with x, z bitmasks over the qubits.  The table
    grows one generator at a time, z_{I + 2^k} = z_I z_{k+1} for I < 2^k:
    with q, y = divmod(k, 2), z_{k+1} is Z on every qubit below q times X on
    qubit q (times Z there and the phase i when y = 1, as Y = i X Z), and
    Z^z X^(2^q) = (-1)^(bit q of z) X^(2^q) Z^z.  For odd n only the first
    2^n of the 4^m blades of Cl_{n+1} belong to Cl_n.

    Both transforms hold their D x D arrays in the transposed (z, x) layout,
    so the symmetric Hadamard matrix H acts from the left: H times the
    (D, 2D) float view of each complex row is one real GEMM.
    """

    def __init__(self, n: int):
        self.grades = np.bitwise_count(np.arange(1 << n)).astype(np.int64)
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
        # position of each blade in the (z, x) array, and the blade at each
        # position; positions of blades outside Cl_n get phase 0
        self.pos = (z * d + x)[: 1 << n]
        src = np.argsort(z * d + x)
        kept = src < (1 << n)
        self.src = np.where(kept, src, 0)
        self.phase = np.where(kept, w[src], 0.0)
        self.unphase = np.conj(w[: 1 << n]) / d
        r = np.arange(d)
        self.hadamard = np.where(np.bitwise_count(r[:, None] & r[None, :]) & 1, -1.0, 1.0)
        # X^x Z^z has entry (-1)^{c . z} at [x xor c, c], so Gamma[r, c] is
        # entry [c, r xor c] of H times the (z, x) array, and the array that
        # from_spinor transforms holds gamma[x xor c, c] at [c, x]
        xor = r[:, None] ^ r[None, :]
        self.to_gather = (r[None, :] * d + xor).ravel()
        self.from_gather = (xor * d + r[:, None]).ravel()

    def _hadamard_rows(self, a: np.ndarray) -> np.ndarray:
        """H a for each (D, D) complex row of the (k, D, D) a, as one real GEMM."""
        return linalg.left_product(self.hadamard, a)

    def to_spinor(self, coeffs: np.ndarray) -> np.ndarray:
        """Gamma(u) of each row of the (k, 2^n) coefficients, as (k, D, D)."""
        k, d = len(coeffs), self.d
        p = self._hadamard_rows((coeffs.take(self.src, axis=1) * self.phase).reshape(k, d, d))
        return p.reshape(k, d * d).take(self.to_gather, axis=1).reshape(k, d, d)

    def from_spinor(self, gamma: np.ndarray) -> np.ndarray:
        """The (k, 2^n) coefficients u with Gamma(u) = gamma, for (k, D, D) gamma in the image."""
        k, d = len(gamma), self.d
        p = self._hadamard_rows(gamma.reshape(k, d * d).take(self.from_gather, axis=1).reshape(k, d, d))
        return p.reshape(k, d * d).take(self.pos, axis=1) * self.unphase


@functools.cache
def _tables(n: int) -> _Tables:
    if n < 1 or n > MAX_N:
        raise ValueError(f"n must be in 1..{MAX_N}, got {n}")
    return _Tables(n)


class CliffordElement:
    """A multivector: its 2^n complex coefficients in bitmask blade order, its
    D x D spinor image Gamma, or both.

    Built from coefficients, an element has no image until its first product
    (or spin_exp) forms Gamma with one to_spinor row.  Made by a product or by
    spin_exp, it holds only its image until coeffs is first read, which costs
    one from_spinor row.  Each representation is kept once formed.  From the
    moment an element has an image, its coefficient array is read-only, so an
    in-place write raises ValueError instead of leaving Gamma stale; a fresh
    element can be filled in place until it is first multiplied.  Assigning
    coeffs replaces the coefficients and drops the image.

    Two threads making the first read of a missing representation at once may
    both compute it; each stores an equal array, so the race is idempotent.

    Supports + - and scalar scaling; u * v is the Clifford product and
    u ^ v the exterior (wedge) product.
    """

    __slots__ = ("n", "_coeffs", "_gamma")

    def __init__(self, n: int, coeffs=None):
        _tables(n)
        self.n = n
        if coeffs is None:
            self._coeffs, self._gamma = np.zeros(1 << n, dtype=complex), None
        else:
            self.coeffs = coeffs

    @classmethod
    def _of_image(cls, n: int, gamma: np.ndarray) -> "CliffordElement":
        """The element whose spinor image is gamma, kept as given."""
        out = cls.__new__(cls)
        out.n, out._coeffs, out._gamma = n, None, gamma
        return out

    @property
    def coeffs(self) -> np.ndarray:
        if self._coeffs is None:
            c = _tables(self.n).from_spinor(self._gamma[None])[0]
            c.flags.writeable = False
            self._coeffs = c
        return self._coeffs

    @coeffs.setter
    def coeffs(self, value):
        # also the last step of `u.coeffs *= c`, which assigns back the array it scaled
        c = np.asarray(value, dtype=complex)
        if c.shape != (1 << self.n,):
            raise ValueError(f"expected {1 << self.n} coefficients, got {c.shape}")
        self._coeffs, self._gamma = c.copy(), None

    def _image(self) -> np.ndarray:
        """Gamma of this element; formed from the coefficients on first need, which freezes them."""
        if self._gamma is None:
            self._coeffs.flags.writeable = False
            self._gamma = _tables(self.n).to_spinor(self._coeffs[None])[0]
        return self._gamma

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
        return float(np.linalg.norm(self.coeffs))

    def to_json(self) -> dict:
        return {
            "n": self.n,
            "coeffs_re": self.coeffs.real.tolist(),
            "coeffs_im": self.coeffs.imag.tolist(),
        }

    @classmethod
    def from_json(cls, d: dict) -> "CliffordElement":
        n = int(d["n"])
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
    pair by pair in the order (1,2), (1,3), ..., (n-1,n)."""
    u = CliffordElement(n)
    for a in range(n):
        for b in range(a + 1, n):
            u.coeffs[(1 << a) | (1 << b)] = linalg.complex_normal(rng, (), BIVECTOR_SCALE)
    return u


# --- products ------------------------------------------------------------


def clifford_mul(u: CliffordElement, v: CliffordElement) -> CliffordElement:
    """The Clifford product u v: the element whose image is Gamma(u) Gamma(v),
    one D x D matmul of the operands' kept images (an operand without one forms
    it first, freezing its coefficients).  Its coefficients are one from_spinor
    row, formed when first read."""
    v = _coerce(u.n, v)
    return CliffordElement._of_image(u.n, u._image() @ v._image())


def exterior_mul(u: CliffordElement, v: CliffordElement) -> CliffordElement:
    """u ^ v = sum_r <sum_{p+q=r} u_p v_q>_r over the grade slices u_p, v_q;
    row r of total sums the spinor products of total grade r."""
    v = _coerce(u.n, v)
    t = _tables(u.n)
    n1 = u.n + 1
    slices = t.grades == np.arange(n1)[:, None]
    gu, gv = np.split(t.to_spinor(np.concatenate([slices * u.coeffs, slices * v.coeffs])), 2)
    total = np.zeros_like(gu)
    for p in range(n1):
        total[p:] += gu[p] @ gv[: n1 - p]
    return CliffordElement(u.n, t.from_spinor(total)[t.grades, np.arange(1 << u.n)])


def _bivector_blades(n: int):
    """Generator pairs a < b in np.triu_indices order and the masks of z_{a+1} z_{b+1}."""
    a, b = np.triu_indices(n, 1)
    return a, b, (1 << a) | (1 << b)


# --- grade involutions and derivations ------------------------------------


def alpha(u: CliffordElement) -> CliffordElement:
    """Principal antiautomorphism: (-1)^(k(k-1)/2) on grade k."""
    t = _tables(u.n)
    k = t.grades
    signs = np.where((k * (k - 1) // 2) & 1, -1.0, 1.0)
    return CliffordElement(u.n, signs * u.coeffs)


def kappa(u: CliffordElement) -> CliffordElement:
    """Parity automorphism: (-1)^k on grade k."""
    t = _tables(u.n)
    signs = np.where(t.grades & 1, -1.0, 1.0)
    return CliffordElement(u.n, signs * u.coeffs)


def _vector_split(x: CliffordElement, u: CliffordElement, sign: float) -> CliffordElement:
    """(x u + sign kappa(u) x) / 2 for a vector x, in one spinor round trip."""
    t = _tables(u.n)
    gx, gu, gk = t.to_spinor(np.array([x.coeffs, u.coeffs, kappa(u).coeffs]))
    return CliffordElement(u.n, t.from_spinor((gx @ gu + sign * (gk @ gx))[None])[0] / 2)


def epsilon(x: CliffordElement, u: CliffordElement) -> CliffordElement:
    """Left wedge by the degree-1 element x: x ^ u = (x u + kappa(u) x) / 2."""
    x = _coerce(u.n, x)
    _require_degree(x, 1, "epsilon direction must be pure degree 1: residual")
    return _vector_split(x, u, 1.0)


def iota(x: CliffordElement, u: CliffordElement) -> CliffordElement:
    """Contraction (x u - kappa(u) x) / 2 by the degree-1 element x: the transpose of
    epsilon(x), a degree -1 super-derivation with iota(x) y = (x, y) on vectors."""
    x = _coerce(u.n, x)
    _require_degree(x, 1, "iota direction must be pure degree 1: residual")
    return _vector_split(x, u, -1.0)


def pairing(u: CliffordElement, v: CliffordElement) -> complex:
    """The bilinear (not Hermitian) pairing in which the blades z_I are orthonormal."""
    v = _coerce(u.n, v)
    return complex(np.sum(u.coeffs * v.coeffs))


def _require_degree(u: CliffordElement, k: int, what: str):
    """ValueError unless u is of pure degree k; what is the message head, naming the argument."""
    resid = np.linalg.norm(np.where(_tables(u.n).grades == k, 0.0, u.coeffs))
    threshold = DEGREE_TOL * max(1.0, u.norm())
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

    value is fixed at construction.  alpha(g), with its spinor image, is
    formed once, by validation, and kept.
    """

    __slots__ = ("value", "_alpha")

    def __init__(self, value: CliffordElement):
        self.value = value
        self._validate()

    def _validate(self):
        g = self.value
        c = g.coeffs
        # every residual test below is false for NaN
        if not np.isfinite(c).all():
            raise NotInSpin("coefficients contain non-finite entries")
        scale = max(1.0, g.norm())
        odd = np.linalg.norm(np.where(_tables(g.n).grades & 1, c, 0.0))
        raise_if(odd > DEGREE_TOL * scale, NotInSpin, "odd-degree residue", odd, DEGREE_TOL * scale)
        self._alpha = ag = alpha(g)
        # g alpha(g) - 1
        diff = (g * ag).coeffs.copy()
        diff[0] -= 1.0
        unit, threshold = np.linalg.norm(diff), SPIN_TOL * scale * scale
        raise_if(unit > threshold, NotInSpin, "g alpha(g) != 1: residual", unit, threshold)
        _twisted_images(g, ag)

    @property
    def n(self) -> int:
        return self.value.n

    def __neg__(self) -> "SpinElement":
        # negation commutes with alpha's sign flips and with the spinor
        # transforms, so alpha(-g) = -alpha(g) exactly and -g needs no check
        out = SpinElement.__new__(SpinElement)
        out.value, out._alpha = -self.value, -self._alpha
        return out

    def __repr__(self) -> str:
        return f"SpinElement(n={self.n})"


def spin_exp(u: CliffordElement) -> SpinElement:
    """Clifford exponential exp(u) of a bivector: the element whose image is
    linalg.matrix_exp of the D x D spinor image Gamma(u).

    Gamma is an algebra isomorphism onto its image, so Gamma(exp(u)) =
    exp(Gamma(u)), and the Pade scaling and squaring of matrix_exp (Higham
    2005) applies to Gamma(u) as written.  The cost is Gamma(u), unless u
    already holds it, plus one matrix_exp: six D x D products, one D x D solve
    and s = max(0, ceil(log2(||Gamma(u)||_1 / linalg.PADE_THETA))) squarings,
    each product D^3 = 2^(3n/2) flops for even n.
    """
    _require_degree(u, 2, "spin_exp argument must be pure degree 2: residual")
    return SpinElement(CliffordElement._of_image(u.n, linalg.matrix_exp(u._image())))


def _twisted_images(g: CliffordElement, ag: CliffordElement) -> np.ndarray:
    """Columns g z_j ag, j = 1..n, as vectors; NotInSpin for the first one that leaves V.

    g and ag keep their images across all 2n products, and the n generator
    images come from one to_spinor of n unit rows.  The n product images go
    back by one from_spinor of n rows: the residuals are the row norms of
    its non-vector coefficients, and the columns are its vector ones.
    """
    n = g.n
    t = _tables(n)
    threshold = SPIN_TOL * max(1.0, g.norm()) ** 2
    units = np.zeros((n, 1 << n))
    units[np.arange(n), 1 << np.arange(n)] = 1.0
    w = t.from_spinor(np.stack([(g * CliffordElement._of_image(n, z) * ag)._image() for z in t.to_spinor(units)]))
    resid = np.linalg.norm(np.where(t.grades == 1, 0.0, w), axis=1)
    j = int(np.argmax(resid > threshold))
    raise_if(resid[j] > threshold, NotInSpin, "twisted conjugation leaves V: residual", resid[j], threshold)
    return w[:, 1 << np.arange(n)].T.copy()


def vector_action(g: SpinElement) -> np.ndarray:
    """The rotation T(g) in SO(n): column j holds g z_j alpha(g)."""
    return _twisted_images(g.value, g._alpha)


def tau(u: CliffordElement) -> np.ndarray:
    """Skew matrix of the bivector u acting on V by x -> -2 iota(x) u."""
    _require_degree(u, 2, "tau argument must be pure degree 2: residual")
    a, b, masks = _bivector_blades(u.n)
    c = u.coeffs[masks]
    s = np.zeros((u.n, u.n), dtype=complex)
    s[a, b] = 2.0 * c
    s[b, a] = -2.0 * c
    return s


def tau_inv(s: np.ndarray) -> CliffordElement:
    """Bivector with tau(u) = s, read off coefficientwise from the skew matrix.

    NotSkew when ||s + s^T|| > SKEW_TOL ||s|| + n linalg.ROUNDING_FLOOR:
    relative to the scale of s, plus a floor of a few ulps per row.  The
    callers pass the Cayley image (1-t)(1+t)^{-1} of a computed rotation t,
    whose symmetric part is rounding of t's unit-size entries however small
    s is (up to 18 eps at n = 10 for t near 1); I at scale 1e-12 is still
    far above the floor.
    The zero matrix passes and gives the zero bivector; non-square or
    non-finite s raise ValueError.
    """
    s = linalg.as_square_matrix(s, "tau_inv argument")
    n = s.shape[0]
    sym, threshold = np.linalg.norm(s + s.T), SKEW_TOL * np.linalg.norm(s) + linalg.ROUNDING_FLOOR * n
    raise_if(sym > threshold, NotSkew, "matrix is not skew-symmetric: |s + s^T|", sym, threshold)
    a, b, masks = _bivector_blades(n)
    u = CliffordElement(n)
    u.coeffs[masks] = 0.5 * s[a, b]
    return u


def cayley_gamma(b: np.ndarray) -> np.ndarray:
    """Classical Cayley transform (1-b)(1+b)^{-1}; involutive where defined.

    Defined unless cond(1 + b) exceeds 1/linalg.RTOL or the transform exceeds
    (1 + |b|)/linalg.RTOL (the n = 2 half turn, where 1 + b is a tiny rotation
    of condition number 1); SingularShift names the test it failed.
    ValueError for non-square or non-finite b.
    """
    b = linalg.as_square_matrix(b, "cayley_gamma argument")
    eye = np.eye(b.shape[0])
    cond, max_cond = np.linalg.cond(eye + b), 1.0 / linalg.RTOL
    raise_if(cond > max_cond, SingularShift, "1 + b is singular: condition number", cond, max_cond)
    out = linalg.solve_linear(eye + b, eye - b, "1 + b")
    # |b| beyond ~1e154 overflows the bound to inf, which passes every finite transform: not warned
    with np.errstate(over="ignore"):
        norm, max_norm = np.linalg.norm(out), (1.0 + np.linalg.norm(b)) / linalg.RTOL
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
