"""Clifford and exterior algebra over C^n with an orthonormal basis.

Multivectors hold 2^n coefficients indexed by subset bitmask (bit i set
means the generator z_{i+1} occurs), with basis blades written in increasing
generator order.  Each blade acts by left multiplication as a signed
permutation of the blades,

    z_I z_J = c_{I,J} z_{I xor J},   c_{I,J} = (-1)^{#{(i,j) in IxJ : i > j}}

with z_i^2 = 1, so every product is one matrix built from a cached table per
n: left multiplication by u has L(u)[K, J] = c_{K xor J, J} u[K xor J], and
the wedge product keeps the entries with J a subset of K (disjoint blades).
On top of that sit the grade involutions, the contraction/wedge
derivations, the spin group (even elements g with g alpha(g) = 1 whose
twisted conjugation preserves V), its vector action, the bivector/skew
isomorphism, and the classical Cayley transform b -> (1-b)(1+b)^{-1}.
"""

from __future__ import annotations

import functools

import numpy as np

from . import linalg
from .errors import DimensionMismatch, NotInSpin, NotSkew, SingularMatrix, SingularShift

# Tables grow as 4^n; the library targets desk scale (2^10 coefficients).
MAX_N = 10


class _Tables:
    """Cached product structure for fixed n, indexed [K, J] like L(u):
    grades, xor = K xor J, sign = c_{K xor J, J}, and wedge = (J subset of K)."""

    def __init__(self, n: int):
        d = 1 << n
        idx = np.arange(d, dtype=np.int64)
        self.grades = np.bitwise_count(idx).astype(np.int64)
        self.xor = idx[:, None] ^ idx[None, :]
        # c_{I,J} = (-1)^(number of i in I above an odd number of j in J);
        # bit i of below[J] is set when J has an odd number of bits under i
        below = np.zeros(d, dtype=np.int64)
        for k in range(1, n):
            below ^= idx << k
        parity = np.bitwise_count(self.xor & (below & (d - 1))[None, :]) & 1
        self.sign = np.where(parity, -1.0, 1.0)
        self.wedge = (self.xor & idx[None, :]) == 0


@functools.cache
def _tables(n: int) -> _Tables:
    if n < 1 or n > MAX_N:
        raise ValueError(f"n must be in 1..{MAX_N}, got {n}")
    return _Tables(n)


def _left(u: CliffordElement, wedge: bool = False) -> np.ndarray:
    """Matrix of left Clifford (or, with wedge, exterior) multiplication by u."""
    t = _tables(u.n)
    m = u.coeffs[t.xor]
    np.multiply(t.sign, m, out=m)
    if wedge:
        np.copyto(m, 0.0, where=~t.wedge)
    return m


class CliffordElement:
    """2^n complex coefficients in bitmask blade order.

    Supports + - and scalar scaling; u * v is the Clifford product and
    u ^ v the exterior (wedge) product.
    """

    __slots__ = ("n", "coeffs")

    def __init__(self, n: int, coeffs=None):
        _tables(n)
        self.n = n
        if coeffs is None:
            self.coeffs = np.zeros(1 << n, dtype=complex)
        else:
            c = np.asarray(coeffs, dtype=complex)
            if c.shape != (1 << n,):
                raise ValueError(f"expected {1 << n} coefficients, got {c.shape}")
            self.coeffs = c.copy()

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
        return exterior_mul(self, _coerce(self.n, other))

    # -- views -----------------------------------------------------------

    def grade(self, k: int) -> "CliffordElement":
        t = _tables(self.n)
        out = np.where(t.grades == k, self.coeffs, 0.0)
        return CliffordElement(self.n, out)

    def scalar_part(self) -> complex:
        return complex(self.coeffs[0])

    def vector_part(self) -> np.ndarray:
        return np.array([self.coeffs[1 << i] for i in range(self.n)])

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


def basis_vector(n: int, i: int) -> CliffordElement:
    """The generator z_{i+1} (0-based index i)."""
    if not 0 <= i < n:
        raise ValueError(f"generator index {i} out of range for n={n}")
    out = CliffordElement(n)
    out.coeffs[1 << i] = 1.0
    return out


def basis_blade(n: int, mask: int) -> CliffordElement:
    out = CliffordElement(n)
    out.coeffs[mask] = 1.0
    return out


def from_vector(n: int, x) -> CliffordElement:
    x = np.asarray(x, dtype=complex)
    if x.shape != (n,):
        raise ValueError(f"expected vector of length {n}")
    out = CliffordElement(n)
    out.coeffs[[1 << i for i in range(n)]] = x
    return out


def random_bivector(n: int, rng: np.random.Generator, scale: float = 0.4) -> CliffordElement:
    """Bivector with circular Gaussian coefficients (E|c|^2 = scale^2), drawn
    pair by pair in the order (1,2), (1,3), ..., (n-1,n)."""
    u = CliffordElement(n)
    for a in range(n):
        for b in range(a + 1, n):
            u.coeffs[(1 << a) | (1 << b)] = linalg.complex_normal(rng, (), scale)
    return u


# --- products ------------------------------------------------------------


def clifford_mul(u: CliffordElement, v: CliffordElement) -> CliffordElement:
    if u.n != v.n:
        raise DimensionMismatch(f"mixing algebras over C^{u.n} and C^{v.n}")
    return CliffordElement(u.n, _left(u) @ v.coeffs)


def exterior_mul(u: CliffordElement, v: CliffordElement) -> CliffordElement:
    if u.n != v.n:
        raise DimensionMismatch(f"mixing algebras over C^{u.n} and C^{v.n}")
    return CliffordElement(u.n, _left(u, wedge=True) @ v.coeffs)


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


def epsilon(x: CliffordElement, u: CliffordElement) -> CliffordElement:
    """Left wedge by the degree-1 element x."""
    x = _coerce(u.n, x)
    _require_degree(x, 1, "epsilon direction")
    return exterior_mul(x, u)


def iota(x: CliffordElement, u: CliffordElement) -> CliffordElement:
    """Contraction by the degree-1 element x: the transpose of epsilon(x),
    a degree -1 super-derivation with iota(x) y = (x, y) on vectors."""
    x = _coerce(u.n, x)
    _require_degree(x, 1, "iota direction")
    return CliffordElement(u.n, _left(x, wedge=True).T @ u.coeffs)


def pairing(u: CliffordElement, v: CliffordElement) -> complex:
    """The bilinear (not Hermitian) pairing in which the blades z_I are orthonormal."""
    if u.n != v.n:
        raise DimensionMismatch(f"mixing algebras over C^{u.n} and C^{v.n}")
    return complex(np.sum(u.coeffs * v.coeffs))


def _require_degree(u: CliffordElement, k: int, what: str, tol: float = 1e-10):
    resid = (u - u.grade(k)).norm()
    if resid > tol * max(1.0, u.norm()):
        raise ValueError(f"{what} must be pure degree {k} (residual {resid:.2e})")


# --- regular representation -------------------------------------------------


def gamma_matrix(u: CliffordElement) -> np.ndarray:
    """Matrix of left Clifford multiplication by u in the blade basis."""
    return _left(u)


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
    twisted conjugation x -> g x alpha(g)."""

    __slots__ = ("value",)

    def __init__(self, value: CliffordElement, validate: bool = True):
        self.value = value
        if validate:
            self._validate()

    def _validate(self):
        g = self.value
        scale = max(1.0, g.norm())
        odd = sum(g.grade(k).norm() for k in range(1, g.n + 1, 2))
        if odd > 1e-10 * scale:
            raise NotInSpin(f"odd-degree residue {odd:.2e}")
        ag = alpha(g)
        unit = g * ag - scalar(g.n, 1.0)
        if unit.norm() > 1e-8 * scale * scale:
            raise NotInSpin(f"g alpha(g) != 1 (residual {unit.norm():.2e})")
        _twisted_images(g, ag)

    @property
    def n(self) -> int:
        return self.value.n

    def __neg__(self) -> "SpinElement":
        return SpinElement(-self.value, validate=False)

    def __repr__(self) -> str:
        return f"SpinElement(n={self.n})"


def spin_exp(u: CliffordElement) -> SpinElement:
    """Clifford exponential of a bivector, via the regular representation."""
    _require_degree(u, 2, "spin_exp argument")
    col = linalg.matrix_exp(gamma_matrix(u))[:, 0]
    return SpinElement(CliffordElement(u.n, col))


def _twisted_images(g: CliffordElement, ag: CliffordElement) -> np.ndarray:
    """Columns g z_j ag, j = 1..n, as vectors; NotInSpin if one leaves V."""
    n = g.n
    scale = max(1.0, g.norm()) ** 2
    t = np.empty((n, n), dtype=complex)
    for j in range(n):
        w = g * basis_vector(n, j) * ag
        resid = (w - w.grade(1)).norm()
        if resid > 1e-8 * scale:
            raise NotInSpin(f"twisted conjugation leaves V (residual {resid:.2e})")
        t[:, j] = w.vector_part()
    return t


def vector_action(g: SpinElement) -> np.ndarray:
    """The rotation T(g) in SO(n): column j holds g z_j alpha(g)."""
    gv = g.value if isinstance(g, SpinElement) else g
    return _twisted_images(gv, alpha(gv))


def tau(u: CliffordElement) -> np.ndarray:
    """Skew matrix of the bivector u acting on V by x -> -2 iota(x) u."""
    _require_degree(u, 2, "tau argument")
    n = u.n
    s = np.zeros((n, n), dtype=complex)
    for a in range(n):
        for b in range(a + 1, n):
            c = u.coeffs[(1 << a) | (1 << b)]
            s[a, b] = 2.0 * c
            s[b, a] = -2.0 * c
    return s


def tau_inv(s: np.ndarray) -> CliffordElement:
    """Bivector with tau(u) = s, read off coefficientwise from the skew matrix."""
    s = np.asarray(s, dtype=complex)
    n = s.shape[0]
    if s.shape != (n, n):
        raise ValueError("tau_inv expects a square matrix")
    if np.linalg.norm(s + s.T) > 1e-10 * (1.0 + np.linalg.norm(s)):
        raise NotSkew("matrix is not skew-symmetric within tolerance")
    u = CliffordElement(n)
    for a in range(n):
        for b in range(a + 1, n):
            u.coeffs[(1 << a) | (1 << b)] = 0.5 * s[a, b]
    return u


def cayley_gamma(b: np.ndarray, rtol: float = linalg.RTOL) -> np.ndarray:
    """Classical Cayley transform (1-b)(1+b)^{-1}; involutive where defined."""
    b = np.asarray(b, dtype=complex)
    n = b.shape[0]
    shifted = np.eye(n) + b
    try:
        return linalg.solve_linear(shifted, np.eye(n) - b, rtol=rtol)
    except SingularMatrix as exc:
        raise SingularShift("1 + b is singular") from exc


def exterior_exp(u: CliffordElement) -> CliffordElement:
    """Exponential with respect to the (commutative on even grades) wedge product;
    the series terminates after n//2 wedge powers of a bivector."""
    _require_degree(u, 2, "exterior_exp argument")
    result = scalar(u.n, 1.0)
    term = scalar(u.n, 1.0)
    for k in range(1, u.n // 2 + 1):
        term = exterior_mul(term, u) * (1.0 / k)
        if term.norm() == 0.0:
            break
        result = result + term
    return result


def spin_cayley(g: SpinElement) -> CliffordElement:
    """Degree-2 part of the spin element: the trace-form projection of the
    spin representation lands on the bivector component."""
    gv = g.value if isinstance(g, SpinElement) else g
    return gv.grade(2)


def spin_scalar(g: SpinElement) -> complex:
    """Degree-0 part; squares to det(1 + T(g)) / 2^n."""
    gv = g.value if isinstance(g, SpinElement) else g
    return gv.scalar_part()


def lift_rotation(a: np.ndarray) -> tuple[SpinElement, SpinElement]:
    """The two spin elements over a rotation a with det(1+a) != 0.

    Reconstructs c * exterior_exp(-2 w) with w = tau_inv((1-a)/(1+a)) and
    c = sqrt(det(1+a))/2^(n/2); both square-root signs are returned.
    """
    a = np.asarray(a, dtype=complex)
    n = a.shape[0]
    w = tau_inv(cayley_gamma(a))
    c = np.sqrt(complex(np.linalg.det(np.eye(n) + a))) / 2 ** (n / 2.0)
    g = exterior_exp(-2.0 * w) * c
    plus = SpinElement(g)
    return plus, SpinElement(-g, validate=False)
