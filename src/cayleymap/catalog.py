"""Concrete representations and the combinators acting on them.

Families
--------
  sl(n)        trace-free matrices; basis: H_i = E_ii - E_{i+1,i+1}, then E_ij
  gl(n)        all matrices; basis: E_ij row-major
  so(n)        skew matrices; basis: E_ij - E_ji, Cartan rotation planes first
  sl2_irrep(m) the (m+1)-dimensional symmetric power of the defining sl2 rep,
               acting on monomials x^(m-p) y^p, ordered basis (H, E, F)

Combinators build block-diagonal sums, Kronecker tensor products, duals
(B -> -B^T) and tensor powers.  Sums and products check numerically (via
structure constants) that both operands represent the same abstract
algebra; a tensor power, whose factors are all one representation, needs
no check.

Samplers return deterministic group elements per (kind, seed, rep) in the
classes generic / hyperbolic / elliptic / unipotent / cartan / trace_free,
characterized by eigenvalue location.
"""

from __future__ import annotations

import zlib

import numpy as np

from . import linalg
from .errors import IncompatibleAlgebras, NotProportional, raise_if
from .representation import GroupElement, Representation

SAMPLE_KINDS = ("generic", "hyperbolic", "elliptic", "unipotent", "cartan", "trace_free")
# Relative bounds on structure-constant disagreement, dynkin_ratio's fit residual and Im of its ratio.
STRUCTURE_TOL = 1e-8
PROPORTION_TOL = 1e-6
REAL_RATIO_TOL = 1e-8


def _unit(i: int, j: int, n: int) -> np.ndarray:
    m = np.zeros((n, n), dtype=complex)
    m[i, j] = 1.0
    return m


def make_sl(n: int) -> Representation:
    """Standard representation of the trace-free n x n matrices."""
    if n < 2:
        raise ValueError("sl needs n >= 2")
    basis = [_unit(i, i, n) - _unit(i + 1, i + 1, n) for i in range(n - 1)]
    basis += [_unit(i, j, n) for i in range(n) for j in range(n) if i != j]
    meta = {
        "family": "sl",
        "n": n,
        "rank": n - 1,
        "cartan_indices": list(range(n - 1)),
        "hyperbolic_unit": 1.0,
    }
    return Representation(f"sl{n}", basis, metadata=meta)


def make_gl(n: int) -> Representation:
    """Standard representation of all n x n matrices."""
    if n < 1:
        raise ValueError("gl needs n >= 1")
    pairs = [(i, j) for i in range(n) for j in range(n)]
    basis = [_unit(i, j, n) for i, j in pairs]
    meta = {
        "family": "gl",
        "n": n,
        "rank": n,
        "cartan_indices": [k for k, (i, j) in enumerate(pairs) if i == j],
        "hyperbolic_unit": 1.0,
    }
    return Representation(f"gl{n}", basis, metadata=meta)


def make_so(n: int) -> Representation:
    """Standard representation of the skew n x n matrices.

    The rotation-plane generators E_{2k,2k+1} - E_{2k+1,2k} spanning the
    Cartan subalgebra come first in the basis.
    """
    if n < 2:
        raise ValueError("so needs n >= 2")
    cartan_pairs = [(2 * k, 2 * k + 1) for k in range(n // 2)]
    rest = [(i, j) for i in range(n) for j in range(i + 1, n) if (i, j) not in cartan_pairs]
    pairs = cartan_pairs + rest
    basis = [_unit(i, j, n) - _unit(j, i, n) for i, j in pairs]
    meta = {
        "family": "so",
        "n": n,
        "rank": n // 2,
        "cartan_indices": list(range(n // 2)),
        # rotation generators have spectrum {+-i}; the hyperbolic Cartan
        # directions are i times them
        "hyperbolic_unit": 1j,
    }
    return Representation(f"so{n}", basis, metadata=meta)


def make_sl2_irrep(m: int) -> Representation:
    """(m+1)-dimensional irreducible sl2 representation, basis (H, E, F).

    On the monomial basis x^(m-p) y^p: H has eigenvalue m - 2p, E sends
    y -> x (coefficient p), F sends x -> y (coefficient m - p).
    """
    if m < 1:
        raise ValueError("irrep label m must be >= 1")
    d = m + 1
    h = np.diag([complex(m - 2 * p) for p in range(d)])
    e = np.zeros((d, d), dtype=complex)
    f = np.zeros((d, d), dtype=complex)
    for p in range(1, d):
        e[p - 1, p] = p
    for p in range(d - 1):
        f[p + 1, p] = m - p
    meta = {
        "family": "sl2_irrep",
        "m": m,
        "rank": 1,
        "cartan_indices": [0],
        "hyperbolic_unit": 1.0,
        "nilpotent_index": 1,
    }
    return Representation(f"sl2irrep{m}", basis=[h, e, f], metadata=meta)


# family -> (maker, its size argument: n, or m for sl2_irrep).  make() looks the
# maker up on this module when called, so a rebound catalog.make_* reaches every caller.
FAMILIES = {
    "sl": ("make_sl", "n"),
    "so": ("make_so", "n"),
    "gl": ("make_gl", "n"),
    "sl2_irrep": ("make_sl2_irrep", "m"),
}


def make(family: str, size: int) -> Representation:
    """Catalog representation of a family; size is n, or m for sl2_irrep."""
    if family not in FAMILIES:
        raise ValueError(f"unknown family {family!r}")
    return globals()[FAMILIES[family][0]](size)


# --- combinators --------------------------------------------------------------


def _require_same_algebra(r1: Representation, r2: Representation):
    if r1.g_dim != r2.g_dim:
        raise IncompatibleAlgebras(f"{r1.name} and {r2.name} have different algebra dimensions")
    c1 = r1.structure_constants()
    c2 = r2.structure_constants()
    diff = np.abs(c1 - c2).max()
    threshold = STRUCTURE_TOL * (1.0 + max(np.abs(c1).max(), np.abs(c2).max()))
    raise_if(diff > threshold, IncompatibleAlgebras, "structure constants disagree: max difference", diff, threshold)


def _combined_meta(r1: Representation, family: str) -> dict:
    meta = {"family": family}
    for key in ("rank", "cartan_indices", "hyperbolic_unit", "nilpotent_index", "m", "n"):
        if key in r1.metadata:
            meta[key] = r1.metadata[key]
    return meta


def direct_sum(r1: Representation, r2: Representation) -> Representation:
    _require_same_algebra(r1, r2)
    n1, n2 = r1.v_dim, r2.v_dim
    basis = []
    for b1, b2 in zip(r1.basis, r2.basis):
        m = np.zeros((n1 + n2, n1 + n2), dtype=complex)
        m[:n1, :n1] = b1
        m[n1:, n1:] = b2
        basis.append(m)
    return Representation(f"({r1.name})+({r2.name})", basis, metadata=_combined_meta(r1, "sum"))


def _kronecker_sum(r1: Representation, r2: Representation) -> Representation:
    """The tensor product, B_i -> B1_i x 1 + 1 x B2_i, without the same-algebra check."""
    i1 = np.eye(r1.v_dim, dtype=complex)
    i2 = np.eye(r2.v_dim, dtype=complex)
    basis = [np.kron(b1, i2) + np.kron(i1, b2) for b1, b2 in zip(r1.basis, r2.basis)]
    return Representation(f"({r1.name})x({r2.name})", basis, metadata=_combined_meta(r1, "tensor"))


def tensor(r1: Representation, r2: Representation) -> Representation:
    _require_same_algebra(r1, r2)
    return _kronecker_sum(r1, r2)


def dual(rep: Representation) -> Representation:
    """Contragredient representation: the algebra acts by B -> -B^T."""
    basis = [-b.T for b in rep.basis]
    return Representation(f"dual({rep.name})", basis, metadata=_combined_meta(rep, "dual"))


def tensor_power(rep: Representation, k: int) -> Representation:
    """rep tensored with itself k times.  Every factor is rep, so the powers
    share its algebra by construction and no same-algebra check runs."""
    if k < 1:
        raise ValueError("tensor power needs k >= 1")
    out = rep
    for _ in range(k - 1):
        out = _kronecker_sum(out, rep)
    return out


def dynkin_ratio(rep: Representation, reference: Representation) -> float:
    """Least-squares scalar j with gram(rep) = j * gram(reference).

    Only ratios are meaningful, so a reference representation is always
    required; raises NotProportional when the relative fit residual exceeds
    PROPORTION_TOL (non-simple algebra or mismatched bases) or j is not
    real.  Both Gram matrices are nonzero, as build_gram certified them.
    """
    _require_same_algebra(rep, reference)
    gref = reference.gram
    grep = rep.gram
    j = np.vdot(gref, grep) / np.vdot(gref, gref)
    residual = linalg.norm(grep - j * gref) / linalg.norm(grep)
    raise_if(
        residual > PROPORTION_TOL, NotProportional, "trace forms not proportional: residual", residual, PROPORTION_TOL
    )
    bound = REAL_RATIO_TOL * (1 + abs(j.real))
    raise_if(abs(j.imag) > bound, NotProportional, "fitted ratio is not real: |Im j|", abs(j.imag), bound)
    return float(j.real)


# --- element construction and sampling ----------------------------------------


def realize(rep: Representation, coords) -> GroupElement | np.ndarray:
    """Group element exp(sum coords_i B_i) in the given representation.

    Coordinates with leading axes, (..., g), give the (..., v, v) array of
    their elements, from one materialize and one matrix_exp; each matrix is
    checked as a GroupElement checks its own.
    """
    m = linalg.matrix_exp(rep.materialize(coords))
    return GroupElement(m) if m.ndim == 2 else linalg._square_matrices(m, "group element")


def _rng_for(rep: Representation, kind: str, seed: int) -> np.random.Generator:
    entropy = [int(seed), zlib.crc32(kind.encode()), zlib.crc32(rep.name.encode())]
    return np.random.default_rng(np.random.SeedSequence(entropy))


def _generic_coords(rep: Representation, seed: int) -> np.ndarray:
    """The coordinates that sample_element(rep, "generic", seed) exponentiates."""
    return linalg.complex_normal(_rng_for(rep, "generic", seed), rep.g_dim, 0.4)


def _conjugate(rep: Representation, m: np.ndarray, rng, exponent: bool = False) -> np.ndarray:
    """q m q^-1 for q = exp(sum c_i B_i), c drawn from rng; with exponent, exp(m) in place of m,
    the two exponentials one (2, v, v) matrix_exp stack."""
    x = rep.materialize(linalg.complex_normal(rng, rep.g_dim, 0.3))
    if exponent:
        m, q = linalg.matrix_exp(np.array([m, x]))
    else:
        q = linalg.matrix_exp(x)
    return q @ m @ linalg.inverse(q, "conjugator")


def _nilpotent_direction(rep: Representation, rng) -> np.ndarray:
    """A nonzero nilpotent algebra element, per family."""
    family = rep.metadata.get("family")
    if family in ("sl", "gl"):
        n = rep.v_dim
        x = np.triu(linalg.complex_normal(rng, (n, n)), k=1)
        return x
    if family == "so":
        # rank-2 nilpotent w a^T - a w^T with w isotropic and a^T w = 0
        n = rep.v_dim
        w = np.zeros(n, dtype=complex)
        w[0], w[1] = 1.0, 1.0j
        wt = np.zeros(n, dtype=complex)
        wt[0], wt[1] = 0.5, -0.5j  # dual vector with wt . w = 1
        a = linalg.complex_normal(rng, n)
        a = a - (a @ w) * wt
        return np.outer(w, a) - np.outer(a, w)
    if "nilpotent_index" in rep.metadata:
        coords = np.zeros(rep.g_dim, dtype=complex)
        coords[rep.metadata["nilpotent_index"]] = 0.5 + linalg.complex_normal(rng, ())
        return rep.materialize(coords)
    raise ValueError(f"no unipotent sampler for family {family!r} of {rep.name}")


def _traceless_spectrum(n: int, rng) -> np.ndarray:
    """Eigenvalues with sum 0 and product 1: the free ones are sampled in an
    annulus and the last two solve the sum/product constraints."""
    if n == 2:
        return np.array([1j, -1j])
    free = np.exp(1j * rng.uniform(0, 2 * np.pi, n - 2)) * rng.uniform(0.7, 1.4, n - 2)
    s = -np.sum(free)
    p = 1.0 / np.prod(free)
    last = linalg.poly_roots([p, -s, 1.0])
    return np.concatenate([free, last])


def sample_element(rep: Representation, kind: str, seed: int) -> GroupElement:
    """Deterministic group element of the requested eigenvalue class."""
    if kind not in SAMPLE_KINDS:
        raise ValueError(f"unknown sample kind {kind!r}; choose from {SAMPLE_KINDS}")
    if kind == "generic":
        return realize(rep, _generic_coords(rep, seed))
    rng = _rng_for(rep, kind, seed)
    family = rep.metadata.get("family")

    if kind in ("hyperbolic", "elliptic"):
        cartan = rep.metadata.get("cartan_indices")
        if cartan is None:
            raise ValueError(f"{rep.name} has no Cartan bookkeeping for {kind} sampling")
        unit = rep.metadata.get("hyperbolic_unit", 1.0)
        if kind == "elliptic":
            # rotate real directions to unit-modulus spectrum and vice versa
            unit = unit * 1j
        coords = np.zeros(rep.g_dim, dtype=complex)
        coords[list(cartan)] = unit * rng.uniform(-0.8, 0.8, len(cartan))
        return GroupElement(_conjugate(rep, rep.materialize(coords), rng, exponent=True))

    if kind == "unipotent":
        return GroupElement(_conjugate(rep, _nilpotent_direction(rep, rng), rng, exponent=True))

    if kind == "cartan":
        cartan = rep.metadata.get("cartan_indices")
        if cartan is None:
            raise ValueError(f"{rep.name} has no Cartan bookkeeping")
        coords = np.zeros(rep.g_dim, dtype=complex)
        coords[list(cartan)] = linalg.complex_normal(rng, len(cartan), 0.6)
        return realize(rep, coords)

    # trace_free: group elements whose representing matrix is itself
    # trace-free, hence lies in the algebra image; only meaningful for sl
    if family != "sl":
        raise ValueError("trace_free sampling is defined for the sl family")
    n = rep.metadata["n"]
    lams = _traceless_spectrum(n, rng)
    q = np.linalg.qr(linalg.complex_normal(rng, (n, n)))[0]
    m = q @ np.diag(lams) @ q.conj().T
    m = m - (np.trace(m) / n) * np.eye(n)  # pin the trace to exactly 0
    return GroupElement(m)

