"""Trace-form projection of represented group elements onto the Lie algebra.

A Representation bundles the algebra basis matrices B_i (images of a chosen
basis of the algebra under the differential of the representation) together
with the kept Gram matrix of the trace form, G_ij = tr(B_i B_j).  The
projection of a matrix M solves

    G c = t,   t_i = tr(M B_i),

so c are the coordinates of the unique algebra element whose trace pairing
with every basis vector matches that of M.  The dual basis D, the (v^2, g)
coordinates of the v^2 unit matrices, comes from one Gram solve with v^2
right-hand sides at construction, for every basis, and is kept as
Representation.dual.  It projects m by one GEMM, m.ravel() @ D: the closure
check and the structure constants ([B_i, B_j]), adjoint matrices (b B_i b^-1,
as columns D^T conj) and centralizer operators (x B_i and B_i x) all take
this route.  Representation._column_coords takes matrices held row-major as
the columns m^T of a (v^2, k) array, forms their pairings t^T = P^T m^T by
one GEMM against the kept (v^2, g) pairing matrix P, which also gave D its
right-hand sides, and solves G c^T = t^T once.  Its two callers are the map
itself (cayley, M(g), through coords_of, which takes any stack of matrices,
so cayley of a raw (..., v, v) stack of elements is one solve too) and the
Jacobian in the left-invariant frame behind psi (cayley_jacobian, M(g) B_i,
whose coordinate columns c^T are the Jacobian), and the benchmark's
call-shape rules (bench/spans.py COVERAGE_RULES) pin their one solve per
call, a stacked one included.  The products M B_i for all i are one GEMM
against the kept (v, v g) interleaved basis, and the B_i M of
centralizer_dim one GEMM against the stack.

Of the commutators only the g(g-1)/2 pairs i < j are formed; [B_j, B_i] =
-[B_i, B_j] and [B_i, B_i] = 0 give the rest.  They are formed in row tiles
of about _TILE_ENTRIES entries per product, so at most a bounded slice of
them exists at a time, and each tile is projected through D by one GEMM
(_projected_tiles).  The closure check at construction needs a verdict, not
coordinates.  A full basis, g = v^2, is closed by dimension count: its
independent matrices span all of gl(v).  Any other basis maps each projected
tile back by one more GEMM.  Nothing is formed after construction:
structure_constants() builds its dense (g, g, g) array anew on each call.

Every catalog basis is real, and a basis with no nonzero imaginary part
keeps stack, gram, the pairing, the interleaved basis and dual as float64; a
complex basis keeps them complex128 and takes the same call sites.  Group
elements and coordinates stay complex: linalg.left_product multiplies a kept
real matrix into a complex operand as one real GEMM on its float view, and
linalg.solve_linear solves the real G against complex right-hand sides by
one real LU, each exact per component.  Construction (build_gram's GEMM and
SVD, the dual solve and the commutator tiles) runs in the basis's own
arithmetic, and structure_constants() has its dtype.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import linalg
from .errors import (
    ClusterAmbiguity,
    DegenerateForm,
    DegenerateInput,
    NotASubalgebra,
    NotEquivariant,
    SingularMatrix,
    raise_if,
)

# Residual allowed when re-expressing commutators / conjugates in the basis.
CLOSURE_TOL = 1e-8
ADJOINT_RESIDUAL_TOL = 1e-6
# Singular values below this fraction of the largest count as kernel, as do
# those below the rounding floor.
KERNEL_CUTOFF = 1e-7
# An element with an eigenvalue of modulus below this fraction of the largest has no unipotent part.
SINGULAR_TOL = 1e-12
# Entries of one commutator product tile; a tile takes as many basis rows as
# fit, at least one.  Smaller tiles lower the closure check's peak memory and
# add BLAS calls: at 2^17 (tracemalloc, one BLAS thread, real bases) sl10's
# construction peaks at 6.8 MiB in 8 tiles and so12's at 5.6 MiB in 5; gl12,
# closed by dimension count, peaks at 1.5 MiB and tiles (24) only in
# structure_constants(), at 28.3 MiB, 22.8 MiB of it the (g, g, g) array it
# returns; the instance retains none of it.
_TILE_ENTRIES = 2**17


@dataclass
class GroupElement:
    """A group element realized as its representing matrix."""

    matrix: np.ndarray

    def __post_init__(self):
        self.matrix = linalg.as_square_matrix(self.matrix, "group element")


def _mat(g, stack: bool = False) -> np.ndarray:
    """g's matrix; a raw array is checked by wrapping it (ValueError if non-square or non-finite),
    or with stack, as an array of such matrices (..., v, v), each checked as one."""
    if isinstance(g, GroupElement):
        return g.matrix
    return linalg._square_matrices(g, "group element") if stack else GroupElement(g).matrix


class Representation:
    """Algebra basis matrices with cached trace-form Gram matrix and dual basis.

    The Gram matrix is checked once, here, by build_gram: DegenerateForm when
    the basis is linearly dependent or the trace form is singular or
    ill-conditioned on its span (then no projection map exists); gram_cond
    keeps its condition number.  The dual basis, dual, comes next from one
    Gram solve (DegenerateInput where it is not finite: subnormal Gram entries
    pass build_gram); the closure check, structure_constants(), adjoint_matrix
    and centralizer_dim project through it by GEMMs and solve nothing.
    coords_of, one pairing GEMM and one Gram solve per call, serves cayley
    and cayley_jacobian/psi.
    NotASubalgebra when the span is not closed under commutators, checked
    here by _check_closure: a full basis (g = v^2) spans gl(v) and is closed
    by dimension count, any other is checked through the dual basis.

    Instances are immutable and form no state after construction: stack,
    gram, dual, the pairing and the interleaved basis are read-only, and
    basis is the list of the stack's rows, so values are safe to share
    across threads.  All of them are float64 when the basis has no nonzero
    imaginary part, and complex128 otherwise; see the module docstring.
    """

    def __init__(self, name: str, basis, metadata: dict | None = None):
        if len(basis) == 0:
            raise ValueError("basis must be nonempty")
        mats = [linalg.as_square_matrix(b, f"basis[{i}]") for i, b in enumerate(basis)]
        v = mats[0].shape[0]
        if any(m.shape != (v, v) for m in mats):
            raise ValueError("basis matrices must share one size")
        self.name = name
        stack = np.stack(mats)
        self.stack = stack if stack.imag.any() else np.ascontiguousarray(stack.real)
        self.stack.flags.writeable = False
        self.basis = list(self.stack)
        self.metadata = dict(metadata or {})
        self.gram, self.gram_cond = build_gram(self.stack)
        # pairing[a*v + b, i] = (B_i)[b, a], so tr(m B_i) = m.ravel() @ pairing[:, i]
        self._pairing = self.stack.transpose(2, 1, 0).reshape(v * v, len(mats))
        # interleaved[c, b*g + i] = (B_i)[c, b], so (m @ interleaved)[a, b*g + i] = (m B_i)[a, b]
        self._interleaved = self.stack.transpose(1, 2, 0).reshape(v, -1)
        # dual[a*v + b] = coordinates of the unit matrix E_ab, so m.ravel() @ dual projects m
        self.dual = linalg.solve_linear(self.gram, self._pairing.T, "Gram matrix").T
        if not np.isfinite(self.dual).all():
            raise DegenerateInput(f"dual basis is not finite: Gram solve overflows at max |G_ij| {abs(self.gram).max():.2e}")
        for kept in (self.gram, self._pairing, self._interleaved, self.dual):
            kept.flags.writeable = False
        self._check_closure()

    @property
    def v_dim(self) -> int:
        return self.stack.shape[1]

    @property
    def g_dim(self) -> int:
        return self.stack.shape[0]

    def element_matrix(self, g) -> np.ndarray:
        """g's matrix (ValueError if non-square, non-finite or not v_dim x v_dim)."""
        return self._sized(_mat(g))

    def _sized(self, m) -> np.ndarray:
        """m, a matrix or a stack of them (..., n, n); ValueError unless n is v_dim."""
        n = m.shape[-1]
        if n != self.v_dim:
            raise ValueError(f"element is {n}x{n}, representation needs {self.v_dim}")
        return m

    def materialize(self, coords) -> np.ndarray:
        """Matrices sum_i c_i B_i for coordinates of shape (..., g)."""
        coords = np.asarray(coords, dtype=complex)
        flat = self._span_columns(coords.reshape(-1, self.g_dim).T).T
        return flat.reshape(coords.shape[:-1] + (self.v_dim, self.v_dim))

    def _span_columns(self, coords) -> np.ndarray:
        """(v^2, k) columns: column j holds sum_i coords[i, j] B_i row-major, one GEMM."""
        return linalg.left_product(self.stack.reshape(self.g_dim, -1).T, coords)

    def coords_of(self, m) -> np.ndarray:
        """Coordinates of the trace-form projection of m onto the basis span.

        m has shape (..., v, v); the result has shape (..., g), whatever the
        leading axes, from one _column_coords call.
        """
        m = np.asarray(m, dtype=complex)
        cols = m.reshape(-1, self.v_dim * self.v_dim).T
        return self._column_coords(cols).T.reshape(m.shape[:-2] + (self.g_dim,))

    def _column_coords(self, cols) -> np.ndarray:
        """(g, k) coordinates of the k matrices held row-major in the columns of the (v^2, k) cols.

        The trace pairings t = P^T cols are one GEMM against the kept
        pairing P, and the coordinates one Gram solve G c = t.  The solve
        makes no conditioning decision of its own: build_gram made it when
        the Gram matrix was built.
        """
        t = linalg.left_product(self._pairing.T, cols)
        return linalg.solve_linear(self.gram, t, "Gram matrix")

    def _left_products(self, m) -> np.ndarray:
        """(v^2, g) columns: column i holds m B_i row-major, one GEMM against the interleaved basis."""
        v = self.v_dim
        return linalg.left_product(self._interleaved.T, m.T).T.reshape(v * v, self.g_dim)

    def structure_constants(self) -> np.ndarray:
        """c[i, j, :] = coordinates of [B_i, B_j], as a new (g, g, g) array, real for a real basis.

        Computed on every call, one GEMM against the dual basis per commutator
        tile; the instance keeps none of it.  Only the pairs i < j are
        projected; c[j, i] = -c[i, j] and c[i, i] = 0 hold exactly.
        """
        c = np.zeros((self.g_dim,) * 3, dtype=self.stack.dtype)
        for i, j, _, coords in self._projected_tiles():
            c[i, j] = coords
            c[j, i] = -coords
        return c

    def _rounding_floor(self, scale) -> float:
        """linalg.ROUNDING_FLOOR g cond(G) scale: rounding of a projection of inputs of that scale."""
        return linalg.ROUNDING_FLOOR * self.g_dim * self.gram_cond * scale

    def _check_closure(self) -> None:
        """NotASubalgebra unless every [B_i, B_j] lies in the basis span.

        A full basis, g = v^2, is closed by dimension count: build_gram has
        already certified its matrices independent, so they span all of
        gl(v), and it forms no commutator.  (g > v^2 cannot get here: its
        Gram matrix has rank at most v^2.)  Otherwise each projected tile is
        mapped back by one more GEMM.  The test runs on the largest L1
        residual of one commutator and the largest |[B_i, B_j]| over all
        tiles, so the tiling changes neither its outcome nor its message.
        The threshold is CLOSURE_TOL (1 + max |[B_i, B_j]|) or, if larger,
        the rounding floor at that scale: the residual is rounding amplified
        by cond(G), and a closed basis near the DegenerateForm bound would
        otherwise read as open.
        """
        g, v = self.stack.shape[:2]
        if g == v * v:
            return
        flat_basis = self.stack.reshape(g, v * v)
        res = scale = 0.0  # stay 0 for a one-element basis, which has no pairs
        for _, _, flat, coords in self._projected_tiles():
            recon = coords @ flat_basis
            recon -= flat  # in place: the commutator tile is the largest array here
            res = max(res, np.abs(recon).sum(axis=1).max(initial=0.0))
            scale = max(scale, np.abs(flat).max(initial=0.0))
        threshold = max(CLOSURE_TOL * (1.0 + scale), self._rounding_floor(scale))
        raise_if(res > threshold, NotASubalgebra, "basis not closed under commutator: residual", res, threshold)

    def _projected_tiles(self):
        """Yield (i, j, flat, coords) per commutator tile: flat holds the
        [B_i, B_j] of _commutator_tiles as rows of v^2 entries, and
        coords = flat @ dual their coordinates, one GEMM per tile."""
        for i, j, comm in self._commutator_tiles():
            flat = comm.reshape(len(comm), self.v_dim * self.v_dim)
            yield i, j, flat, flat @ self.dual

    def _commutator_tiles(self):
        """Yield (i, j, [B_i, B_j]) for all pairs i < j, one row tile at a time:
        index arrays i, j and the (pairs, v, v) commutator stack.

        The pairs are walked in row tiles [a, b) of basis indices.  Each tile
        takes two products, B_[a,b) B_[a,g) and B_[b,g) B_[a,b); with the
        first's own [a, b) block they give every B_j B_i with j >= a.  Over
        all tiles that is the work of one (g v) x (g v) product, and a basis
        that fits in one tile takes only the first.  A tile that would end
        within two rows of g takes them too: a tile from row g - 2 would hold
        the single pair (g - 2, g - 1), whose projection numpy computes by
        matrix-vector products, which can round differently in the last bit,
        so the structure constants would depend on the tiling.
        """
        g, v = self.stack.shape[:2]
        rows = max(1, _TILE_ENTRIES // (g * v * v))
        right = self.stack.transpose(1, 0, 2)  # right[:, j] = B_j
        a = 0
        while a < g:
            b = a + rows if a + rows < g - 2 else g
            fwd = (self.stack[a:b].reshape(-1, v) @ right[:, a:].reshape(v, -1)).reshape(b - a, v, g - a, v)
            back = fwd  # back[j - a, :, i - a] = B_j B_i
            if b < g:
                back = np.empty((g - a, v, b - a, v), dtype=self.stack.dtype)
                back[: b - a] = fwd[:, :, : b - a]
                rest = back[b - a :].reshape(-1, (b - a) * v)
                np.matmul(self.stack[b:].reshape(-1, v), right[:, a:b].reshape(v, -1), out=rest)
            i, j = np.nonzero(np.arange(a, b)[:, None] < np.arange(g))  # pairs (a + i, j)
            yield i + a, j, fwd[i, :, j - a] - back[j - a, :, i]
            a = b

    def __repr__(self) -> str:
        return f"Representation({self.name!r}, v_dim={self.v_dim}, g_dim={self.g_dim})"


def build_gram(stack: np.ndarray) -> tuple[np.ndarray, float]:
    """Gram matrix G_ij = tr(B_i B_j) of the trace form on a (g, v, v) basis stack,
    as one GEMM of the flattened B_i against the flattened B_j^T, and its
    condition number sv[0]/sv[-1]; DegenerateForm above 1/linalg.RTOL, G's only
    conditioning decision (coords_of solves against G without one)."""
    g = stack.reshape(len(stack), -1) @ stack.transpose(0, 2, 1).reshape(len(stack), -1).T
    g = 0.5 * (g + g.T)  # symmetric up to summation order; make it exact
    sv = np.linalg.svd(g, compute_uv=False)
    singular = sv[0] == 0.0 or sv[-1] < linalg.RTOL * sv[0]
    ratio = sv[-1] / sv[0] if sv[0] else 0.0
    raise_if(singular, DegenerateForm, "trace form singular on the basis span: sv_min/sv_max", ratio, linalg.RTOL)
    return g, float(sv[0] / sv[-1])


@dataclass
class AlgebraVector:
    """Coordinates of an algebra element relative to a representation basis,
    shape (g,), or (..., g) for a stack of elements."""

    rep: Representation
    coords: np.ndarray

    def __post_init__(self):
        self.coords = np.asarray(self.coords, dtype=complex)
        if self.coords.shape[-1:] != (self.rep.g_dim,):
            raise ValueError(f"expected {self.rep.g_dim} coordinates, got {self.coords.shape}")
        if not np.isfinite(self.coords).all():
            raise ValueError("coordinates contain non-finite entries")

    @classmethod
    def _of_checked(cls, rep: Representation, coords: np.ndarray) -> AlgebraVector:
        """The vector of coordinates its caller has checked: complex, (..., g) and finite."""
        out = cls.__new__(cls)
        out.rep, out.coords = rep, coords
        return out

    def matrix(self) -> np.ndarray:
        return self.rep.materialize(self.coords)

    def to_json(self) -> dict:
        return {"coords_re": self.coords.real.tolist(), "coords_im": self.coords.imag.tolist()}


# --- the projection map and its Jacobian -------------------------------------


def _require_finite(value, what: str, g):
    """value, unless an entry overflowed: then DegenerateInput naming the scale |M(g)| (of a whole stack g)."""
    if not np.isfinite(value).all():
        raise DegenerateInput(f"{what} is not finite: it overflows at |M(g)| {linalg.norm(_mat(g, stack=True)):.2e}")
    return value


def cayley(rep: Representation, g) -> AlgebraVector:
    """Project the group element onto the algebra in the trace form; DegenerateInput where a coordinate overflows.

    g may also be a raw (..., v, v) stack of matrices, each checked as a
    GroupElement checks its own: their (..., g) coordinates come from one
    coords_of, so one Gram solve, as for one element.
    """
    m = rep._sized(_mat(g, stack=True))
    with np.errstate(over="ignore", invalid="ignore"):
        coords = rep.coords_of(m)
    return AlgebraVector._of_checked(rep, _require_finite(coords, "projection", m))


def cayley_jacobian(rep: Representation, g) -> np.ndarray:
    """Matrix of the differential at g, composed with left translation.

    Column i holds the image coordinates of the i-th left-invariant
    direction, the projection of M(g) B_i.
    """
    return rep._column_coords(rep._left_products(rep.element_matrix(g)))


def psi(rep: Representation, g) -> complex:
    """Jacobian determinant of the projection map in the left-invariant frame.

    Independent of the basis choice; its zero set is where the map's
    differential degenerates.  DegenerateInput where it overflows.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        value = linalg.determinant(cayley_jacobian(rep, g))
    return _require_finite(value, "Jacobian determinant", g)


def character(rep: Representation, g) -> complex:
    return complex(np.trace(rep.element_matrix(g)))


def adjoint_matrix(rep: Representation, b) -> np.ndarray:
    """Matrix of conjugation by b acting on algebra coordinates.

    Column i = coordinates of M(b) B_i M(b)^{-1}, projected through the kept
    dual basis by one GEMM.  Raises NotEquivariant if some conjugate leaves
    the basis span by more than ADJOINT_RESIDUAL_TOL relative to its norm,
    which signals a malformed representation, and DegenerateInput where a
    conjugate or its coordinates overflow.
    """
    bm = rep.element_matrix(b)
    v, g = rep.v_dim, rep.g_dim
    # row block a of b B_i, times b^-1: conj[a*v + d, i] = (b B_i b^-1)[a, d]
    left = rep._left_products(bm).reshape(v, v, g)
    with np.errstate(over="ignore", invalid="ignore"):
        conj = (linalg.inverse(bm, "conjugating element").T @ left).reshape(v * v, g)
        ad = linalg.left_product(rep.dual.T, conj)
        # conjugates can span 1e-200..1e200: each column, and its residual, is taken at a power-of-two
        # scale of its own, which leaves the ratio exact and keeps its squares from underflowing; both
        # are scaled in place, as a (2, v^2, g) stack for one norms call doubles the memory it touches
        shrink = linalg._shrink(conj, axis=0)
        res = rep._span_columns(ad)
        np.subtract(conj, res, out=res)
        res *= shrink
        conj *= shrink
        worst = float(np.max(linalg.norms(res, axis=0) / linalg.norms(conj, axis=0)))
    outside = not worst <= ADJOINT_RESIDUAL_TOL
    if outside:  # a conjugate that overflows leaves NaN in ad and in worst: named first
        _require_finite(ad, "adjoint matrix", b)
    raise_if(outside, NotEquivariant, "conjugation leaves the algebra span: residual", worst, ADJOINT_RESIDUAL_TOL)
    return ad


# --- Jordan-type decompositions ----------------------------------------------


def _spectral_checked(m: np.ndarray, cluster_tol: float) -> linalg.SpectralDecomposition:
    """spectral(m); ClusterAmbiguity if its gap is below twice its threshold (one cluster: gap inf)."""
    dec = linalg.spectral(m, cluster_tol)
    gap, threshold = dec.gap, 2.0 * dec.threshold
    raise_if(gap < threshold, ClusterAmbiguity, "eigenvalue clusters too close to separate: gap", gap, threshold)
    return dec


def _unipotent_split(g, cluster_tol: float):
    """Checked spectrum of the invertible g with its factors g_s, g_u = g_s^-1 g."""
    m = _mat(g)
    dec = _spectral_checked(m, cluster_tol)
    moduli = np.abs(dec.eigenvalues)
    if not moduli.any():
        raise SingularMatrix("element is zero: every eigenvalue vanishes")
    smallest, threshold = moduli.min(), SINGULAR_TOL * moduli.max()
    raise_if(smallest < threshold, SingularMatrix, "element is numerically singular: |eigenvalue|", smallest, threshold)
    gs = dec.semisimple_part()
    return dec, gs, linalg.solve_linear(gs, m, "semisimple part")


def multiplicative_jordan(g, cluster_tol: float = linalg.CLUSTER_TOL):
    """Split g = g_s g_u into commuting semisimple and unipotent parts."""
    _, gs, gu = _unipotent_split(g, cluster_tol)
    return gs, gu


def additive_jordan(x, cluster_tol: float = linalg.CLUSTER_TOL):
    """Split x = x_s + x_n into commuting semisimple and nilpotent parts."""
    m = x.matrix() if isinstance(x, AlgebraVector) else _mat(x)
    xs = _spectral_checked(m, cluster_tol).semisimple_part()
    return xs, m - xs


def ehu_decomposition(g, cluster_tol: float = linalg.CLUSTER_TOL):
    """Split g = g_e g_h g_u with unit-modulus, positive-real and unipotent parts.

    g_e and g_h are the functions of g equal to the phase lambda/|lambda| and
    the modulus |lambda| on each eigenvalue cluster; like g_s they are
    polynomials in g, so all three factors commute.
    """
    dec, _, gu = _unipotent_split(g, cluster_tol)
    r = np.abs(dec.eigenvalues)
    return dec.apply(dec.eigenvalues / r), dec.apply(r), gu


# --- centralizers and restriction --------------------------------------------


def centralizer_dim(rep: Representation, x) -> int:
    """Dimension of the centralizer of x in the algebra, via numeric kernels.

    Group elements use ker(Ad - 1), algebra vectors use ker(ad) = ker(L - R),
    where L and R are left and right multiplication by x; all are operators on
    coordinates, projected through the dual basis.  One rule counts the kernel
    of the operator a - s in both cases: singular values below
    max(KERNEL_CUTOFF * sigma_max, 64 g eps cond(G) (|a|_F + |s|_F)).  The
    floor (_rounding_floor, shared with the closure check) is a few ulps of
    the operator's inputs, amplified by the Gram condition number; without
    it a central x, where a - s is pure rounding, would have its rounding
    judged relative to itself.  An exactly zero
    operator has the whole algebra as kernel.
    """
    if isinstance(x, GroupElement):
        a, s = adjoint_matrix(rep, x), np.eye(rep.g_dim)
    elif isinstance(x, AlgebraVector):
        xm = rep.element_matrix(x.matrix())
        v, g = rep.v_dim, rep.g_dim
        right = linalg.left_product(rep.stack.reshape(g * v, v), xm).reshape(g, v * v).T  # column i: B_i x
        ops = linalg.left_product(rep.dual.T, np.hstack([rep._left_products(xm), right]))
        a, s = ops[:, :g], ops[:, g:]
    else:
        raise TypeError("x must be a GroupElement or an AlgebraVector")
    sv = np.linalg.svd(a - s, compute_uv=False)
    if sv.size == 0 or sv[0] == 0.0:
        return rep.g_dim
    floor = rep._rounding_floor(linalg.norm(a) + linalg.norm(s))
    return int(np.sum(sv < max(KERNEL_CUTOFF * sv[0], floor)))


def restrict_to_subalgebra(rep: Representation, index_subset) -> Representation:
    """New representation on a basis subset; the subset must span a subalgebra.
    It keeps none of the parent's metadata, whose family and Cartan bookkeeping
    describe the parent: every sampler but "generic" raises ValueError on it."""
    idx = list(index_subset)
    if len(idx) == 0:
        raise ValueError("index subset must be nonempty")
    if len(set(idx)) != len(idx) or not all(0 <= i < rep.g_dim for i in idx):
        raise ValueError(f"invalid index subset {idx}")
    return Representation(f"{rep.name}|{idx}", [rep.basis[i] for i in idx])
