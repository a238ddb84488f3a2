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
Representation.dual.  It projects m by one product, m.ravel() @ D: the
closure check, the structure constants ([B_i, B_j]) and adjoint matrices
(b B_i b^-1, as columns D^T conj) take this route.  Representation._column_coords
takes matrices held row-major as the columns m^T of a (v^2, k) array, forms their pairings
t^T = P^T m^T by one product with the kept (v^2, g) pairing matrix P, which
also gave D its right-hand sides, and solves G c^T = t^T once.  Its two callers are the map
itself (cayley, M(g), through coords_of, which takes any stack of matrices,
so cayley of a raw (..., v, v) stack of elements is one solve too) and the
Jacobian in the left-invariant frame behind psi (cayley_jacobian, M(g) B_i,
whose coordinate columns c^T are the Jacobian), and the benchmark's
call-shape rules (bench/spans.py COVERAGE_RULES) pin their one solve per
call, a stacked one included.  The products M B_i for all i are one GEMM
against the kept (v, v g) interleaved basis, and the B_i M of
centralizer_dim one GEMM against the stack.  centralizer_dim reads the
centralizer of a group element and of an algebra vector alike as the kernel
of the g commutators [x, B_i], held as matrix entries, with no inverse and
no projection; a simple, well-conditioned spectrum is counted on its v
spectral projectors instead, by one product with D and one with the stack
(_commutant_pair).

Closure, catalog's same-algebra check and the refusals of adjoint_matrix
ask whether [B_i, B_j] or b B_i b^-1 stay in a span.  Each
map is bilinear or linear, so each is tested on X = sum_i r_i B_i and
Y = sum_i s_i B_i for two weight pairs (r, s) fixed by g alone (weights):
_off_span projects the images through D and maps them back by one product
(Freivalds 1977; Schwartz 1980).  X and Y enter these products at
power-of-two scales (linalg._shrink), which is exact: the residuals are
relative, and the coordinates of [X, Y] are scaled back.  structure_constants()
alone forms every [B_i, B_j], a basis row at a time: the g commutators of B_i
times D, one GEMM of one shape.

Every catalog basis is real, and a basis with no nonzero imaginary part
keeps stack, gram, the pairing, the interleaved basis and dual as float64; a
complex basis keeps them complex128 and takes the same call sites.  Group
elements and coordinates stay complex: linalg.left_product multiplies a kept
real matrix into a complex operand as one real GEMM on its float view, and
linalg.solve_linear solves the real G against complex right-hand sides on
their float view, each exact per component.  Construction (build_gram's GEMM
and SVD, the dual solve and the closure check) runs in the basis's own
arithmetic, and structure_constants() has its dtype; the weights are float64.

Root spaces g_a and g_b are trace-form orthogonal unless a + b = 0, and the
Cartan subalgebra is orthogonal to every root space (Humphreys 1972,
Introduction to Lie Algebras, section 8).  So on a basis of root vectors and
Cartan elements, G is a scaled permutation on the root vectors (E_a pairs
with E_-a alone) plus one rank x rank Cartan block.  Construction reads
that from G's exact zero pattern once, as gram_split (linalg.equation_split;
None for a complex G or one with no such equation, as a re-coordinated
basis has), and both Gram solves, the dual's and _column_coords', take it:
each equation that holds one coordinate alone is scaled with the bits LU
would give it, and only the rest, sl's Cartan block, takes an LU.  On gl,
so and the sl2 irreps every equation holds one coordinate alone.  Each basis
element of gl is one matrix unit, and on gl, so and the sl2 irreps a matrix
entry lies in one basis element at most, so the products with P^T and D^T on
gl, and with the stack on all three, are one gather each with the GEMM's bits
(linalg.left_product), by tables that construction reads from their exact
zero patterns (linalg.lone_entries; none on sl(n >= 3)).
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

# Off-span residual allowed of a fixed combination's commutator [X, Y] and conjugate b X b^-1, relative.
CLOSURE_TOL = 1e-8
ADJOINT_RESIDUAL_TOL = 1e-6
# Singular values below this fraction of the largest count as kernel, as do
# those below the rounding floor.
KERNEL_CUTOFF = 1e-7
# An element with an eigenvalue of modulus below this fraction of the largest has no unipotent part.
SINGULAR_TOL = 1e-12


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
    pass build_gram); the closure check, structure_constants() and
    adjoint_matrix project through it by products and solve nothing.
    coords_of, one pairing product and one Gram solve per call, serves cayley
    and cayley_jacobian/psi, through gram_split (see the module docstring).
    NotASubalgebra when the span is not closed under commutators, checked
    here: a full basis (g = v^2) spans gl(v) and is closed by dimension
    count, any other by [X, Y] for the fixed weights (_bracket_residual).

    Instances are immutable and form no state after construction: stack,
    gram, gram_split, dual, the pairing, the interleaved basis, the weights
    and the lone-entry tables are read-only, and basis is the list of the stack's rows, so values are
    safe to share across threads.  All of them are float64 when the basis has no nonzero
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
        # the Gram equations that hold one coordinate alone: root pairs and orthogonal elements
        self.gram_split = linalg.equation_split(self.gram)
        # pairing[a*v + b, i] = (B_i)[b, a], so tr(m B_i) = m.ravel() @ pairing[:, i]
        self._pairing = self.stack.transpose(2, 1, 0).reshape(v * v, len(mats))
        # interleaved[c, b*g + i] = (B_i)[c, b], so (m @ interleaved)[a, b*g + i] = (m B_i)[a, b]
        self._interleaved = self.stack.transpose(1, 2, 0).reshape(v, -1)
        # dual[a*v + b] = coordinates of the unit matrix E_ab, so m.ravel() @ dual projects m
        self.dual = linalg.solve_linear(self.gram, self._pairing.T, "Gram matrix", split=self.gram_split).T
        if not np.isfinite(self.dual).all():
            raise DegenerateInput(f"dual basis is not finite: Gram solve overflows at max |G_ij| {abs(self.gram).max():.2e}")
        # weights[0] and weights[1] hold the r and s of two fixed pairs, from g alone: one algebra, one set
        self._weights = np.random.default_rng(len(mats)).standard_normal((2, 2, len(mats)))
        for kept in (self.gram, self._pairing, self._interleaved, self.dual, self._weights):
            kept.flags.writeable = False
        self._pairing_lone = linalg.lone_entries(self._pairing.T)
        self._dual_lone = linalg.lone_entries(self.dual.T)
        self._span_lone = linalg.lone_entries(self.stack.reshape(len(mats), -1).T)
        # build_gram certified the matrices independent: g = v^2 of them span gl(v), closed by dimension count
        if len(mats) < v * v:
            _, res, threshold = self._bracket_residual()
            raise_if(res > threshold, NotASubalgebra, "basis not closed under commutator: residual", res, threshold)

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
        """(v^2, k) columns: column j holds sum_i coords[i, j] B_i row-major, one product."""
        return linalg.left_product(self.stack.reshape(self.g_dim, -1).T, coords, self._span_lone)

    def _dual_coords(self, cols) -> np.ndarray:
        """(g, k) coordinates of the matrices held row-major in the columns of the (v^2, k) cols, one product with dual."""
        return linalg.left_product(self.dual.T, cols, self._dual_lone)

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

        The trace pairings t = P^T cols are one product with the kept
        pairing P, and the coordinates one Gram solve G c = t through the
        kept gram_split.  The solve makes no conditioning decision of its
        own: build_gram made it when the Gram matrix was built.
        """
        t = linalg.left_product(self._pairing.T, cols, self._pairing_lone)
        return linalg.solve_linear(self.gram, t, "Gram matrix", split=self.gram_split)

    def _left_products(self, m) -> np.ndarray:
        """(v^2, g) columns: column i holds m B_i row-major, one GEMM against the interleaved basis."""
        v = self.v_dim
        return linalg.left_product(self._interleaved.T, m.T).T.reshape(v * v, self.g_dim)

    def structure_constants(self) -> np.ndarray:
        """c[i, j, :] = coordinates of [B_i, B_j], as a new (g, g, g) array, real for a real basis.

        Computed on every call, one basis row at a time; the instance keeps
        none of it.  Row i is the g commutators B_i B_j - B_j B_i, as rows of
        v^2 entries, times the dual basis: one (g, v^2) x (v^2, g) GEMM, of
        one shape for every row and every basis.  Row i writes c[i, j] and
        c[j, i] = -c[i, j] for j > i, so the antisymmetry and c[i, i] = 0 hold
        exactly.
        """
        g, v = self.stack.shape[:2]
        c = np.zeros((g,) * 3, dtype=self.stack.dtype)
        for i, b in enumerate(self.stack):
            coords = (b @ self.stack - self.stack @ b).reshape(g, v * v) @ self.dual
            c[i, i + 1 :] = coords[i + 1 :]
            c[i + 1 :, i] = -coords[i + 1 :]
        return c

    def _rounding_floor(self, scale) -> float:
        """linalg.ROUNDING_FLOOR g cond(G) scale: rounding of a projection of inputs of that scale."""
        return linalg.ROUNDING_FLOOR * self.g_dim * self.gram_cond * scale

    def _off_span(self, cols, coords=None) -> tuple[np.ndarray, np.ndarray]:
        """(coords, |m - sum_i c_i B_i| / |m|, 0 for m = 0) of the matrices m held row-major in the columns of
        cols, c by default their projections through dual.  Fixed weights cannot rule out a defect whose
        (bi)linear form vanishes at them, as a nonzero one does only on a proper subvariety (Schwartz 1980)."""
        if coords is None:
            coords = self._dual_coords(cols)
        off = cols - self._span_columns(coords)
        return coords, np.array([linalg.norm(d) / (linalg.norm(m) or 1.0) for m, d in zip(cols.T, off.T)])

    def _bracket_residual(self, coords=None) -> tuple[np.ndarray, float, float]:
        """(coords, residual, threshold): _off_span of [X, Y] for the two weight pairs, at coords if given, the
        worse residual, and max(CLOSURE_TOL, ROUNDING_FLOOR cond(G) min |X| |Y| / |[X, Y]|), a floor at the
        rounding of [X, Y], so that pure rounding passes.  X and Y are taken at one power-of-two scale
        (linalg._shrink), so the products overflow nowhere, and the coordinates, given and returned, are those
        of the unscaled [X, Y], scaled exactly.  DegenerateInput where they overflow."""
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            xy = self._weights.reshape(4, -1) @ self.stack.reshape(self.g_dim, -1)
            shrink = linalg._shrink(xy)
            x, y = (xy * shrink).reshape(2, 2, *self.stack.shape[1:])
            comm = x @ y - y @ x  # shrink^2 [X, Y]
            sizes = linalg.norms(np.stack([x, y, comm]), axis=(2, 3))
            floor = linalg.ROUNDING_FLOOR * self.gram_cond * np.min(sizes[0] * sizes[1] / sizes[2])
            coords, res = self._off_span(comm.reshape(2, -1).T, None if coords is None else coords * shrink * shrink)
            coords = coords / shrink / shrink
        if not np.isfinite(coords).all():
            raise DegenerateInput(f"coordinates of [X, Y] are not finite: they overflow at max |B_i| {abs(self.stack).max():.2e}")
        return coords, float(res.max()), max(CLOSURE_TOL, float(floor))

    def __repr__(self) -> str:
        return f"Representation({self.name!r}, v_dim={self.v_dim}, g_dim={self.g_dim})"


def build_gram(stack: np.ndarray) -> tuple[np.ndarray, float]:
    """Gram matrix G_ij = tr(B_i B_j) of the trace form on a (g, v, v) basis stack,
    as one GEMM of the flattened B_i against the flattened B_j^T, and its
    condition number sv[0]/sv[-1]; DegenerateForm above 1/linalg.RTOL, G's only
    conditioning decision (coords_of solves against G without one).  DegenerateInput,
    before the SVD, where G overflows.  G is symmetrized, and its SVD taken, at the
    power-of-two scale linalg._shrink(G) and scaled back exactly, so that a G with
    entries above half the largest float neither overflows nor reads as singular."""
    with np.errstate(over="ignore", invalid="ignore"):
        g = stack.reshape(len(stack), -1) @ stack.transpose(0, 2, 1).reshape(len(stack), -1).T
    if not np.isfinite(g).all():
        raise DegenerateInput(f"Gram matrix is not finite: it overflows at max |B_i| {abs(stack).max():.2e}")
    shrink = linalg._shrink(g)
    g = g * shrink
    g = 0.5 * (g + g.T)  # symmetric up to summation order; make it exact
    sv = np.linalg.svd(g, compute_uv=False)
    singular = sv[0] == 0.0 or sv[-1] < linalg.RTOL * sv[0]
    ratio = sv[-1] / sv[0] if sv[0] else 0.0
    raise_if(singular, DegenerateForm, "trace form singular on the basis span: sv_min/sv_max", ratio, linalg.RTOL)
    return g / shrink, float(sv[0] / sv[-1])


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
    return _jacobian_psi(rep, g)[1]


def _jacobian_psi(rep: Representation, g) -> tuple[np.ndarray, complex]:
    """cayley_jacobian(rep, g) and its determinant, psi, from one Jacobian; DegenerateInput where psi overflows."""
    with np.errstate(over="ignore", invalid="ignore"):
        jac = cayley_jacobian(rep, g)
        value = linalg.determinant(jac)
    return jac, _require_finite(value, "Jacobian determinant", g)


def character(rep: Representation, g) -> complex:
    return complex(np.trace(rep.element_matrix(g)))


def adjoint_matrix(rep: Representation, b) -> np.ndarray:
    """Matrix of conjugation by b acting on algebra coordinates.

    Column i = coordinates of M(b) B_i M(b)^{-1}, projected through the kept
    dual basis by one product.  DegenerateInput where the conjugate b X b^-1,
    X = sum_i r_i B_i for the first fixed r, or its coordinates overflow;
    NotEquivariant where it leaves the span by more than ADJOINT_RESIDUAL_TOL
    of its norm (_off_span): a malformed representation.  A full basis
    (g = v^2) spans gl(v), and no conjugate can leave it.
    """
    bm = rep.element_matrix(b)
    v, g = rep.v_dim, rep.g_dim
    with np.errstate(over="ignore", invalid="ignore"):
        inverse = linalg.inverse(bm, "conjugating element")
        # conj[a*v + d, i] = (b B_i b^-1)[a, d]: row block a of b B_i, times b^-1
        conj = (inverse.T @ rep._left_products(bm).reshape(v, v, g)).reshape(v * v, g)
        ad = rep._dual_coords(conj)
        if g == v * v:
            return _require_finite(ad, "adjoint matrix", b)
        r = rep._weights[0, :1].T
        coords = ad @ r
        worst = rep._off_span(conj @ r, coords)[1].max()
    if not 0.0 < worst <= ADJOINT_RESIDUAL_TOL:  # an exact fit, or an overflow, which leaves NaN in worst
        _require_finite(coords, "adjoint matrix", b)
    raise_if(not worst <= ADJOINT_RESIDUAL_TOL, NotEquivariant, "conjugation leaves the algebra span: residual", worst, ADJOINT_RESIDUAL_TOL)
    return ad


# --- Jordan-type decompositions ----------------------------------------------


def _spectral_checked(m: np.ndarray, cluster_tol: float) -> linalg.SpectralDecomposition:
    """spectral(m); ClusterAmbiguity if its gap is below twice its threshold (one cluster: gap inf)."""
    dec = linalg.spectral(m, cluster_tol)
    gap, threshold = dec.gap, 2.0 * dec.threshold
    raise_if(gap < threshold, ClusterAmbiguity, "eigenvalue clusters too close to separate: gap", gap, threshold)
    return dec


def _unipotent_split(g, cluster_tol: float):
    """Checked spectrum of the invertible g with g_s and g_u = g_s^-1 g (a copy of g and 1 if simple)."""
    m = _mat(g)
    dec = _spectral_checked(m, cluster_tol)
    moduli = np.abs(dec.eigenvalues)
    if not moduli.any():
        raise SingularMatrix("element is zero: every eigenvalue vanishes")
    smallest, threshold = moduli.min(), SINGULAR_TOL * moduli.max()
    raise_if(smallest < threshold, SingularMatrix, "element is numerically singular: |eigenvalue|", smallest, threshold)
    gs = dec.semisimple_part()
    if max(dec.multiplicities, default=1) == 1:  # g_s is a copy of g: g_u is exactly 1, with no solve
        return dec, gs, np.eye(len(m), dtype=complex)
    return dec, gs, linalg.solve_linear(gs, m, "semisimple part")


def multiplicative_jordan(g, cluster_tol: float = linalg.CLUSTER_TOL):
    """Split g = g_s g_u into commuting semisimple and unipotent parts (g and 1 for a simple spectrum)."""
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
    polynomials in g, so all three factors commute; g_u is exactly 1 for a simple spectrum.
    """
    dec, _, gu = _unipotent_split(g, cluster_tol)
    r = np.abs(dec.eigenvalues)
    return dec.apply(dec.eigenvalues / r), dec.apply(r), gu


# --- centralizers and restriction --------------------------------------------


def centralizer_dim(rep: Representation, x) -> int:
    """Dimension of the centralizer {y in the algebra : x y = y x} of a group element or an algebra vector x.

    x's matrix m is taken at the power-of-two scale linalg._shrink(m), which
    is exact, as c m has the centralizer of m, so no product overflows.  An m
    with a simple, well-conditioned spectrum is counted on its v spectral
    projectors (_commutant_pair); any other on the g columns m B_i - B_i m,
    row-major, of a = [m B_i] (one GEMM against the interleaved basis) and
    s = [B_i m] (one against the stack), with no inverse and no projection.
    One rule counts the kernel of a - s on both routes: singular values below
    max(KERNEL_CUTOFF * sigma_max, 64 g eps cond(G) (|a|_F + |s|_F)).  The
    floor (_rounding_floor) is a few ulps of the operator's inputs, amplified
    by the Gram condition number; without it a central x, where a - s is pure
    rounding, would have its rounding judged relative to itself.  An exactly
    zero operator has all its columns as kernel.  A singular x, or one whose
    conjugation leaves the span, has a centralizer too: nothing is refused.
    """
    if isinstance(x, GroupElement):
        m = rep.element_matrix(x)
    elif isinstance(x, AlgebraVector):
        m = rep.element_matrix(x.matrix())
    else:
        raise TypeError("x must be a GroupElement or an AlgebraVector")
    m = m * linalg._shrink(m)
    pair = _commutant_pair(rep, m)
    if pair is None:
        v, g = rep.v_dim, rep.g_dim
        right = linalg.left_product(rep.stack.reshape(g * v, v), m).reshape(g, v * v).T  # column i: B_i m
        pair = rep._left_products(m), right
    a, s = pair
    sv = np.linalg.svd(a - s, compute_uv=False)
    if sv[0] == 0.0:
        return a.shape[1]
    floor = rep._rounding_floor(linalg.norm(a) + linalg.norm(s))
    return int(np.sum(sv < max(KERNEL_CUTOFF * sv[0], floor)))


def _commutant_pair(rep: Representation, m: np.ndarray) -> tuple[np.ndarray, np.ndarray] | None:
    """(a, s) on the commutant of m, for centralizer_dim, or None where m does not qualify.

    A matrix with v distinct eigenvalues, m = P diag(lambda) P^-1, commutes
    only with the polynomials in m (Gantmacher 1959, The Theory of Matrices,
    vol. 1, ch. VIII), which its v spectral projectors p_k q_k^T span (q_k the
    rows of P^-1).  Its centralizer in the algebra is therefore the algebra's
    intersection with that span: the kernel of a - s, where the columns of a
    are the projectors scaled to unit norm (row-major, (v^2, v)) and s their
    projections through the dual basis.  A full basis (g = v^2) contains every
    projector, and takes a zero a = s with no product.

    m qualifies when its spectrum is simple by spectral's rule (every cluster
    of _clusters at CLUSTER_TOL |m| a singleton, the zero matrix's eigenvalues
    one cluster, and the gap at least twice that threshold, as
    _spectral_checked reads it), and its eigenvectors are well conditioned:
    cond(P)^2 ROUNDING_FLOOR <= KERNEL_CUTOFF, cond(P) up to ~2.65e3, so that
    the projectors' rounding stays below the cutoff.  cond(P) is taken as its
    bound |P|_F |P^-1|_F = sqrt(v sum_k |q_k|^2): eig's p_k have unit norm, so
    |q_k| is also the norm of p_k q_k^T.  Clustered and near-defective
    spectra (the identity, central elements, unipotent elements) and an eig
    or inverse that fails return None.
    """
    try:
        eigenvalues, p = np.linalg.eig(m)
    except np.linalg.LinAlgError:
        return None
    threshold = linalg.CLUSTER_TOL * (scale := linalg.norm(m))
    reps, _, dist = linalg._clusters(eigenvalues, threshold if scale else np.inf)
    if len(reps) < len(eigenvalues) or not dist.min(initial=np.inf) >= 2.0 * threshold:
        return None
    try:
        q = linalg.inverse(p, "eigenvector matrix")
    except SingularMatrix:
        return None
    sizes = linalg.norms(q, axis=1)
    v = rep.v_dim
    if not v * sizes @ sizes * linalg.ROUNDING_FLOOR <= KERNEL_CUTOFF:
        return None
    if rep.g_dim == v * v:
        zero = np.zeros((v, v))
        return zero, zero
    a = (p[:, None, :] * (q / sizes[:, None]).T).reshape(v * v, v)  # a[i*v + j, k] = p[i, k] q[k, j] / |q_k|
    return a, rep._span_columns(rep._dual_coords(a))


def restrict_to_subalgebra(rep: Representation, index_subset) -> Representation:
    """New representation on a basis subset of distinct integer indices (not
    bools, which index as 0 and 1); the subset must span a subalgebra.  It
    keeps none of the parent's metadata, whose family and Cartan bookkeeping
    describe the parent: every sampler but "generic" raises ValueError on it."""
    idx = list(index_subset)
    if len(idx) == 0:
        raise ValueError("index subset must be nonempty")
    if len(set(idx)) != len(idx) or not all(linalg._is_integer(i) and 0 <= i < rep.g_dim for i in idx):
        raise ValueError(f"invalid index subset {idx}")
    idx = [int(i) for i in idx]  # named by value: np.arange(2), range(2) and [0, 1] give one name
    return Representation(f"{rep.name}|{idx}", [rep.basis[i] for i in idx])
