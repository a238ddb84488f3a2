"""Trace-form projection of represented group elements onto the Lie algebra.

A Representation bundles the algebra basis matrices B_i (images of a chosen
basis of the algebra under the differential of the representation) together
with the cached Gram matrix of the trace form, G_ij = tr(B_i B_j).  The
projection of a matrix M solves

    G c = t,   t_i = tr(M B_i),

so c are the coordinates of the unique algebra element whose trace pairing
with every basis vector matches that of M.  Representation.coords_of is the
one place that forms this pairing and solves the Gram system, for a single
matrix or a stack of them.  The map itself projects M(g); the Jacobian in
the left-invariant frame, adjoint matrices, centralizer operators and
structure constants project the stacks M(g) B_i, b B_i b^-1, [x, B_i] and
[B_i, B_j].
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import linalg
from .errors import ClusterAmbiguity, DegenerateForm, NotASubalgebra, NotEquivariant

# Gram matrices with smaller relative singular values count as degenerate.
GRAM_SINGULAR_TOL = 1e-12
# Residual allowed when re-expressing commutators / conjugates in the basis.
CLOSURE_TOL = 1e-8
ADJOINT_RESIDUAL_TOL = 1e-6
# Singular values below this fraction of the largest count as kernel.
KERNEL_CUTOFF = 1e-7


@dataclass
class GroupElement:
    """A group element realized as its representing matrix."""

    matrix: np.ndarray

    def __post_init__(self):
        self.matrix = linalg.as_square_matrix(self.matrix, "group element")

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    def inverse(self) -> "GroupElement":
        return GroupElement(np.linalg.inv(self.matrix))


def _mat(g) -> np.ndarray:
    if isinstance(g, GroupElement):
        return g.matrix
    return np.asarray(g, dtype=complex)


class Representation:
    """Algebra basis matrices with cached trace-form Gram matrix.

    coords_of is the single trace-form projection: every coordinate
    computation of this module goes through it.  Raises DegenerateForm when
    the basis is linearly dependent or the trace form is singular on its span
    (then no projection map exists), and NotASubalgebra when the span is not
    closed under commutators; check_closure=False defers that check to the
    first structure_constants call.  Instances are immutable in practice:
    nothing mutates basis or gram after construction, so values are safe to
    share across threads.
    """

    def __init__(self, name: str, basis, metadata: dict | None = None, check_closure: bool = True):
        if len(basis) == 0:
            raise ValueError("basis must be nonempty")
        mats = [linalg.as_square_matrix(b, f"basis[{i}]") for i, b in enumerate(basis)]
        v = mats[0].shape[0]
        if any(m.shape != (v, v) for m in mats):
            raise ValueError("basis matrices must share one size")
        self.name = name
        self.basis = mats
        self.stack = np.stack(mats)
        self.metadata = dict(metadata or {})
        self.gram = build_gram(self.stack)
        # pairing[a*v + b, i] = (B_i)[b, a], so tr(m B_i) = m.ravel() @ pairing[:, i]
        self._pairing = self.stack.transpose(2, 1, 0).reshape(v * v, len(mats))
        self._structure: np.ndarray | None = None
        if check_closure:
            self.structure_constants()

    @property
    def v_dim(self) -> int:
        return self.stack.shape[1]

    @property
    def g_dim(self) -> int:
        return self.stack.shape[0]

    def materialize(self, coords) -> np.ndarray:
        """Matrices sum_i c_i B_i for coordinates of shape (..., g)."""
        coords = np.asarray(coords, dtype=complex)
        flat = coords @ self.stack.reshape(self.g_dim, -1)
        return flat.reshape(coords.shape[:-1] + (self.v_dim, self.v_dim))

    def trace_pair(self, m) -> np.ndarray:
        """Trace pairings t_i = tr(m B_i) for matrices of shape (..., v, v)."""
        m = np.asarray(m, dtype=complex)
        t = m.reshape(-1, self.v_dim * self.v_dim) @ self._pairing
        return t.reshape(m.shape[:-2] + (self.g_dim,))

    def coords_of(self, m, residual_tol: float | None = None) -> np.ndarray:
        """Coordinates of the trace-form projection of m onto the basis span.

        m has shape (..., v, v); the result has shape (..., g), from one Gram
        solve whatever the leading axes.  With residual_tol set, raises
        NotASubalgebra if some matrix of m is not actually in the span to
        that relative accuracy.
        """
        t = self.trace_pair(m)
        c = linalg.solve_linear(self.gram, t.reshape(-1, self.g_dim).T).T.reshape(t.shape)
        if residual_tol is not None:
            res = np.linalg.norm(m - self.materialize(c), axis=(-2, -1))
            worst = float(np.max(res / (1.0 + np.linalg.norm(m, axis=(-2, -1)))))
            if worst > residual_tol:
                raise NotASubalgebra(f"element leaves the basis span (residual {worst:.2e})")
        return c

    def structure_constants(self) -> np.ndarray:
        """c[i, j, :] = coordinates of [B_i, B_j]; cached.

        Raises NotASubalgebra when some commutator leaves the basis span.
        """
        if self._structure is None:
            comm = _commutators(self.stack)
            c = self.coords_of(comm)
            recon = self.materialize(c)
            recon -= comm  # in place: the commutator stack is the largest array here
            res = np.abs(recon).reshape(self.g_dim**2, -1).sum(axis=1).max()
            if res > CLOSURE_TOL * (1.0 + np.abs(comm).max()):
                raise NotASubalgebra(f"basis not closed under commutator (residual {res:.2e})")
            self._structure = c
        return self._structure

    def __repr__(self) -> str:
        return f"Representation({self.name!r}, v_dim={self.v_dim}, g_dim={self.g_dim})"


def _commutators(stack: np.ndarray) -> np.ndarray:
    """[B_i, B_j] as a (g, g, v, v) array, from one (g v) x (g v) product."""
    g, v = stack.shape[:2]
    prod = (stack.reshape(g * v, v) @ stack.transpose(1, 0, 2).reshape(v, g * v)).reshape(g, v, g, v)
    return prod.transpose(0, 2, 1, 3) - prod.transpose(2, 0, 1, 3)


def build_gram(stack: np.ndarray) -> np.ndarray:
    """Gram matrix G_ij = tr(B_i B_j) of the trace form on a (g, v, v) basis stack."""
    g = np.einsum("iab,jba->ij", stack, stack)
    g = 0.5 * (g + g.T)  # symmetric up to summation order; make it exact
    sv = np.linalg.svd(g, compute_uv=False)
    if sv[0] == 0.0 or sv[-1] < GRAM_SINGULAR_TOL * sv[0]:
        raise DegenerateForm(
            f"trace form singular on the basis span "
            f"(singular value ratio {sv[-1] / max(sv[0], 1e-300):.2e})"
        )
    return g


@dataclass
class AlgebraVector:
    """Coordinates of an algebra element relative to a representation basis."""

    rep: Representation
    coords: np.ndarray

    def __post_init__(self):
        self.coords = np.asarray(self.coords, dtype=complex)
        if self.coords.shape != (self.rep.g_dim,):
            raise ValueError(f"expected {self.rep.g_dim} coordinates, got {self.coords.shape}")
        if not np.all(np.isfinite(self.coords.real) & np.isfinite(self.coords.imag)):
            raise ValueError("coordinates contain non-finite entries")

    def matrix(self) -> np.ndarray:
        return self.rep.materialize(self.coords)

    def to_json(self) -> dict:
        return {"coords_re": self.coords.real.tolist(), "coords_im": self.coords.imag.tolist()}

    @classmethod
    def from_json(cls, rep: Representation, d: dict) -> "AlgebraVector":
        re = np.asarray(d["coords_re"], dtype=float)
        im = np.asarray(d.get("coords_im", np.zeros_like(re)), dtype=float)
        return cls(rep, re + 1j * im)


# --- the projection map and its Jacobian -------------------------------------


def cayley(rep: Representation, g) -> AlgebraVector:
    """Project the group element onto the algebra in the trace form."""
    return AlgebraVector(rep, rep.coords_of(_mat(g)))


def cayley_jacobian(rep: Representation, g) -> np.ndarray:
    """Matrix of the differential at g, composed with left translation.

    Column i holds the image coordinates of the i-th left-invariant
    direction, the projection of M(g) B_i.
    """
    return rep.coords_of(_mat(g) @ rep.stack).T


def psi(rep: Representation, g) -> complex:
    """Jacobian determinant of the projection map in the left-invariant frame.

    Independent of the basis choice; its zero set is where the map's
    differential degenerates.
    """
    return linalg.determinant(cayley_jacobian(rep, g))


def character(rep: Representation, g) -> complex:
    return complex(np.trace(_mat(g)))


def adjoint_matrix(rep: Representation, b) -> np.ndarray:
    """Matrix of conjugation by b acting on algebra coordinates.

    Column i = coordinates of M(b) B_i M(b)^{-1}.  Raises NotEquivariant if
    conjugation leaves the basis span, which signals a malformed
    representation.
    """
    bm = _mat(b)
    try:
        return rep.coords_of(bm @ rep.stack @ np.linalg.inv(bm), residual_tol=ADJOINT_RESIDUAL_TOL).T
    except NotASubalgebra as exc:
        raise NotEquivariant(f"conjugation leaves the algebra span: {exc}") from exc


# --- Jordan-type decompositions ----------------------------------------------


def _spectral_checked(m: np.ndarray, cluster_tol: float) -> linalg.SpectralDecomposition:
    dec = linalg.spectral(m, cluster_tol)
    if dec.eigenvalues.size > 1:
        threshold = cluster_tol * (1.0 + np.linalg.norm(m))
        gap = linalg.min_intercluster_gap(dec)
        if gap < 2.0 * threshold:
            raise ClusterAmbiguity(
                f"eigenvalue gap {gap:.2e} straddles clustering threshold {threshold:.2e}"
            )
    return dec


def _unipotent_split(g, cluster_tol: float):
    """Checked spectrum of the invertible g with its factors g_s, g_u = g_s^-1 g."""
    m = _mat(g)
    dec = _spectral_checked(m, cluster_tol)
    if np.min(np.abs(dec.eigenvalues)) < 1e-12:
        raise ValueError("element is numerically singular; no unipotent part")
    gs = dec.semisimple_part()
    return dec, gs, np.linalg.solve(gs, m)


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

    Group elements use ker(Ad - 1), algebra vectors use ker(ad), both on
    coordinates; singular values below KERNEL_CUTOFF * sigma_max count as 0.
    """
    if isinstance(x, GroupElement):
        op = adjoint_matrix(rep, x) - np.eye(rep.g_dim)
    elif isinstance(x, AlgebraVector):
        xm = x.matrix()
        op = rep.coords_of(xm @ rep.stack - rep.stack @ xm).T
    else:
        raise TypeError("x must be a GroupElement or an AlgebraVector")
    sv = np.linalg.svd(op, compute_uv=False)
    if sv.size == 0 or sv[0] == 0.0:
        return rep.g_dim
    return int(np.sum(sv < KERNEL_CUTOFF * sv[0]))


def restrict_to_subalgebra(rep: Representation, index_subset) -> Representation:
    """New representation on a basis subset; the subset must span a subalgebra."""
    idx = list(index_subset)
    if len(idx) == 0:
        raise ValueError("index subset must be nonempty")
    if len(set(idx)) != len(idx) or not all(0 <= i < rep.g_dim for i in idx):
        raise ValueError(f"invalid index subset {idx}")
    sub = [rep.basis[i] for i in idx]
    meta = dict(rep.metadata)
    meta["restricted_from"] = rep.name
    meta["restricted_indices"] = idx
    meta.pop("cartan_indices", None)
    return Representation(f"{rep.name}|{idx}", sub, metadata=meta)
