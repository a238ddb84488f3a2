"""Dense complex linear algebra primitives.

Everything downstream works with small (dim <= 12) dense complex matrices,
so the kernels here favor reproducibility and explicit tolerances over
asymptotic speed.  Eigenvalues, solves and determinants are delegated to
LAPACK via numpy.linalg; clustering, functions of a matrix that are constant
on its eigenvalue clusters, the matrix exponential and companion-matrix root
finding are built on top.  Eigenvalues and polynomial roots share one
transitive clustering rule (dedup_roots); spectral measures the gap between
eigenvalue clusters in the pass that forms them, and every Jordan-type factor
is one SpectralDecomposition.apply call.  A polynomial is a plain array of
ascending complex coefficients, and poly_roots polishes every root at once:
each Newton step is one Vandermonde matrix of the roots and two products.
The exponential is Pade scaling and squaring (Higham 2005): six products,
one LU solve and the squarings the 1-norm asks for, with no per-term
convergence test.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import factorial, frexp, ldexp, sqrt

import numpy as np

from .errors import ConvergenceFailure, DegenerateInput, SingularMatrix

# A matrix whose condition number exceeds 1/RTOL counts as singular.
RTOL = 1e-9
# Default tolerance for merging nearby eigenvalues into one cluster.
CLUSTER_TOL = 1e-6
# Absolute tolerance for declaring two polished polynomial roots equal.
ROOT_DEDUP_TOL = 1e-7
# poly_roots takes no Newton step where |p'| is at most this.
NEWTON_SLOPE_TOL = 1e-14
# A few ulps per dimension: the floor, times dimension and input scale, of relative tests that rounding must pass.
ROUNDING_FLOOR = 64 * np.finfo(float).eps
# Largest 1-norm at which the [13/13] Pade approximant of exp meets double
# precision (Higham 2005, Table 2.3); above it the exponent is scaled.
PADE_THETA = 5.371920351148152
# [13/13] Pade numerator coefficients b_j = (26-j)! 13! / (j! (13-j)!); the
# denominator has coefficients (-1)^j b_j.
PADE_COEFFS = [float(factorial(26 - j) // factorial(13 - j) * (factorial(13) // factorial(j))) for j in range(14)]

Matrix = np.ndarray


def as_square_matrix(a, name: str = "matrix") -> Matrix:
    """Coerce to a square complex array, rejecting NaN/Inf entries."""
    m = np.asarray(a, dtype=complex)
    if m.ndim != 2:
        raise ValueError(f"{name} must be square, got shape {m.shape}")
    return _square_matrices(m, name)


def _square_matrices(a, name: str) -> np.ndarray:
    """Coerce to a complex array of square matrices along its last two axes, (..., n, n), with the
    ValueError as_square_matrix raises for one matrix: each matrix of a stack is checked as one."""
    m = np.asarray(a, dtype=complex)
    if m.ndim < 2 or m.shape[-1] != m.shape[-2]:
        raise ValueError(f"{name} must be square, got shape {m.shape}")
    if not np.isfinite(m).all():
        raise ValueError(f"{name} contains non-finite entries")
    return m


def matrix_to_json(m: Matrix) -> dict:
    """Serialize as {"n":..., "re":[[...]], "im":[[...]]}; "im" omitted when zero."""
    m = np.asarray(m, dtype=complex)
    out = {"n": int(m.shape[0]), "re": m.real.tolist()}
    if np.any(m.imag != 0.0):
        out["im"] = m.imag.tolist()
    return out


def complex_to_json(z):
    """[re, im] for a scalar, a list of [re, im] pairs for a 1-D array."""
    a = np.asarray(z, dtype=complex)
    pairs = [[float(v.real), float(v.imag)] for v in np.atleast_1d(a)]
    return pairs if a.ndim else pairs[0]


def matrix_from_json(d: dict) -> Matrix:
    n = int(d["n"])
    re = np.asarray(d["re"], dtype=float)
    im = np.asarray(d.get("im", np.zeros((n, n))), dtype=float)
    if re.shape != (n, n) or im.shape != (n, n):
        raise ValueError(f"matrix payload shape mismatch for n={n}")
    return as_square_matrix(re + 1j * im)


def complex_normal(rng: np.random.Generator, size=None, scale: float = 1.0):
    """Circular complex Gaussian samples with E|z|^2 = scale^2, real parts then imaginary parts in one draw."""
    shape = () if size is None else tuple(size) if np.iterable(size) else (size,)
    return _complex_from_parts(rng.standard_normal((2, *shape)), scale)


def _complex_from_parts(parts: np.ndarray, scale: float):
    """scale * (parts[0] + 1j*parts[1]) / sqrt(2) bit for bit (numpy divides by a real as a product
    with its reciprocal), scaling the float array parts in place; a 0-d result is a numpy scalar."""
    if scale != 1.0:
        parts *= scale
    parts *= 1.0 / sqrt(2)
    z = np.empty(parts.shape[1:], dtype=complex)
    z.real = parts[0]
    z.imag = parts[1]
    return z[()]


def norms(a, axis=None):
    """The Frobenius norms of the array a's slices along axis (an int or a pair, as
    np.linalg.norm takes it; None for all of a): np.linalg.norm(a, axis=axis) bit for
    bit wherever that is finite.  np.linalg.norm sums squares, which overflows from
    entries of about 1e154; there the norm of the slice divided by its largest
    component is scaled back, so a norm is inf only for a non-finite slice or a norm
    above the largest float.  The norm of a whole float64 or complex128 array is
    numpy's sum of squares taken with no numpy warning: np.vdot, unlike the np.dot
    numpy takes, warns of no overflow, and the real and imaginary sums add as Python
    floats; only where that sum is not finite does np.errstate enter.
    """
    a = np.asarray(a)
    if axis is None and a.dtype.char in "dD":
        x = a.ravel(order="K")
        if x.dtype.char == "d":
            sq = float(np.vdot(x, x))
        else:
            sq = float(np.vdot(x.real, x.real)) + float(np.vdot(x.imag, x.imag))
        if sq < np.inf:
            return sqrt(sq)
    # along an axis numpy squares a complex inf as inf * conj(inf), whose imaginary part is NaN
    with np.errstate(over="ignore", invalid="ignore"):
        out = np.linalg.norm(a, axis=axis)
        redo = out == np.inf
        if np.count_nonzero(redo):
            redo &= np.isfinite(a).all(axis=axis)
            top = np.maximum(np.abs(a.real), np.abs(a.imag)).max(axis=axis, keepdims=True)
            top = np.where(np.isfinite(top) & (top > 0), top, 1.0)
            out = np.where(redo, np.linalg.norm(a / top, axis=axis) * np.squeeze(top, axis), out)
    return out


def norm(a) -> float:
    """The Frobenius norm of an array, norms(a) as a float.  Thresholds take their scale from it."""
    return float(norms(a))


def _shrink(a, axis=None):
    """2^-e, 2^e the largest power of two up to the largest modulus in the array a (in each of its
    slices along axis) and at least 2^-1022, so that 2^-e is a finite float (e <= 1023 where that
    modulus is finite): a times it is exact and has its largest modulus in [1, 2) wherever that
    modulus is normal; a zero slice takes the largest factor, 2^1022."""
    top = np.abs(a).max(axis=axis, initial=2.0**-1022)
    if axis is None:  # the scalar case on math's frexp, several times faster than numpy's
        return ldexp(1.0, 1 - frexp(top)[1])
    return np.ldexp(1.0, 1 - np.frexp(top)[1])


def left_product(a: Matrix, c: Matrix) -> Matrix:
    """a @ c for arrays a and c, c of two or more axes.  A real a and a
    complex c multiply as one real GEMM on c's float view, which holds the
    real and imaginary parts of each column side by side: exact per
    component, at half the work of the complex product.  Any other pair is
    a @ c as it stands.
    """
    if a.dtype.kind == "c" or c.dtype.kind != "c":
        return a @ c
    return (a @ np.ascontiguousarray(c).view(np.float64)).view(complex)


def solve_linear(a: Matrix, b: Matrix, what: str = "matrix") -> Matrix:
    """np.linalg.solve(a, b); SingularMatrix where LU meets an exactly zero pivot.

    A real a and a complex b take one real LU over b's float view, whose
    columns hold the real and imaginary parts of b's side by side.  No
    condition check and no SVD: a caller that needs one decides once, where
    its matrix is made (build_gram for G, clifford.cayley_gamma for 1 + b).
    """
    a, b = np.asarray(a), np.asarray(b)
    try:
        if a.dtype.kind == "c" or b.dtype.kind != "c" or a.ndim != 2:
            return np.linalg.solve(a, b)
        cols = b if b.ndim > 1 else b[:, None]
        x = np.linalg.solve(a, np.ascontiguousarray(cols).view(np.float64)).view(complex)
        return x if b.ndim > 1 else x[:, 0]
    except np.linalg.LinAlgError as exc:
        raise SingularMatrix(f"{what} is singular") from exc


def inverse(a: Matrix, what: str) -> Matrix:
    """np.linalg.inv, with SingularMatrix where LU meets an exactly zero pivot.

    No condition check: callers invert group elements, which may be badly
    conditioned yet are used as they stand.
    """
    try:
        return np.linalg.inv(a)
    except np.linalg.LinAlgError as exc:
        raise SingularMatrix(f"{what} is singular") from exc


def determinant(a: Matrix) -> complex:
    """Determinant via pivoted elimination (LAPACK LU); 0 for singular input."""
    a = np.asarray(a, dtype=complex)
    if a.shape[0] != a.shape[1]:
        raise ValueError(f"matrix not square: {a.shape}")
    return complex(np.linalg.det(a))


def matrix_exp(a: Matrix) -> Matrix:
    """Matrix exponential by [13/13] Pade scaling and squaring (Higham 2005,
    SIAM J. Matrix Anal. Appl. 26:1179, Algorithm 2.3, with m fixed at 13).

    a is scaled by 2^-s so that its 1-norm is at most PADE_THETA.  With U
    the odd and V the even part of the numerator, evaluated from a^2, a^4
    and a^6, r = (V - U)^-1 (V + U) is one LU solve and exp(a) = r^(2^s):
    six products, one solve and s squarings.  The smaller degrees of
    Higham's algorithm would save up to four products below the norm 2.1;
    one degree keeps one evaluation.  ValueError for input that is not
    square or not finite, as as_square_matrix words it; DegenerateInput where
    the 1-norm of the finite a overflows, so that no scaling is defined.

    a may carry leading axes, (..., n, n): each matrix keeps its own s and
    its own refusal, the products and the one solve run over the stack, and a
    matrix that needs fewer squarings than the stack's most keeps its power
    from there on, so every matrix of the result is its exponential alone,
    bit for bit.  One matrix takes no step a stack needs.
    """
    a = _square_matrices(a, "exponent")
    with np.errstate(over="ignore"):
        norm = np.abs(a).sum(axis=-2).max(axis=-1, initial=0.0)
    if a.ndim == 2:
        squarings = fewest = most = _squarings(norm)
    else:
        squarings = np.array([_squarings(x) for x in norm.ravel().tolist()], dtype=int).reshape(norm.shape + (1, 1))
        most = squarings.max(initial=0)
        fewest = squarings.min(initial=most)
    a = a * 0.5**squarings
    b = PADE_COEFFS
    eye = np.eye(a.shape[-1], dtype=complex)
    a2 = a @ a
    a4 = a2 @ a2
    a6 = a4 @ a2
    u = a @ (a6 @ (b[13] * a6 + b[11] * a4 + b[9] * a2) + b[7] * a6 + b[5] * a4 + b[3] * a2 + b[1] * eye)
    v = a6 @ (b[12] * a6 + b[10] * a4 + b[8] * a2) + b[6] * a6 + b[4] * a4 + b[2] * a2 + b[0] * eye
    result = np.linalg.solve(v - u, v + u)
    for step in range(most):
        square = result @ result
        result = square if step < fewest else np.where(squarings > step, square, result)
    return result


def _squarings(norm: float) -> int:
    """The s with 2^-s norm at most PADE_THETA for an exponent of 1-norm norm; DegenerateInput where it overflows."""
    if norm == np.inf:
        raise DegenerateInput("exponent 1-norm overflows: no scaling 2^-s brings it to PADE_THETA")
    return int(np.ceil(np.log2(norm / PADE_THETA))) if norm > PADE_THETA else 0


def poly_roots(coeffs) -> np.ndarray:
    """All roots (with multiplicity) of the polynomial with ascending
    coefficients coeffs, via companion-matrix eigenvalues.  Only exactly-zero
    trailing coefficients are stripped; ValueError for input that is not a
    nonempty 1-D sequence.

    Each root is polished by three Newton steps, which matters when roots
    are later deduplicated at tight absolute tolerance.  A step evaluates p
    and p' at all roots as two products with one Vandermonde matrix of the
    roots, and leaves a root where |p'| is at most NEWTON_SLOPE_TOL.
    """
    c = np.atleast_1d(np.asarray(coeffs, dtype=complex))
    if c.ndim != 1 or c.size == 0:
        raise ValueError("coefficients must be a nonempty 1-D sequence")
    nonzero = np.flatnonzero(c)
    if nonzero.size == 0:
        raise DegenerateInput("zero polynomial has no well-defined roots")
    c = c[: nonzero[-1] + 1]
    deg = c.size - 1
    if deg < 1:
        raise DegenerateInput("constant polynomial has no roots")
    monic = c / c[-1]
    companion = np.zeros((deg, deg), dtype=complex)
    companion[1:, :-1] = np.eye(deg - 1)
    companion[:, -1] = -monic[:-1]
    try:
        roots = np.linalg.eigvals(companion)
    except np.linalg.LinAlgError as exc:
        raise ConvergenceFailure("companion eigensolver stalled") from exc
    slope_coeffs = c[1:] * np.arange(1, deg + 1)
    for _ in range(3):
        # powers[i, k] = roots[i]**k: p and p' at every root are one product each
        powers = np.vander(roots, deg + 1, increasing=True)
        slope = powers[:, :-1] @ slope_coeffs
        safe = np.abs(slope) > NEWTON_SLOPE_TOL
        step = np.where(safe, powers @ c, 0.0) / np.where(safe, slope, 1.0)
        roots = np.where(safe, roots - step, roots)
    return roots


def dedup_roots(values, tol=ROOT_DEDUP_TOL):
    """Cluster complex values transitively at absolute tolerance tol, or at
    tol[i] per value (a pair joins below the larger of its two).

    Two values share a cluster when a chain of values, each closer than tol
    to the next, joins them, so the clusters do not depend on input order.
    Clusters are numbered by their first member.  Returns (representatives,
    labels): the list labels[i] is the cluster number of values[i], a cluster's
    representative is the mean of its members in index order, and a
    singleton's is its value unchanged.
    """
    v = np.asarray(values, dtype=complex).ravel()
    points = v.tolist()
    tols = np.broadcast_to(tol, v.shape).tolist()
    # label[i] is the index of the first member of i's cluster so far
    label = list(range(len(points)))
    for i, z in enumerate(points):
        for j in range(i):
            if label[j] != label[i] and abs(z - points[j]) < max(tols[i], tols[j]):
                keep, drop = sorted((label[i], label[j]))
                label = [keep if lab == drop else lab for lab in label]
    members: dict[int, list[int]] = {}
    for i, lab in enumerate(label):
        members.setdefault(lab, []).append(i)
    number = {first: k for k, first in enumerate(members)}
    reps = [points[idx[0]] if len(idx) == 1 else np.mean(v[idx]) for idx in members.values()]
    return np.array(reps, dtype=complex), [number[lab] for lab in label]


@dataclass
class SpectralDecomposition:
    """Eigenvalues of `matrix` clustered by dedup_roots, sorted by real then
    imaginary part, with multiplicities[k] the number of eigenvalues in
    cluster k.

    threshold is the clustering distance spectral used, and gap the smallest
    distance between eigenvalues of different clusters (inf for one cluster):
    Jordan-type callers compare the two to detect ambiguity without re-solving.
    """

    matrix: np.ndarray
    eigenvalues: np.ndarray
    multiplicities: list[int]
    threshold: float
    gap: float

    def apply(self, values) -> Matrix:
        """f(matrix) for the f equal to values[k] on cluster k, with every
        derivative zero there.

        f is the confluent Hermite interpolant on the clustered spectrum, built
        by Newton divided differences: each cluster is a node repeated to its
        multiplicity, and a repeated node takes the derivative, 0.  So f(matrix)
        is a polynomial in matrix and commutes with it; values = e_k gives the
        spectral projector of cluster k (Higham 2008, Functions of Matrices,
        ch. 1).  It is evaluated exactly on matrix 2^-e at nodes 2^-e (_shrink, e of
        either sign), so that neither the Newton factors overflow at |matrix|^(n-1)
        nor the divided differences at |matrix|^(1-n).
        """
        mults = self.multiplicities
        shrink = _shrink(self.matrix)
        a = self.matrix * shrink
        nodes = np.repeat(self.eigenvalues, mults) * shrink
        coeff = np.repeat(np.asarray(values, dtype=complex), mults)
        for order in range(1, nodes.size):
            step = nodes[order:] - nodes[:-order]
            diff = coeff[order:] - coeff[order - 1 : -1]
            coeff[order:] = np.divide(diff, step, out=np.zeros_like(diff), where=step != 0)
        eye = np.eye(nodes.size, dtype=complex)
        result = coeff[0] * eye
        factor = eye
        for k in range(1, nodes.size):
            factor = factor @ (a - nodes[k - 1] * eye)
            result = result + coeff[k] * factor
        return result

    def semisimple_part(self) -> Matrix:
        return self.apply(self.eigenvalues)


def spectral(a: Matrix, cluster_tol: float = CLUSTER_TOL) -> SpectralDecomposition:
    """Eigenvalues of a clustered at threshold cluster_tol * ||a|| (the zero
    matrix's threshold is 0: its n zero eigenvalues are one cluster), kept on
    the result as its threshold beside the gap between its clusters.

    Only the eigenvalues are computed here; SpectralDecomposition.apply
    evaluates a function of a that is constant on each cluster when asked.
    DegenerateInput, before any eigen work, for a finite a with an entry whose
    modulus overflows: the power-of-two scale (_shrink) that the threshold
    and apply take a at is not defined there.
    """
    a = np.asarray(a, dtype=complex)
    if cluster_tol <= 0:
        raise ValueError("cluster_tol must be positive")
    if np.abs(a).max(initial=0.0) == np.inf and np.isfinite(a).all():
        raise DegenerateInput("entry modulus overflows: no power-of-two scale 2^-e brings the matrix to unit size")
    try:
        raw = np.linalg.eigvals(a)
    except np.linalg.LinAlgError as exc:
        raise ConvergenceFailure("eigenvalue iteration stalled") from exc
    # |a| taken on a 2^-e and scaled back: numpy's bits, also where its squares would underflow
    shrink = _shrink(a)
    threshold = cluster_tol * norm(a * shrink) / shrink
    reps, labels = dedup_roots(raw, threshold if a.any() else np.inf)
    diff = raw[:, None] - raw
    # hypot matches the scalar abs() of numpy complex bit for bit; np.abs on
    # complex arrays can differ in the last ulp
    gap = np.hypot(diff.real, diff.imag)[np.not_equal.outer(labels, labels)].min(initial=np.inf)
    order = np.lexsort((reps.imag, reps.real))
    return SpectralDecomposition(a, reps[order], np.bincount(labels)[order].tolist(), threshold, float(gap))
