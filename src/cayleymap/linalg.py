"""Dense complex linear algebra primitives.

Everything downstream works with small (dim <= 12) dense complex matrices,
so the kernels here favor reproducibility and explicit tolerances over
asymptotic speed.  Eigenvalues, solves and determinants are delegated to
LAPACK via numpy.linalg; clustering, functions of a matrix that are constant
on its eigenvalue clusters, the matrix exponential and companion-matrix root
finding are built on top.  Eigenvalues and polynomial roots share one
transitive clustering rule (dedup_roots) on one distance matrix, where spectral
also reads the gap between eigenvalue clusters, and every Jordan-type factor
is one SpectralDecomposition.apply call (a simple spectrum is its own
semisimple part, which takes none).  A polynomial is a plain array of
ascending complex coefficients, and poly_roots polishes every root at once:
one power table of the roots, refilled in place at each Newton step, gives p
and p' as two products, and a root where |p'| is too small moves by exactly 0.
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
# norms rescales a slice whose norm is below this, 2^-485: its sum of squares is under tiny/eps.
_TINY_NORM = sqrt(np.finfo(float).tiny / np.finfo(float).eps)

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


def _is_integer(x) -> bool:
    """x is an int or a numpy integer, and not a bool, which int() and indexing read as 0 or 1."""
    return isinstance(x, (int, np.integer)) and not isinstance(x, bool)


def _json_size(d: dict) -> int:
    """d["n"] as an int; ValueError unless it is an integer, so that 4.7 is not read as 4 nor true as 1."""
    if not _is_integer(d["n"]):
        raise ValueError(f"n must be an integer, got {d['n']!r}")
    return int(d["n"])


def matrix_from_json(d: dict) -> Matrix:
    n = _json_size(d)
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
    np.linalg.norm takes it; None for all of a), exact at every scale: np.linalg.norm(a,
    axis=axis) bit for bit wherever its sum of squares is finite and at least tiny/eps
    (2^-970), below which squares that underflow can move the sum by more than n eps.
    Any other finite slice takes the norm of the slice times 2^-e (_shrink) scaled back
    by 2^e, the scaled (LAPACK dnrm2) norm (Blue 1978, ACM TOMS 4): exact, so a norm is 0
    only for a zero slice and inf only for a non-finite slice or a norm above the largest
    float.  The norm of a whole float64 or complex128 array is numpy's sum of squares
    taken with no numpy warning (_root_sum_squares); an exact-zero array is 0 from one
    x.any(), a sum below tiny/eps (so of finite entries) takes the scaled norm the same
    way, and only a sum outside that range enters np.errstate.
    """
    a = np.asarray(a)
    if axis is None and a.dtype.char in "dD":
        x = a.ravel(order="K")
        out = _root_sum_squares(x)
        if _TINY_NORM <= out < np.inf or not x.any():
            return out
        if out < _TINY_NORM:
            shrink = _shrink(x)
            return _root_sum_squares(x * shrink) / shrink
    # along an axis numpy squares a complex inf as inf * conj(inf), whose imaginary part is NaN
    with np.errstate(over="ignore", invalid="ignore"):
        out = np.linalg.norm(a, axis=axis)
        redo = (out < _TINY_NORM) | (out == np.inf)
        if redo.any():
            redo &= np.isfinite(a).all(axis=axis)  # a complex inf times 2^-e is NaN (inf * 0): numpy's inf stays
            shrink = _shrink(a, axis)
            out = np.where(redo, (np.linalg.norm(a * shrink, axis=axis, keepdims=True) / shrink).reshape(out.shape), out)
    return out


def _root_sum_squares(x: np.ndarray) -> float:
    """sqrt of the sum of squares of the 1-D float64 or complex128 x, as np.linalg.norm(x) takes it,
    bit for bit: np.vdot, unlike the np.dot numpy takes, warns of no overflow, and the real and
    imaginary sums add as Python floats."""
    if x.dtype.char == "d":
        return sqrt(float(np.vdot(x, x)))
    return sqrt(float(np.vdot(x.real, x.real)) + float(np.vdot(x.imag, x.imag)))


def norm(a) -> float:
    """The Frobenius norm of an array, norms(a) as a float.  Thresholds take their scale from it."""
    return float(norms(a))


def _shrink(a, axis=None):
    """2^-e, 2^e the largest power of two up to the largest modulus of the array a (of each slice
    along axis, kept as an axis of length 1 where axis is given) and at least 2^-1022, so that 2^-e
    is a finite float (e <= 1023 where that modulus is finite): a times it is exact and has its
    largest modulus in [1, 2) wherever that modulus is normal; a zero array takes the largest
    factor, 2^1022.  For the whole array (axis None) it is a Python float, from math.frexp and
    math.ldexp of the top modulus, which give np.frexp's and np.ldexp's bits (inf and NaN
    included, whose exponent both read as 0) at half the cost."""
    top = np.abs(a).max(axis=axis, keepdims=axis is not None, initial=2.0**-1022)
    if axis is None:
        return ldexp(1.0, 1 - frexp(float(top))[1])
    return np.ldexp(1.0, 1 - np.frexp(top)[1])


def lone_entries(a: Matrix) -> tuple[np.ndarray, np.ndarray | None] | None:
    """(cols, weights), read-only, where row r of the real 2-D a is weights[r, 0] at cols[r] and 0 elsewhere (an
    empty row: weight 0 at column 0), from a's exact zero pattern; weights is None where every one is exactly 1.
    None for a complex a or a row of two nonzeros."""
    a = np.asarray(a)
    if a.dtype.kind == "c" or a.ndim != 2 or (np.count_nonzero(a, axis=1) > 1).any():
        return None
    cols = (a != 0).argmax(axis=1)
    weights = a[np.arange(len(a)), cols, None]  # a column, as it scales the gathered rows
    cols.flags.writeable = weights.flags.writeable = False
    return cols, None if (weights == 1.0).all() else weights


def left_product(a: Matrix, c: Matrix, lone: tuple[np.ndarray, np.ndarray | None] | None = None) -> Matrix:
    """a @ c for arrays a and c, c of two or more axes.  A real a and a
    complex c multiply as one real GEMM on c's float view, which holds the
    real and imaginary parts of each column side by side: exact per
    component, at half the work of the complex product.  Any other pair is
    a @ c as it stands.

    lone, lone_entries(a) kept by a caller, takes no GEMM for a float64 or complex128 c: row r
    is row cols[r] of c, gathered and scaled by weights[r, 0] on its float view, the one nonzero
    product of the GEMM's sum (a finite c keeps its bits), with no scaling where the weights are
    all 1 (x * 1 = x exactly); += 0.0 makes a zero +0, as that sum does.
    """
    if lone is not None and c.dtype.char in "dD":
        cols, weights = lone
        out = c.take(cols, axis=-2)
        flat = out.view(np.float64)
        if weights is not None:
            flat *= weights
        flat += 0.0
        return out
    if a.dtype.kind == "c" or c.dtype.kind != "c":
        return a @ c
    return (a @ np.ascontiguousarray(c).view(np.float64)).view(complex)


@dataclass(frozen=True)
class EquationSplit:
    """The equations of a real square system a x = b that each hold one unknown alone, and the rest.

    The first m = len(pivots) equations rows[:m] each have one nonzero, pivots[k] = a[rows[k],
    cols[k]], in a column that has no other: x[cols[k]] follows from b[rows[k]] alone, ordered by
    that unknown.  The other equations rows[m:] on the other unknowns cols[m:] form the square
    block rest = a[rows[m:]][:, cols[m:]], None when m is all of a; back, the inverse of cols, puts
    unknowns taken in the order cols back in place.  Made once per matrix by equation_split;
    every array is read-only.
    """

    rows: np.ndarray
    cols: np.ndarray
    back: np.ndarray
    pivots: np.ndarray
    recips: np.ndarray
    rest: np.ndarray | None


def equation_split(a: Matrix) -> EquationSplit | None:
    """The EquationSplit of the real square a, read from its exact zero pattern; None for a
    complex or non-square a, or one where no equation holds an unknown alone."""
    a = np.asarray(a)
    if a.dtype.kind == "c" or a.ndim != 2 or a.shape[0] != a.shape[1]:
        return None
    nonzero = a != 0
    first = nonzero.argmax(axis=0)  # the row of each column's first nonzero
    lone = (nonzero.sum(axis=0) == 1) & (nonzero.sum(axis=1)[first] == 1)
    if not lone.any():
        return None
    lone_cols = np.flatnonzero(lone)
    coupled = np.ones(len(a), dtype=bool)
    coupled[first[lone_cols]] = False
    rows = np.concatenate((first[lone_cols], np.flatnonzero(coupled)))
    cols = np.concatenate((lone_cols, np.flatnonzero(~lone)))
    back = np.empty_like(cols)
    back[cols] = np.arange(len(a))
    m = len(lone_cols)
    pivots = a[rows[:m], cols[:m]]
    with np.errstate(divide="ignore", over="ignore"):  # 1 / a subnormal pivot is inf, as LAPACK forms it
        recips = 1.0 / pivots
    rest = a[rows[m:, None], cols[m:]] if m < len(a) else None
    split = EquationSplit(rows, cols, back, pivots, recips, rest)
    for kept in vars(split).values():
        if kept is not None:
            kept.flags.writeable = False
    return split


def solve_linear(a: Matrix, b: Matrix, what: str = "matrix", split: EquationSplit | None = None) -> Matrix:
    """np.linalg.solve(a, b); SingularMatrix where LU meets an exactly zero pivot.

    A real a and a complex b take one real LU over b's float view, whose
    columns hold the real and imaginary parts of b's side by side.  No
    condition check and no SVD: a caller that needs one decides once, where
    its matrix is made (build_gram for G, clifford.cayley_gamma for 1 + b).

    split, equation_split(a) formed once by a caller that solves against one a
    many times, takes no LU for the equations that hold one unknown alone:
    each sets its unknown by the arithmetic OpenBLAS's LU and triangular solve
    perform on such a row, b / pivot for one float column (its trsv) and
    b * (1 / pivot) for more (its trsm), so those unknowns keep
    np.linalg.solve's bits.  The rest block takes one LU, on the float view
    as above.
    """
    a, b = np.asarray(a), np.asarray(b)
    try:
        if split is None and (a.dtype.kind == "c" or b.dtype.kind != "c" or a.ndim != 2):
            return np.linalg.solve(a, b)
        cols = b if b.ndim > 1 else b[:, None]
        flat = np.ascontiguousarray(cols).view(np.float64) if b.dtype.kind == "c" else cols.astype(np.float64, copy=False)
        x = np.linalg.solve(a, flat) if split is None else _solve_split(split, flat)
    except np.linalg.LinAlgError as exc:
        raise SingularMatrix(f"{what} is singular") from exc
    if b.dtype.kind == "c":
        x = x.view(complex)
    return x if b.ndim > 1 else x[:, 0]


def _solve_split(split: EquationSplit, flat: np.ndarray) -> np.ndarray:
    """The solution of a x = flat, flat float (n, k), through a's split: one gather of flat's
    equations into split order, the lone unknowns scaled and the rest solved in place, and one
    gather back where there is a rest."""
    x = flat.take(split.rows, axis=0)
    m = len(split.pivots)
    # IEEE arithmetic as LAPACK's: an overflow is inf, with no numpy warning
    with np.errstate(over="ignore", invalid="ignore"):
        if x.shape[1] == 1:
            x[:m] /= split.pivots[:, None]
        else:
            x[:m] *= split.recips[:, None]
    if split.rest is None:
        return x
    x[m:] = np.linalg.solve(split.rest, x[m:])
    return x.take(split.back, axis=0)


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
    the 1-norm of the finite a overflows, so that no scaling is defined, and
    where the exponential itself overflows.  A square that overflows warns of
    nothing, a kept one or the discarded one of a matrix that needs fewer
    squarings than others of its stack.

    a may carry leading axes, (..., n, n): each matrix keeps its own s and
    its own refusal, the products and the one solve run over the stack, and a
    matrix that needs fewer squarings than the stack's most keeps its power
    from there on, so every matrix of the result is its exponential alone,
    bit for bit.  One matrix is a stack of one; a stack whose matrices all
    take the same s is scaled and squared as one matrix is, with no
    per-matrix step.
    """
    a = _square_matrices(a, "exponent")
    with np.errstate(over="ignore"):
        norm = np.abs(a).sum(axis=-2).max(axis=-1, initial=0.0)
    counts = [_squarings(x) for x in norm.ravel().tolist()]
    most = max(counts, default=0)
    fewest = min(counts, default=most)
    squarings = most if fewest == most else np.array(counts).reshape(norm.shape + (1, 1))
    a = a * 0.5**squarings
    b = PADE_COEFFS
    eye = np.eye(a.shape[-1], dtype=complex)
    a2 = a @ a
    a4 = a2 @ a2
    a6 = a4 @ a2
    u = a @ (a6 @ (b[13] * a6 + b[11] * a4 + b[9] * a2) + b[7] * a6 + b[5] * a4 + b[3] * a2 + b[1] * eye)
    v = a6 @ (b[12] * a6 + b[10] * a4 + b[8] * a2) + b[6] * a6 + b[4] * a4 + b[2] * a2 + b[0] * eye
    result = np.linalg.solve(v - u, v + u)
    with np.errstate(over="ignore", invalid="ignore"):
        for step in range(most):
            square = result @ result
            result = square if step < fewest else np.where(squarings > step, square, result)
    if not np.isfinite(result).all():
        raise DegenerateInput(f"exponential is not finite: it overflows at exponent 1-norm {norm.max():.2e}")
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
    nonempty 1-D sequence.  The coefficients are taken as a contiguous array,
    so a strided view (a reversed one among them) gives the roots of a copy
    bit for bit: numpy multiplies a strided vector by another loop.

    Each root is polished by three Newton steps, which matters when roots
    are later deduplicated at tight absolute tolerance.  One table of the
    roots' powers, refilled in place at each step by np.vander's own running
    product (so with np.vander's bits), gives p and p' as two products; the
    step p/p' is 0 where |p'| is at most NEWTON_SLOPE_TOL, so a masked root
    moves by exactly 0.
    """
    c = np.ascontiguousarray(coeffs, dtype=complex)
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
    companion.flat[deg :: deg + 1] = 1.0
    companion[:, -1] = -monic[:-1]
    try:
        roots = np.linalg.eigvals(companion)
    except np.linalg.LinAlgError as exc:
        raise ConvergenceFailure("companion eigensolver stalled") from exc
    slope_coeffs = c[1:] * np.arange(1, deg + 1)
    # powers[i, k] = roots[i]**k: column 0 stays 1, the rest is refilled at each step
    powers = np.ones((deg, deg + 1), dtype=complex)
    tail = powers[:, 1:]
    for _ in range(3):
        tail[...] = roots[:, None]
        np.multiply.accumulate(tail, out=tail, axis=1)
        slope = powers[:, :-1] @ slope_coeffs
        step = np.divide(powers @ c, slope, out=np.zeros(deg, dtype=complex), where=np.abs(slope) > NEWTON_SLOPE_TOL)
        roots -= step
    return roots


def dedup_roots(values, tol=ROOT_DEDUP_TOL):
    """Cluster complex values transitively at absolute tolerance tol, or at
    tol[i] per value (a pair joins below the larger of its two).

    Two values share a cluster when a chain of values, each closer than tol
    to the next, joins them, so the clusters do not depend on input order;
    a NaN value is a singleton.  The pairs are read off one distance matrix
    (_clusters), which also gives spectral its gap.  Clusters are numbered by
    their first member.  Returns (representatives, labels): the list labels[i]
    is the cluster number of values[i], a cluster's representative is the
    mean of its members in index order, and a singleton's is its value
    unchanged.
    """
    return _clusters(np.asarray(values, dtype=complex).ravel(), tol)[:2]


def _clusters(v: np.ndarray, tol):
    """dedup_roots of the 1-d v and the distances it reads, inf within a cluster: np.hypot of the
    differences, complex abs() bit for bit (np.abs of complex arrays can differ in the last ulp).  Over
    the close pairs only, each value takes the smallest label of its pairs until none changes: its
    cluster's first member."""
    k = v.size
    diff = v[:, None] - v
    dist = np.hypot(diff.real, diff.imag)
    dist.flat[:: k + 1] = np.inf
    tol = np.asarray(tol)
    close = dist < (np.maximum(tol[:, None], tol) if tol.ndim else tol)
    label = list(range(k))
    if not np.count_nonzero(close):
        return v.copy(), label, dist
    pairs = list(zip(*np.nonzero(close)))
    while any(label[j] < label[i] for i, j in pairs):
        for i, j in pairs:
            label[i] = min(label[i], label[j])
    number: dict[int, int] = {}  # first member -> cluster number, in order of first members
    labels = [number.setdefault(first, len(number)) for first in label]
    reps = np.array([v[f] if label.count(f) == 1 else np.mean(v[np.equal(label, f)]) for f in number], dtype=complex)
    dist[np.equal.outer(label, label)] = np.inf
    return reps, labels, dist


@dataclass
class SpectralDecomposition:
    """Eigenvalues of `matrix` clustered by dedup_roots' rule, sorted by real then
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
        """apply(eigenvalues), or a copy of matrix where every cluster is one eigenvalue (an empty
        spectrum too): the interpolant of f(lambda) = lambda on n distinct nodes is lambda itself, so
        a simple spectrum is its own semisimple part (Higham 2008, ch. 1), with no Newton product."""
        if max(self.multiplicities, default=1) == 1:
            return self.matrix.copy()
        return self.apply(self.eigenvalues)


def spectral(a: Matrix, cluster_tol: float = CLUSTER_TOL) -> SpectralDecomposition:
    """Eigenvalues of a clustered at threshold cluster_tol * ||a|| (the zero
    matrix's threshold is 0: its n zero eigenvalues are one cluster), kept on
    the result as its threshold beside the gap between its clusters (both from _clusters' distances).

    Only the eigenvalues are computed here; SpectralDecomposition.apply
    evaluates a function of a that is constant on each cluster when asked.
    Before any eigen work: ValueError, as as_square_matrix words it, for a
    that is not square or not finite, and DegenerateInput for an entry whose
    modulus overflows, as the power-of-two scale (_shrink) that apply takes
    a at is not defined there.  ||a|| is norm's, exact at every scale.
    """
    a = as_square_matrix(a)
    if cluster_tol <= 0:
        raise ValueError("cluster_tol must be positive")
    if np.abs(a).max(initial=0.0) == np.inf:
        raise DegenerateInput("entry modulus overflows: no power-of-two scale 2^-e brings the matrix to unit size")
    try:
        raw = np.linalg.eigvals(a)
    except np.linalg.LinAlgError as exc:
        raise ConvergenceFailure("eigenvalue iteration stalled") from exc
    threshold = cluster_tol * (scale := norm(a))
    # the zero matrix by its exact norm, not by a threshold that underflows to 0 (one entry 5e-324)
    reps, labels, dist = _clusters(raw, threshold if scale else np.inf)
    order, gap = np.lexsort((reps.imag, reps.real)), float(dist.min(initial=np.inf))
    return SpectralDecomposition(a, reps[order], np.bincount(labels)[order].tolist(), threshold, gap)
