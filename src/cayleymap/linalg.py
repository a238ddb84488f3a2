"""Dense complex linear algebra primitives.

Everything downstream works with small (dim <= 12) dense complex matrices,
so the kernels here favor reproducibility and explicit tolerances over
asymptotic speed.  Eigenvalues, solves and determinants are delegated to
LAPACK via numpy.linalg; clustering, functions of a matrix that are constant
on its eigenvalue clusters, the matrix exponential and companion-matrix root
finding are built on top.  Eigenvalues and polynomial roots share one
transitive clustering rule (dedup_roots), and every Jordan-type factor is one
SpectralDecomposition.apply call.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceFailure, DegenerateInput, SingularMatrix

# Relative tolerance for solves: a condition number above 1/RTOL is singular.
RTOL = 1e-9
# Default tolerance for merging nearby eigenvalues into one cluster.
CLUSTER_TOL = 1e-6
# Absolute tolerance for declaring two polished polynomial roots equal.
ROOT_DEDUP_TOL = 1e-7
# Trailing polynomial coefficients below this fraction of the largest are dropped.
POLY_TRIM_TOL = 1e-12
# Taylor terms of the scaled matrix exponential.
EXP_TERMS = 24

Matrix = np.ndarray


def as_square_matrix(a, name: str = "matrix") -> Matrix:
    """Coerce to a square complex array, rejecting NaN/Inf entries."""
    m = np.asarray(a, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"{name} must be square, got shape {m.shape}")
    if not np.all(np.isfinite(m.real)) or not np.all(np.isfinite(m.imag)):
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
    """Circular complex Gaussian samples with E|z|^2 = scale^2."""
    return scale * (rng.standard_normal(size) + 1j * rng.standard_normal(size)) / np.sqrt(2)


def solve_linear(a: Matrix, b: Matrix) -> Matrix:
    """Solve a @ x = b with partial pivoting; raise SingularMatrix if ill-conditioned."""
    a = np.asarray(a, dtype=complex)
    b = np.asarray(b, dtype=complex)
    if a.shape[0] != a.shape[1]:
        raise ValueError(f"coefficient matrix not square: {a.shape}")
    if b.shape[0] != a.shape[0]:
        raise ValueError(f"row count mismatch: {a.shape} vs {b.shape}")
    try:
        cond = np.linalg.cond(a)
    except np.linalg.LinAlgError as exc:  # SVD failure on garbage input
        raise SingularMatrix("condition estimate failed") from exc
    if not np.isfinite(cond) or cond > 1.0 / RTOL:
        raise SingularMatrix(f"condition number {cond:.3e} exceeds 1/rtol")
    return np.linalg.solve(a, b)


def determinant(a: Matrix) -> complex:
    """Determinant via pivoted elimination (LAPACK LU); 0 for singular input."""
    a = np.asarray(a, dtype=complex)
    if a.shape[0] != a.shape[1]:
        raise ValueError(f"matrix not square: {a.shape}")
    return complex(np.linalg.det(a))


def matrix_exp(a: Matrix) -> Matrix:
    """Matrix exponential by scaling-and-squaring a truncated Taylor series."""
    a = np.asarray(a, dtype=complex)
    n = a.shape[0]
    norm = np.linalg.norm(a, ord=np.inf)
    squarings = 0
    if norm > 0.5:
        squarings = int(np.ceil(np.log2(norm / 0.5)))
    scaled = a / (2.0**squarings)
    result = np.eye(n, dtype=complex)
    term = np.eye(n, dtype=complex)
    for k in range(1, EXP_TERMS + 1):
        term = term @ scaled / k
        result = result + term
        if np.linalg.norm(term, ord=np.inf) < 1e-18 * max(1.0, np.linalg.norm(result, ord=np.inf)):
            break
    for _ in range(squarings):
        result = result @ result
    return result


class Polynomial:
    """Complex polynomial stored as ascending coefficients.

    Trailing coefficients below POLY_TRIM_TOL * max|coeff| are stripped on
    construction, so the leading coefficient of a nonzero polynomial is
    genuinely nonzero.
    """

    def __init__(self, coeffs):
        c = np.atleast_1d(np.asarray(coeffs, dtype=complex))
        if c.ndim != 1 or c.size == 0:
            raise ValueError("coefficients must be a nonempty 1-D sequence")
        scale = float(np.max(np.abs(c)))
        if scale == 0.0:
            self.coeffs = np.zeros(1, dtype=complex)
        else:
            keep = c.size
            while keep > 1 and abs(c[keep - 1]) <= POLY_TRIM_TOL * scale:
                keep -= 1
            self.coeffs = c[:keep].copy()

    @property
    def degree(self) -> int:
        return self.coeffs.size - 1

    def is_zero(self) -> bool:
        return bool(np.all(self.coeffs == 0))

    def __call__(self, t):
        out = np.zeros_like(np.asarray(t, dtype=complex))
        for c in self.coeffs[::-1]:
            out = out * t + c
        return out if out.shape else complex(out)

    def derivative(self) -> "Polynomial":
        if self.degree == 0:
            return Polynomial([0.0])
        k = np.arange(1, self.coeffs.size)
        return Polynomial(self.coeffs[1:] * k)

    def __repr__(self) -> str:
        return f"Polynomial({self.coeffs.tolist()})"


def poly_roots(p: Polynomial) -> np.ndarray:
    """All roots (with multiplicity) via companion-matrix eigenvalues.

    Each root is polished by three Newton steps, which matters when roots
    are later deduplicated at tight absolute tolerance.
    """
    if not isinstance(p, Polynomial):
        p = Polynomial(p)
    if p.is_zero():
        raise DegenerateInput("zero polynomial has no well-defined roots")
    if p.degree < 1:
        raise DegenerateInput("constant polynomial has no roots")
    monic = p.coeffs / p.coeffs[-1]
    deg = p.degree
    companion = np.zeros((deg, deg), dtype=complex)
    companion[1:, :-1] = np.eye(deg - 1)
    companion[:, -1] = -monic[:-1]
    try:
        roots = np.linalg.eigvals(companion)
    except np.linalg.LinAlgError as exc:
        raise ConvergenceFailure("companion eigensolver stalled") from exc
    dp = p.derivative()
    for _ in range(3):
        slope = dp(roots)
        safe = np.abs(slope) > 1e-14
        roots = np.where(safe, roots - np.where(safe, p(roots), 0.0) / np.where(safe, slope, 1.0), roots)
    return roots


def dedup_roots(values, tol: float = ROOT_DEDUP_TOL):
    """Cluster complex values transitively at absolute tolerance tol.

    Two values share a cluster when a chain of values, each closer than tol
    to the next, joins them, so the clusters do not depend on input order.
    Clusters are numbered by their first member.  Returns (representatives,
    labels): the list labels[i] is the cluster number of values[i], a cluster's
    representative is the mean of its members in index order, and a
    singleton's is its value unchanged.
    """
    v = np.asarray(values, dtype=complex).ravel()
    points = v.tolist()
    # label[i] is the index of the first member of i's cluster so far
    label = list(range(len(points)))
    for i, z in enumerate(points):
        for j in range(i):
            if label[j] != label[i] and abs(z - points[j]) < tol:
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
    imaginary part.

    raw_eigenvalues keeps the unclustered solver output, and labels[i] is the
    index in eigenvalues of the cluster holding raw_eigenvalues[i]; Jordan-type
    callers use both to detect gap/tolerance ambiguity without re-solving.
    """

    matrix: np.ndarray
    eigenvalues: np.ndarray
    raw_eigenvalues: np.ndarray
    labels: np.ndarray

    @property
    def multiplicities(self) -> list[int]:
        return np.bincount(self.labels, minlength=self.eigenvalues.size).tolist()

    def apply(self, values) -> Matrix:
        """f(matrix) for the f equal to values[k] on cluster k, with every
        derivative zero there.

        f is the confluent Hermite interpolant on the clustered spectrum, built
        by Newton divided differences: each cluster is a node repeated to its
        multiplicity, and a repeated node takes the derivative, 0.  So f(matrix)
        is a polynomial in matrix and commutes with it; values = e_k gives the
        spectral projector of cluster k (Higham 2008, Functions of Matrices,
        ch. 1).
        """
        mults = self.multiplicities
        nodes = np.repeat(self.eigenvalues, mults)
        coeff = np.repeat(np.asarray(values, dtype=complex), mults)
        for order in range(1, nodes.size):
            step = nodes[order:] - nodes[:-order]
            diff = coeff[order:] - coeff[order - 1 : -1]
            coeff[order:] = np.divide(diff, step, out=np.zeros_like(diff), where=step != 0)
        eye = np.eye(nodes.size, dtype=complex)
        result = coeff[0] * eye
        factor = eye
        for k in range(1, nodes.size):
            factor = factor @ (self.matrix - nodes[k - 1] * eye)
            result = result + coeff[k] * factor
        return result

    def semisimple_part(self) -> Matrix:
        return self.apply(self.eigenvalues)


def spectral(a: Matrix, cluster_tol: float = CLUSTER_TOL) -> SpectralDecomposition:
    """Eigenvalues of a clustered at cluster_tol * (1 + ||a||).

    Only the eigenvalues are computed here; SpectralDecomposition.apply
    evaluates a function of a that is constant on each cluster when asked.
    """
    a = np.asarray(a, dtype=complex)
    if cluster_tol <= 0:
        raise ValueError("cluster_tol must be positive")
    try:
        raw = np.linalg.eigvals(a)
    except np.linalg.LinAlgError as exc:
        raise ConvergenceFailure("eigenvalue iteration stalled") from exc
    tol = cluster_tol * (1.0 + np.linalg.norm(a))
    reps, labels = dedup_roots(raw, tol)
    order = np.lexsort((reps.imag, reps.real))
    return SpectralDecomposition(a, reps[order], raw, labels=np.argsort(order)[labels])


def min_intercluster_gap(dec: SpectralDecomposition) -> float:
    """Smallest distance between raw eigenvalues in different clusters."""
    raw = dec.raw_eigenvalues
    diff = raw[:, None] - raw[None, :]
    # hypot matches the scalar abs() of numpy complex bit for bit; np.abs on
    # complex arrays can differ in the last ulp
    gaps = np.hypot(diff.real, diff.imag)
    gaps[dec.labels[:, None] == dec.labels[None, :]] = np.inf
    return float(gaps.min(initial=np.inf))
