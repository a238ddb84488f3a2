"""Dense complex linear algebra primitives.

Everything downstream works with small (dim <= 12) dense complex matrices,
so the kernels here favor reproducibility and explicit tolerances over
asymptotic speed.  Eigenvalues, solves and determinants are delegated to
LAPACK via numpy.linalg; eigenvalue clustering, spectral projectors, the
matrix exponential and companion-matrix root finding are built on top.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceFailure, DegenerateInput, SingularMatrix

# Default relative tolerance for solves/condition estimates.
RTOL = 1e-9
# Default tolerance for merging nearby eigenvalues into one cluster.
CLUSTER_TOL = 1e-6
# Absolute tolerance for declaring two polished polynomial roots equal.
ROOT_DEDUP_TOL = 1e-7

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


def solve_linear(a: Matrix, b: Matrix, rtol: float = RTOL) -> Matrix:
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
    if not np.isfinite(cond) or cond > 1.0 / rtol:
        raise SingularMatrix(f"condition number {cond:.3e} exceeds 1/rtol")
    return np.linalg.solve(a, b)


def determinant(a: Matrix) -> complex:
    """Determinant via pivoted elimination (LAPACK LU); 0 for singular input."""
    a = np.asarray(a, dtype=complex)
    if a.shape[0] != a.shape[1]:
        raise ValueError(f"matrix not square: {a.shape}")
    return complex(np.linalg.det(a))


def matrix_exp(a: Matrix, terms: int = 24) -> Matrix:
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
    for k in range(1, terms + 1):
        term = term @ scaled / k
        result = result + term
        if np.linalg.norm(term, ord=np.inf) < 1e-18 * max(1.0, np.linalg.norm(result, ord=np.inf)):
            break
    for _ in range(squarings):
        result = result @ result
    return result


class Polynomial:
    """Complex polynomial stored as ascending coefficients.

    Trailing coefficients below tol * max|coeff| are stripped on
    construction, so the leading coefficient of a nonzero polynomial is
    genuinely nonzero.
    """

    def __init__(self, coeffs, tol: float = 1e-12):
        c = np.atleast_1d(np.asarray(coeffs, dtype=complex))
        if c.ndim != 1 or c.size == 0:
            raise ValueError("coefficients must be a nonempty 1-D sequence")
        scale = float(np.max(np.abs(c)))
        if scale == 0.0:
            self.coeffs = np.zeros(1, dtype=complex)
        else:
            keep = c.size
            while keep > 1 and abs(c[keep - 1]) <= tol * scale:
                keep -= 1
            self.coeffs = c[:keep].copy()

    @property
    def degree(self) -> int:
        return self.coeffs.size - 1

    def is_zero(self, tol: float = 0.0) -> bool:
        return bool(np.all(np.abs(self.coeffs) <= tol))

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


def poly_roots(p: Polynomial, polish: bool = True) -> np.ndarray:
    """All roots (with multiplicity) via companion-matrix eigenvalues.

    polish=True runs a couple of Newton steps per root, which matters when
    roots are later deduplicated at tight absolute tolerance.
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
    if polish:
        dp = p.derivative()
        for _ in range(3):
            slope = dp(roots)
            safe = np.abs(slope) > 1e-14
            roots = np.where(safe, roots - np.where(safe, p(roots), 0.0) / np.where(safe, slope, 1.0), roots)
    return roots


def dedup_roots(roots, tol: float = ROOT_DEDUP_TOL):
    """Greedy-merge roots closer than tol; returns (representatives, multiplicities)."""
    reps: list[complex] = []
    groups: list[list[complex]] = []
    for r in np.asarray(roots, dtype=complex):
        for k, rep in enumerate(reps):
            if abs(r - rep) < tol:
                groups[k].append(r)
                reps[k] = complex(np.mean(groups[k]))
                break
        else:
            reps.append(complex(r))
            groups.append([complex(r)])
    return np.array(reps, dtype=complex), [len(g) for g in groups]


@dataclass
class SpectralDecomposition:
    """Clustered eigenvalues with projectors onto generalized eigenspaces.

    raw_eigenvalues keeps the unclustered solver output; Jordan-type callers
    use it to detect gap/tolerance ambiguity without re-solving.
    """

    eigenvalues: np.ndarray
    projectors: list
    multiplicities: list
    raw_eigenvalues: np.ndarray

    def semisimple_part(self) -> Matrix:
        n = self.projectors[0].shape[0]
        out = np.zeros((n, n), dtype=complex)
        for lam, proj in zip(self.eigenvalues, self.projectors):
            out += lam * proj
        return out


def _cluster_values(values: np.ndarray, tol: float):
    """Transitive clustering of complex values at absolute tolerance tol."""
    n = values.size
    parent = list(range(n))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for i in range(n):
        for j in range(i + 1, n):
            if abs(values[i] - values[j]) < tol:
                parent[find(i)] = find(j)
    groups: dict[int, list[int]] = {}
    for i in range(n):
        groups.setdefault(find(i), []).append(i)
    return [sorted(g) for g in groups.values()]


def _projector_polynomial(nodes, mults, which):
    """Newton coefficients of the polynomial that is 1 to full multiplicity
    at nodes[which] and 0 to full multiplicity at every other node.

    Confluent divided differences: repeated abscissae take the derivative
    value, which is 0 for these indicator data, so equal-node entries of the
    table vanish identically.
    """
    xs = []
    fs = []
    for k, (x, m) in enumerate(zip(nodes, mults)):
        xs.extend([x] * m)
        fs.extend([1.0 if k == which else 0.0] * m)
    xs = np.asarray(xs, dtype=complex)
    coeff = np.asarray(fs, dtype=complex)
    n = xs.size
    for order in range(1, n):
        for k in range(n - 1, order - 1, -1):
            if xs[k] == xs[k - order]:
                coeff[k] = 0.0
            else:
                coeff[k] = (coeff[k] - coeff[k - 1]) / (xs[k] - xs[k - order])
    return xs, coeff


def _evaluate_newton(a: Matrix, xs: np.ndarray, coeff: np.ndarray) -> Matrix:
    n = a.shape[0]
    result = coeff[0] * np.eye(n, dtype=complex)
    factor = np.eye(n, dtype=complex)
    for k in range(1, coeff.size):
        factor = factor @ (a - xs[k - 1] * np.eye(n, dtype=complex))
        result = result + coeff[k] * factor
    return result


def spectral(a: Matrix, cluster_tol: float = CLUSTER_TOL) -> SpectralDecomposition:
    """Eigenvalues clustered at cluster_tol * (1 + ||a||) with spectral projectors.

    The projector for each cluster is a polynomial in `a` (confluent Newton
    interpolation of the cluster indicator), so projectors commute with `a`
    exactly and reconstruct its semisimple part as sum(lambda_i * P_i).
    """
    a = np.asarray(a, dtype=complex)
    if cluster_tol <= 0:
        raise ValueError("cluster_tol must be positive")
    try:
        raw = np.linalg.eigvals(a)
    except np.linalg.LinAlgError as exc:
        raise ConvergenceFailure("eigenvalue iteration stalled") from exc
    tol = cluster_tol * (1.0 + np.linalg.norm(a))
    clusters = _cluster_values(raw, tol)
    reps = np.array([np.mean(raw[idx]) for idx in clusters])
    mults = [len(idx) for idx in clusters]
    order = np.lexsort((reps.imag, reps.real))
    reps = reps[order]
    mults = [mults[i] for i in order]
    projectors = []
    for which in range(reps.size):
        xs, coeff = _projector_polynomial(reps, mults, which)
        projectors.append(_evaluate_newton(a, xs, coeff))
    return SpectralDecomposition(
        eigenvalues=reps,
        projectors=projectors,
        multiplicities=mults,
        raw_eigenvalues=raw,
    )


def min_intercluster_gap(dec: SpectralDecomposition) -> float:
    """Smallest distance between raw eigenvalues assigned to different clusters."""
    raw = dec.raw_eigenvalues
    # Membership by nearest representative; ties are irrelevant for the gap.
    labels = np.argmin(np.abs(raw[:, None] - dec.eigenvalues[None, :]), axis=1)
    diff = raw[:, None] - raw[None, :]
    # hypot matches the scalar abs() of numpy complex bit for bit; np.abs on
    # complex arrays can differ in the last ulp
    gaps = np.hypot(diff.real, diff.imag)
    gaps[labels[:, None] == labels[None, :]] = np.inf
    return float(gaps.min(initial=np.inf))
