"""Fiber polynomials and mapping-degree evidence.

For the defining representation of the trace-free group, the fiber of the
projection map over a trace-free X consists of the shifts X + t*1 with
det(t*1 + X) = 1.  For the spin representation the fiber over a skew X is
governed by det(t*1 + X) - 2^n t^(n-2) = 0, each nonzero root t giving the
rotation (1 - X/t)(1 + X/t)^{-1}.  Counting distinct admissible roots over
generic targets exhibits the mapping degree.

Polynomials are ascending complex coefficient arrays of n + 1 entries, with
the coefficients det(t*1 + X) fixes written in exactly (the leading 1, sl's
tr X, and for skew X the zeros at the powers of the other parity from n).
sl interpolates det(t*1 + X) at n + 1 nodes and shifts X by each distinct
root.  spin multiplies det(t*1 + X) out of one eigendecomposition
X = V diag(lambda) V^-1, solves in s = t^2 (skew X has eigenvalues +-mu) and
builds every rotation in one broadcast V diag((t - lambda)/(t + lambda)) V^-1.
FAMILIES gives each family's smallest n, its random generic target and its
fiber function.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import linalg
from .clifford import require_skew
from .errors import DegenerateInput, raise_if

# Bound on an sl target's relative trace.
TRACE_FREE_TOL = 1e-8
# Bound on each spin fiber rotation's ||T^T T - 1|| and relative |det(1 + T) - t^2|.
FIBER_CHECK_TOL = 1e-6


@dataclass
class FiberReport:
    """Roots of the fiber polynomial (ascending coefficients) and the
    reconstructed fiber elements.

    element_roots runs parallel to valid_elements; it differs from roots
    only when a reconstruction was skipped (recorded in skipped_roots).
    """

    family: str
    n: int
    polynomial: np.ndarray
    roots: np.ndarray
    valid_elements: list
    element_roots: list
    count: int
    skipped_roots: list = field(default_factory=list)

    def to_json(self) -> dict:
        return {
            "family": self.family,
            "n": self.n,
            "polynomial": linalg.complex_to_json(self.polynomial),
            "roots": linalg.complex_to_json(self.roots),
            "count": self.count,
            "elements": [linalg.matrix_to_json(e) for e in self.valid_elements],
            "element_roots": linalg.complex_to_json(self.element_roots),
            "skipped_roots": linalg.complex_to_json(self.skipped_roots),
        }


def _char_poly(x: np.ndarray, norm: float) -> np.ndarray:
    """The n + 1 coefficients of t -> det(t*1 + x), interpolated at n + 1 nodes of radius 1 + |x| (norm)."""
    n = x.shape[0]
    nodes = (1.0 + norm) * np.exp(2j * np.pi * np.arange(n + 1) / (n + 1))
    shifted = nodes[:, None, None] * np.eye(n) + x
    values = np.array([linalg.determinant(a) for a in shifted])
    vander = np.vander(nodes, n + 1, increasing=True)
    return np.linalg.solve(vander, values)


# an overflow of tr X, of a node's power or of det(t*1 + X) is caught by a test, not warned
@np.errstate(over="ignore", invalid="ignore")
def _fiber_poly(family: str, n: int, x):
    """(minimal_poly_coeffs(family, n, x), X's eigenpairs (lambda, V) for spin
    or None for sl): the checks and the polynomial in one place, so that
    spin_fiber decomposes X once."""
    x = linalg.as_square_matrix(x, "fiber target")
    if x.shape[0] != n:
        raise ValueError(f"target is {x.shape[0]}x{x.shape[0]}, expected n={n}")
    if family not in FAMILIES:
        raise ValueError(f"unknown fiber family {family!r}")
    norm = linalg.norm(x)
    if family == "sl":
        trace, threshold = np.trace(x), TRACE_FREE_TOL * norm
        raise_if(
            abs(trace) > threshold, DegenerateInput, "sl fiber target must be trace-free: |tr X|", abs(trace), threshold
        )
    else:
        require_skew(x, "spin fiber target must be skew-symmetric: |X + X^T|")
    smallest = FAMILIES[family][0]
    if n < smallest:
        raise ValueError(f"{family} fibers need n >= {smallest}")
    if family == "sl":
        eig, coeffs = None, _char_poly(x, norm)
    else:
        eig = np.linalg.eig(x)
        zeros, coeffs = -eig.eigenvalues, np.ones(1, dtype=complex)
        for z in zeros:  # np.poly(zeros) without its per-call checks, and real where the zeros pair as conjugates
            coeffs = np.convolve(coeffs, np.array([1, -z]))
        coeffs = coeffs.real if (np.sort(zeros) == np.sort(zeros.conj())).all() else coeffs
        coeffs = np.array(coeffs[::-1], dtype=complex)  # a complex copy, as it is written below
    if not np.isfinite(coeffs).all():
        raise DegenerateInput(f"fiber polynomial det(t*1 + X) is not finite: it overflows at |X| {norm:.2e}")
    coeffs[n] = 1.0
    if family == "sl":
        coeffs[n - 1] = trace
        coeffs[0] -= 1.0
    else:
        coeffs[1 - n % 2 :: 2] = 0.0
        coeffs[n - 2] -= 2.0**n
    return coeffs, eig


def minimal_poly_coeffs(family: str, n: int, x) -> np.ndarray:
    """Ascending coefficients of the fiber polynomial of a family in FAMILIES.

    sl:   det(t*1 + X) - 1, X trace-free
    spin: det(t*1 + X) - 2^n t^(n-2), X skew

    Always n + 1 coefficients of det(t*1 + X), interpolated for sl and
    multiplied out from the eigenvalues, prod(t + lambda_i), for spin, with
    those det(t*1 + X) fixes written exactly: p_n = 1; for sl p_{n-1} = tr X;
    for spin 0 at each power of the other parity from n, as
    det(t*1 + X) = (-1)^n det(-t*1 + X).  The target is checked first
    (DegenerateInput for an sl trace above TRACE_FREE_TOL |X|, NotSkew where
    clifford.require_skew refuses a spin target), then n against the family's smallest, then that
    det(t*1 + X) is finite (DegenerateInput where it overflows).
    """
    return _fiber_poly(family, n, x)[0]


def sl_fiber(n: int, x) -> FiberReport:
    """All shifts X + t*1 with unit determinant; count = distinct roots."""
    poly = minimal_poly_coeffs("sl", n, x)
    distinct = linalg.dedup_roots(linalg.poly_roots(poly))[0]
    elements = list(x + distinct[:, None, None] * np.eye(n))
    return FiberReport("sl", n, poly, distinct, elements, list(distinct), len(distinct))


def principal_nilpotent(n: int) -> np.ndarray:
    """The regular nilpotent Jordan block (ones on the superdiagonal); its sl fiber is t^n = 1."""
    x = np.zeros((n, n), dtype=complex)
    for i in range(n - 1):
        x[i, i + 1] = 1.0
    return x


def spin_fiber(n: int, x) -> FiberReport:
    """Rotations T = (1 - X/t)(1 + X/t)^{-1} over the distinct nonzero roots.

    The coefficients of the parity of n are a polynomial in s = t^2, which
    divides the odd-n zero root out exactly; its nonzero roots cluster at
    linalg.ROOT_DEDUP_TOL relative to |s| and give t = +-sqrt(s).  Each
    T = V diag((t - lambda)/(t + lambda)) V^-1 comes from X's one
    eigendecomposition and is checked to be special orthogonal with
    det(1 + T) = t^2; roots where a check fails are skipped, not raised.
    """
    poly, (lam, vecs) = _fiber_poly("spin", n, x)
    s = linalg.poly_roots(poly[n % 2 :: 2])
    # a zero constant term (X singular) gives an exactly zero s: the companion matrix isolates it
    s = s[s != 0.0]
    s = linalg.dedup_roots(s, linalg.ROOT_DEDUP_TOL * np.abs(s))[0]
    root = np.sqrt(s)
    roots = np.array([root, -root]).T.ravel()
    eye = np.eye(n)
    # far above unit scale a root can equal -lambda to the last bit (2^n t^(n-2) is
    # below the rounding of det(t*1 + X)): its rotation is not finite and fails the checks
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = (roots[:, None] - lam) / (roots[:, None] + lam)
        rots = (vecs * ratio[:, None, :]) @ linalg.inverse(vecs, "eigenvector matrix of X")
        ortho = linalg.norms(np.swapaxes(rots, -1, -2) @ rots - eye, axis=(-2, -1))
        det_err = np.abs(np.linalg.det(eye + rots) - roots * roots)
    ok = (ortho <= FIBER_CHECK_TOL) & (det_err <= FIBER_CHECK_TOL * (1.0 + np.abs(roots) ** 2))
    return FiberReport("spin", n, poly, roots, list(rots[ok]), list(roots[ok]), len(roots), list(roots[~ok]))


def random_trace_free(n: int, rng: np.random.Generator) -> np.ndarray:
    m = linalg.complex_normal(rng, (n, n))
    m.flat[:: n + 1] -= np.trace(m) / n
    return m


def random_skew(n: int, rng: np.random.Generator) -> np.ndarray:
    m = linalg.complex_normal(rng, (n, n))
    return 0.5 * (m - m.T)


# fiber family -> (smallest n, random generic target sampler, fiber function)
FAMILIES = {"sl": (2, random_trace_free, sl_fiber), "spin": (3, random_skew, spin_fiber)}
