"""Fiber polynomials and mapping-degree evidence.

For the defining representation of the trace-free group, the fiber of the
projection map over a trace-free X consists of the shifts X + t*1 with
det(t*1 + X) = 1.  For the spin representation the fiber over a skew X is
governed by det(t*1 + X) - 2^n t^(n-2) = 0, each nonzero root t giving the
rotation (1 - X/t)(1 + X/t)^{-1}.  Counting distinct admissible roots over
generic targets exhibits the mapping degree.

Polynomials are ascending complex coefficient arrays, built by evaluating
the determinant at n+1 nodes on a scaled circle and interpolating, rather
than by symbolic expansion.  Both families share one pipeline,
minimal_poly_coeffs -> linalg.poly_roots -> linalg.dedup_roots; only the
reconstruction of fiber elements from the roots differs, one broadcast
shift for sl and one stacked Cayley transform over the roots for spin.
FAMILIES gives each family's smallest n, its random generic target and its
fiber function.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import linalg
from .clifford import SKEW_TOL, _cayley_stack
from .errors import DegenerateInput, NotSkew, raise_if

# |root| below this counts as the zero root (excluded from spin fibers).
ZERO_ROOT_TOL = 1e-7
# Bounds on an sl target's relative trace and on its polynomial's |p_n - 1| and relative |p_{n-1}|.
TRACE_FREE_TOL = 1e-8
MONIC_TOL = 1e-8
TRACE_COEFF_TOL = 1e-6
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


def _char_poly(x: np.ndarray) -> np.ndarray:
    """The n + 1 coefficients of t -> det(t*1 + x) by node evaluation and interpolation."""
    n = x.shape[0]
    radius = 1.0 + np.linalg.norm(x)
    nodes = radius * np.exp(2j * np.pi * np.arange(n + 1) / (n + 1))
    eye = np.eye(n)
    values = np.array([linalg.determinant(t * eye + x) for t in nodes])
    vander = np.vander(nodes, n + 1, increasing=True)
    return np.linalg.solve(vander, values)


# an overflow of ||X||, of a node's power or of det(t*1 + X) is caught by the finiteness check, not warned
@np.errstate(over="ignore", invalid="ignore")
def minimal_poly_coeffs(family: str, n: int, x) -> np.ndarray:
    """Ascending coefficients of the fiber polynomial of a family in FAMILIES.

    sl:   det(t*1 + X) - 1, with p_{n-1} = tr X required to vanish and p_n = 1
    spin: det(t*1 + X) - 2^n t^(n-2), X skew

    Always n + 1 coefficients.  The target is checked first
    (DegenerateInput if an sl target has a trace, NotSkew if a spin target
    is not skew), then n against the family's smallest, then that the
    polynomial is finite (DegenerateInput where det(t*1 + X) overflows),
    then the sl normalization.
    """
    x = linalg.as_square_matrix(x, "fiber target")
    if x.shape[0] != n:
        raise ValueError(f"target is {x.shape[0]}x{x.shape[0]}, expected n={n}")
    if family not in FAMILIES:
        raise ValueError(f"unknown fiber family {family!r}")
    norm = np.linalg.norm(x)
    scale = 1.0 + norm
    if family == "sl":
        # relative to ||X|| alone, so the test means the same at every scale
        trace, threshold = abs(np.trace(x)), TRACE_FREE_TOL * norm
        raise_if(trace > threshold, DegenerateInput, "sl fiber target must be trace-free: |tr X|", trace, threshold)
    else:
        sym, threshold = np.linalg.norm(x + x.T), SKEW_TOL * scale
        raise_if(sym > threshold, NotSkew, "spin fiber target must be skew-symmetric: |X + X^T|", sym, threshold)
    smallest = FAMILIES[family][0]
    if n < smallest:
        raise ValueError(f"{family} fibers need n >= {smallest}")
    coeffs = _char_poly(x)
    if not np.isfinite(coeffs).all():
        raise DegenerateInput(f"fiber polynomial det(t*1 + X) is not finite: it overflows at |X| {norm:.2e}")
    if family == "sl":
        coeffs[0] -= 1.0
        lead, sub, threshold = abs(coeffs[n] - 1.0), abs(coeffs[n - 1]), TRACE_COEFF_TOL * scale**n
        raise_if(lead > MONIC_TOL, DegenerateInput, "fiber polynomial not normalized: |p_n - 1|", lead, MONIC_TOL)
        raise_if(sub > threshold, DegenerateInput, "fiber polynomial not normalized: |p_(n-1)|", sub, threshold)
    else:
        coeffs[n - 2] -= 2.0**n
    return coeffs


def _fiber_roots(family: str, n: int, x):
    """(fiber polynomial, its distinct roots): the part every fiber shares.  The
    polynomial's checks coerce x; the reconstructions broadcast x as given."""
    poly = minimal_poly_coeffs(family, n, x)
    return poly, linalg.dedup_roots(linalg.poly_roots(poly))[0]


def sl_fiber(n: int, x) -> FiberReport:
    """All shifts X + t*1 with unit determinant; count = distinct roots."""
    poly, distinct = _fiber_roots("sl", n, x)
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

    All roots share one stacked transform, clifford._cayley_stack, and each
    rotation is checked to be special orthogonal with det(1 + T) = t^2; roots
    where 1 + X/t is singular or a check fails are skipped, not raised.
    """
    poly, distinct = _fiber_roots("spin", n, x)
    roots = distinct[np.abs(distinct) > ZERO_ROOT_TOL]
    rots, ok, _, _ = _cayley_stack(x / roots[:, None, None])
    eye = np.eye(n)
    ortho = np.linalg.norm(np.swapaxes(rots, -1, -2) @ rots - eye, axis=(-2, -1))
    det_err = np.abs(np.linalg.det(eye + rots) - roots * roots)
    ok &= (ortho <= FIBER_CHECK_TOL) & (det_err <= FIBER_CHECK_TOL * (1.0 + np.abs(roots) ** 2))
    return FiberReport("spin", n, poly, roots, list(rots[ok]), list(roots[ok]), len(roots), list(roots[~ok]))


def random_trace_free(n: int, rng: np.random.Generator) -> np.ndarray:
    m = linalg.complex_normal(rng, (n, n))
    return m - (np.trace(m) / n) * np.eye(n)


def random_skew(n: int, rng: np.random.Generator) -> np.ndarray:
    m = linalg.complex_normal(rng, (n, n))
    return 0.5 * (m - m.T)


# fiber family -> (smallest n, random generic target sampler, fiber function)
FAMILIES = {"sl": (2, random_trace_free, sl_fiber), "spin": (3, random_skew, spin_fiber)}
