"""Seeded property-verification suites.

Each suite is a list of named claims; a claim checks one identity on one
random trial and returns a residual, which passes when it does not exceed
the claim's tolerance (times the caller's global scale factor).  Randomness
is drawn from a generator seeded by (seed, suite, claim, trial), so reruns
with the same seed reproduce every record bit for bit.
"""

from __future__ import annotations

import functools
import math
import zlib
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import catalog, clifford as cl, degree, linalg
from . import representation as rm


@dataclass(frozen=True)
class Claim:
    id: str
    statement: str
    tolerance: float
    run: Callable[[np.random.Generator, int], float]


@dataclass
class ClaimRecord:
    claim: str
    trial: int
    residual: float
    tolerance: float
    passed: bool
    # "<exception type>: <message>" when the trial raised instead of returning
    error: str | None = None


@dataclass
class SuiteResult:
    suite: str
    seed: int
    trials: int
    tol_scale: float
    failures: int
    worst_residual: float
    records: list

    def to_json(self) -> dict:
        return {
            "suite": self.suite,
            "seed": self.seed,
            "trials": self.trials,
            "tol_scale": self.tol_scale,
            "failures": self.failures,
            "worst_residual": self.worst_residual,
            "records": [
                {
                    "claim": r.claim,
                    "trial": r.trial,
                    "residual": r.residual,
                    "tolerance": r.tolerance,
                    "pass": r.passed,
                    **({} if r.error is None else {"error": r.error}),
                }
                for r in self.records
            ],
        }


# --- shared helpers -----------------------------------------------------------

@functools.cache
def _built(combinator, *args):
    """combinator(*args), built once: the suites' one cache, of every representation they build
    (catalog.make(family, size), a catalog combinator, _so4_ideal_rep or rm.restrict_to_subalgebra
    of a range or tuple) but psi-basis-invariance's, on a random basis per trial, and of the index
    ratios catalog.dynkin_ratio takes of them."""
    return combinator(*args)


FAMILY_KEYS = [
    ("sl", 2),
    ("sl", 3),
    ("sl", 4),
    ("so", 3),
    ("so", 4),
    ("so", 5),
    ("gl", 2),
    ("sl2_irrep", 2),
    ("sl2_irrep", 3),
]


def _seed_int(rng) -> int:
    return int(rng.integers(0, 2**31 - 1))


def _sample(rep, kind, rng):
    return catalog.sample_element(rep, kind, _seed_int(rng))


def _rel(err: float, scale: float) -> float:
    """The one residual rule: err over scale, the norm of what the claim compares (the product of
    the operands' norms for a multilinear law whose reference can vanish).  A zero scale is a case
    of its own, 0.0 for an exact match and inf otherwise; NaN stays NaN.  Absolute by nature: the
    counts, the unit references (alpha-involution's signs, volume-idempotency, ehu's |lambda| - 1),
    the inequality's slack, and the |psi| of traceless-inverse-singular and hyperbolic-nonsingular
    (whose residual 1e-6/|psi| < 1 certifies |psi| > 1e-6), as a scale for psi needs the Jacobian."""
    err, scale = float(err), float(scale)
    if scale == 0.0:  # err > 0 is false for an exact match and for NaN, which pass through
        return math.inf if err > 0 else err
    return err / scale


def _mismatch(got, want) -> float:
    """got against the reference want: _rel(|got - want|, |want|), both taken on got and want times
    one power-of-two scale (linalg._shrink of the pair), which leaves the ratio exact at any scale."""
    shrink = linalg._shrink((got, want))
    got, want = np.multiply(got, shrink), np.multiply(want, shrink)
    return _rel(linalg.norm(got - want), linalg.norm(want))


def _imaginary_part(m) -> float:
    """max |Im lambda| over the eigenvalues of m, relative to their largest modulus: 0 for a real spectrum."""
    lams = np.linalg.eigvals(m)
    return _rel(np.max(np.abs(lams.imag)), np.max(np.abs(lams)))


def _nilpotency(m) -> float:
    """max |lambda| over the clustered eigenvalues of m, relative to |m|: 0 for a nilpotent m."""
    return _rel(np.max(np.abs(linalg.spectral(m, cluster_tol=1e-3).eigenvalues)), linalg.norm(m))


def _worst(residuals) -> float:
    """The largest residual, 0.0 for none and NaN if any is NaN: the one fold of a
    claim over several items and of a suite's records (builtin max drops a NaN)."""
    return float(np.max(np.fromiter(residuals, float), initial=0.0))


# --- equivariance suite ----------------------------------------------------------


def _equivariance(rng, trial) -> float:
    # per representation b, then g, generic samples of seeds drawn from rng; the representations of one
    # matrix size share one stack of exponentials (realize's check once per stack) and one of inverses
    reps = [_built(catalog.make, *key) for key in FAMILY_KEYS]
    pairs = [rep.materialize([catalog._generic_coords(rep, _seed_int(rng)) for _ in range(2)]) for rep in reps]
    items = [None] * len(reps)
    for v in dict.fromkeys(rep.v_dim for rep in reps):
        idx = [i for i, rep in enumerate(reps) if rep.v_dim == v]
        bg = linalg._square_matrices(linalg.matrix_exp(np.array([pairs[i] for i in idx])), "group element")
        b, g = bg[:, 0], bg[:, 1]
        for i, bi, gi, conj in zip(idx, b, g, b @ g @ np.linalg.inv(b)):
            items[i] = reps[i], bi, gi, conj

    def residual(rep, b, g, conj):
        lhs, rhs = rm.cayley(rep, np.array([conj, g])).coords
        return _mismatch(lhs, rm.adjoint_matrix(rep, b) @ rhs)

    return _worst(residual(*item) for item in items)


def _cartan_stability(rng, trial) -> float:
    reps = [_built(catalog.make, *key) for key in FAMILY_KEYS]
    images = [(rm.cayley(rep, _sample(rep, "cartan", rng)).coords, rep.metadata["cartan_indices"]) for rep in reps]
    return _worst(_rel(linalg.norm(np.delete(coords, idx)), linalg.norm(coords)) for coords, idx in images)


def _jacobian_identity(rng, trial) -> float:
    reps = [_built(catalog.make, *key) for key in FAMILY_KEYS]
    return _worst(_mismatch(rm.cayley_jacobian(rep, np.eye(rep.v_dim)), np.eye(rep.g_dim)) for rep in reps)


def _psi_basis_invariance(rng, trial) -> float:
    key = FAMILY_KEYS[trial % len(FAMILY_KEYS)]
    rep = _built(catalog.make, *key)
    g = _sample(rep, "generic", rng)
    p1 = rm.psi(rep, g)
    # well-conditioned random change of basis: unitary times bounded diagonal
    q = np.linalg.qr(linalg.complex_normal(rng, (rep.g_dim, rep.g_dim)))[0]
    q = q @ np.diag(rng.uniform(0.5, 2.0, rep.g_dim) * np.exp(1j * rng.uniform(0, 2 * np.pi, rep.g_dim)))
    new_basis = [rep.materialize(q[:, j]) for j in range(rep.g_dim)]
    rep2 = rm.Representation(f"{rep.name}-recoord", new_basis)
    p2 = rm.psi(rep2, g)
    return _mismatch(p2, p1)


def _centralizer_match(rng, trial) -> float:
    key = [("sl", 2), ("sl", 3), ("so", 4)][trial % 3]
    rep = _built(catalog.make, *key)
    kind = ("generic", "hyperbolic", "cartan")[trial % 3]
    g = _sample(rep, kind, rng)
    if abs(rm.psi(rep, g)) <= 1e-6:
        return 0.0
    d_group = rm.centralizer_dim(rep, g)
    d_image = rm.centralizer_dim(rep, rm.cayley(rep, g))
    return float(abs(d_group - d_image))


EQUIVARIANCE = [
    Claim("conjugation-equivariance", "projection intertwines conjugation with the adjoint action", 1e-8, _equivariance),
    Claim("cartan-stability", "Cartan-subgroup elements project into the Cartan subalgebra", 1e-10, _cartan_stability),
    Claim("jacobian-identity", "the differential at the identity is the identity map", 1e-10, _jacobian_identity),
    Claim("psi-basis-invariance", "the Jacobian determinant is independent of the basis choice", 1e-8, _psi_basis_invariance),
    Claim("centralizer-match", "where the differential is invertible, centralizer dimensions agree", 0.5, _centralizer_match),
]


# --- jordan suite ------------------------------------------------------------------


def _jordan_sample(rng, n, rep):
    """Group element with a forced nontrivial unipotent part."""
    a = np.exp(rng.normal(0, 0.4) + 1j * rng.uniform(0, 2 * np.pi))
    while abs(a - a ** (1 - n)) < 0.1:  # keep the two eigenvalue clusters apart
        a = np.exp(rng.normal(0, 0.4) + 1j * rng.uniform(0, 2 * np.pi))
    diag = [a] * (n - 1) + [a ** (1 - n)]
    s = np.diag(np.array(diag, dtype=complex))
    u = np.eye(n, dtype=complex)
    u[0, 1] = rng.normal() + 1j * rng.normal()
    if n >= 4 and rng.uniform() < 0.5:
        u[1, 2] = rng.normal() + 1j * rng.normal()
    return catalog._conjugate(rep, s @ u, rng)


def _jordan_semisimple(rng, trial) -> float:
    n = 3 if trial % 2 == 0 else 4
    rep = _built(catalog.make, "sl", n)
    g = _jordan_sample(rng, n, rep)
    gs, _ = rm.multiplicative_jordan(g, cluster_tol=1e-4)
    phi_s, _ = rm.additive_jordan(rm.cayley(rep, g).matrix(), cluster_tol=1e-4)
    return _mismatch(rm.cayley(rep, gs).matrix(), phi_s)


def _additive_commute(rng, trial) -> float:
    lam = linalg.complex_normal(rng, ())
    block = np.diag([lam, lam, -2 * lam])
    block[0, 1] = 1.0
    v = linalg.complex_normal(rng, (3, 3)) + 2 * np.eye(3)
    x = v @ block @ np.linalg.inv(v)
    xs, xn = rm.additive_jordan(x, cluster_tol=1e-4)
    return _rel(linalg.norm(xs @ xn - xn @ xs), linalg.norm(xs) * linalg.norm(xn))


def _ehu_reconstruction(rng, trial) -> float:
    n = 3
    rep = _built(catalog.make, "sl", n)
    g = _jordan_sample(rng, n, rep)
    ge, gh, gu = rm.ehu_decomposition(g, cluster_tol=1e-4)
    return _worst([_mismatch(ge @ gh @ gu, g), *np.abs(np.abs(np.linalg.eigvals(ge)) - 1), _imaginary_part(gh)])


def _shifted_unipotent(rng, trial) -> float:
    # semisimple b times commuting unipotent w: the image difference is nilpotent
    rep = _built(catalog.make, "sl", 3)
    a = np.exp(rng.normal(0, 0.3) + 1j * rng.uniform(0, 2 * np.pi))
    b = np.diag([a, a, 1 / a**2])
    w = np.eye(3, dtype=complex)
    w[0, 1] = rng.normal() + 1j * rng.normal()
    return _nilpotency(rm.cayley(rep, b @ w).matrix() - rm.cayley(rep, b).matrix())


JORDAN = [
    Claim("jordan-semisimple-part", "projection commutes with taking semisimple parts", 1e-7, _jordan_semisimple),
    Claim("additive-jordan-commutes", "semisimple and nilpotent parts commute", 1e-8, _additive_commute),
    Claim("ehu-reconstruction", "elliptic/hyperbolic/unipotent factors recombine and classify", 1e-8, _ehu_reconstruction),
    Claim("shifted-unipotent-nilpotent", "images of commuting unipotent shifts differ by a nilpotent", 1e-7, _shifted_unipotent),
]


# --- unipotent suite ----------------------------------------------------------------


def _unipotent_image(rng, trial) -> float:
    n = 2 + trial % 3
    rep = _built(catalog.make, "sl", n)
    return _nilpotency(rm.cayley(rep, _sample(rep, "unipotent", rng)).matrix())


def _principal_fiber_count(rng, trial) -> float:
    n = 2 + trial % 3
    report = degree.sl_fiber(n, degree.principal_nilpotent(n))
    return float(abs(report.count - n))


def _principal_fiber_elements(rng, trial) -> float:
    n = 2 + trial % 3
    rep = _built(catalog.make, "sl", n)
    x = degree.principal_nilpotent(n)
    return _worst(_mismatch(rm.cayley(rep, el).matrix(), x) for el in degree.sl_fiber(n, x).valid_elements)


UNIPOTENT = [
    Claim("unipotent-nilpotent-image", "unipotent elements project to nilpotent algebra elements", 1e-7, _unipotent_image),
    Claim("principal-nilpotent-fiber-count", "the fiber over the regular nilpotent has center-many elements", 0.5, _principal_fiber_count),
    Claim("principal-nilpotent-fiber-elements", "each central fiber element projects back onto the target", 1e-9, _principal_fiber_elements),
]


# --- hyperbolic suite ------------------------------------------------------------------


HYPERBOLIC_KEYS = [("sl", 2), ("sl", 3), ("sl", 4), ("so", 3), ("so", 4), ("sl2_irrep", 2), ("sl2_irrep", 3)]


def _hyperbolic_nonsingular(rng, trial) -> float:
    reps = [_built(catalog.make, *key) for key in HYPERBOLIC_KEYS]
    # residual below 1.0 certifies |psi| > 1e-6
    return _worst(_rel(1e-6, abs(rm.psi(rep, _sample(rep, "hyperbolic", rng)))) for rep in reps)


def _hyperbolic_image_real(rng, trial) -> float:
    key = HYPERBOLIC_KEYS[trial % len(HYPERBOLIC_KEYS)]
    rep = _built(catalog.make, *key)
    return _imaginary_part(rm.cayley(rep, _sample(rep, "hyperbolic", rng)).matrix())


def _traceless_inverse_singular(rng, trial) -> float:
    n = 2 + trial % 3
    rep = _built(catalog.make, "sl", n)
    a = _sample(rep, "trace_free", rng)
    return float(abs(rm.psi(rep, np.linalg.inv(a.matrix))))


HYPERBOLIC = [
    Claim("hyperbolic-nonsingular", "the differential is invertible at hyperbolic elements", 1.0, _hyperbolic_nonsingular),
    Claim("hyperbolic-image-real", "hyperbolic elements project to real-spectrum algebra elements", 1e-8, _hyperbolic_image_real),
    Claim("traceless-inverse-singular", "inverses of algebra-valued group elements are singular points", 1e-7, _traceless_inverse_singular),
]


# --- restriction suite -------------------------------------------------------------------


def _cartan_restriction(rng, trial) -> float:
    n = 3 if trial % 2 == 0 else 4
    rep = _built(catalog.make, "sl", n)
    sub = _built(rm.restrict_to_subalgebra, rep, range(n - 1))
    g = _sample(rep, "cartan", rng)
    return _mismatch(rm.cayley(sub, g).matrix(), rm.cayley(rep, g).matrix())


def _so4_ideal_rep():
    so4 = _built(catalog.make, "so", 4)
    order = [(0, 1), (2, 3), (0, 2), (0, 3), (1, 2), (1, 3)]
    x = {pair: so4.basis[k] for k, pair in enumerate(order)}
    left = [x[(0, 1)] + x[(2, 3)], x[(0, 2)] - x[(1, 3)], x[(0, 3)] + x[(1, 2)]]
    right = [x[(0, 1)] - x[(2, 3)], x[(0, 2)] + x[(1, 3)], x[(0, 3)] - x[(1, 2)]]
    return rm.Representation("so4-ideal-basis", left + right, metadata={"family": "custom"})


def _ideal_restriction(rng, trial) -> float:
    rep = _built(_so4_ideal_rep)
    side = trial % 2
    idx = [0, 1, 2] if side == 0 else [3, 4, 5]
    sub = _built(rm.restrict_to_subalgebra, rep, tuple(idx))
    coords = np.zeros(6, dtype=complex)
    coords[idx] = linalg.complex_normal(rng, 3, 0.4)
    g = catalog.realize(rep, coords)
    full = rm.cayley(rep, g).coords
    restricted = rm.cayley(sub, g).coords
    err = _worst([linalg.norm(full[idx] - restricted), linalg.norm(np.delete(full, idx))])
    return _rel(err, linalg.norm(full))


def _full_restriction(rng, trial) -> float:
    key = FAMILY_KEYS[trial % len(FAMILY_KEYS)]
    rep = _built(catalog.make, *key)
    sub = _built(rm.restrict_to_subalgebra, rep, range(rep.g_dim))
    g = _sample(rep, "generic", rng)
    return _worst([_mismatch(sub.gram, rep.gram), _mismatch(rm.cayley(sub, g).coords, rm.cayley(rep, g).coords)])


RESTRICTION = [
    Claim("cartan-restriction", "restricting to the Cartan subalgebra preserves the projection", 1e-8, _cartan_restriction),
    Claim("ideal-restriction", "projections restrict to commuting simple ideals", 1e-8, _ideal_restriction),
    Claim("full-restriction", "restriction to the full basis is the identity", 1e-9, _full_restriction),
]


# --- sum/tensor suite ---------------------------------------------------------------------


IRREP_PAIRS = [(1, 2), (2, 3), (1, 4), (2, 2), (3, 4), (1, 3)]


def _sum_mix(rng, trial) -> float:
    m1, m2 = IRREP_PAIRS[trial % len(IRREP_PAIRS)]
    r1, r2 = _built(catalog.make, "sl2_irrep", m1), _built(catalog.make, "sl2_irrep", m2)
    ref = _built(catalog.make, "sl2_irrep", 1)
    both = _built(catalog.direct_sum, r1, r2)
    j1, j2 = _built(catalog.dynkin_ratio, r1, ref), _built(catalog.dynkin_ratio, r2, ref)
    jsum = _built(catalog.dynkin_ratio, both, ref)
    coords = linalg.complex_normal(rng, 3, 0.4)
    c1 = rm.cayley(r1, catalog.realize(r1, coords)).coords
    c2 = rm.cayley(r2, catalog.realize(r2, coords)).coords
    cs = rm.cayley(both, catalog.realize(both, coords)).coords
    mix = (j1 / jsum) * c1 + (j2 / jsum) * c2
    return _mismatch(cs, mix)


def _tensor_mix(rng, trial) -> float:
    m1, m2 = IRREP_PAIRS[trial % len(IRREP_PAIRS)]
    r1, r2 = _built(catalog.make, "sl2_irrep", m1), _built(catalog.make, "sl2_irrep", m2)
    ref = _built(catalog.make, "sl2_irrep", 1)
    prod = _built(catalog.tensor, r1, r2)
    j1, j2 = _built(catalog.dynkin_ratio, r1, ref), _built(catalog.dynkin_ratio, r2, ref)
    jprod = _built(catalog.dynkin_ratio, prod, ref)
    coords = linalg.complex_normal(rng, 3, 0.4)
    g1, g2 = catalog.realize(r1, coords), catalog.realize(r2, coords)
    gp = catalog.realize(prod, coords)
    mix = (
        j1 * rm.character(r2, g2) * rm.cayley(r1, g1).coords
        + rm.character(r1, g1) * j2 * rm.cayley(r2, g2).coords
    ) / jprod
    return _mismatch(rm.cayley(prod, gp).coords, mix)


def _tensor_power_scaling(rng, trial) -> float:
    m = (1, 2)[trial % 2]
    k = (2, 3)[(trial // 2) % 2]
    rep = _built(catalog.make, "sl2_irrep", m)
    power = _built(catalog.tensor_power, rep, k)
    coords = linalg.complex_normal(rng, 3, 0.4)
    g = catalog.realize(rep, coords)
    gk = catalog.realize(power, coords)
    mix = (rm.character(rep, g) / rep.v_dim) ** (k - 1) * rm.cayley(rep, g).coords
    return _mismatch(rm.cayley(power, gk).coords, mix)


def _dual_negation(rng, trial) -> float:
    m = 1 + trial % 4
    rep = _built(catalog.make, "sl2_irrep", m)
    d = _built(catalog.dual, rep)
    coords = linalg.complex_normal(rng, 3, 0.4)
    g = catalog.realize(rep, coords)
    gd = catalog.realize(d, coords)
    return _mismatch(rm.cayley(d, gd).coords, -rm.cayley(rep, np.linalg.inv(g.matrix)).coords)


def _gram_additivity(rng, trial) -> float:
    m1, m2 = IRREP_PAIRS[trial % len(IRREP_PAIRS)]
    r1, r2 = _built(catalog.make, "sl2_irrep", m1), _built(catalog.make, "sl2_irrep", m2)
    both = _built(catalog.direct_sum, r1, r2)
    return _mismatch(both.gram, r1.gram + r2.gram)


def _gram_tensor_rule(rng, trial) -> float:
    m1, m2 = IRREP_PAIRS[trial % len(IRREP_PAIRS)]
    r1, r2 = _built(catalog.make, "sl2_irrep", m1), _built(catalog.make, "sl2_irrep", m2)
    prod = _built(catalog.tensor, r1, r2)
    expected = r2.v_dim * r1.gram + r1.v_dim * r2.gram
    return _mismatch(prod.gram, expected)


def _index_ratio_series(rng, trial) -> float:
    ref = _built(catalog.make, "sl2_irrep", 1)
    got = [_built(catalog.dynkin_ratio, _built(catalog.make, "sl2_irrep", m), ref) for m in range(1, 6)]
    expected = [m * (m + 1) * (m + 2) / 6.0 for m in range(1, 6)]
    return _worst(_mismatch(a, b) for a, b in zip(got, expected))


SUMTENSOR = [
    Claim("direct-sum-mix", "sum projections mix with index-ratio weights", 1e-8, _sum_mix),
    Claim("tensor-mix", "tensor projections mix with character-weighted ratios", 1e-7, _tensor_mix),
    Claim("tensor-power-scaling", "tensor powers rescale by normalized character powers", 1e-7, _tensor_power_scaling),
    Claim("dual-negation", "the dual projection is minus the projection of the inverse", 1e-9, _dual_negation),
    Claim("gram-additivity", "trace forms add over direct sums", 1e-9, _gram_additivity),
    Claim("gram-tensor-rule", "tensor trace forms mix with dimension weights", 1e-9, _gram_tensor_rule),
    Claim("index-ratio-series", "symmetric-power index ratios follow the cubic series", 1e-8, _index_ratio_series),
]


# --- clifford suite ---------------------------------------------------------------------------


def _random_element(n, rng):
    return cl.CliffordElement(n, linalg.complex_normal(rng, 1 << n, 0.7))


def _cl_n(trial):
    """Algebra dimension n = 2..6, cycling with the trial."""
    return 2 + trial % 5


def _clifford_associativity(rng, trial) -> float:
    n = _cl_n(trial)
    u, v, w = (_random_element(n, rng) for _ in range(3))
    scale = u.norm() * v.norm() * w.norm()
    return _worst([_rel(((u * v) * w - u * (v * w)).norm(), scale), _rel((((u ^ v) ^ w) - (u ^ (v ^ w))).norm(), scale)])


def _gamma_homomorphism(rng, trial) -> float:
    n = _cl_n(trial)
    u, v = _random_element(n, rng), _random_element(n, rng)
    return _mismatch(cl.gamma_matrix(u * v), cl.gamma_matrix(u) @ cl.gamma_matrix(v))


def _scalar_trace_law(rng, trial) -> float:
    n = _cl_n(trial)
    w = _random_element(n, rng)
    return _rel(abs(w.scalar_part() - np.trace(cl.gamma_matrix(w)) / 2**n), w.norm())


def _pairing_law(rng, trial) -> float:
    n = _cl_n(trial)
    u, w = _random_element(n, rng), _random_element(n, rng)
    return _rel(abs((u * w).scalar_part() - cl.pairing(u, cl.alpha(w))), u.norm() * w.norm())


def _contraction_anticommutator(rng, trial) -> float:
    n = _cl_n(trial)
    x = cl.from_vector(n, linalg.complex_normal(rng, n))
    y = cl.from_vector(n, linalg.complex_normal(rng, n))
    u = _random_element(n, rng)
    lhs = cl.epsilon(x, cl.iota(y, u)) + cl.iota(y, cl.epsilon(x, u))
    xy = complex(np.sum(x.vector_part() * y.vector_part()))
    return _rel((lhs - xy * u).norm(), x.norm() * y.norm() * u.norm())


def _volume_idempotency(rng, trial) -> float:
    n = 1 + trial % 8
    mu, ep, em = cl.volume_idempotents(n)
    return _worst(x.norm() for x in ((mu * mu) - cl.scalar(n, 1.0), (ep * ep) - ep, ep * em))


def _alpha_involution(rng, trial) -> float:
    n = _cl_n(trial)
    blades = [cl.basis_blade(n, mask) for mask in range(1 << n)]
    alphas = [cl.alpha(b) for b in blades]
    signs = [(-1.0) ** (k * (k - 1) // 2) for k in map(int.bit_count, range(1 << n))]
    sign_err = [abs(a.coeffs[mask] - sign) for mask, (a, sign) in enumerate(zip(alphas, signs))]
    return _worst(sign_err + [abs((b * a).scalar_part() - 1.0) for b, a in zip(blades, alphas)])


def _tau_differential(rng, trial) -> float:
    n = 3 + trial % 4
    u = cl.random_bivector(n, rng)
    eps = 1e-6
    fd = (cl.vector_action(cl.spin_exp(eps * u)) - cl.vector_action(cl.spin_exp(-eps * u))) / (2 * eps)
    return _mismatch(fd, cl.tau(u))


CLIFFORD = [
    Claim("clifford-associativity", "both products are associative", 1e-10, _clifford_associativity),
    Claim("gamma-homomorphism", "left multiplication is an algebra homomorphism", 1e-10, _gamma_homomorphism),
    Claim("scalar-trace-law", "the scalar part is the normalized trace of left multiplication", 1e-10, _scalar_trace_law),
    Claim("alpha-pairing-law", "the scalar part of a product is the twisted pairing", 1e-10, _pairing_law),
    Claim("contraction-anticommutator", "wedge and contraction anticommute to the pairing", 1e-10, _contraction_anticommutator),
    Claim("volume-idempotency", "the volume element squares to one and splits the identity", 1e-10, _volume_idempotency),
    Claim("alpha-involution", "blade reversal signs follow the half-turn rule and invert blades", 1e-10, _alpha_involution),
    Claim("tau-differential", "the bivector action is the derivative of the vector action", 1e-5, _tau_differential),
]


# --- spin-cayley suite --------------------------------------------------------------------------


def _spin_n(trial):
    return 3 + trial % 6


def _spin_square_law(rng, trial) -> float:
    n = _spin_n(trial)
    g = cl.spin_exp(cl.random_bivector(n, rng))
    return _mismatch(cl.spin_scalar(g) ** 2, np.linalg.det(np.eye(n) + cl.vector_action(g)) / 2**n)


def _spin_commutation(rng, trial) -> float:
    n = _spin_n(trial)
    w = cl.random_bivector(n, rng)
    x = cl.from_vector(n, linalg.complex_normal(rng, n))
    e2w = cl.exterior_exp(2.0 * w)
    br = w * x - x * w
    return _mismatch(((x + br) * e2w).coeffs, (e2w * (x - br)).coeffs)


def _spin_sample_nonsingular(rng, n):
    for _ in range(20):
        g = cl.spin_exp(cl.random_bivector(n, rng))
        t = cl.vector_action(g)
        if abs(np.linalg.det(np.eye(n) + t)) > 0.1:
            return g, t
    raise RuntimeError("could not sample a spin element away from the singular set")


def _spin_factorization(rng, trial) -> float:
    n = _spin_n(trial)
    g, t = _spin_sample_nonsingular(rng, n)
    w = cl.tau_inv(cl.cayley_gamma(t))
    return _mismatch((cl.spin_scalar(g) * cl.exterior_exp(-2.0 * w)).coeffs, g.value.coeffs)


def _spin_closed_form(rng, trial) -> float:
    n = _spin_n(trial)
    g, t = _spin_sample_nonsingular(rng, n)
    w = cl.tau_inv(cl.cayley_gamma(t))
    return _mismatch((-2.0 * cl.spin_scalar(g) * w).coeffs, cl.spin_cayley(g).coeffs)


def _double_cover_sign(rng, trial) -> float:
    n = _spin_n(trial)
    g = cl.spin_exp(cl.random_bivector(n, rng))
    return _worst([_mismatch(cl.vector_action(-g), cl.vector_action(g)), _mismatch(-cl.spin_scalar(-g), cl.spin_scalar(g))])


SPIN_CAYLEY = [
    Claim("spin-square-law", "the scalar part squares to the shifted-rotation determinant", 1e-8, _spin_square_law),
    Claim("spin-commutation", "wedge exponentials intertwine the two half-actions", 1e-8, _spin_commutation),
    Claim("spin-factorization", "spin elements factor through the wedge exponential", 1e-7, _spin_factorization),
    Claim("spin-closed-form", "the bivector part equals the scaled classical Cayley transform", 1e-7, _spin_closed_form),
    Claim("double-cover-sign", "negating a spin element flips the scalar part, not the rotation", 1e-10, _double_cover_sign),
]


# --- degree suite ---------------------------------------------------------------------------------


def _sl_fiber_counts(rng, trial) -> float:
    return _worst(abs(degree.sl_fiber(n, degree.random_trace_free(n, rng)).count - n) for n in (2, 3, 4, 5))


def _spin_fiber_counts(rng, trial) -> float:
    # n points for even n, n - 1 for odd n
    return _worst(abs(degree.spin_fiber(n, degree.random_skew(n, rng)).count - (n - n % 2)) for n in (4, 5, 6, 7, 8))


def _sl_fiber_elements(rng, trial) -> float:
    n = 2 + trial % 4
    rep = _built(catalog.make, "sl", n)
    x = degree.random_trace_free(n, rng)
    elements = degree.sl_fiber(n, x).valid_elements
    # every X + t 1 projects onto X: membership in SL(n) is the det g = 1 check
    return _worst(r for el in elements for r in (_mismatch(rm.cayley(rep, el).matrix(), x), _mismatch(np.linalg.det(el), 1.0)))


def _spin_det_consistency(rng, trial) -> float:
    n = 4 + trial % 5
    x = degree.random_skew(n, rng)
    report = degree.spin_fiber(n, x)
    pairs = zip(report.element_roots, report.valid_elements)
    return _worst(_mismatch(np.linalg.det(np.eye(n) + rot), t * t) for t, rot in pairs)


def _spin_odd_zero_root(rng, trial) -> float:
    n = (5, 7)[trial % 2]
    x = degree.random_skew(n, rng)
    roots = linalg.poly_roots(degree.minimal_poly_coeffs("spin", n, x))
    zeros = int(np.sum(np.abs(roots) <= 1e-8 * np.max(np.abs(roots))))
    return float(abs(zeros - 1))


DEGREE = [
    Claim("sl-fiber-count", "generic shift fibers have dimension-many points", 0.5, _sl_fiber_counts),
    Claim("spin-fiber-count", "generic spin fibers have n (even) or n-1 (odd) points", 0.5, _spin_fiber_counts),
    Claim("sl-fiber-elements", "every reported fiber element has det 1 and projects onto the target", 1e-6, _sl_fiber_elements),
    Claim("spin-det-consistency", "reconstructed rotations satisfy the root-determinant relation", 1e-6, _spin_det_consistency),
    Claim("spin-odd-zero-root", "odd-dimensional fiber polynomials vanish simply at zero", 0.5, _spin_odd_zero_root),
]


# --- inequality suite ---------------------------------------------------------------------------


def _zero_sum_exponential(rng, trial) -> float:
    n = int(rng.integers(2, 17))
    r = rng.standard_normal(n)
    r -= r.mean()
    slack = float(np.sum(r * np.exp(r)) - np.sum(r * r) / (2 * n))
    return _worst([-slack])


INEQUALITY = [
    Claim("zero-sum-exp-bound", "zero-sum exponential averages dominate the scaled square sum", 1e-12, _zero_sum_exponential),
]


SUITES: dict[str, list[Claim]] = {
    "equivariance": EQUIVARIANCE,
    "jordan": JORDAN,
    "unipotent": UNIPOTENT,
    "hyperbolic": HYPERBOLIC,
    "restriction": RESTRICTION,
    "sumtensor": SUMTENSOR,
    "clifford": CLIFFORD,
    "spin-cayley": SPIN_CAYLEY,
    "degree": DEGREE,
    "inequality": INEQUALITY,
}


def _trial_rng(seed: int, suite: str, claim: str, trial: int) -> np.random.Generator:
    entropy = [int(seed), zlib.crc32(suite.encode()), zlib.crc32(claim.encode()), int(trial)]
    return np.random.default_rng(np.random.SeedSequence(entropy))


def run_suite(name: str, trials: int = 50, seed: int = 0, tol_scale: float = 1.0) -> SuiteResult:
    """Run one named suite; a failed trial never aborts the remaining claims."""
    if name not in SUITES:
        raise ValueError(f"unknown suite {name!r}; choose from {sorted(SUITES)} or 'all'")
    if trials < 1:
        raise ValueError(f"trials must be at least 1, got {trials}")
    if not (math.isfinite(tol_scale) and tol_scale > 0):
        raise ValueError(f"tol_scale must be finite and positive, got {tol_scale}")
    records = []
    for claim in SUITES[name]:
        tol = claim.tolerance * tol_scale
        for trial in range(trials):
            rng = _trial_rng(seed, name, claim.id, trial)
            error = None
            try:
                residual = float(claim.run(rng, trial))
            except Exception as exc:
                # a blown-up trial is a failure, never an abort
                residual, error = float("inf"), f"{type(exc).__name__}: {exc}"
            records.append(ClaimRecord(claim.id, trial, residual, tol, residual <= tol, error))
    records.sort(key=lambda r: (r.claim, r.trial))
    failures = sum(1 for r in records if not r.passed)
    worst = _worst(r.residual for r in records)
    return SuiteResult(
        suite=name,
        seed=seed,
        trials=trials,
        tol_scale=tol_scale,
        failures=failures,
        worst_residual=worst,
        records=records,
    )


def run_all(trials: int = 50, seed: int = 0, tol_scale: float = 1.0) -> list[SuiteResult]:
    return [run_suite(name, trials, seed, tol_scale) for name in sorted(SUITES)]


def claim_statements() -> dict[str, str]:
    return {c.id: c.statement for claims in SUITES.values() for c in claims}
