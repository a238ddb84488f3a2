"""Acceptance gate: one test per criterion, printed as a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.  Trial counts and tolerances are fixed here, not configurable.
"""

import json

import numpy as np

from cayleymap import catalog, cli, clifford as cl, degree, linalg, suites
from cayleymap import representation as rm


def _rng(seed):
    return np.random.default_rng(np.random.SeedSequence([0xACCE97, seed]))


def _cgauss(rng, size=None, scale=1.0):
    return scale * (rng.standard_normal(size) + 1j * rng.standard_normal(size)) / np.sqrt(2)


def _report(name: str, worst: float, bound: float):
    ok = worst <= bound
    print(f"[{'PASS' if ok else 'FAIL'}] {name}: worst={worst:.3e} bound={bound:.1e}")
    assert ok, f"{name}: worst residual {worst:.3e} exceeds {bound:.1e}"


CATALOG_REPS = (
    [catalog.make_sl(n) for n in (2, 3, 4, 5)]
    + [catalog.make_so(n) for n in (3, 4, 5, 6)]
    + [catalog.make_gl(n) for n in (1, 2, 3)]
    + [catalog.make_sl2_irrep(m) for m in (1, 2, 3, 4, 5)]
)

PROPERTY_FAMILIES = (
    [catalog.make_sl(n) for n in (2, 3, 4)]
    + [catalog.make_so(n) for n in (3, 4, 5)]
    + [catalog.make_gl(2)]
    + [catalog.make_sl2_irrep(m) for m in (2, 3)]
)


def test_criterion_01_closed_form_agreement():
    rng = _rng(1)
    worst = 0.0
    for n in (2, 3, 4, 5):
        rep = catalog.make_sl(n)
        for trial in range(100):
            g = catalog.sample_element(rep, "generic", trial)
            expected = g.matrix - (np.trace(g.matrix) / n) * np.eye(n)
            err = np.linalg.norm(rm.cayley(rep, g).matrix() - expected)
            worst = max(worst, err / (1.0 + np.linalg.norm(expected)))
    for n in (3, 4, 5, 6):
        rep = catalog.make_so(n)
        for trial in range(100):
            g = catalog.sample_element(rep, "generic", trial)
            expected = 0.5 * (g.matrix - g.matrix.T)
            err = np.linalg.norm(rm.cayley(rep, g).matrix() - expected)
            worst = max(worst, err / (1.0 + np.linalg.norm(expected)))
    _report("criterion-01 closed-form projections", worst, 1e-10)


def test_criterion_02_psi_closed_form():
    rep = catalog.make_sl(2)
    worst = 0.0
    for trial in range(100):
        g = catalog.sample_element(rep, "generic", 1000 + trial)
        worst = max(worst, abs(rm.psi(rep, g) - 0.5 * np.trace(g.matrix)))
    for cat in CATALOG_REPS:
        worst = max(worst, abs(rm.psi(cat, np.eye(cat.v_dim)) - 1.0))
    _report("criterion-02 psi closed form and psi(e)=1", worst, 1e-9)


def test_criterion_03_irrep_torus_series():
    rng = _rng(3)
    worst = 0.0
    for m in (1, 2, 3, 4, 5):
        rep = catalog.make_sl2_irrep(m)
        for _ in range(20):
            a = np.exp(_cgauss(rng, (), 0.4))
            g = catalog.realize(rep, [np.log(a), 0.0, 0.0])  # exp(log(a) H) = diag(a^(m - 2p))
            coords = rm.cayley(rep, g).coords
            series = sum((m - 2 * p) * a ** (m - 2 * p) for p in range(m + 1))
            expected = 3.0 / (m**3 + 3 * m**2 + 2 * m) * series
            worst = max(worst, abs(coords[0] - expected) / (1.0 + abs(expected)))
    _report("criterion-03 symmetric-power torus series", worst, 1e-8)


def test_criterion_04_equivariance_and_cartan_stability():
    worst = 0.0
    for rep in PROPERTY_FAMILIES:
        cartan = rep.metadata["cartan_indices"]
        for trial in range(100):
            b = catalog.sample_element(rep, "generic", 2000 + trial)
            g = catalog.sample_element(rep, "generic", 3000 + trial)
            conj = b.matrix @ g.matrix @ np.linalg.inv(b.matrix)
            lhs = rm.cayley(rep, conj).coords
            rhs = rm.adjoint_matrix(rep, b) @ rm.cayley(rep, g).coords
            worst = max(worst, np.linalg.norm(lhs - rhs) / (1.0 + np.linalg.norm(rhs)))
            c = catalog.sample_element(rep, "cartan", 4000 + trial)
            off = np.delete(rm.cayley(rep, c).coords, cartan)
            if off.size:
                worst = max(worst, float(np.max(np.abs(off))))
    _report("criterion-04 equivariance and Cartan stability", worst, 1e-8)


def test_criterion_05_jordan_compatibility():
    rng = _rng(5)
    worst = 0.0
    for trial in range(100):
        n = 3 if trial % 2 == 0 else 4
        rep = catalog.make_sl(n)
        a = np.exp(rng.normal(0, 0.4) + 1j * rng.uniform(0, 2 * np.pi))
        while abs(a - a ** (1 - n)) < 0.1:
            a = np.exp(rng.normal(0, 0.4) + 1j * rng.uniform(0, 2 * np.pi))
        s = np.diag(np.array([a] * (n - 1) + [a ** (1 - n)], dtype=complex))
        u = np.eye(n, dtype=complex)
        u[0, 1] = rng.normal() + 1j * rng.normal()
        if n == 4 and trial % 4 == 1:
            u[1, 2] = rng.normal() + 1j * rng.normal()
        q = linalg.matrix_exp(rep.materialize(_cgauss(rng, rep.g_dim, 0.3)))
        g = q @ (s @ u) @ np.linalg.inv(q)
        gs, gu = rm.multiplicative_jordan(g, cluster_tol=1e-4)
        assert np.linalg.norm(gu - np.eye(n)) > 1e-3  # unipotent part is nontrivial
        phi_of_gs = rm.cayley(rep, gs).matrix()
        phi_s, _ = rm.additive_jordan(rm.cayley(rep, g).matrix(), cluster_tol=1e-4)
        worst = max(worst, float(np.linalg.norm(phi_of_gs - phi_s)))
    _report("criterion-05 Jordan semisimple compatibility", worst, 1e-7)


def test_criterion_06_unipotent_and_central_fiber():
    worst = 0.0
    count_errors = 0
    for n in (2, 3, 4):
        rep = catalog.make_sl(n)
        for trial in range(20):
            u = catalog.sample_element(rep, "unipotent", 5000 + trial)
            phi = rm.cayley(rep, u).matrix()
            dec = linalg.spectral(phi, cluster_tol=1e-3)
            worst = max(worst, float(np.max(np.abs(dec.eigenvalues))))
        report = degree.sl_fiber(n, degree.principal_nilpotent(n))
        count_errors += abs(report.count - n)
        x = degree.principal_nilpotent(n)
        for el in report.valid_elements:
            worst = max(worst, float(np.linalg.norm(rm.cayley(rep, el).matrix() - x)))
    assert count_errors == 0, "central fiber count mismatch"
    _report("criterion-06 unipotent images and central fibers", worst, 1e-7)


def test_criterion_07_degree_counts():
    rng = _rng(7)
    mismatches = 0
    for n in (2, 3, 4, 5):
        for _ in range(20):
            if degree.sl_fiber(n, degree.random_trace_free(n, rng)).count != n:
                mismatches += 1
    for n in (4, 5, 6, 7, 8):
        expected = n if n % 2 == 0 else n - 1
        for _ in range(20):
            if degree.spin_fiber(n, degree.random_skew(n, rng)).count != expected:
                mismatches += 1
    _report("criterion-07 mapping-degree fiber counts", float(mismatches), 0.0)


def test_criterion_08_spin_identities():
    rng = _rng(8)
    worst_sq = worst_comm = worst_fact = worst_closed = 0.0
    for n in range(3, 9):
        produced = 0
        while produced < 50:
            u = cl.CliffordElement(n)
            for a in range(n):
                for b in range(a + 1, n):
                    u.coeffs[(1 << a) | (1 << b)] = _cgauss(rng, (), 0.4)
            g = cl.spin_exp(u)
            t = cl.vector_action(g)
            det_shift = np.linalg.det(np.eye(n) + t)
            worst_sq = max(
                worst_sq, abs(cl.spin_scalar(g) ** 2 - det_shift / 2**n) / (1.0 + abs(det_shift / 2**n))
            )
            x = cl.from_vector(n, _cgauss(rng, n))
            e2w = cl.exterior_exp(2.0 * u)
            br = u * x - x * u
            comm = (e2w * (x - br) - (x + br) * e2w).norm()
            worst_comm = max(worst_comm, comm / (1.0 + e2w.norm()))
            if abs(det_shift) < 0.1:
                continue  # stay away from the singular set for the factorization
            produced += 1
            w = cl.tau_inv(cl.cayley_gamma(t))
            c = cl.spin_scalar(g)
            worst_fact = max(worst_fact, (g.value - c * cl.exterior_exp(-2.0 * w)).norm())
            worst_closed = max(worst_closed, (cl.spin_cayley(g) - (-2.0 * c) * w).norm())
    _report("criterion-08a spin square law", worst_sq, 1e-8)
    _report("criterion-08b spin commutation identity", worst_comm, 1e-8)
    _report("criterion-08c spin factorization", worst_fact, 1e-7)
    _report("criterion-08d spin closed form", worst_closed, 1e-7)


def test_criterion_09_combinator_identities():
    rng = _rng(9)
    ref = catalog.make_sl2_irrep(1)
    irreps = {m: catalog.make_sl2_irrep(m) for m in (1, 2, 3, 4)}
    ratios = {m: catalog.dynkin_ratio(irreps[m], ref) for m in irreps}
    worst = 0.0
    worst_gram = 0.0
    for m1, m2 in ((1, 2), (2, 3), (1, 4), (3, 4), (2, 2)):
        r1, r2 = irreps[m1], irreps[m2]
        both = catalog.direct_sum(r1, r2)
        prod = catalog.tensor(r1, r2)
        worst_gram = max(worst_gram, float(np.max(np.abs(both.gram - (r1.gram + r2.gram)))))
        expected = r2.v_dim * r1.gram + r1.v_dim * r2.gram
        worst_gram = max(worst_gram, float(np.max(np.abs(prod.gram - expected))))
        j1, j2 = ratios[m1], ratios[m2]
        jsum = catalog.dynkin_ratio(both, ref)
        jprod = catalog.dynkin_ratio(prod, ref)
        for _ in range(10):
            coords = _cgauss(rng, 3, 0.4)
            g1, g2 = catalog.realize(r1, coords), catalog.realize(r2, coords)
            c1, c2 = rm.cayley(r1, g1).coords, rm.cayley(r2, g2).coords
            cs = rm.cayley(both, catalog.realize(both, coords)).coords
            mix = (j1 / jsum) * c1 + (j2 / jsum) * c2
            worst = max(worst, np.linalg.norm(cs - mix) / (1.0 + np.linalg.norm(mix)))
            cp = rm.cayley(prod, catalog.realize(prod, coords)).coords
            chi1, chi2 = rm.character(r1, g1), rm.character(r2, g2)
            mix = (j1 * chi2 * c1 + chi1 * j2 * c2) / jprod
            worst = max(worst, np.linalg.norm(cp - mix) / (1.0 + np.linalg.norm(mix)))
    for m, k in ((1, 2), (1, 3), (2, 2), (2, 3)):
        rep = irreps[m]
        power = catalog.tensor_power(rep, k)
        for _ in range(5):
            coords = _cgauss(rng, 3, 0.4)
            g = catalog.realize(rep, coords)
            mix = (rm.character(rep, g) / rep.v_dim) ** (k - 1) * rm.cayley(rep, g).coords
            ck = rm.cayley(power, catalog.realize(power, coords)).coords
            worst = max(worst, np.linalg.norm(ck - mix) / (1.0 + np.linalg.norm(mix)))
    for m in (1, 2, 3, 4):
        rep = irreps[m]
        d = catalog.dual(rep)
        for _ in range(5):
            coords = _cgauss(rng, 3, 0.4)
            lhs = rm.cayley(d, catalog.realize(d, coords)).coords
            rhs = -rm.cayley(rep, np.linalg.inv(catalog.realize(rep, coords).matrix)).coords
            worst = max(worst, np.linalg.norm(lhs - rhs) / (1.0 + np.linalg.norm(rhs)))
    _report("criterion-09a sum/tensor/power/dual identities", worst, 1e-7)
    _report("criterion-09b trace-form additivity and tensor rule", worst_gram, 1e-9)


def test_criterion_10_hyperbolic_and_singularity():
    worst_hyp = 0.0  # 1e-6 / |psi| stays below 1 iff |psi| > 1e-6
    for rep in PROPERTY_FAMILIES:
        for trial in range(100):
            g = catalog.sample_element(rep, "hyperbolic", 6000 + trial)
            worst_hyp = max(worst_hyp, 1e-6 / abs(rm.psi(rep, g)))
    worst_sing = 0.0
    for n in (2, 3, 4):
        rep = catalog.make_sl(n)
        for trial in range(100):
            a = catalog.sample_element(rep, "trace_free", 7000 + trial)
            worst_sing = max(worst_sing, abs(rm.psi(rep, np.linalg.inv(a.matrix))))
    _report("criterion-10a hyperbolic elements are nonsingular", worst_hyp, 1.0 - 1e-12)
    _report("criterion-10b traceless-image inverses are singular", worst_sing, 1e-7)


def test_criterion_11_zero_sum_inequality():
    rng = _rng(11)
    worst = 0.0
    for _ in range(1000):
        n = int(rng.integers(2, 17))
        r = rng.standard_normal(n)
        r -= r.mean()
        slack = float(np.sum(r * np.exp(r)) - np.sum(r * r) / (2 * n))
        worst = max(worst, -slack)
    _report("criterion-11 zero-sum exponential inequality", worst, 1e-12)


def test_criterion_12_report_determinism(tmp_path, capsys):
    r1, r2 = tmp_path / "r1.json", tmp_path / "r2.json"
    code1 = cli.main(["verify", "--suite", "all", "--trials", "3", "--seed", "17", "--report", str(r1)])
    code2 = cli.main(["verify", "--suite", "all", "--trials", "3", "--seed", "17", "--report", str(r2)])
    capsys.readouterr()
    assert code1 == 0 and code2 == 0
    identical = r1.read_bytes() == r2.read_bytes()
    payload = json.loads(r1.read_text())
    assert payload["failures"] == 0
    print(f"[{'PASS' if identical else 'FAIL'}] criterion-12 byte-identical verification reports")
    assert identical


def test_full_default_verification_run():
    # the CLI default configuration must be green end to end
    results = suites.run_all(trials=10, seed=0)
    failures = {r.suite: r.failures for r in results if r.failures}
    assert not failures, failures
