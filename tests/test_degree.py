"""Fiber polynomials, root counting and fiber-element reconstruction."""

import warnings

import numpy as np
import pytest

from cayleymap import catalog, clifford as cl, degree, linalg
from cayleymap import representation as rm
from cayleymap.errors import DegenerateInput, NotSkew, SingularShift


def _rng(seed):
    return np.random.default_rng(seed)


# --- sl fibers ------------------------------------------------------------------


def test_sl2_fiber_over_diag():
    report = degree.sl_fiber(2, np.diag([1.0, -1.0]))
    roots = np.sort(report.roots.real)
    assert np.allclose(roots, [-np.sqrt(2), np.sqrt(2)], atol=1e-10)
    assert report.count == 2
    for el in report.valid_elements:
        assert abs(np.linalg.det(el) - 1) < 1e-10


def test_sl2_central_fiber():
    report = degree.sl_fiber(2, np.zeros((2, 2)))
    assert report.count == 2
    assert np.allclose(np.sort(report.roots.real), [-1.0, 1.0], atol=1e-10)


def test_sl_fiber_elements_project_back():
    rng = _rng(0)
    for n in (2, 3, 4):
        rep = catalog.make_sl(n)
        x = degree.random_trace_free(n, rng)
        report = degree.sl_fiber(n, x)
        for el in report.valid_elements:
            phi = rm.cayley(rep, el).matrix()
            assert np.linalg.norm(phi - x) <= 1e-6 * (1 + np.linalg.norm(x))


def test_sl_generic_degree_counts():
    rng = _rng(1)
    for n in (2, 3, 4, 5):
        for _ in range(8):
            report = degree.sl_fiber(n, degree.random_trace_free(n, rng))
            assert report.count == n


def test_sl_fiber_requires_traceless():
    with pytest.raises(DegenerateInput):
        degree.sl_fiber(2, np.eye(2))


def test_sl_trace_free_check_is_relative_to_the_target():
    # diag(1, 2, 3) has trace 6 at every scale, so the relative test rejects it at every scale
    for s in 10.0 ** np.arange(-9, 4):
        with pytest.raises(DegenerateInput, match="must be trace-free"):
            degree.sl_fiber(3, s * np.diag([1.0, 2.0, 3.0]))
    assert degree.sl_fiber(3, np.zeros((3, 3))).count == 3
    rng = np.random.default_rng(4)
    for n in (3, 4, 6):
        for s in 10.0 ** np.arange(-6, 7):
            # the trace-free test passes and the polynomial is monic at every scale
            assert degree.minimal_poly_coeffs("sl", n, s * degree.random_trace_free(n, rng)).size == n + 1


def test_sl2_fiber_keeps_its_unit_leading_coefficient_at_scale():
    # det(t + X) - 1 = t^2 - (1e12 + 1): the large constant term must not drop the leading 1
    report = degree.sl_fiber(2, 1e6 * np.diag([1.0, -1.0]))
    assert report.count == 2
    exact = np.sqrt(1e12 + 1)
    for root, want in zip(sorted(report.roots, key=lambda r: r.real), (-exact, exact)):
        assert abs(root - want) <= 1e-12 * exact


def test_sl_fiber_counts_n_at_every_scale():
    rng = _rng(0)
    for n in range(3, 13):
        for s in 10.0 ** np.arange(-6, 7, 2):
            for _ in range(20):
                assert degree.sl_fiber(n, s * degree.random_trace_free(n, rng)).count == n


@pytest.mark.parametrize(
    "family, target",
    [("sl", np.diag([1e160, -1e160])), ("spin", 1e45 * degree.random_skew(8, np.random.default_rng(0)))],
)
def test_overflowing_fiber_polynomial_is_degenerate_without_warnings(family, target):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DegenerateInput, match=r"fiber polynomial det\(t\*1 \+ X\) is not finite"):
            degree.FAMILIES[family][2](len(target), target)


def test_principal_nilpotent_fiber_counts():
    for n in (2, 3, 4):
        report = degree.sl_fiber(n, degree.principal_nilpotent(n))
        assert report.count == n
        # roots are the n-th roots of unity
        assert np.allclose(np.sort(np.abs(report.roots)), np.ones(n), atol=1e-10)
        rep = catalog.make_sl(n)
        x = degree.principal_nilpotent(n)
        for el in report.valid_elements:
            assert abs(np.linalg.det(el) - 1) < 1e-9
            assert np.linalg.norm(rm.cayley(rep, el).matrix() - x) <= 1e-9


def test_sl2_principal_nilpotent_elements():
    x = degree.principal_nilpotent(2)
    report = degree.sl_fiber(2, x)
    got = sorted(report.valid_elements, key=lambda e: e[0, 0].real)
    assert np.allclose(got[0], x - np.eye(2), atol=1e-10)
    assert np.allclose(got[1], x + np.eye(2), atol=1e-10)


# --- minimal polynomial coefficients ----------------------------------------------


def test_minimal_poly_sl2_diag():
    p = degree.minimal_poly_coeffs("sl", 2, np.diag([1.0, -1.0]))
    assert np.allclose(p, [-2.0, 0.0, 1.0], atol=1e-10)


def test_minimal_poly_sl3_tracefree_coefficient():
    rng = _rng(2)
    p = degree.minimal_poly_coeffs("sl", 3, degree.random_trace_free(3, rng))
    assert abs(p[2]) < 1e-9


def test_minimal_poly_spin_shift():
    rng = _rng(3)
    x = degree.random_skew(4, rng)
    p = degree.minimal_poly_coeffs("spin", 4, x)
    assert p[4] == pytest.approx(1.0, abs=1e-9)
    # sampling oracle: the degree-2 coefficient carries the -2^n shift
    plain = degree.minimal_poly_coeffs("sl", 4, x - np.trace(x) / 4 * np.eye(4))
    # sl subtracts 1 from p_0, spin subtracts 2^4 from p_2
    assert np.allclose(p - plain, [1.0, 0.0, -(2.0**4), 0.0, 0.0], atol=1e-9)
    # compare by evaluating both at sample points
    for t in (0.7, -1.3, 2.1 + 0.5j):
        det_val = np.linalg.det(t * np.eye(4) + x)
        assert np.polyval(p[::-1], t) == pytest.approx(det_val - 2**4 * t**2, rel=1e-8)


def test_minimal_poly_rejects_nonskew_spin_target():
    with pytest.raises(NotSkew):
        degree.minimal_poly_coeffs("spin", 3, np.eye(3))


def test_fibers_need_the_family_smallest_n():
    # the target is checked before n: a non-skew spin target is NotSkew at any n
    with pytest.raises(NotSkew):
        degree.spin_fiber(2, np.eye(2))
    with pytest.raises(ValueError, match="spin fibers need n >= 3"):
        degree.spin_fiber(2, np.zeros((2, 2)))
    for n in (0, 1):
        with pytest.raises(ValueError, match="sl fibers need n >= 2"):
            degree.sl_fiber(n, np.zeros((n, n)))


# --- spin fibers -------------------------------------------------------------------


def test_spin_degree_counts_even():
    rng = _rng(4)
    for n in (4, 6, 8):
        for _ in range(5):
            report = degree.spin_fiber(n, degree.random_skew(n, rng))
            assert report.count == n


def test_spin_degree_counts_odd():
    rng = _rng(5)
    for n in (5, 7):
        for _ in range(5):
            report = degree.spin_fiber(n, degree.random_skew(n, rng))
            assert report.count == n - 1


def test_spin_odd_single_zero_root():
    rng = _rng(6)
    for n in (5, 7):
        x = degree.random_skew(n, rng)
        poly = degree.minimal_poly_coeffs("spin", n, x)
        roots = linalg.poly_roots(poly)
        zeros = np.sum(np.abs(roots) <= 1e-8 * (1 + np.max(np.abs(roots))))
        assert zeros == 1


def test_spin_fiber_det_consistency():
    rng = _rng(7)
    for n in (4, 5, 6):
        x = degree.random_skew(n, rng)
        report = degree.spin_fiber(n, x)
        assert len(report.element_roots) == len(report.valid_elements)
        for t, rot in zip(report.element_roots, report.valid_elements):
            assert np.linalg.norm(rot.T @ rot - np.eye(n)) < 1e-6
            det_shift = np.linalg.det(np.eye(n) + rot)
            assert abs(det_shift - t * t) <= 1e-6 * (1 + abs(t) ** 2)


def _spin_fiber_loop(n, x):
    """spin_fiber as one cayley_gamma call and one check per root: the
    reference for the stacked reconstruction."""
    poly, distinct = degree._fiber_roots("spin", n, x)
    admissible = [t for t in distinct if abs(t) > degree.ZERO_ROOT_TOL]
    elements, element_roots, skipped = [], [], []
    for t in admissible:
        try:
            rot = cl.cayley_gamma(x / t)
        except SingularShift:
            skipped.append(t)
            continue
        ortho = np.linalg.norm(rot.T @ rot - np.eye(n))
        det_shift = linalg.determinant(np.eye(n) + rot)
        if ortho > 1e-6 or abs(det_shift - t * t) > 1e-6 * (1.0 + abs(t) ** 2):
            skipped.append(t)
            continue
        elements.append(rot)
        element_roots.append(t)
    return admissible, elements, element_roots, skipped


def test_spin_fiber_matches_the_per_root_loop():
    # the target of `cayleymap fiber --family spin --n 10 --random --seed 1`
    # skips 2 of its 10 roots, so the skip path runs through the stack
    cli_target = degree.random_skew(10, np.random.default_rng(np.random.SeedSequence([1, 0xF1BE7])))
    rng = _rng(19)
    targets = [(10, cli_target)]
    targets += [(n, s * degree.random_skew(n, rng)) for n in range(3, 13) for s in 10.0 ** np.arange(-4, 5, 2)]
    skipped_any = 0
    for n, x in targets:
        report = degree.spin_fiber(n, x)
        admissible, elements, element_roots, skipped = _spin_fiber_loop(n, x)
        assert report.count == len(admissible)
        assert report.roots.dtype == complex and np.array_equal(report.roots, admissible)
        assert report.element_roots == element_roots and report.skipped_roots == skipped
        assert len(report.valid_elements) == len(elements)
        assert all(np.array_equal(a, b) for a, b in zip(report.valid_elements, elements))
        skipped_any += bool(skipped)
    assert len(degree.spin_fiber(10, cli_target).skipped_roots) == 2
    assert skipped_any > 1


def test_spin_fiber_with_no_admissible_root(monkeypatch):
    # every root filtered as zero: the empty stack goes through the Cayley core
    monkeypatch.setattr(degree, "ZERO_ROOT_TOL", np.inf)
    report = degree.spin_fiber(4, degree.random_skew(4, _rng(20)))
    assert report.count == 0
    assert report.valid_elements == [] and report.element_roots == [] and report.skipped_roots == []
    assert report.roots.shape == (0,) and report.roots.dtype == complex
    assert report.to_json()["roots"] == []


def test_spin_fiber_elements_reproduce_target():
    # chain check: lift each rotation to the double cover and confirm the
    # degree-2 part matches the target under the fiber normalization
    # t * Gamma(T) = X with t = 2^(n/2) pr0
    rng = _rng(8)
    for n in (4, 5):
        x = degree.random_skew(n, rng)
        report = degree.spin_fiber(n, x)
        for t, rot in zip(report.element_roots, report.valid_elements):
            matched = 0
            # the two lifts +-sqrt(det(1 + T)) 2^(-n/2) exterior_exp(-2 tau_inv(cayley_gamma(T)))
            c = np.sqrt(complex(np.linalg.det(np.eye(n) + rot))) / 2 ** (n / 2.0)
            plus = cl.SpinElement(cl.exterior_exp(-2.0 * cl.tau_inv(cl.cayley_gamma(rot))) * c)
            for g in (plus, -plus):
                pr0 = cl.spin_scalar(g)
                if abs(2 ** (n / 2.0) * pr0 - t) > 1e-6 * (1 + abs(t)):
                    continue  # the other sign of the lift
                matched += 1
                recovered = 2 ** (n / 2.0) * pr0 * cl.tau(cl.tau_inv(cl.cayley_gamma(rot)))
                assert np.linalg.norm(recovered - x) <= 1e-6 * (1 + np.linalg.norm(x))
                # and through the projection chain: tau(pr2(g)) = -2 pr0 Gamma(T)
                via_proj = cl.tau(cl.spin_cayley(g))
                expected = -(2.0 ** (1 - n / 2.0)) * x
                assert np.linalg.norm(via_proj - expected) <= 1e-6 * (1 + np.linalg.norm(x))
            assert matched == 1


def test_fiber_report_json():
    report = degree.sl_fiber(2, np.diag([1.0, -1.0]))
    d = report.to_json()
    assert d["count"] == 2
    assert len(d["roots"]) == 2
    assert len(d["elements"]) == 2
    assert len(d["polynomial"]) == 3
