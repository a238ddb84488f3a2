"""Fiber polynomials, root counting and fiber-element reconstruction."""

import warnings

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cayleymap import catalog, clifford as cl, degree, linalg
from cayleymap import representation as rm
from cayleymap.errors import DegenerateInput, NotSkew


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
    # |tr X| 9.19e-186 is judged against |X| ~ 1.4e-170, not against a norm whose squares underflow to 0
    assert degree.sl_fiber(2, np.diag([1e-170, -1e-170 + 1e-185])).count == 2
    rng = np.random.default_rng(4)
    for n in (3, 4, 6):
        for s in 10.0 ** np.arange(-6, 7):
            # the trace-free test passes at every scale
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


def test_overflowing_fiber_polynomial_names_the_finite_scale():
    # |X| is linalg.norm's 1.41e+160, not np.linalg.norm's overflowed inf
    with pytest.raises(DegenerateInput, match=r"overflows at \|X\| 1\.41e\+160$"):
        degree.sl_fiber(2, np.diag([1e160, -1e160]))


def test_non_skew_spin_target_whose_norm_overflows_is_not_skew():
    # |X|^2 overflows at 1e160: the skew rule still compares finite numbers
    x = 1e160 * np.diag([1.0, 2.0, 3.0])
    with pytest.raises(NotSkew) as err:
        degree.spin_fiber(3, x)
    assert np.isfinite(err.value.value) and np.isfinite(err.value.threshold)
    assert err.value.value == pytest.approx(2 * np.sqrt(14) * 1e160, rel=1e-15)
    assert err.value.threshold == pytest.approx(cl.SKEW_TOL * np.sqrt(14) * 1e160, rel=1e-15)


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


def test_char_poly_keeps_the_bits_of_the_per_node_loop():
    # the n + 1 shifted matrices formed as one broadcast, against t * 1 + X formed node by node;
    # the principal nilpotent and its negative carry exactly-zero entries of both signs
    rng = _rng(42)
    targets = [10.0**k * degree.random_trace_free(n, rng) for n in range(2, 13) for k in range(-4, 5)]
    targets += [10.0**k * degree.random_skew(n, rng) for n in range(3, 13) for k in (-4, 0, 4)]
    targets += [sign * degree.principal_nilpotent(n) for n in (2, 5, 12) for sign in (1.0, -1.0)]
    targets += [np.diag([1e6, -1e6]).astype(complex)]
    for x in targets:
        n, norm = x.shape[0], linalg.norm(x)
        nodes = (1.0 + norm) * np.exp(2j * np.pi * np.arange(n + 1) / (n + 1))
        values = np.array([linalg.determinant(t * np.eye(n) + x) for t in nodes])
        expected = np.linalg.solve(np.vander(nodes, n + 1, increasing=True), values)
        assert np.array_equal(degree._char_poly(x, norm).view(np.uint64), expected.view(np.uint64))


@pytest.mark.parametrize("family", degree.FAMILIES)
def test_minimal_poly_writes_the_coefficients_det_fixes(family):
    # det(t + X) is monic with t^(n-1) coefficient tr X, and for skew X
    # det(t + X) = (-1)^n det(-t + X): those coefficients are exact, not interpolated
    smallest, sample, _ = degree.FAMILIES[family]
    rng = _rng(9)
    for n in range(smallest, 13):
        for s in 10.0 ** np.arange(-6, 7, 2):
            x = s * sample(n, rng)
            p = degree.minimal_poly_coeffs(family, n, x)
            assert p.size == n + 1 and p[n] == 1.0
            if family == "sl":
                assert p[n - 1] == np.trace(x)
            else:
                assert np.all(p[n - 1 :: -2] == 0.0)


@settings(derandomize=True, database=None, max_examples=60, deadline=None)
@given(
    family=st.sampled_from(sorted(degree.FAMILIES)),
    n=st.integers(3, 8),
    log_scale=st.floats(-8.0, 8.0),
    seed=st.integers(0, 2**32 - 1),
)
@example(family="spin", n=3, log_scale=-8.0, seed=0)
def test_fiber_preconditions_raise_at_every_scale_or_at_none(family, n, log_scale, seed):
    # an exactly skew or trace-free c X passes.  A defect of 1e-6 |X| (a multiple
    # of 1, symmetric with a trace) fails at every scale for sl, whose test is
    # relative; for spin it fails exactly where |D + D^T| exceeds the skew rule's
    # SKEW_TOL |D| + n ROUNDING_FLOOR, whose floor passes it below c ~ 1.3e-8
    _, sample, fiber = degree.FAMILIES[family]
    c, x = 10.0**log_scale, sample(n, _rng(seed))
    fiber(n, c * x)
    d = c * (x + 1e-6 * np.linalg.norm(x) / np.sqrt(n) * np.eye(n))
    bound = cl.SKEW_TOL * np.linalg.norm(d) + n * linalg.ROUNDING_FLOOR
    if family == "spin" and np.linalg.norm(d + d.T) <= bound:
        fiber(n, d)
        return
    with pytest.raises(DegenerateInput if family == "sl" else NotSkew):
        fiber(n, d)


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


def test_spin_counts_at_every_scale_from_1e_6():
    # even n has n roots; odd n has n - 1 beside the zero root, which the
    # polynomial in s = t^2 divides out exactly; the small pair of n = 4, 5
    # below unit scale (|t| ~ 1e-13 at 1e-6) must not merge or vanish
    rng = _rng(10)
    scales = 10.0 ** np.arange(-6, 7, 2)
    targets = [(n, s * degree.random_skew(n, rng)) for n in range(3, 13) for s in scales for _ in range(5)]
    targets += [(7, 1e6 * degree.random_skew(7, _rng(seed))) for seed in range(6)]
    for n, x in targets:
        assert degree.spin_fiber(n, x).count == n - n % 2


def _mp_fiber_count(n, x):
    """Distinct nonzero roots of det(t + X) - 2^n t^(n-2), X's entries taken
    exactly, at 80 digits: the coefficients by Faddeev-LeVerrier on A = -X
    (det(t + X) = det(t - A)), the roots by mpmath.polyroots."""
    with mpmath.workdps(80):
        a = -mpmath.matrix(x.tolist())
        coeffs, m = [mpmath.mpf(1)], mpmath.zeros(n)
        for k in range(1, n + 1):
            m = a * m + coeffs[-1] * mpmath.eye(n)
            am = a * m
            coeffs.append(-sum(am[i, i] for i in range(n)) / k)
        coeffs[2] -= 2**n
        roots = mpmath.polyroots(coeffs, maxsteps=400, extraprec=400)
        # the zero root of odd n reads ~1e-80 |X|; the smallest genuine root at |X| ~ 1e-6 is ~1e-14
        nonzero = [r for r in roots if abs(r) > 1e-40]
        return sum(all(abs(r - q) > 1e-30 * abs(r) for q in nonzero[:i]) for i, r in enumerate(nonzero))


@settings(derandomize=True, database=None, max_examples=40, deadline=None)
@given(n=st.integers(3, 8), log_scale=st.floats(-6.0, 6.0), seed=st.integers(0, 2**32 - 1))
def test_spin_count_matches_a_high_precision_root_count(n, log_scale, seed):
    x = 10.0**log_scale * degree.random_skew(n, _rng(seed))
    assert degree.spin_fiber(n, x).count == _mp_fiber_count(n, x)


@pytest.mark.xfail(
    strict=True,
    raises=AssertionError,
    reason="ROADMAP item 15: below ~3e-7 the companion eigensolver returns the small s-roots as 0 and the count is 2",
)
@pytest.mark.parametrize("n", [6, 9, 12])
def test_spin_count_at_1e_8_matches_a_high_precision_root_count(n):
    # the first wrong seed ends the test, so a failing run pays for one mpmath count
    for seed in range(5):
        x = 1e-8 * degree.random_skew(n, _rng(seed))
        assert degree.spin_fiber(n, x).count == _mp_fiber_count(n, x)


@pytest.mark.xfail(
    strict=True,
    raises=AssertionError,
    reason="ROADMAP item 6: the absolute rotation check reads rounding of size eps |T|^2 and skips every root at 1e4",
)
@pytest.mark.parametrize("n", [4, 5, 6])
def test_spin_fiber_at_1e4_builds_every_element(n):
    report = degree.spin_fiber(n, 1e4 * degree.random_skew(n, _rng(0)))
    assert report.count == n - n % 2
    assert len(report.valid_elements) == report.count and report.skipped_roots == []


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


def test_spin_fiber_matches_the_per_root_loop():
    # every root is an element or a skipped root, and each element
    # is cayley_gamma(X/t) to within rounding amplified by cond(1 + X/t);
    # the 1e4 targets skip roots (|T^T T - 1| grows with |T|^2), the target
    # of `cayleymap fiber --family spin --n 10 --random --seed 1` skips none
    cli_target = degree.random_skew(10, np.random.default_rng(np.random.SeedSequence([1, 0xF1BE7])))
    rng = _rng(19)
    targets = [(10, cli_target)]
    targets += [(n, s * degree.random_skew(n, rng)) for n in range(3, 13) for s in 10.0 ** np.arange(-4, 5, 2)]
    skipped_any = 0
    for n, x in targets:
        report = degree.spin_fiber(n, x)
        assert report.roots.dtype == complex and report.count == len(report.roots)
        assert len(report.element_roots) + len(report.skipped_roots) == report.count
        assert set(report.element_roots) | set(report.skipped_roots) == set(report.roots.tolist())
        for t, rot in zip(report.element_roots, report.valid_elements):
            b = x / t
            want = cl.cayley_gamma(b)
            bound = linalg.ROUNDING_FLOOR * n * np.linalg.cond(np.eye(n) + b) * (1.0 + np.linalg.norm(want))
            assert np.linalg.norm(rot - want) <= bound
        skipped_any += bool(report.skipped_roots)
    assert degree.spin_fiber(10, cli_target).skipped_roots == []
    assert skipped_any > 1


def test_spin_fiber_with_no_admissible_root(monkeypatch):
    # every s-root rounded to exactly 0: the empty root set still makes a report
    monkeypatch.setattr(linalg, "poly_roots", lambda coeffs: np.zeros(len(coeffs) - 1, dtype=complex))
    report = degree.spin_fiber(4, degree.random_skew(4, _rng(20)))
    assert report.count == 0
    assert report.valid_elements == [] and report.element_roots == [] and report.skipped_roots == []
    assert report.roots.shape == (0,) and report.roots.dtype == complex
    assert report.to_json()["roots"] == []


def test_singular_even_target_excludes_the_zero_root():
    # blockdiag(a J, 0): det(t + X) - 16 t^2 = t^2 (t^2 + a^2 - 16), so s = 0 is
    # a root of the polynomial in s and only t = +-sqrt(16 - a^2) count
    x = np.zeros((4, 4))
    x[0, 1], x[1, 0] = 1.3, -1.3
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        report = degree.spin_fiber(4, x)
    assert report.count == 2 and report.skipped_roots == []
    want = np.sqrt(16.0 - 1.3**2)
    assert np.allclose(sorted(report.roots, key=lambda r: r.real), [-want, want], rtol=1e-14, atol=0.0)


def test_an_exactly_zero_s_root_is_excluded_without_warnings():
    # at 1e-8 the companion eigensolver returns the small s-roots of this n = 6
    # target as exactly 0 (too small for its absolute Newton slope test): they
    # are left out like the zero root, not divided by or logged
    n, x = 6, 1e-8 * degree.random_skew(6, _rng(0))
    s = linalg.poly_roots(degree.minimal_poly_coeffs("spin", n, x)[n % 2 :: 2])
    assert np.any(s == 0.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        report = degree.spin_fiber(n, x)
    assert report.count % 2 == 0 and np.all(report.roots != 0.0)


def test_a_root_at_minus_an_eigenvalue_is_skipped_without_warnings():
    # at 1e20, 2^6 t^4 is below the rounding of det(t + X): a root equals -lambda
    # to the last bit, so t + lambda = 0 and its rotation is not finite
    x = 1e20 * degree.random_skew(6, _rng(7))
    lam = np.linalg.eig(x).eigenvalues
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        report = degree.spin_fiber(6, x)
    hit = [t for t in report.roots if np.any(t + lam == 0.0)]
    assert report.count == 6 and hit
    assert all(t in report.skipped_roots for t in hit)


def test_a_forced_root_at_minus_an_eigenvalue_is_skipped_without_warnings(monkeypatch):
    # poly_roots returns s = lambda^2 for X's eigenvalues lambda = iy, y > 0, so
    # t = -sqrt(s) = -iy and t + lambda = 0 exactly (sqrt of a rounded square is
    # exact), whatever the rounding of the eigensolver or of a real root solve
    j = np.array([[0.0, 1.0], [-1.0, 0.0]])
    x = np.block([[2.0 * j, np.zeros((2, 2))], [np.zeros((2, 2)), 3.0 * j]])
    lam = np.linalg.eig(x).eigenvalues
    monkeypatch.setattr(linalg, "poly_roots", lambda coeffs: lam[lam.imag > 0] ** 2)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        report = degree.spin_fiber(4, x)
    hit = [t for t in report.roots if np.any(t + lam == 0.0)]
    assert report.count == 4 and len(hit) >= 2
    assert all(t in report.skipped_roots for t in hit)


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
