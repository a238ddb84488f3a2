"""Suite machinery: determinism, record bookkeeping, failure accounting."""

import math
import types

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cayleymap import catalog
from cayleymap import representation as rm
from cayleymap import suites


def test_all_suites_registered():
    expected = {
        "equivariance",
        "jordan",
        "unipotent",
        "hyperbolic",
        "restriction",
        "sumtensor",
        "clifford",
        "spin-cayley",
        "degree",
        "inequality",
    }
    assert set(suites.SUITES) == expected


def test_every_suite_passes_smoke():
    for name in sorted(suites.SUITES):
        result = suites.run_suite(name, trials=3, seed=42)
        assert result.failures == 0, f"{name}: {result.worst_residual}"
        assert len(result.records) == 3 * len(suites.SUITES[name])


def test_suites_pass_across_seeds():
    for seed in (1, 7, 1234):
        for name in sorted(suites.SUITES):
            result = suites.run_suite(name, trials=5, seed=seed)
            bad = [r for r in result.records if not r.passed]
            assert not bad, f"{name} seed={seed}: {[(r.claim, r.trial, r.residual) for r in bad]}"


def test_records_sorted_and_counted():
    result = suites.run_suite("degree", trials=4, seed=1)
    keys = [(r.claim, r.trial) for r in result.records]
    assert keys == sorted(keys)
    assert result.failures == sum(1 for r in result.records if not r.passed)
    assert result.worst_residual == max(r.residual for r in result.records)


def test_same_seed_reproduces_residuals():
    a = suites.run_suite("jordan", trials=5, seed=9)
    b = suites.run_suite("jordan", trials=5, seed=9)
    assert [r.residual for r in a.records] == [r.residual for r in b.records]


def test_different_seed_changes_residuals():
    a = suites.run_suite("equivariance", trials=3, seed=1)
    b = suites.run_suite("equivariance", trials=3, seed=2)
    ra = [r.residual for r in a.records if r.claim == "psi-basis-invariance"]
    rb = [r.residual for r in b.records if r.claim == "psi-basis-invariance"]
    assert ra != rb


def test_spin_cayley_default_trials_tight_residuals():
    result = suites.run_suite("spin-cayley", trials=50, seed=3)
    assert result.failures == 0
    assert result.worst_residual < 1e-7


def test_tol_scale_forces_failures():
    strict = suites.run_suite("spin-cayley", trials=2, seed=0, tol_scale=1e-13)
    assert strict.failures > 0
    # every claim still ran to completion
    assert len(strict.records) == 2 * len(suites.SUITES["spin-cayley"])


def test_unknown_suite_rejected():
    with pytest.raises(ValueError):
        suites.run_suite("nonesuch", trials=1, seed=0)


@pytest.mark.parametrize("trials", [0, -3])
def test_run_suite_rejects_fewer_than_one_trial(trials):
    with pytest.raises(ValueError, match="trials must be at least 1"):
        suites.run_suite("inequality", trials=trials, seed=0)


@pytest.mark.parametrize("tol_scale", [float("nan"), float("inf"), 0.0, -1.0])
def test_run_suite_rejects_tol_scale_that_is_not_finite_and_positive(tol_scale):
    with pytest.raises(ValueError, match="tol_scale must be finite and positive"):
        suites.run_suite("inequality", trials=1, seed=0, tol_scale=tol_scale)
    with pytest.raises(ValueError, match="tol_scale must be finite and positive"):
        suites.run_all(trials=1, seed=0, tol_scale=tol_scale)


def test_raising_claim_becomes_failure_not_abort(monkeypatch):
    def explode(rng, trial):
        raise RuntimeError("boom")

    broken = suites.Claim("always-raises", "placeholder", 1e-8, explode)
    monkeypatch.setitem(suites.SUITES, "inequality", suites.SUITES["inequality"] + [broken])
    result = suites.run_suite("inequality", trials=2, seed=0)
    bad = [r for r in result.records if r.claim == "always-raises"]
    assert len(bad) == 2 and not any(r.passed for r in bad)
    good = [r for r in result.records if r.claim == "zero-sum-exp-bound"]
    assert all(r.passed for r in good)


def test_raising_claim_records_its_error(monkeypatch):
    def explode(rng, trial):
        raise ZeroDivisionError(f"trial {trial}")

    claims = list(suites.SUITES["clifford"])
    broken = claims[1]
    claims[1] = suites.Claim(broken.id, broken.statement, broken.tolerance, explode)
    monkeypatch.setitem(suites.SUITES, "clifford", claims)
    result = suites.run_suite("clifford", trials=2, seed=0)
    assert len(result.records) == 2 * len(claims)
    for r, rec in zip(result.records, result.to_json()["records"]):
        if r.claim == broken.id:
            assert r.error == rec["error"] == f"ZeroDivisionError: trial {r.trial}"
            assert not r.passed and not rec["pass"] and r.residual == float("inf")
        else:
            # every other claim still ran, passed, and reports no error key
            assert r.error is None and "error" not in rec and r.passed
    assert result.failures == 2


def test_nan_family_fails_a_claim_over_families(monkeypatch):
    # one family's NaN residual among nine finite ones fails the claim, and
    # the suite's worst residual is NaN, not the largest finite one
    adjoint = rm.adjoint_matrix

    def nan_on_so4(rep, b):
        m = adjoint(rep, b)
        return np.full_like(m, np.nan) if rep.name == "so4" else m

    monkeypatch.setattr(rm, "adjoint_matrix", nan_on_so4)
    result = suites.run_suite("equivariance", trials=2, seed=0)
    bad = [r for r in result.records if r.claim == "conjugation-equivariance"]
    assert len(bad) == 2 and all(math.isnan(r.residual) and not r.passed for r in bad)
    assert result.failures == 2
    assert math.isnan(result.worst_residual)


def _equivariance_per_representation(rng, trial):
    """conjugation-equivariance one representation at a time, the reference for its stacks:
    per representation, b then g, one realize, one inverse and one product."""

    def residual(rep):
        b, g = catalog.realize(rep, np.array([catalog._generic_coords(rep, suites._seed_int(rng)) for _ in range(2)]))
        lhs, rhs = rm.cayley(rep, np.array([b @ g @ np.linalg.inv(b), g])).coords
        return suites._mismatch(lhs, rm.adjoint_matrix(rep, b) @ rhs)

    return suites._worst(residual(suites._built(catalog.make, *key)) for key in suites.FAMILY_KEYS)


@pytest.mark.parametrize("seed", [0, 5])
def test_stacked_equivariance_keeps_every_representations_bits(monkeypatch, seed):
    # the stacks per matrix size give each representation's two sides, in FAMILY_KEYS order,
    # with the bits of the representation-at-a-time body, and so the same residual
    sides = []
    mismatch = suites._mismatch

    def record(got, want):
        sides.append(np.concatenate([np.ravel(got), np.ravel(want)]).view(np.uint64).tolist())
        return mismatch(got, want)

    monkeypatch.setattr(suites, "_mismatch", record)
    for trial in range(40):
        rngs = [suites._trial_rng(seed, "equivariance", "conjugation-equivariance", trial) for _ in range(2)]
        got = suites._equivariance(rngs[0], trial)
        stacked, sides[:] = sides[:], []
        want = _equivariance_per_representation(rngs[1], trial)
        assert len(stacked) == len(suites.FAMILY_KEYS) and stacked == sides, trial
        assert np.float64(got).view(np.uint64) == np.float64(want).view(np.uint64), trial
        sides.clear()


def test_nan_term_fails_a_pairwise_claim(monkeypatch):
    # full-restriction folds the Gram and the image differences: a NaN image
    # on the restricted representation fails it beside a finite Gram term
    cayley = rm.cayley

    def nan_on_restriction(rep, g):
        if "|" not in rep.name:
            return cayley(rep, g)
        return types.SimpleNamespace(coords=np.full(rep.g_dim, np.nan, dtype=complex))

    monkeypatch.setattr(rm, "cayley", nan_on_restriction)
    result = suites.run_suite("restriction", trials=2, seed=0)
    bad = [r for r in result.records if r.claim == "full-restriction"]
    assert len(bad) == 2 and all(math.isnan(r.residual) and not r.passed for r in bad)
    assert math.isnan(result.worst_residual)


def test_sl_fiber_element_off_the_group_fails_its_claim(monkeypatch):
    # X + t 1 projects onto the trace-free X for every t: only det g = 1 tells a fiber point
    # from an element off SL(n), so a shifted element fails the claim by |det - 1|
    sl_fiber = suites.degree.sl_fiber

    def shifted(n, x):
        report = sl_fiber(n, x)
        report.valid_elements = [el + 0.1 * np.eye(n) for el in report.valid_elements]
        return report

    rng = suites._trial_rng(0, "degree", "sl-fiber-elements", 0)
    assert suites._sl_fiber_elements(rng, 0) <= 1e-10
    monkeypatch.setattr(suites.degree, "sl_fiber", shifted)
    rng = suites._trial_rng(0, "degree", "sl-fiber-elements", 0)
    assert suites._sl_fiber_elements(rng, 0) > 1e-2


def test_sl_fiber_element_with_a_nan_det_fails_its_claim(monkeypatch):
    # the det mismatch folds through _worst with the projection's: a NaN det is not dropped
    rng = suites._trial_rng(0, "degree", "sl-fiber-elements", 0)
    x = suites.degree.random_trace_free(2, rng)
    report = suites.degree.sl_fiber(2, x)
    assert report.valid_elements
    monkeypatch.setattr(suites.degree, "random_trace_free", lambda n, rng: x)
    monkeypatch.setattr(suites.degree, "sl_fiber", lambda n, x: report)
    monkeypatch.setattr(suites.np.linalg, "det", lambda a: np.nan)
    assert np.isnan(suites._sl_fiber_elements(rng, 0))


def test_claim_statements_cover_all_ids():
    statements = suites.claim_statements()
    for claims in suites.SUITES.values():
        for claim in claims:
            assert claim.id in statements
            assert statements[claim.id]


def test_result_json_shape():
    result = suites.run_suite("inequality", trials=2, seed=5)
    d = result.to_json()
    assert d["suite"] == "inequality"
    assert d["seed"] == 5
    assert d["trials"] == 2
    assert {"claim", "trial", "residual", "tolerance", "pass"} == set(d["records"][0])


# --- the one residual rule -------------------------------------------------------


def test_rel_is_err_over_scale_at_every_scale():
    # a 100 % mismatch reads 1 at scale 1e-9; a unit offset would read it as 1e-9 and pass
    assert suites._rel(1e-9, 1e-9) == 1.0
    assert suites._mismatch(2e-9, 1e-9) == 1.0
    assert suites._rel(3.0, 2.0) == 1.5


def test_rel_takes_a_zero_reference_by_name():
    # 0.0 for an exact match, inf for any other err, however small
    assert suites._rel(0.0, 0.0) == 0.0 and suites._mismatch(np.zeros(3), np.zeros(3)) == 0.0
    assert suites._rel(1e-300, 0.0) == math.inf and suites._mismatch(1e-150, 0.0) == math.inf
    # also where the square of err underflows: |1e-300| is not read as 0
    assert suites._mismatch(1e-300, 0.0) == math.inf and suites._mismatch(np.full(4, 1e-170), np.zeros(4)) == math.inf


def test_rel_propagates_nan():
    for err, scale in ((math.nan, 1.0), (math.nan, 0.0), (1.0, math.nan), (0.0, math.nan)):
        assert math.isnan(suites._rel(err, scale))
    assert math.isnan(suites._worst([0.5, suites._mismatch(np.array([math.nan]), np.array([1.0]))]))


@settings(derandomize=True, database=None, max_examples=60, deadline=None)
@given(log_scale=st.floats(-300.0, 300.0), seed=st.integers(0, 10**6))
@example(log_scale=-300.0, seed=0)
@example(log_scale=-170.0, seed=0)
@example(log_scale=-9.0, seed=0)
def test_mismatch_is_invariant_under_a_common_scale(log_scale, seed):
    rng = np.random.default_rng(seed)
    want = rng.standard_normal(6) + 1j * rng.standard_normal(6)
    got = want + 0.5 * (rng.standard_normal(6) + 1j * rng.standard_normal(6))
    c = 10.0**log_scale
    assert suites._mismatch(c * got, c * want) == pytest.approx(suites._mismatch(got, want), rel=1e-14)
    assert suites._mismatch(c * want, c * want) == 0.0
