"""Suite machinery: determinism, record bookkeeping, failure accounting."""

import numpy as np
import pytest

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
