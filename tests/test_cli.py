"""CLI surface: commands, shorthand parsing, exit codes, report determinism."""

import json

import numpy as np
import pytest

from cayleymap import cli, linalg


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr().out
    return code, out


def run_json(capsys, *argv):
    code, out = run_cli(capsys, *argv)
    return code, json.loads(out)


def test_map_diag_shorthand(capsys):
    code, payload = run_json(capsys, "map", "--group", "sl", "--n", "2", "--element", "diag(2,0.5)")
    assert code == 0
    m = linalg.matrix_from_json(payload["matrix"])
    assert np.allclose(m, np.diag([0.75, -0.75]))


def test_map_so4_identity_is_zero(capsys):
    code, payload = run_json(capsys, "map", "--group", "so", "--n", "4", "--element", "identity 4")
    assert code == 0
    assert np.allclose(linalg.matrix_from_json(payload["matrix"]), 0)


def test_map_unipotent_sample_nilpotent(capsys):
    code, payload = run_json(capsys, "map", "--group", "sl", "--n", "3", "--sample", "unipotent", "--seed", "7")
    assert code == 0
    m = linalg.matrix_from_json(payload["matrix"])
    dec = linalg.spectral(m, cluster_tol=1e-3)
    assert np.max(np.abs(dec.eigenvalues)) < 1e-7


def test_psi_identity(capsys):
    code, payload = run_json(capsys, "psi", "--group", "sl", "--n", "2", "--element", "identity 2")
    assert code == 0
    assert payload["psi"] == [1.0, 0.0]


def test_psi_diag_and_inverse_flag(capsys):
    code, payload = run_json(capsys, "psi", "--group", "sl", "--n", "2", "--element", "diag(2,0.5)")
    assert code == 0
    assert payload["psi"][0] == pytest.approx(1.25)
    code, payload = run_json(
        capsys, "psi", "--group", "sl", "--n", "2", "--element", "diag(i,-i)", "--inverse"
    )
    assert code == 0
    assert abs(complex(*payload["psi"])) < 1e-10


def test_jacobian_at_identity(capsys):
    code, payload = run_json(capsys, "jacobian", "--group", "so", "--n", "3", "--element", "identity 3")
    assert code == 0
    assert np.allclose(linalg.matrix_from_json(payload["matrix"]), np.eye(3), atol=1e-10)
    assert payload["det"][0] == pytest.approx(1.0)


def test_fiber_counts(capsys):
    code, payload = run_json(capsys, "fiber", "--family", "sl", "--n", "3", "--random", "--seed", "1")
    assert code == 0 and payload["count"] == 3
    code, payload = run_json(capsys, "fiber", "--family", "spin", "--n", "6", "--random", "--seed", "1")
    assert code == 0 and payload["count"] == 6
    code, payload = run_json(capsys, "fiber", "--family", "spin", "--n", "7", "--random", "--seed", "1")
    assert code == 0 and payload["count"] == 6


def test_fiber_from_file(tmp_path, capsys):
    target = tmp_path / "target.json"
    target.write_text(json.dumps(linalg.matrix_to_json(np.diag([1.0, -1.0]))))
    code, payload = run_json(capsys, "fiber", "--family", "sl", "--n", "2", "--target", str(target))
    assert code == 0
    roots = sorted(r[0] for r in payload["roots"])
    assert roots == pytest.approx([-np.sqrt(2), np.sqrt(2)])


def test_spin_exp_action_cayley(tmp_path, capsys):
    # bivector -> spin element -> rotation -> scalar/bivector split
    from cayleymap import clifford as cl

    u = 0.3 * cl.basis_blade(2, 0b11)
    biv = tmp_path / "bivector.json"
    biv.write_text(json.dumps(u.to_json()))
    code, payload = run_json(capsys, "spin", "exp", "--element", str(biv))
    assert code == 0
    g = cl.CliffordElement.from_json(payload["element"])
    assert g.coeffs[0] == pytest.approx(np.cos(0.3))

    spin_file = tmp_path / "spin.json"
    spin_file.write_text(json.dumps(payload["element"]))
    code, payload = run_json(capsys, "spin", "action", "--element", str(spin_file))
    assert code == 0
    rot = linalg.matrix_from_json(payload["rotation"])
    assert np.allclose(rot, [[np.cos(0.6), np.sin(0.6)], [-np.sin(0.6), np.cos(0.6)]], atol=1e-10)

    code, payload = run_json(capsys, "spin", "cayley", "--element", str(spin_file))
    assert code == 0
    assert payload["pr0"][0] == pytest.approx(np.cos(0.3))
    pr2 = cl.CliffordElement.from_json(payload["pr2"])
    closed = cl.CliffordElement.from_json(payload["closed_form"])
    assert (pr2 - closed).norm() < 1e-10


def test_verify_suite_passes(capsys):
    code, payload = run_json(capsys, "verify", "--suite", "inequality", "--trials", "200", "--seed", "3")
    assert code == 0
    assert payload["failures"] == 0


def test_verify_exit_one_on_failure(capsys):
    code, payload = run_json(
        capsys, "verify", "--suite", "spin-cayley", "--trials", "2", "--seed", "3", "--tol", "1e-13"
    )
    assert code == 1
    assert payload["failures"] > 0
    # partial failures never abort remaining claims: every record is present
    suite = payload["suites"][0]
    claims = {r["claim"] for r in suite["records"]}
    assert len(claims) == 5


def test_verify_all_enumerates_claims(capsys):
    code, payload = run_json(capsys, "verify", "--suite", "all", "--trials", "1", "--seed", "0")
    assert code == 0
    names = {s["suite"] for s in payload["suites"]}
    assert names == set(cli.suites.SUITES)
    record_claims = {r["claim"] for s in payload["suites"] for r in s["records"]}
    assert record_claims == set(payload["claims"].keys())


def test_verify_reports_are_byte_identical(tmp_path, capsys):
    r1 = tmp_path / "r1.json"
    r2 = tmp_path / "r2.json"
    code1, _ = run_cli(capsys, "verify", "--suite", "degree", "--trials", "3", "--seed", "11", "--report", str(r1))
    code2, _ = run_cli(capsys, "verify", "--suite", "degree", "--trials", "3", "--seed", "11", "--report", str(r2))
    assert code1 == code2 == 0
    assert r1.read_bytes() == r2.read_bytes()


def test_csv_format(capsys):
    code, out = run_cli(capsys, "verify", "--suite", "inequality", "--trials", "2", "--seed", "0", "--format", "csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "suite,claim,trial,residual,tolerance,pass"
    assert len(lines) == 3


def test_csv_format_flattens_nested_fields(capsys):
    argv = ("psi", "--group", "sl", "--n", "2", "--element", "diag(2,0.5)")
    _, payload = run_json(capsys, *argv)
    code, out = run_cli(capsys, *argv, "--format", "csv")
    assert code == 0
    rows = dict(line.split(",", 1) for line in out.strip().splitlines()[1:])
    assert [float(rows["psi.0"]), float(rows["psi.1"])] == payload["psi"]
    assert rows["group"] == payload["group"]


def test_exit_code_usage_errors(capsys):
    assert cli.main(["map", "--group", "sl", "--n", "2", "--element", "diag(bogus)"]) == 2
    capsys.readouterr()
    assert cli.main(["map", "--group", "sl", "--n", "2"]) == 2
    capsys.readouterr()
    assert cli.main(["verify", "--suite", "nope"]) == 2
    capsys.readouterr()


def test_exit_code_math_errors(capsys):
    assert cli.main(["fiber", "--family", "spin", "--n", "3", "--target", "identity 3"]) == 3
    capsys.readouterr()
    assert cli.main(["fiber", "--family", "sl", "--n", "2", "--target", "diag(1,1)"]) == 3
    capsys.readouterr()
    # numpy's LinAlgError subclasses ValueError, yet inverting a singular
    # element is a failed precondition, not a usage error
    assert cli.main(["psi", "--group", "sl", "--n", "2", "--element", "diag(0,1)", "--inverse"]) == 3
    assert "error: LinAlgError: Singular matrix" in capsys.readouterr().err


def test_spin_exp_rejects_non_bivector_file(tmp_path, capsys):
    from cayleymap import clifford as cl

    bad = tmp_path / "vector.json"
    bad.write_text(json.dumps(cl.basis_vector(3, 0).to_json()))
    assert cli.main(["spin", "exp", "--element", str(bad)]) == 2
    capsys.readouterr()


def test_element_dimension_mismatch(capsys):
    assert cli.main(["map", "--group", "sl", "--n", "3", "--element", "identity 2"]) == 2
    capsys.readouterr()
