"""CLI surface: commands, shorthand parsing, exit codes, report determinism."""

import json
import warnings

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


@pytest.mark.parametrize("n", [0, 1])
def test_sl_fiber_below_smallest_n_is_a_usage_error(capsys, n):
    # sl needs n >= 2, as make_sl does; checked before a target is drawn
    assert cli.main(["fiber", "--family", "sl", "--n", str(n), "--random"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "error: --family sl needs --n >= 2" in captured.err
    assert cli.main(["fiber", "--family", "spin", "--n", "2", "--random"]) == 2
    assert "error: --family spin needs --n >= 3" in capsys.readouterr().err


def test_sl_fiber_at_scale_and_past_overflow(capsys):
    code, payload = run_json(capsys, "fiber", "--family", "sl", "--n", "2", "--target", "diag(1e6,-1e6)")
    assert code == 0 and payload["count"] == 2 and len(payload["polynomial"]) == 3
    assert cli.main(["fiber", "--family", "sl", "--n", "2", "--target", "diag(1e160,-1e160)"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: DegenerateInput: fiber polynomial det(t*1 + X) is not finite")


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


def _spin_cayley_at(tmp_path, capsys, c12, c34):
    """spin cayley --element on exp(c12 z1 z2 + c34 z3 z4) at n = 4."""
    from cayleymap import clifford as cl

    u = c12 * cl.basis_blade(4, 0b0011) + c34 * cl.basis_blade(4, 0b1100)
    spin_file = tmp_path / "spin.json"
    spin_file.write_text(json.dumps(cl.spin_exp(u).value.to_json()))
    return run_json(capsys, "spin", "cayley", "--element", str(spin_file))


def test_spin_cayley_closed_form_follows_cayley_gamma(tmp_path, capsys):
    from cayleymap import clifford as cl

    # det(1 + T) = 1.4e-6 but 1 + T has condition number 8.9e15: no closed form
    code, payload = _spin_cayley_at(tmp_path, capsys, (np.pi - 1e-8) / 2, 10j)
    assert code == 0
    assert "closed_form" not in payload
    # det(1 + T) = 1e-12 with condition number 1: the closed form is well defined
    theta = (np.pi - 1e-3) / 2
    code, payload = _spin_cayley_at(tmp_path, capsys, theta, theta)
    assert code == 0
    closed = cl.CliffordElement.from_json(payload["closed_form"])
    assert (closed - cl.CliffordElement.from_json(payload["pr2"])).norm() <= 1e-11


@pytest.mark.parametrize("n", [7, 9, 10])
def test_spin_cayley_random_closed_form_matches_pr2(capsys, n):
    # odd n runs the chain of kept images in the padded Cl_{n+1}; n = 10 is the largest algebra
    from cayleymap import clifford as cl

    code, payload = run_json(capsys, "spin", "cayley", "--random", "--n", str(n), "--seed", "2")
    assert code == 0
    pr2 = cl.CliffordElement.from_json(payload["pr2"])
    assert (cl.CliffordElement.from_json(payload["closed_form"]) - pr2).norm() <= 1e-8 * pr2.norm()


@pytest.mark.parametrize(
    "argv, message",
    [
        (["spin", "cayley", "--random"], "--random needs --n"),
        (["spin", "action", "--random"], "--random needs --n"),
        (["spin", "cayley"], "provide --element FILE or --random"),
        (["spin", "action", "--n", "4"], "provide --element FILE or --random"),
        (["spin", "exp"], "spin exp needs --element FILE"),
    ],
)
def test_spin_usage_errors(capsys, argv, message):
    assert cli.main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and f"error: {message}" in captured.err


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
    for text in ("diag(1,,2)", "diag(1, 2,)", "diag(,1)", "diag()"):
        # an empty entry is an error, not a dropped entry
        assert cli.main(["map", "--group", "sl", "--n", "2", "--element", text]) == 2
        assert f"error: empty entry in {text!r}" in capsys.readouterr().err
    assert cli.main(["map", "--group", "sl", "--n", "2"]) == 2
    capsys.readouterr()
    assert cli.main(["verify", "--suite", "nope"]) == 2
    capsys.readouterr()


@pytest.mark.parametrize(
    "argv",
    [
        ["map", "--group", "sl", "--n", "2", "--sample", "generic"],
        ["fiber", "--family", "sl", "--n", "3", "--random"],
        ["verify", "--suite", "clifford", "--trials", "1"],
        ["spin", "cayley", "--random", "--n", "4"],
    ],
)
def test_negative_seed_is_a_usage_error_naming_the_option(capsys, argv):
    assert cli.main([*argv, "--seed", "-1"]) == 2
    assert "argument --seed: must be a non-negative integer, got '-1'" in capsys.readouterr().err


def test_tol_is_a_verify_option(capsys):
    # only verify reads --tol; elsewhere it is an unknown option
    assert cli.main(["map", "--group", "sl", "--n", "2", "--element", "identity 2", "--tol", "2"]) == 2
    assert "unrecognized arguments: --tol 2" in capsys.readouterr().err
    assert cli.main(["verify", "--suite", "nope", "--tol", "2"]) == 2
    assert "error: unknown suite 'nope'" in capsys.readouterr().err


@pytest.mark.parametrize(
    "option, value", [("--trials", "-3"), ("--trials", "0"), ("--tol", "nan"), ("--tol", "inf"), ("--tol", "0"), ("--tol", "-1")]
)
def test_verify_rejects_bad_trials_and_tol(capsys, option, value):
    # run_suite's ValueError: exit 2 before any suite runs, for one suite or all
    for suite in ("inequality", "all"):
        assert cli.main(["verify", "--suite", suite, option, value]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "must be" in captured.err


def test_map_and_jacobian_accept_singular_matrices(capsys):
    # the projection is linear in M(g), so any square matrix has an image;
    # only psi --inverse needs an invertible element
    code, payload = run_json(capsys, "map", "--group", "sl", "--n", "2", "--element", "diag(0,0)")
    assert code == 0
    assert payload["coords"]["coords_re"] == payload["coords"]["coords_im"] == [0.0] * 3
    assert not np.any(linalg.matrix_from_json(payload["matrix"]))
    code, payload = run_json(capsys, "jacobian", "--group", "sl", "--n", "2", "--element", "diag(0,0)")
    assert code == 0
    assert cli.main(["psi", "--group", "sl", "--n", "2", "--element", "diag(0,0)", "--inverse"]) == 3
    assert "error: SingularMatrix" in capsys.readouterr().err


def test_exit_code_math_errors(capsys):
    assert cli.main(["fiber", "--family", "spin", "--n", "3", "--target", "identity 3"]) == 3
    capsys.readouterr()
    assert cli.main(["fiber", "--family", "sl", "--n", "2", "--target", "diag(1,1)"]) == 3
    capsys.readouterr()
    # inverting a singular element is a failed precondition, not a usage error
    assert cli.main(["psi", "--group", "sl", "--n", "2", "--element", "diag(0,1)", "--inverse"]) == 3
    assert "error: SingularMatrix: element is singular" in capsys.readouterr().err


def test_math_errors_print_the_value_and_its_threshold(capsys):
    assert cli.main(["fiber", "--family", "spin", "--n", "3", "--target", "diag(1,2,3)"]) == 3
    assert capsys.readouterr().err == (
        "error: NotSkew: spin fiber target must be skew-symmetric: |X + X^T| 7.48e+00 > threshold 3.74e-10\n"
    )


@pytest.mark.parametrize("command", ["action", "cayley", "exp"])
def test_spin_commands_refuse_a_file_whose_norm_overflows(tmp_path, capsys, command):
    # one z1z2 coefficient of 1e300: exit 3 naming NotInSpin, with no numpy warning
    coeffs = [0.0] * 16
    coeffs[0b11] = 1e300
    path = tmp_path / "big.json"
    path.write_text(json.dumps({"n": 4, "coeffs_re": coeffs}))
    assert cli.main(["spin", command, "--element", str(path)]) == 3
    assert "error: NotInSpin: " in capsys.readouterr().err


def _write(path, payload):
    path.write_text(json.dumps(payload))
    return str(path)


@pytest.mark.parametrize(
    "argv", [["map", "--group", "sl", "--n", "2", "--element", "diag(2,0.5)"], ["verify", "--suite", "inequality", "--trials", "1"]]
)
def test_an_unwritable_report_path_is_a_usage_error(tmp_path, capsys, argv):
    # exit 2, not verify's failure code 1, with nothing on stdout, the path and the OS error on one line and
    # no traceback
    path = str(tmp_path / "missing" / "x.json")
    assert cli.main([*argv, "--report", path]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: cannot write report to {path!r}: [Errno 2] No such file or directory: {path!r}\n"


@pytest.mark.parametrize("n", [4.7, True, "4", None])
def test_a_size_that_is_not_a_json_integer_is_a_usage_error(tmp_path, capsys, n):
    # int() read 4.7 as 4 and true as 1, and ran on
    spin = _write(tmp_path / "g.json", {"n": n, "coeffs_re": [1.0] + [0.0] * 15})
    matrix = _write(tmp_path / "m.json", {"n": n, "re": [[1.0, 0.0], [0.0, 1.0]]})
    for argv, what, path in (
        (["spin", "action", "--element", spin], "spin element", spin),
        (["map", "--group", "sl", "--n", "2", "--element", matrix], "matrix", matrix),
    ):
        assert cli.main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: cannot load {what} from {path!r}: n must be an integer, got {n!r}\n"


@pytest.mark.parametrize(
    "payload, field, length",
    [
        ({"coeffs_re": [1.0, 0.0, 0.0, 0.0], "coeffs_im": [0.0, 0.0, 0.0]}, "coeffs_im", 3),
        ({"coeffs_re": [1.0, 0.0, 0.0], "coeffs_im": [0.0, 0.0, 0.0, 0.0]}, "coeffs_re", 3),
        ({"coeffs_re": [1.0, 0.0, 0.0, 0.0, 0.0]}, "coeffs_re", 5),
    ],
)
def test_a_clifford_payload_of_the_wrong_length_names_its_field(tmp_path, capsys, payload, field, length):
    # coeffs_re of 4 and coeffs_im of 3 exited 2 with numpy's broadcast error, which named neither
    path = _write(tmp_path / "g.json", {"n": 2, **payload})
    assert cli.main(["spin", "action", "--element", path]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    want = f"{field} must hold 2^n = 4 coefficients for n=2, got shape ({length},)"
    assert captured.err == f"error: cannot load spin element from {path!r}: {want}\n"


def test_finite_inputs_whose_results_overflow_are_refused(tmp_path, capsys):
    # each exits 3 with a typed error and no numpy warning (warnings are errors here)
    biv = [0.0] * 16
    biv[0b011] = biv[0b101] = 1e308
    so2 = {"n": 2, "re": [[0.0, 1.5e308], [-1.5e308, 0.0]]}
    cases = [
        (["spin", "exp", "--element", _write(tmp_path / "b.json", {"n": 4, "coeffs_re": biv})], "DegenerateInput"),
        (["map", "--group", "so", "--n", "2", "--element", _write(tmp_path / "so2.json", so2)], "DegenerateInput"),
        (["psi", "--group", "gl", "--n", "2", "--element", "diag(1e200,1e200)"], "DegenerateInput"),
        (["fiber", "--family", "spin", "--n", "3", "--target", "diag(1e160,2e160,3e160)"], "NotSkew"),
    ]
    # spin exp of n = 4 bivectors whose exponential, a discarded square and a twisted image overflow
    repros = [({3: 800.0}, "DegenerateInput"), ({3: 530.0, 12: 170.0}, "NotInSpin"), ({3: 355.0}, "NotInSpin")]
    for k, (planes, error) in enumerate(repros):
        im = [planes.get(mask, 0.0) for mask in range(16)]
        path = _write(tmp_path / f"e{k}.json", {"n": 4, "coeffs_re": [0.0] * 16, "coeffs_im": im})
        cases.append((["spin", "exp", "--element", path], error))
    for argv, error in cases:
        assert cli.main(argv) == 3
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith(f"error: {error}: ")


def test_jacobian_det_is_psis_guarded_determinant(capsys):
    # one determinant path: "det" equals psi where finite, and exits 3 where it overflows, with no numpy warning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert cli.main(["jacobian", "--group", "gl", "--n", "2", "--element", "diag(1e200,1e200)"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: DegenerateInput: Jacobian determinant is not finite: it overflows")
    args = ["--group", "sl", "--n", "3", "--sample", "generic", "--seed", "1"]
    code, jacobian = run_json(capsys, "jacobian", *args)
    assert code == 0 and jacobian["det"] == run_json(capsys, "psi", *args)[1]["psi"]


def test_jacobian_forms_one_jacobian_per_command(capsys, monkeypatch):
    # "matrix" and "det" come from one Jacobian, which psi's guard takes the determinant of
    from cayleymap import representation as rm

    calls = []

    def counted(rep, g):
        calls.append(rep.name)
        return jacobian(rep, g)

    jacobian = rm.cayley_jacobian
    monkeypatch.setattr(rm, "cayley_jacobian", counted)
    args = ["--group", "gl", "--n", "3", "--sample", "generic", "--seed", "2"]
    code, payload = run_json(capsys, "jacobian", *args)
    assert code == 0 and len(calls) == 1
    assert payload["det"] == run_json(capsys, "psi", *args)[1]["psi"] and len(calls) == 2
    assert cli.main(["jacobian", "--group", "gl", "--n", "2", "--element", "diag(1e200,1e200)"]) == 3
    assert len(calls) == 3


def test_spin_exp_rejects_non_bivector_file(tmp_path, capsys):
    from cayleymap import clifford as cl

    bad = tmp_path / "vector.json"
    bad.write_text(json.dumps(cl.basis_blade(3, 0b1).to_json()))
    assert cli.main(["spin", "exp", "--element", str(bad)]) == 2
    capsys.readouterr()


@pytest.mark.parametrize("bad", [np.nan, np.inf])
@pytest.mark.parametrize("command", ["exp", "action", "cayley"])
def test_spin_commands_reject_non_finite_files(tmp_path, capsys, command, bad):
    # json reads NaN and Infinity; a non-finite coefficient is a usage error,
    # not a NaN rotation
    from cayleymap import clifford as cl

    u = 0.3 * cl.basis_blade(2, 0b11)
    value = u if command == "exp" else cl.spin_exp(u).value
    payload = value.to_json()
    payload["coeffs_re"][3 if command == "exp" else 0] = bad
    path = tmp_path / "element.json"
    path.write_text(json.dumps(payload))
    assert cli.main(["spin", command, "--element", str(path)]) == 2
    out = capsys.readouterr()
    assert out.out == "" and "non-finite" in out.err


def test_element_dimension_mismatch(capsys):
    assert cli.main(["map", "--group", "sl", "--n", "3", "--element", "identity 2"]) == 2
    capsys.readouterr()


@pytest.mark.parametrize(
    "argv",
    [["map"], ["psi"], ["jacobian"], ["psi", "--inverse"]],
    ids=["map", "psi", "jacobian", "psi-inverse"],
)
def test_element_size_is_checked_before_any_math(capsys, argv):
    # a singular element of the wrong size: the size is reported before --inverse inverts it
    assert cli.main([*argv, "--group", "sl", "--n", "3", "--element", "diag(0,1)"]) == 2
    out = capsys.readouterr()
    assert out.out == "" and out.err == "error: element is 2x2, representation needs 3\n"
