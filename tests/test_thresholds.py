"""Every numerical decision that raises goes through errors.raise_if, and every
tolerance it compares against is a named module-level constant."""

import ast
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

import cayleymap
from cayleymap import catalog, clifford as cl, degree, errors, linalg
from cayleymap import representation as rm
from cayleymap.errors import (
    ClusterAmbiguity,
    DegenerateForm,
    DegenerateInput,
    IncompatibleAlgebras,
    NotASubalgebra,
    NotEquivariant,
    NotInSpin,
    NotProportional,
    NotSkew,
    SingularMatrix,
    SingularShift,
)

SRC = Path(cayleymap.__file__).parent
SL3 = catalog.make_sl(3)


def _spin6_volume_rotor(_):
    # cos t + sin t z_1...z_6 is even with g alpha(g) = 1 (alpha negates the
    # volume element, whose square is -1), but it anticommutes with vectors,
    # so g z_1 alpha(g) has a degree-5 part: it is not in Spin(6)
    g = cl.scalar(6, np.cos(0.3)) + cl.basis_blade(6, 0b111111) * np.sin(0.3)
    cl.SpinElement(g)


def _half_turn_shift(_):
    # 1 + T for T a half turn short by 1e-10: condition number 1, but the
    # transform (1 - T)(1 + T)^-1 exceeds (1 + |T|)/RTOL
    a = np.pi - 1e-10
    cl.cayley_gamma(np.array([[np.cos(a), -np.sin(a)], [np.sin(a), np.cos(a)]]))


# (function holding the raise_if call, trigger, error, side of the threshold the value falls on)
SITES = {
    "build_gram": (lambda _: rm.build_gram(np.array([np.eye(2), np.eye(2)])), DegenerateForm, "<"),
    "_check_closure": (
        lambda _: rm.Representation("open", [np.array([[0.0, 1.0], [0.0, 0.0]]), np.array([[0.0, 0.0], [1.0, 0.0]])]),
        NotASubalgebra,
        ">",
    ),
    "adjoint_matrix": (
        lambda _: rm.adjoint_matrix(rm.restrict_to_subalgebra(SL3, [0, 1]), catalog.sample_element(SL3, "generic", 0)),
        NotEquivariant,
        ">",
    ),
    # clusters 1.5e-6 apart at threshold 1e-6 |a| = 1.41e-6: separate, but within twice the threshold
    "_spectral_checked": (lambda _: rm.additive_jordan(np.diag([1.0, 1.0 + 1.5e-6])), ClusterAmbiguity, "<"),
    "_unipotent_split": (lambda _: rm.multiplicative_jordan(np.diag([1.0, 0.0])), SingularMatrix, "<"),
    "_require_same_algebra": (
        lambda _: catalog.direct_sum(catalog.make_sl(2), catalog.make_so(3)),
        IncompatibleAlgebras,
        ">",
    ),
    "dynkin_ratio/residual": (
        lambda _: catalog.dynkin_ratio(catalog.tensor(catalog.make_gl(2), catalog.make_gl(2)), catalog.make_gl(2)),
        NotProportional,
        ">",
    ),
    # a one-dimensional algebra has no structure constants; its trace form is e^(i pi/4) times gl1's
    "dynkin_ratio/real": (
        lambda _: catalog.dynkin_ratio(rm.Representation("twisted", [[[np.exp(1j * np.pi / 8)]]]), catalog.make_gl(1)),
        NotProportional,
        ">",
    ),
    "_require_degree": (lambda _: cl.spin_exp(cl.basis_blade(3, 0b1)), ValueError, ">"),
    "_validate/odd": (lambda _: cl.SpinElement(cl.basis_blade(3, 0b1)), NotInSpin, ">"),
    "_validate/unit": (lambda _: cl.SpinElement(cl.scalar(3, 2.0)), NotInSpin, ">"),
    # SPIN_TOL |g|^2 overflows at |g| = 1e300: refused on the norm against the largest that does not
    "_validate/overflow": (lambda _: cl.SpinElement(cl.basis_blade(4, 0b11) * 1e300), NotInSpin, ">"),
    "_twisted_images": (_spin6_volume_rotor, NotInSpin, ">"),
    # tau_inv and the spin fiber target check share this rule; test_skew_rule_refuses_for_each_caller triggers both
    "require_skew": (lambda _: cl.tau_inv(np.eye(3)), NotSkew, ">"),
    # 1 + b = diag(1, 1e-12): condition number 1e12
    "cayley_gamma/cond": (lambda _: cl.cayley_gamma(np.diag([0.0, 1e-12 - 1.0])), SingularShift, ">"),
    "cayley_gamma/norm": (_half_turn_shift, SingularShift, ">"),
    "_fiber_poly/trace": (
        lambda _: degree.minimal_poly_coeffs("sl", 3, np.diag([1.0, 2.0, 3.0])),
        DegenerateInput,
        ">",
    ),
}


@pytest.mark.parametrize("site", SITES)
def test_each_decision_raises_with_its_value_and_threshold(site, monkeypatch):
    trigger, error, side = SITES[site]
    with pytest.raises(error) as err:
        trigger(monkeypatch)
    exc = err.value
    assert type(exc) is error
    assert np.isfinite(exc.value) and np.isfinite(exc.threshold)
    assert exc.value > exc.threshold if side == ">" else exc.value < exc.threshold
    assert f"{exc.value:.2e} {side} threshold {exc.threshold:.2e}" in str(exc)


def _raise_if_callers(source: str) -> list:
    """Names of the functions holding each errors.raise_if call in source."""
    callers = []
    for fn in ast.walk(ast.parse(source)):
        if isinstance(fn, ast.FunctionDef):
            for node in ast.walk(fn):
                if isinstance(node, ast.Call):
                    if "raise_if" in (getattr(node.func, "id", None), getattr(node.func, "attr", None)):
                        callers.append(fn.name)
    return callers


def test_every_raise_if_call_is_triggered():
    calls = Counter(name for path in SRC.glob("*.py") for name in _raise_if_callers(path.read_text(encoding="utf-8")))
    assert calls == Counter(site.split("/")[0] for site in SITES)


def test_skew_rule_refuses_for_each_caller():
    # one raise_if call, clifford.require_skew, states the rule for tau_inv and the spin fiber target
    s = np.diag([1.0, 2.0, 3.0])
    callers = {
        "matrix is not skew-symmetric: |s + s^T|": cl.tau_inv,
        "spin fiber target must be skew-symmetric: |X + X^T|": lambda x: degree.minimal_poly_coeffs("spin", 3, x),
    }
    for head, caller in callers.items():
        with pytest.raises(NotSkew) as err:
            caller(s)
        assert err.value.value == np.linalg.norm(s + s.T)
        assert err.value.threshold == cl.SKEW_TOL * np.linalg.norm(s) + 3 * linalg.ROUNDING_FLOOR
        assert str(err.value).startswith(f"{head} 7.48e+00 > threshold 3.74e-10")


def test_raise_if_is_silent_when_the_test_passes():
    errors.raise_if(False, NotSkew, "never raised:", float("nan"), 1.0)
    assert errors.CayleyMapError().value is None and errors.CayleyMapError().threshold is None


def _bare_small_floats(source: str) -> list:
    """Line numbers of nonzero float literals below 1e-3 in magnitude outside a
    module-level assignment: a tolerance that the threshold table would miss."""
    tree = ast.parse(source)
    named = {id(node) for stmt in tree.body if isinstance(stmt, (ast.Assign, ast.AnnAssign)) for node in ast.walk(stmt)}
    return [
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, ast.Constant)
        and type(node.value) is float
        and 0.0 < abs(node.value) < 1e-3
        and id(node) not in named
    ]


def test_bare_small_floats_finds_an_inline_tolerance():
    source = "TOL = 1e-8\nSCALE = 2.0 * 1e-9\n\n\ndef f(a):\n    return a > 1e-8 or a < -5e-4 or a == 0.0 or a > 0.5\n"
    assert _bare_small_floats(source) == [6, 6]


def test_no_bare_tolerance_literal_outside_suites():
    # suites.py is excluded: its claim tolerances are a table of their own
    bare = {
        path.name: lines
        for path in sorted(SRC.glob("*.py"))
        if path.name != "suites.py" and (lines := _bare_small_floats(path.read_text(encoding="utf-8")))
    }
    assert bare == {}


def test_readme_table_lists_every_threshold_constant():
    readme = (SRC.parents[1] / "README.md").read_text(encoding="utf-8")
    rows = {line.split("|")[1].strip() for line in readme.splitlines() if line.startswith("| `")}
    names = {
        f"`{path.stem}.{target.id}`"
        for path in SRC.glob("*.py")
        if path.name != "suites.py"
        for stmt in ast.parse(path.read_text(encoding="utf-8")).body
        if isinstance(stmt, ast.Assign)
        for target in stmt.targets
        if isinstance(target, ast.Name) and target.id.endswith(("TOL", "FLOOR", "CUTOFF", "THETA"))
    }
    assert {"`linalg.RTOL`", "`representation.CLOSURE_TOL`", "`degree.FIBER_CHECK_TOL`"} <= names
    assert names == rows
