"""Command-line harness.

Commands: map, psi, jacobian, fiber, verify, spin (exp / action / cayley).
Exit codes: 0 success, 1 verification failure, 2 usage or parse error,
3 mathematical precondition failure.  Reports are JSON (sorted keys) or
flattened CSV; identical invocations produce byte-identical output.
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from . import catalog, clifford as cl, degree, linalg, suites
from . import representation as rm
from .errors import CayleyMapError

USAGE_ERROR = 2
MATH_ERROR = 3


class UsageError(Exception):
    """Malformed input: bad expression, unreadable file, wrong shape."""


def _parse_scalar(text: str) -> complex:
    txt = text.strip().replace("i", "j")
    try:
        return complex(txt)
    except ValueError as exc:
        raise UsageError(f"cannot parse scalar {text!r}") from exc


def parse_matrix_arg(text: str) -> np.ndarray:
    """diag(...) or identity N shorthand, else a path to a matrix JSON file."""
    s = text.strip()
    if s.startswith("diag(") and s.endswith(")"):
        values = [_parse_scalar(v) for v in s[5:-1].split(",") if v.strip()]
        if not values:
            raise UsageError("diag() needs at least one entry")
        return np.diag(np.array(values, dtype=complex))
    if s.startswith("identity"):
        rest = s[len("identity"):].strip(" ()")
        try:
            return np.eye(int(rest), dtype=complex)
        except ValueError as exc:
            raise UsageError(f"cannot parse identity size in {text!r}") from exc
    return _load_json(s, "matrix", linalg.matrix_from_json)


def _load_json(path: str, what: str, parse):
    """parse(payload) of the JSON file at path; any failure is a usage error."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return parse(json.load(fh))
    except (OSError, json.JSONDecodeError, KeyError, ValueError, TypeError) as exc:
        raise UsageError(f"cannot load {what} from {path!r}: {exc}") from exc


def _build_rep(args):
    key = catalog.FAMILIES[args.group][1]
    size = getattr(args, key)
    if size is None:
        raise UsageError(f"--{key} is required for --group {args.group}")
    return catalog.make(args.group, size)


def _element_for(args, rep):
    if args.element is not None:
        m = parse_matrix_arg(args.element)
        if m.shape[0] != rep.v_dim:
            raise UsageError(f"element is {m.shape[0]}x{m.shape[0]}, representation needs {rep.v_dim}")
        return rm.GroupElement(m)
    if args.sample is not None:
        return catalog.sample_element(rep, args.sample, args.seed)
    raise UsageError("provide --element or --sample KIND")


def _emit(payload: dict, args) -> None:
    if getattr(args, "format", "json") == "csv":
        text = _flatten_csv(payload)
    else:
        text = json.dumps(payload, sort_keys=True, indent=2) + "\n"
    sys.stdout.write(text)
    if getattr(args, "report", None):
        with open(args.report, "w", encoding="utf-8") as fh:
            fh.write(text)


def _flatten_csv(payload: dict) -> str:
    if "suites" in payload:
        lines = ["suite,claim,trial,residual,tolerance,pass"]
        for suite in payload["suites"]:
            for rec in suite["records"]:
                lines.append(
                    f"{suite['suite']},{rec['claim']},{rec['trial']},"
                    f"{rec['residual']!r},{rec['tolerance']!r},{int(rec['pass'])}"
                )
        return "\n".join(lines) + "\n"
    # generic fallback: one key,value row per leaf, nested keys joined by dots
    rows = [f"{key},{value}" for key, value in _csv_leaves(payload)]
    return "\n".join(["key,value", *rows]) + "\n"


def _csv_leaves(value, path: str = ""):
    """(dotted key, scalar) pairs of a JSON value; dict keys sorted, list items by index."""
    if not isinstance(value, (dict, list)):
        yield path, value
        return
    items = sorted(value.items()) if isinstance(value, dict) else enumerate(value)
    for key, child in items:
        yield from _csv_leaves(child, f"{path}.{key}" if path else str(key))


# --- commands ---------------------------------------------------------------


def cmd_map(args) -> int:
    rep = _build_rep(args)
    g = _element_for(args, rep)
    vec = rm.cayley(rep, g)
    _emit(
        {
            "command": "map",
            "group": rep.name,
            "coords": vec.to_json(),
            "matrix": linalg.matrix_to_json(vec.matrix()),
        },
        args,
    )
    return 0


def cmd_psi(args) -> int:
    rep = _build_rep(args)
    g = _element_for(args, rep)
    m = g.matrix
    if args.inverse:
        m = np.linalg.inv(m)
    value = rm.psi(rep, m)
    payload = {"command": "psi", "group": rep.name, "inverse": bool(args.inverse), "psi": linalg.complex_to_json(value)}
    _emit(payload, args)
    return 0


def cmd_jacobian(args) -> int:
    rep = _build_rep(args)
    g = _element_for(args, rep)
    jac = rm.cayley_jacobian(rep, g)
    _emit(
        {
            "command": "jacobian",
            "group": rep.name,
            "matrix": linalg.matrix_to_json(jac),
            "det": linalg.complex_to_json(linalg.determinant(jac)),
        },
        args,
    )
    return 0


def cmd_fiber(args) -> int:
    if args.target is not None:
        target = parse_matrix_arg(args.target)
    elif args.random:
        rng = np.random.default_rng(np.random.SeedSequence([args.seed, 0xF1BE7]))
        if args.family == "sl":
            target = degree.random_trace_free(args.n, rng)
        else:
            target = degree.random_skew(args.n, rng)
    else:
        raise UsageError("provide --target or --random")
    if args.family == "sl":
        report = degree.sl_fiber(args.n, target)
    else:
        report = degree.spin_fiber(args.n, target)
    payload = report.to_json()
    payload["command"] = "fiber"
    _emit(payload, args)
    return 0


def cmd_verify(args) -> int:
    names = sorted(suites.SUITES) if args.suite == "all" else [args.suite]
    if args.suite != "all" and args.suite not in suites.SUITES:
        raise UsageError(f"unknown suite {args.suite!r}; choose from {sorted(suites.SUITES)} or 'all'")
    results = [suites.run_suite(n, trials=args.trials, seed=args.seed, tol_scale=args.tol) for n in names]
    failures = sum(r.failures for r in results)
    payload = {
        "command": "verify",
        "suite": args.suite,
        "seed": args.seed,
        "trials": args.trials,
        "tol_scale": args.tol,
        "failures": failures,
        "claims": suites.claim_statements(),
        "suites": [r.to_json() for r in results],
    }
    _emit(payload, args)
    return 0 if failures == 0 else 1


def _spin_element_for(args) -> cl.SpinElement:
    if args.element is not None:
        return cl.SpinElement(_load_json(args.element, "spin element", cl.CliffordElement.from_json))
    if args.random:
        if args.n is None:
            raise UsageError("--random needs --n")
        rng = np.random.default_rng(np.random.SeedSequence([args.seed, 0x5919]))
        return cl.spin_exp(cl.random_bivector(args.n, rng))
    raise UsageError("provide --element FILE or --random")


def cmd_spin_exp(args) -> int:
    if args.element is None:
        raise UsageError("spin exp needs --element FILE with bivector coefficients")
    g = cl.spin_exp(_load_json(args.element, "bivector", cl.CliffordElement.from_json))
    _emit({"command": "spin-exp", "element": g.value.to_json()}, args)
    return 0


def cmd_spin_action(args) -> int:
    g = _spin_element_for(args)
    _emit({"command": "spin-action", "rotation": linalg.matrix_to_json(cl.vector_action(g))}, args)
    return 0


def cmd_spin_cayley(args) -> int:
    g = _spin_element_for(args)
    pr0 = cl.spin_scalar(g)
    pr2 = cl.spin_cayley(g)
    payload = {
        "command": "spin-cayley",
        "pr0": linalg.complex_to_json(pr0),
        "pr2": pr2.to_json(),
    }
    t = cl.vector_action(g)
    if abs(np.linalg.det(np.eye(g.n) + t)) > 1e-9:
        closed = -2.0 * pr0 * cl.tau_inv(cl.cayley_gamma(t))
        payload["closed_form"] = closed.to_json()
    _emit(payload, args)
    return 0


# --- parser -----------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--seed", type=int, default=0, help="deterministic sampling seed")
    common.add_argument("--tol", type=float, default=1.0, help="multiplicative scale on verification tolerances")
    common.add_argument("--format", choices=("json", "csv"), default="json")
    common.add_argument("--report", metavar="PATH", help="also write the output to PATH")

    selectors = argparse.ArgumentParser(add_help=False)
    selectors.add_argument("--group", required=True, choices=tuple(catalog.FAMILIES))
    selectors.add_argument("--n", type=int, default=2)
    selectors.add_argument("--m", type=int, default=None, help="irrep label for sl2_irrep")
    selectors.add_argument("--element", help="diag(...), identity N, or matrix JSON path")
    selectors.add_argument("--sample", choices=catalog.SAMPLE_KINDS, help="draw a seeded element")

    parser = argparse.ArgumentParser(
        prog="cayleymap",
        description="Trace-form projection maps from matrix groups to their Lie algebras",
    )
    sub = parser.add_subparsers(dest="cmd", required=True)

    p = sub.add_parser("map", parents=[common, selectors], help="project an element onto the algebra")
    p.set_defaults(fn=cmd_map)

    p = sub.add_parser("psi", parents=[common, selectors], help="Jacobian determinant of the projection")
    p.add_argument("--inverse", action="store_true", help="evaluate at the inverse element")
    p.set_defaults(fn=cmd_psi)

    p = sub.add_parser("jacobian", parents=[common, selectors], help="full Jacobian matrix at an element")
    p.set_defaults(fn=cmd_jacobian)

    p = sub.add_parser("fiber", parents=[common], help="fiber polynomial, roots and elements over a target")
    p.add_argument("--family", required=True, choices=("sl", "spin"))
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--target", help="matrix JSON path or diag(...) shorthand")
    p.add_argument("--random", action="store_true", help="draw a random generic target")
    p.set_defaults(fn=cmd_fiber)

    p = sub.add_parser("verify", parents=[common], help="run a property-verification suite")
    p.add_argument("--suite", default="all", help="suite name or 'all'")
    p.add_argument("--trials", type=int, default=50)
    p.set_defaults(fn=cmd_verify)

    p = sub.add_parser("spin", help="Clifford-algebra spin operations")
    spin_sub = p.add_subparsers(dest="spin_cmd", required=True)
    q = spin_sub.add_parser("exp", parents=[common], help="Clifford exponential of a bivector")
    q.add_argument("--element", help="bivector JSON path")
    q.set_defaults(fn=cmd_spin_exp)
    q = spin_sub.add_parser("action", parents=[common], help="rotation induced by a spin element")
    q.add_argument("--element", help="spin element JSON path")
    q.add_argument("--n", type=int, help="dimension for --random")
    q.add_argument("--random", action="store_true")
    q.set_defaults(fn=cmd_spin_action)
    q = spin_sub.add_parser("cayley", parents=[common], help="scalar and bivector parts with the closed form")
    q.add_argument("--element", help="spin element JSON path")
    q.add_argument("--n", type=int, help="dimension for --random")
    q.add_argument("--random", action="store_true")
    q.set_defaults(fn=cmd_spin_cayley)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors and 0 on --help
        return int(exc.code or 0)
    try:
        return args.fn(args)
    # numpy's LinAlgError (a singular element, say) subclasses ValueError but
    # is a failed mathematical precondition, not a usage error
    except (CayleyMapError, np.linalg.LinAlgError) as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return MATH_ERROR
    except (UsageError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR


if __name__ == "__main__":
    sys.exit(main())
