"""In-memory span tracer installed from outside the library.

Each wrapped callable records a span (id, parent id, name, start ns, end ns,
failed flag, meta) around the real call.  A wrapper replaces every module
attribute in the package that refers to the wrapped function, because
callers look functions up by name: `degree` binds `cayley_gamma` with a
`from ... import`, so wrapping only `clifford.cayley_gamma` would miss the
fiber calls.  Constructors and methods are wrapped on the class.

Self time of a span is its duration minus the time its child spans cover.
"""

from __future__ import annotations

import importlib
import json
import sys
import time

ID, PARENT, NAME, START, END, FAILED, META = range(7)

# (module, attribute, span name); "Class.method" wraps a method on the class.
TARGETS = [
    ("linalg", "solve_linear", "linalg.solve_linear"),
    ("linalg", "determinant", "linalg.determinant"),
    ("linalg", "matrix_exp", "linalg.matrix_exp"),
    ("linalg", "spectral", "linalg.spectral"),
    ("linalg", "poly_roots", "linalg.poly_roots"),
    ("linalg", "dedup_roots", "linalg.dedup_roots"),
    ("representation", "Representation.__init__", "representation.Representation"),
    ("representation", "Representation.structure_constants", "representation.structure_constants"),
    ("representation", "cayley", "representation.cayley"),
    ("representation", "cayley_jacobian", "representation.cayley_jacobian"),
    ("representation", "psi", "representation.psi"),
    ("representation", "adjoint_matrix", "representation.adjoint_matrix"),
    ("representation", "centralizer_dim", "representation.centralizer_dim"),
    ("representation", "multiplicative_jordan", "representation.multiplicative_jordan"),
    ("catalog", "make_sl", "catalog.make_sl"),
    ("catalog", "make_gl", "catalog.make_gl"),
    ("catalog", "make_so", "catalog.make_so"),
    ("catalog", "sample_element", "catalog.sample_element"),
    ("catalog", "direct_sum", "catalog.direct_sum"),
    ("catalog", "tensor", "catalog.tensor"),
    ("catalog", "dynkin_ratio", "catalog.dynkin_ratio"),
    ("clifford", "clifford_mul", "clifford.clifford_mul"),
    ("clifford", "exterior_mul", "clifford.exterior_mul"),
    ("clifford", "gamma_matrix", "clifford.gamma_matrix"),
    ("clifford", "spin_exp", "clifford.spin_exp"),
    ("clifford", "SpinElement.__init__", "clifford.SpinElement"),
    ("clifford", "vector_action", "clifford.vector_action"),
    ("clifford", "exterior_exp", "clifford.exterior_exp"),
    ("clifford", "cayley_gamma", "clifford.cayley_gamma"),
    ("clifford", "_Tables.__init__", "clifford.tables"),
    ("degree", "minimal_poly_coeffs", "degree.minimal_poly_coeffs"),
    ("degree", "sl_fiber", "degree.sl_fiber"),
    ("degree", "spin_fiber", "degree.spin_fiber"),
    ("suites", "run_suite", "suites"),
    ("cli", "main", "cli.main"),
]

# The per-function metrics; `clifford.tables`, `suites` and `cli.main` get
# their own names in the per-layer table.
FUNCTIONS = [name for _, _, name in TARGETS if name not in ("clifford.tables", "suites", "cli.main")]


def _meta_for(name, args, result):
    """Small per-span facts the coverage check and counters need."""
    if name == "degree.sl_fiber":
        return {"n": int(args[0])}
    if name == "degree.spin_fiber":
        return {
            "n": int(args[0]),
            "skipped": len(result.skipped_roots),
            "valid": len(result.valid_elements),
            "admissible": int(result.count),
        }
    return None


class Tracer:
    """Span recorder; `install` swaps wrappers in, `uninstall` restores."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._saved: list[tuple] = []

    # -- recording ----------------------------------------------------------

    def open(self, name: str, meta=None) -> list:
        rec = [len(self.spans), self._stack[-1] if self._stack else -1, name, 0, 0, 0, meta]
        self.spans.append(rec)
        self._stack.append(rec[ID])
        rec[START] = time.perf_counter_ns()
        return rec

    def close(self, rec: list, failed: bool = False) -> None:
        rec[END] = time.perf_counter_ns()
        rec[FAILED] = int(failed)
        self._stack.pop()

    def _wrap(self, fn, name: str):
        tracer = self
        dynamic = name == "suites"

        def wrapper(*args, **kwargs):
            rec = tracer.open(f"suites.{args[0]}" if dynamic else name)
            failed = True
            try:
                result = fn(*args, **kwargs)
                failed = False
            finally:
                tracer.close(rec, failed)
            rec[META] = _meta_for(name, args, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        """Wrap every target wherever a package module binds it by name."""
        owners = {modname: importlib.import_module(f"cayleymap.{modname}") for modname, _, _ in TARGETS}
        modules = [m for key, m in sys.modules.items() if key == "cayleymap" or key.startswith("cayleymap.")]
        for modname, attr, name in TARGETS:
            owner = owners[modname]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                original = cls.__dict__[meth]
                self._saved.append((cls, meth, original))
                setattr(cls, meth, self._wrap(original, name))
                continue
            original = getattr(owner, attr)
            wrapper = self._wrap(original, name)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._saved.append((mod, key, original))
                        setattr(mod, key, wrapper)

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._saved):
            setattr(owner, key, original)
        self._saved.clear()

    def dump(self, path: str) -> None:
        """Write spans as JSON lines: [id, parent, name, start_ns, end_ns, failed, meta]."""
        with open(path, "w", encoding="utf-8") as fh:
            for rec in self.spans:
                fh.write(json.dumps(rec) + "\n")


# --- analysis ------------------------------------------------------------------


def self_times(spans: list) -> list[int]:
    """Self time in ns of each span: duration minus its children's durations."""
    out = [rec[END] - rec[START] for rec in spans]
    for rec in spans:
        if rec[PARENT] >= 0:
            out[rec[PARENT]] -= rec[END] - rec[START]
    return out


def _children(spans: list) -> dict[int, list[int]]:
    children: dict[int, list[int]] = {}
    for rec in spans:
        children.setdefault(rec[PARENT], []).append(rec[ID])
    return children


def totals(spans: list, ids) -> dict:
    """Per-name [calls, fails, self_ns, total_ns, skipped, valid, admissible]
    over the spans in `ids` (root ids) and all of their descendants."""
    selected = set()
    children = _children(spans)
    todo = list(ids)
    while todo:
        sid = todo.pop()
        selected.add(sid)
        todo.extend(children.get(sid, ()))
    selfs = self_times(spans)
    out: dict[str, list] = {}
    for sid in selected:
        rec = spans[sid]
        row = out.setdefault(rec[NAME], [0, 0, 0, 0, 0, 0, 0])
        row[0] += 1
        row[1] += rec[FAILED]
        row[2] += selfs[sid]
        row[3] += rec[END] - rec[START]
        meta = rec[META] or {}
        row[4] += meta.get("skipped", 0)
        row[5] += meta.get("valid", 0)
        row[6] += meta.get("admissible", 0)
    return out


def descendant_counts(spans: list, root: int, children: dict) -> dict:
    counts: dict[str, int] = {}
    todo = list(children.get(root, ()))
    while todo:
        sid = todo.pop()
        counts[spans[sid][NAME]] = counts.get(spans[sid][NAME], 0) + 1
        todo.extend(children.get(sid, ()))
    return counts


# Exact call counts of the current library, checked on every traced run so a
# wrapper that stops catching calls shows up as a mismatch rather than as a
# silently cheaper layer.  Rules: span name -> (expected descendant counts).
# The set-up span carries the calls its workload's set-up must make
# (ops.Workload.setup_calls).
COVERAGE_RULES = {
    "bench.setup": lambda meta: meta["calls"],
    "representation.cayley": lambda meta: {"linalg.solve_linear": 1},
    "representation.psi": lambda meta: {"linalg.solve_linear": 1, "linalg.determinant": 1},
    "degree.sl_fiber": lambda meta: {"linalg.determinant": meta["n"] + 1},
    "bench.spin_chain": lambda meta: {"clifford.clifford_mul": 4 * meta["n"] + 1},
}


def coverage(spans: list, required: list[str]) -> dict:
    """Check COVERAGE_RULES on every matching span.

    Returns {rule: [checked, mismatched]}; a rule in `required` that checked
    no span at all counts as one mismatch, since its wrapper caught nothing.
    """
    children = _children(spans)
    report = {name: [0, 0] for name in COVERAGE_RULES}
    for rec in spans:
        rule = COVERAGE_RULES.get(rec[NAME])
        if rule is None or rec[FAILED]:
            continue
        expected = rule(rec[META] or {})
        got = descendant_counts(spans, rec[ID], children)
        report[rec[NAME]][0] += 1
        if any(got.get(k, 0) != v for k, v in expected.items()):
            report[rec[NAME]][1] += 1
    for name in required:
        if report[name][0] == 0:
            report[name][1] += 1
    return report
