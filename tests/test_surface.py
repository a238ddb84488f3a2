"""Every public top-level function of the package is reached from the library
or from the benchmark, so no surface exists only for the tests to call."""

import ast
from collections import Counter
from pathlib import Path

import cayleymap

SRC = Path(cayleymap.__file__).parent
BENCH = SRC.parents[1] / "bench"


def _identifiers(node) -> Counter:
    """Identifiers node refers to, by name: names, attributes, imported names
    and identifier strings, which is how a registry looks a function up
    (catalog.FAMILIES, the benchmark tracer's TARGETS)."""
    out = Counter()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            out[sub.id] += 1
        elif isinstance(sub, ast.Attribute):
            out[sub.attr] += 1
        elif isinstance(sub, ast.alias):
            out[sub.name.rpartition(".")[2]] += 1
        elif isinstance(sub, ast.Constant) and isinstance(sub.value, str) and sub.value.isidentifier():
            out[sub.value] += 1
    return out


def _unreferenced(modules: dict, callers: list) -> list:
    """module.name of each public top-level function in modules (name -> source)
    that nothing in callers (sources) names outside its own definition."""
    trees = {name: ast.parse(source) for name, source in modules.items()}
    seen = sum((_identifiers(ast.parse(source)) for source in callers), Counter())
    return [
        f"{module}.{stmt.name}"
        for module, tree in trees.items()
        for stmt in tree.body
        if isinstance(stmt, ast.FunctionDef) and not stmt.name.startswith("_")
        if seen[stmt.name] == _identifiers(stmt)[stmt.name]
    ]


def test_unreferenced_finds_a_test_only_function():
    lib = (
        "import numpy as np\n\n\ndef used(a):\n    return np.abs(a)\n\n\n"
        "def only_recursive(k):\n    return only_recursive(k - 1) if k else used(k)\n\n\n"
        "def _private():\n    pass\n\n\nTABLE = {'x': 'by_name'}\n\n\ndef by_name():\n    pass\n"
    )
    assert _unreferenced({"lib": lib}, [lib]) == ["lib.only_recursive"]


def test_every_public_function_has_a_library_or_benchmark_caller():
    modules = {path.stem: path.read_text(encoding="utf-8") for path in sorted(SRC.glob("*.py"))}
    bench = [path.read_text(encoding="utf-8") for path in sorted(BENCH.glob("*.py")) if not path.name.startswith("test_")]
    assert _unreferenced(modules, list(modules.values()) + bench) == []
